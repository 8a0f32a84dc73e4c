"""Keyword feature extraction from rescue notes.

Tokenizes free-text notes, counts words against a stop list, and assigns
one feature per keyword category with negation scoping: a keyword hit is
suppressed when a negation word appears within ``negation_window`` tokens
before it inside the same sentence.

Lexicon file format (plain text): ``[category:<name>]``, ``[stopwords]``,
``[negation]`` and ``[settings]`` sections, one entry per line, ``#``
comments. See ``data/default_lexicon.txt`` for the shipped defaults.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .records import RescueRecord, TextFeatures, TEXT_FEATURE_NAMES

log = logging.getLogger(__name__)

# Sentence-boundary marker emitted by tokenize(). Word tokens never contain
# punctuation, so the marker cannot collide with them.
BOUNDARY = "."

CATEGORY_NAMES = TEXT_FEATURE_NAMES

# decimals first so "13.5" stays one token instead of spawning a boundary
_TOKEN_RE = re.compile(r"\d+[.,]\d+|[^\W_]+|[.!?;]", re.UNICODE)


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class KeywordCategory:
    """One text feature: a named, deduplicated lowercase keyword list.

    Every keyword must tokenize as written (``tokenize`` gives its
    whitespace split), since it could never match otherwise; ``phrases``
    holds each keyword's token tuple, in keyword order.
    """

    name: str
    keywords: tuple[str, ...]
    phrases: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in CATEGORY_NAMES:
            raise LexiconError(f"unknown category {self.name!r}")
        if not self.keywords:
            raise LexiconError(f"category {self.name!r} has no keywords")
        cleaned = []
        seen = set()
        for kw in self.keywords:
            kw = kw.strip().lower()
            if not kw:
                raise LexiconError(f"empty keyword in category {self.name!r}")
            tokens = tokenize(kw)
            if tokens != kw.split():
                raise LexiconError(
                    f"keyword {kw!r} in category {self.name!r} can never match: it tokenizes as {tokens}"
                )
            if kw not in seen:
                seen.add(kw)
                cleaned.append(kw)
        object.__setattr__(self, "keywords", tuple(cleaned))
        object.__setattr__(self, "phrases", tuple(tuple(kw.split()) for kw in cleaned))


@dataclass(frozen=True)
class Lexicons:
    """Stop words, negation words and the in-sentence negation window."""

    stop_words: frozenset[str] = frozenset()
    negation_words: frozenset[str] = frozenset()
    negation_window: int = 3

    def __post_init__(self):
        if self.negation_window < 1:
            raise LexiconError("negation_window must be >= 1")
        object.__setattr__(self, "stop_words", frozenset(w.lower() for w in self.stop_words))
        object.__setattr__(self, "negation_words", frozenset(w.lower() for w in self.negation_words))


def validate_lexicons(categories: Sequence[KeywordCategory], lex: Lexicons) -> list[str]:
    """Check cross-lexicon invariants; returns warning strings for soft issues.

    Stop and negation sets must be disjoint from every category keyword
    (hard error). Keywords shared between categories are reported as
    warnings and kept as shipped.
    """
    all_keywords = {kw for cat in categories for kw in cat.keywords}
    clash = (lex.stop_words | lex.negation_words) & all_keywords
    if clash:
        raise LexiconError(f"stop/negation words collide with keywords: {sorted(clash)}")

    warnings = []
    seen: dict[str, str] = {}
    for cat in categories:
        for kw in cat.keywords:
            if kw in seen and seen[kw] != cat.name:
                warnings.append(f"keyword {kw!r} appears in both {seen[kw]!r} and {cat.name!r}")
            else:
                seen[kw] = cat.name
    for w in warnings:
        log.warning("%s", w)
    return warnings


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation.

    Punctuation, quotations and brackets are dropped; sentence-ending
    characters (. ! ? ;) are collapsed into BOUNDARY markers. Empty input
    gives an empty list.
    """
    tokens: list[str] = []
    for m in _TOKEN_RE.finditer(text.lower()):
        tok = m.group(0)
        if tok in ".!?;":
            if tokens and tokens[-1] != BOUNDARY:
                tokens.append(BOUNDARY)
        else:
            tokens.append(tok)
    return tokens


def word_count(corpus: Iterable[Sequence[str]], lex: Lexicons, min_count: int = 50) -> dict[str, int]:
    """Count non-stop-word tokens across the corpus.

    Returns only words seen at least ``min_count`` times, ordered by count
    descending, then lexicographically.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(
            t for t in tokens if t != BOUNDARY and t not in lex.stop_words
        )
    kept = [(w, c) for w, c in counts.items() if c >= min_count]
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    return dict(kept)


def _negated(tokens: Sequence[str], start: int, lex: Lexicons) -> bool:
    """True when a negation word sits within the window before tokens[start],
    without an intervening sentence boundary."""
    back = 0
    i = start - 1
    while i >= 0 and back < lex.negation_window:
        tok = tokens[i]
        if tok == BOUNDARY:
            return False
        if tok in lex.negation_words:
            return True
        back += 1
        i -= 1
    return False


_Entry = tuple[int, int, tuple[str, ...], str]


@cache
def _phrase_index(categories: tuple[KeywordCategory, ...]) -> dict[str, list[_Entry]]:
    """Map each phrase's first token to its ``(length, slot, phrase, keyword)``
    entries, where slot is the category's position in ``categories``.

    Entries run longest first; within a length, in category then keyword
    order, so the first entry of a slot that matches is the one the category
    takes at that position.
    """
    entries = [
        (len(phrase), slot, phrase, kw)
        for slot, cat in enumerate(categories)
        for kw, phrase in zip(cat.keywords, cat.phrases)
    ]
    entries.sort(key=lambda e: -e[0])
    index: dict[str, list[_Entry]] = {}
    for entry in entries:
        index.setdefault(entry[2][0], []).append(entry)
    return index


def _scan(tokens: Sequence[str], categories: tuple[KeywordCategory, ...], lex: Lexicons) -> list[Optional[str]]:
    """The first unnegated keyword of each category, in one pass over the tokens.

    At each position the longest phrase of every still-empty category that
    matches there is a hit; the position is checked for negation once, and
    an unnegated hit fills its category. A negated hit does not stop the
    scan: a later unnegated occurrence still matches. The scan ends once
    every category is filled.
    """
    index = _phrase_index(categories)
    found: list[Optional[str]] = [None] * len(categories)
    left = len(categories)
    for i, tok in enumerate(tokens):
        entries = index.get(tok)
        if entries is None:
            continue
        hits: dict[int, str] = {}
        for length, slot, phrase, kw in entries:
            if found[slot] is None and slot not in hits and (
                length == 1 or tuple(tokens[i : i + length]) == phrase
            ):
                hits[slot] = kw
        if hits and not _negated(tokens, i, lex):
            for slot, kw in hits.items():
                found[slot] = kw
            left -= len(hits)
            if not left:
                break
    return found


def note_tokens(notes: Sequence[str]) -> list[str]:
    """Tokenize and concatenate notes, separated by sentence boundaries so
    negation cannot leak from one note into the next."""
    tokens: list[str] = []
    for note in notes:
        toks = tokenize(note)
        if not toks:
            continue
        if tokens and tokens[-1] != BOUNDARY:
            tokens.append(BOUNDARY)
        tokens.extend(toks)
    return tokens


def extract_features(
    record: RescueRecord,
    categories: Sequence[KeywordCategory],
    lex: Lexicons,
) -> TextFeatures:
    """Assign one matched keyword (or none) per category for a record, in
    one scan of its tokens; of two categories with one name the last counts."""
    tokens = note_tokens(record.notes)
    by_name = {c.name: c for c in categories}
    present = tuple(by_name[name] for name in TEXT_FEATURE_NAMES if name in by_name)
    slots = dict.fromkeys(TEXT_FEATURE_NAMES)
    slots.update(zip((c.name for c in present), _scan(tokens, present, lex)))
    return TextFeatures(**slots)


# ---------------------------------------------------------------------------
# Lexicon file loading

_SECTION_RE = re.compile(r"^\[([^\]]+)\]$")


def parse_lexicon_text(text: str) -> tuple[list[KeywordCategory], Lexicons]:
    """Parse the sectioned plain-text lexicon format."""
    categories: dict[str, list[str]] = {}
    stop: list[str] = []
    neg: list[str] = []
    window = 3
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1).strip().lower()
            if section.startswith("category:"):
                categories.setdefault(section.split(":", 1)[1].strip(), [])
            elif section not in ("stopwords", "negation", "settings"):
                raise LexiconError(f"line {lineno}: unknown section {section!r}")
            continue
        if section is None:
            raise LexiconError(f"line {lineno}: entry before any section header")
        if section.startswith("category:"):
            categories[section.split(":", 1)[1].strip()].append(line)
        elif section == "stopwords":
            stop.append(line)
        elif section == "negation":
            neg.append(line)
        elif section == "settings":
            key, _, value = line.partition("=")
            if key.strip() == "negation_window":
                try:
                    window = int(value.strip())
                except ValueError:
                    raise LexiconError(
                        f"line {lineno}: negation_window must be an integer, got {value.strip()!r}"
                    ) from None
            else:
                raise LexiconError(f"line {lineno}: unknown setting {key.strip()!r}")
    cats = [KeywordCategory(name, tuple(kws)) for name, kws in categories.items()]
    lex = Lexicons(
        stop_words=frozenset(stop),
        negation_words=frozenset(neg),
        negation_window=window,
    )
    return cats, lex


def load_lexicon_file(path: str | Path) -> tuple[list[KeywordCategory], Lexicons]:
    """Parse and validate a lexicon file; a bad entry fails naming the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        cats, lex = parse_lexicon_text(text)
        validate_lexicons(cats, lex)
    except ValueError as exc:
        raise LexiconError(f"{path}: {exc}") from None
    return cats, lex


def default_lexicons() -> tuple[list[KeywordCategory], Lexicons]:
    """The packaged default dictionaries (five categories, stop words,
    negation words, window of 3)."""
    text = resources.files("rescue_triage.data").joinpath("default_lexicon.txt").read_text("utf-8")
    cats, lex = parse_lexicon_text(text)
    return cats, lex
