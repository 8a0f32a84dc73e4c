from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescue_triage.records import RescueRecord, TEXT_FEATURE_NAMES
from rescue_triage.textfeat import (
    BOUNDARY,
    KeywordCategory,
    LexiconError,
    Lexicons,
    _negated,
    default_lexicons,
    extract_features,
    load_lexicon_file,
    match_category,
    note_tokens,
    parse_lexicon_text,
    tokenize,
    validate_lexicons,
    word_count,
)

CATS, LEX = default_lexicons()
BY_NAME = {c.name: c for c in CATS}


def reference_match(tokens: Sequence[str], cat: KeywordCategory, lex: Lexicons) -> Optional[str]:
    """The per-category matcher the one-pass scan replaced, kept as its oracle:
    one walk over the tokens per category, trying every keyword at every
    position, longest first."""
    pairs = [(kw, tuple(kw.split())) for kw in cat.keywords]
    pairs.sort(key=lambda p: len(p[1]), reverse=True)
    n = len(tokens)
    for i in range(n):
        if tokens[i] == BOUNDARY:
            continue
        for kw, seq in pairs:
            if i + len(seq) <= n and tuple(tokens[i : i + len(seq)]) == seq:
                if not _negated(tokens, i, lex):
                    return kw
                break  # negated here; keep scanning from the next position
    return None


def reference_features(tokens, categories, lex) -> dict:
    by_name = {c.name: c for c in categories}
    return {n: reference_match(tokens, by_name[n], lex) if n in by_name else None for n in TEXT_FEATURE_NAMES}


KEYWORDS = sorted({kw for c in CATS for kw in c.keywords})
NOTE_WORDS = (
    KEYWORDS
    + sorted(LEX.negation_words)
    + ["heute", "patient", "spaeter", "zustand", "seit", "jahren"]
    + [".", "!", "?", ";"]
    + ["heavily", "borderline", "no will", "delusions of"]
)
notes_st = st.lists(st.lists(st.sampled_from(NOTE_WORDS), max_size=25).map(" ".join), max_size=3)
lexicon_st = st.lists(
    st.tuples(st.sampled_from(TEXT_FEATURE_NAMES), st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=8)),
    min_size=1,
    max_size=7,
).map(lambda cats: [KeywordCategory(name, tuple(kws)) for name, kws in cats])


class TestTokenize:
    def test_plain_sentence(self):
        assert tokenize("Patient wirkt ängstlich.") == ["patient", "wirkt", "ängstlich", BOUNDARY]

    def test_empty(self):
        assert tokenize("") == []

    def test_quotes_and_brackets_stripped(self):
        assert tokenize('"panic" (severe)') == ["panic", "severe"]

    def test_boundaries_collapse(self):
        assert tokenize("angst!!! panik?") == ["angst", BOUNDARY, "panik", BOUNDARY]

    def test_decimal_numbers_stay_whole(self):
        assert tokenize("rr 13.5 heute") == ["rr", "13.5", "heute"]

    def test_case_folding(self):
        assert tokenize("LSD Drogen") == ["lsd", "drogen"]


class TestWordCount:
    def test_min_count_cutoff(self):
        corpus = [["alcohol"]] * 50 + [["wine"]] * 49
        counts = word_count(corpus, LEX, min_count=50)
        assert counts == {"alcohol": 50}

    def test_stop_words_excluded(self):
        corpus = [["patient", "alcohol"]] * 60
        counts = word_count(corpus, LEX, min_count=50)
        assert "patient" not in counts
        assert counts["alcohol"] == 60

    def test_empty_corpus(self):
        assert word_count([], LEX, min_count=1) == {}

    def test_sorted_by_count_then_word(self):
        corpus = [["beta", "alpha"]] * 3 + [["gamma"]] * 5
        counts = word_count(corpus, LEX, min_count=1)
        assert list(counts.items()) == [("gamma", 5), ("alpha", 3), ("beta", 3)]

    @settings(max_examples=60, deadline=None)
    @given(st.permutations([["angst", "panik"], ["angst"], ["ruhe", "angst"], ["panik"]]))
    def test_permutation_invariant(self, corpus):
        assert word_count(corpus, LEX, min_count=1) == {"angst": 3, "panik": 2, "ruhe": 1}


class TestMatchCategory:
    def test_direct_hit(self):
        tokens = tokenize("patient ist depressed heute")
        assert match_category(tokens, BY_NAME["psychiatric_symptoms"], LEX) == "depressed"

    def test_negated_one_token_before(self):
        tokens = tokenize("not suicidal")
        assert match_category(tokens, BY_NAME["psychiatric_symptoms"], LEX) is None

    def test_negation_stops_at_sentence_boundary(self):
        tokens = tokenize("no fear. panic at night")
        assert match_category(tokens, BY_NAME["mental_abnormality"], LEX) == "panic"

    def test_negation_outside_window(self):
        tokens = tokenize("kein besuch heute abend panic")
        assert match_category(tokens, BY_NAME["mental_abnormality"], LEX) == "panic"

    def test_phrase_matching(self):
        tokens = tokenize("zustand heavily intoxicated heute")
        assert match_category(tokens, BY_NAME["alcoholism"], LEX) == "heavily intoxicated"

    def test_longest_phrase_wins_at_same_position(self):
        tokens = tokenize("diagnose borderline syndrome seit jahren")
        assert match_category(tokens, BY_NAME["psychiatric_symptoms"], LEX) == "borderline syndrome"

    def test_first_match_rule(self):
        tokens = tokenize("crying und spaeter aggressive")
        assert match_category(tokens, BY_NAME["psychiatric_symptoms"], LEX) == "crying"
        earlier = tokenize("anxious heute. crying und spaeter aggressive")
        assert match_category(earlier, BY_NAME["psychiatric_symptoms"], LEX) == "anxious"

    def test_negated_hit_does_not_stop_scan(self):
        tokens = tokenize("nicht panic aber spaeter panic")
        assert match_category(tokens, BY_NAME["mental_abnormality"], LEX) == "panic"


class TestOnePassScan:
    """extract_features and match_category agree with the per-category
    reference matcher, for the shipped and for random lexicons."""

    @settings(max_examples=300, deadline=None)
    @given(notes=notes_st, categories=st.one_of(st.just(CATS), lexicon_st), window=st.integers(1, 5))
    def test_equals_reference_scan(self, notes, categories, window):
        lex = Lexicons(stop_words=LEX.stop_words, negation_words=LEX.negation_words, negation_window=window)
        rec = RescueRecord(case_id="a", notes=tuple(notes))
        tokens = note_tokens(rec.notes)
        expected = reference_features(tokens, categories, lex)
        tf = extract_features(rec, categories, lex)
        assert {n: tf.slot(n) for n in TEXT_FEATURE_NAMES} == expected
        for cat in categories:
            assert match_category(tokens, cat, lex) == reference_match(tokens, cat, lex)

    def test_phrases_sharing_a_first_token_across_categories(self):
        cats = [
            KeywordCategory("alcoholism", ("heavily", "heavily intoxicated")),
            KeywordCategory("intoxication", ("heavily sedated",)),
        ]
        same_place = extract_features(RescueRecord(case_id="a", notes=("heavily sedated",)), cats, LEX)
        assert (same_place.alcoholism, same_place.intoxication) == ("heavily", "heavily sedated")
        later = extract_features(
            RescueRecord(case_id="a", notes=("not heavily sedated. heavily intoxicated",)), cats, LEX
        )
        assert (later.alcoholism, later.intoxication) == ("heavily intoxicated", None)


class TestExtractFeatures:
    def test_alcohol_keywords(self):
        rec = RescueRecord(case_id="a", notes=("patient drunk, smells of vodka",))
        tf = extract_features(rec, CATS, LEX)
        assert tf.alcoholism == "drunk"
        assert tf.preillness is None
        assert tf.intoxication is None
        assert tf.mental_abnormality is None
        assert tf.psychiatric_symptoms is None

    def test_empty_notes_all_none(self):
        tf = extract_features(RescueRecord(case_id="a"), CATS, LEX)
        assert all(tf.slot(n) is None for n in TEXT_FEATURE_NAMES)

    def test_two_categories_set(self):
        rec = RescueRecord(case_id="a", notes=("intoxication suspected, panic visible",))
        tf = extract_features(rec, CATS, LEX)
        assert tf.intoxication == "intoxication"
        assert tf.mental_abnormality == "panic"

    def test_negation_does_not_cross_notes(self):
        rec = RescueRecord(case_id="a", notes=("kein alkohol", "drunk heute"))
        tf = extract_features(rec, CATS, LEX)
        assert tf.alcoholism == "drunk"

    def test_deterministic(self):
        rec = RescueRecord(case_id="a", notes=("fear and stress", "no will to live"))
        assert extract_features(rec, CATS, LEX) == extract_features(rec, CATS, LEX)


class TestLexicons:
    def test_default_has_five_categories(self):
        assert {c.name for c in CATS} == set(TEXT_FEATURE_NAMES)

    def test_cross_category_duplicate_warned_not_dropped(self):
        warnings = validate_lexicons(CATS, LEX)
        assert any("cannabis" in w for w in warnings)
        assert "cannabis" in BY_NAME["intoxication"].keywords
        assert "cannabis" in BY_NAME["alcoholism"].keywords

    def test_stop_and_negation_disjoint_from_keywords(self):
        clash = Lexicons(stop_words=frozenset({"drunk"}), negation_words=LEX.negation_words)
        with pytest.raises(LexiconError):
            validate_lexicons(CATS, clash)

    def test_window_must_be_positive(self):
        with pytest.raises(LexiconError):
            Lexicons(negation_window=0)

    def test_keywords_deduplicated_and_lowercased(self):
        cat = KeywordCategory("intoxication", ("LSD", "lsd", "Pills"))
        assert cat.keywords == ("lsd", "pills")

    def test_lexicon_file_roundtrip(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(
            "[category:alcoholism]\ndrunk\n\n[stopwords]\npatient\n"
            "[negation]\nnot\n[settings]\nnegation_window = 2\n",
            encoding="utf-8",
        )
        cats, lex = load_lexicon_file(path)
        assert cats[0].keywords == ("drunk",)
        assert lex.negation_window == 2
        assert lex.stop_words == {"patient"}

    @pytest.mark.parametrize("keyword", ["self-harm", "mania!", ".", "c2h5-oh", "no. will"])
    def test_keyword_that_cannot_match_rejected(self, keyword):
        with pytest.raises(LexiconError, match="preillness") as err:
            KeywordCategory("preillness", ("mania", keyword))
        assert repr(keyword) in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon_text("[bogus]\nx\n")

    @pytest.mark.parametrize("value", ["x", "2.5", ""])
    def test_non_integer_window_names_line_and_value(self, value):
        with pytest.raises(LexiconError) as err:
            parse_lexicon_text(f"[category:alcoholism]\ndrunk\n[settings]\nnegation_window = {value}\n")
        assert str(err.value) == f"line 4: negation_window must be an integer, got {value!r}"


class TestNoteTokens:
    def test_boundary_inserted_between_notes(self):
        tokens = note_tokens(("erste notiz", "zweite notiz"))
        assert tokens == ["erste", "notiz", BOUNDARY, "zweite", "notiz"]
