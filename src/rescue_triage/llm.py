"""Zero-shot LLM comparison harness.

Renders case features into a fixed-order key/value prompt, queries a local
generate endpoint (Ollama-style JSON over HTTP), parses true/false verdicts
and scores agreement against classifier predictions. Responses from a live
model are non-deterministic; tests run against a stub server or canned
transcripts instead.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence
from urllib.parse import urlsplit

from .metrics import LengthMismatch
from .records import FeatureVector

DEFAULT_INSTRUCTION = (
    "Based on the above data collected from patient, please reply with true or "
    "false if the patient can be diagnosed as psychiatric patient"
)

# (display key, FeatureVector field, display type), in prompt order
PROMPT_FIELDS = (
    ("Systolic Blood Pressure", "systolic_bp", float),
    ("Respiratory Rate", "respiratory_rate", float),
    ("Blood Circulation Normality", "circulation_normal", int),
    ("GCS", "gcs", int),
    ("Pulse Rhythm", "pulse_rhythm_regular", bool),
    ("Any Preillness", "preillness", bool),
    ("Mental Sickness Possibility", "mental_abnormality", bool),
    ("Psychiatric Syndrom Presence", "psychiatric_symptoms", bool),
    ("Alcoholic Possibility", "alcoholism", bool),
    ("Intoxication Possibility", "intoxication", bool),
)


class MissingFeature(KeyError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"prompt template key {key!r} missing from feature map")


class TransportError(RuntimeError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    """Ordered display keys plus the instruction sentence."""

    keys: tuple[str, ...]
    instruction: str = DEFAULT_INSTRUCTION

    def __post_init__(self):
        if not self.keys:
            raise ValueError("prompt template needs at least one key")
        object.__setattr__(self, "keys", tuple(self.keys))


# ten-key variant as sampled, and the nine-key variant that drops the
# preillness slot eliminated by feature selection
TEMPLATE_WITH_PREILLNESS = PromptTemplate(tuple(key for key, _, _ in PROMPT_FIELDS))
TEMPLATE_DEFAULT = PromptTemplate(tuple(key for key, name, _ in PROMPT_FIELDS if name != "preillness"))


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def build_prompt(features: Mapping[str, object], template: PromptTemplate = TEMPLATE_DEFAULT) -> str:
    """Render one line per template key as 'Key': value, then the instruction.

    The final key line carries no trailing comma; a blank line separates the
    listing from the instruction. Booleans render as True/False, numbers
    bare. Raises MissingFeature for any template key absent from the map.
    """
    lines = []
    for i, key in enumerate(template.keys):
        if key not in features:
            raise MissingFeature(key)
        suffix = "," if i < len(template.keys) - 1 else ""
        lines.append(f"'{key}': {_render_value(features[key])}{suffix}")
    return "\n".join(lines) + "\n\n" + template.instruction


def prompt_values_from_vector(fv: FeatureVector) -> dict:
    """Map a FeatureVector onto every display key of PROMPT_FIELDS."""
    return {key: kind(getattr(fv, name)) for key, name, kind in PROMPT_FIELDS}


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class LlmVerdict:
    raw_response: str
    verdict: Verdict
    latency: float = 0.0


_WORD_RE = re.compile(r"[a-z']+")
_FLIP_BEFORE = {"not", "never", "isn't", "isnt"}


def parse_verdict(text: str) -> Verdict:
    """Scan for standalone true/false tokens, case-insensitive.

    The last occurrence wins; a negation word immediately before a token
    flips it ("not true" reads as false). No token at all is Ambiguous.
    """
    words = _WORD_RE.findall(text.lower())
    verdict = Verdict.AMBIGUOUS
    for i, word in enumerate(words):
        if word not in ("true", "false"):
            continue
        value = word == "true"
        if i > 0 and words[i - 1] in _FLIP_BEFORE:
            value = not value
        verdict = Verdict.TRUE if value else Verdict.FALSE
    return verdict


@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to reach the generate endpoint.

    ``options`` is passed through to the server untouched (decoding
    parameters are the server's business). Environment overrides:
    RESCUE_TRIAGE_LLM_URL and RESCUE_TRIAGE_LLM_MODEL. Settings that no
    request could work with fail here, when the config is built.
    """

    base_url: str = "http://localhost:11434"
    model: str = "llama3.1:8b"
    timeout: float = 60.0
    retries: int = 2
    backoff: float = 0.5
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be at least 0, got {self.retries!r}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a positive number of seconds, got {self.timeout!r}")
        if not 0 <= self.backoff < math.inf:
            raise ValueError(f"backoff must be a non-negative number of seconds, got {self.backoff!r}")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL with a host, got {self.base_url!r}")

    @classmethod
    def from_env(cls, **overrides) -> "EndpointConfig":
        env = {}
        if os.environ.get("RESCUE_TRIAGE_LLM_URL"):
            env["base_url"] = os.environ["RESCUE_TRIAGE_LLM_URL"]
        if os.environ.get("RESCUE_TRIAGE_LLM_MODEL"):
            env["model"] = os.environ["RESCUE_TRIAGE_LLM_MODEL"]
        env.update(overrides)
        return cls(**env)


def _post(url: str, data: bytes, timeout: float) -> tuple[int, bytes]:
    """(status, body) of one JSON POST; an error status is a response here,
    not an exception."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"}, method="POST")
    try:
        resp = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        resp = exc
    with resp:
        return resp.status, resp.read()


def query(prompt: str, cfg: EndpointConfig) -> LlmVerdict:
    """Send one non-streaming generate request and parse the verdict.

    Retries transport failures and 5xx responses with exponential backoff,
    at most cfg.retries times; a hard timeout bounds every attempt.
    """
    # imported here, so runs that never query an endpoint do not pay for them
    import http.client

    payload = {"model": cfg.model, "prompt": prompt, "stream": False}
    if cfg.options:
        payload["options"] = dict(cfg.options)
    url, data = cfg.base_url.rstrip("/") + "/api/generate", json.dumps(payload).encode("utf-8")

    last_error: Optional[str] = None
    start = time.perf_counter()
    for attempt in range(cfg.retries + 1):
        if attempt:
            time.sleep(cfg.backoff * (2 ** (attempt - 1)))
        try:
            status, body = _post(url, data, cfg.timeout)
        except (OSError, http.client.HTTPException) as exc:  # a read timeout is a bare TimeoutError
            last_error = str(exc)
            continue
        if status >= 500:
            last_error = f"server error {status}"
            continue
        if status != 200:
            raise TransportError(f"generate endpoint returned {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            text = json.loads(body)["response"]
        except (ValueError, KeyError, TypeError) as exc:
            raise TransportError(f"malformed generate response: {exc}") from exc
        if not isinstance(text, str):
            raise TransportError(f"malformed generate response: 'response' is {type(text).__name__}, not a string")
        latency = time.perf_counter() - start
        return LlmVerdict(raw_response=text, verdict=parse_verdict(text), latency=latency)
    raise TransportError(f"generate request failed after {cfg.retries + 1} attempts: {last_error}")


def query_many(prompts: Sequence[str], cfg: EndpointConfig, max_in_flight: int = 1) -> list[LlmVerdict]:
    """Query independent prompts, preserving order, with an in-flight cap."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(lambda p: query(p, cfg), prompts))


def transcript_verdicts(transcript: Sequence[str]) -> list[LlmVerdict]:
    """Turn canned response texts into verdicts (offline stub path)."""
    return [LlmVerdict(raw_response=t, verdict=parse_verdict(t)) for t in transcript]


@dataclass(frozen=True)
class CaseComparison:
    case_id: str
    ml_prediction: bool
    llm_verdict: Verdict
    match: bool
    reference: Optional[bool] = None


@dataclass(frozen=True)
class AgreementReport:
    """Per-case agreement; its fields are the keys of llm_agreement.json."""

    mismatch_count: int
    agreement_rate: float
    ambiguous_cases: tuple[str, ...]
    rows: tuple[CaseComparison, ...]


def compare(
    ml_predictions: Sequence[bool | int],
    llm_verdicts: Sequence[LlmVerdict | Verdict],
    case_ids: Optional[Sequence[str]] = None,
    reference_labels: Optional[Sequence[bool | int]] = None,
) -> AgreementReport:
    """Per-case agreement table between classifier and LLM verdicts.

    An Ambiguous verdict counts as a mismatch and is itemized separately.
    Reference labels, when given, are carried through into the rows.
    """
    if len(ml_predictions) != len(llm_verdicts):
        raise LengthMismatch(f"{len(ml_predictions)} predictions vs {len(llm_verdicts)} verdicts")
    if case_ids is not None and len(case_ids) != len(ml_predictions):
        raise LengthMismatch("case_ids length differs from predictions")
    if reference_labels is not None and len(reference_labels) != len(ml_predictions):
        raise LengthMismatch("reference_labels length differs from predictions")

    rows = []
    ambiguous = []
    mismatches = 0
    for i, (ml, lv) in enumerate(zip(ml_predictions, llm_verdicts)):
        verdict = lv.verdict if isinstance(lv, LlmVerdict) else lv
        case_id = case_ids[i] if case_ids is not None else f"case-{i}"
        ml_bool = bool(ml)
        if verdict == Verdict.AMBIGUOUS:
            match = False
            ambiguous.append(case_id)
        else:
            match = (verdict == Verdict.TRUE) == ml_bool
        if not match:
            mismatches += 1
        reference = bool(reference_labels[i]) if reference_labels is not None else None
        rows.append(CaseComparison(case_id, ml_bool, verdict, match, reference))
    rate = 1.0 - mismatches / len(rows) if rows else 1.0
    return AgreementReport(mismatches, rate, tuple(ambiguous), tuple(rows))
