"""Seeded synthetic rescue-corpus generator with a computable accuracy ceiling.

Stands in for private rescue data at desk scale. Records are drawn from a
fully specified generative model (per-class truncated-normal vitals,
per-class Bernoulli keyword injections, optional negation, label-independent
noise tokens), so the Bayes-optimal accuracy on the ten extracted features
can be estimated by Monte Carlo and used as the performance ceiling for any
classifier trained on the corpus.

Injected keywords come from category-exclusive pools (keywords listed under
two categories are never injected) so the extracted presence bits stay
conditionally independent given the class, which the oracle relies on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
import numpy as np

from .records import Label, RescueRecord, Vitals, TEXT_FEATURE_NAMES, rng_from
from .textfeat import default_lexicons

PSY = "psychiatric"
NON = "non_psychiatric"

# neutral filler/noise vocabulary; must stay disjoint from every keyword and
# negation word so it can never flip a feature bit
_NOISE_VOCAB = (
    "heute", "morgen", "einsatz", "wohnung", "strasse", "anfahrt", "uebergabe",
    "transport", "begleitung", "ruhig", "stabil", "wach", "orientiert",
    "bekannt", "unauffaellig", "versorgt", "betreut", "angetroffen",
)
_NEGATORS = ("no", "not", "kein", "nicht")


@dataclass(frozen=True)
class VitalsModel:
    """Per-class sampling model: (mean, sd) for the continuous vitals and the
    discretized GCS, plus Bernoulli rates for the boolean vitals."""

    systolic_bp: tuple[float, float]
    respiratory_rate: tuple[float, float]
    gcs: tuple[float, float]
    circulation_normal_p: float
    pulse_rhythm_regular_p: float

    def __post_init__(self):
        for name in ("systolic_bp", "respiratory_rate", "gcs"):
            mean, sd = getattr(self, name)
            if mean <= 0 or sd <= 0:
                raise ValueError(f"{name} needs positive mean and sd")
        for name in ("circulation_normal_p", "pulse_rhythm_regular_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class GeneratorConfig:
    n_psychiatric: int
    n_nonpsychiatric: int
    vitals: dict[str, VitalsModel]                # class -> sampling model
    keyword_probs: dict[str, dict[str, float]]    # class -> {category: p}
    negation_prob: float = 0.15
    noise_rate: float = 6.0
    seed: int = 42

    def __post_init__(self):
        if self.n_psychiatric < 0 or self.n_nonpsychiatric < 0:
            raise ValueError("counts must be >= 0")
        if not 0.0 <= self.negation_prob <= 1.0:
            raise ValueError("negation_prob must lie in [0, 1]")
        if self.noise_rate < 0:
            raise ValueError("noise_rate must be >= 0")
        for cls in (PSY, NON):
            if cls not in self.vitals or cls not in self.keyword_probs:
                raise ValueError(f"missing model for class {cls!r}")
            for cat, p in self.keyword_probs[cls].items():
                if cat not in TEXT_FEATURE_NAMES:
                    raise ValueError(f"unknown category {cat!r}")
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"keyword prob for {cat!r} must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


def default_config(n_psychiatric: int = 1073, n_nonpsychiatric: int = 920, seed: int = 42) -> GeneratorConfig:
    """Desk-scale defaults (the reference corpus counts scaled by ~0.105).

    psychiatric_symptoms carries a strong signal and preillness a weak one;
    pulse_rhythm_regular is label-independent on purpose, giving the
    selection stages a known zero-signal feature to discard.
    """
    return GeneratorConfig(
        n_psychiatric=n_psychiatric,
        n_nonpsychiatric=n_nonpsychiatric,
        vitals={
            PSY: VitalsModel(
                systolic_bp=(138.0, 22.0),
                respiratory_rate=(17.5, 4.0),
                gcs=(12.6, 2.0),
                circulation_normal_p=0.65,
                pulse_rhythm_regular_p=0.5,
            ),
            NON: VitalsModel(
                systolic_bp=(131.0, 20.0),
                respiratory_rate=(16.0, 3.5),
                gcs=(13.6, 1.6),
                circulation_normal_p=0.85,
                pulse_rhythm_regular_p=0.5,
            ),
        },
        keyword_probs={
            PSY: {
                "preillness": 0.07,
                "intoxication": 0.30,
                "alcoholism": 0.35,
                "mental_abnormality": 0.45,
                "psychiatric_symptoms": 0.70,
            },
            NON: {
                "preillness": 0.01,
                "intoxication": 0.05,
                "alcoholism": 0.06,
                "mental_abnormality": 0.08,
                "psychiatric_symptoms": 0.07,
            },
        },
        negation_prob=0.15,
        noise_rate=6.0,
        seed=seed,
    )


def injection_pools() -> dict[str, tuple[str, ...]]:
    """Category keyword lists with cross-listed keywords removed."""
    categories, _ = default_lexicons()
    counts: dict[str, int] = {}
    for cat in categories:
        for kw in cat.keywords:
            counts[kw] = counts.get(kw, 0) + 1
    return {
        cat.name: tuple(kw for kw in cat.keywords if counts[kw] == 1)
        for cat in categories
    }


def _sample_positive_normal(rng: np.random.Generator, mean: float, sd: float) -> float:
    for _ in range(1000):
        v = rng.normal(mean, sd)
        if v > 0.0:
            return float(v)
    raise RuntimeError(f"could not sample a positive value for mean={mean}, sd={sd}")


def _sample_gcs(rng: np.random.Generator, mean: float, sd: float) -> int:
    return int(np.clip(np.rint(rng.normal(mean, sd)), 3, 15))


def generate(cfg: GeneratorConfig) -> list[RescueRecord]:
    """Deterministic corpus: psychiatric cases first, then non-psychiatric.

    Notes are synthetic sentences; each injected keyword sits in its own
    sentence, preceded by a negation word with probability negation_prob.
    RNG streams derive from (seed, record index), so generation order and
    worker layout cannot change the output.
    """
    pools = injection_pools()
    records: list[RescueRecord] = []
    total = cfg.n_psychiatric + cfg.n_nonpsychiatric
    for i in range(total):
        cls = PSY if i < cfg.n_psychiatric else NON
        rng = rng_from(cfg.seed, 11, i)
        vm: VitalsModel = cfg.vitals[cls]

        vitals = Vitals(
            systolic_bp=round(_sample_positive_normal(rng, *vm.systolic_bp), 1),
            respiratory_rate=round(_sample_positive_normal(rng, *vm.respiratory_rate), 1),
            gcs=_sample_gcs(rng, *vm.gcs),
            circulation_normal=bool(rng.random() < vm.circulation_normal_p),
            pulse_rhythm_regular=bool(rng.random() < vm.pulse_rhythm_regular_p),
        )

        sentences: list[str] = []
        for cat in TEXT_FEATURE_NAMES:
            p = cfg.keyword_probs[cls].get(cat, 0.0)
            if rng.random() < p:
                pool = pools[cat]
                kw = pool[int(rng.integers(0, len(pool)))]
                tokens = list(kw.split())
                if rng.random() < cfg.negation_prob:
                    tokens.insert(0, _NEGATORS[int(rng.integers(0, len(_NEGATORS)))])
                tokens.append(_NOISE_VOCAB[int(rng.integers(0, len(_NOISE_VOCAB)))])
                sentences.append(" ".join(tokens) + ".")
        n_noise = int(rng.poisson(cfg.noise_rate))
        while n_noise > 0:
            take = min(4, n_noise)
            words = [_NOISE_VOCAB[int(rng.integers(0, len(_NOISE_VOCAB)))] for _ in range(take)]
            sentences.append(" ".join(words) + ".")
            n_noise -= take

        records.append(
            RescueRecord(
                case_id=f"case-{i:06d}",
                vitals=vitals,
                notes=(" ".join(sentences),) if sentences else (),
                label=Label.PSYCHIATRIC if cls == PSY else Label.NON_PSYCHIATRIC,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Bayes-optimal accuracy of the generator's own posterior


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _gcs_pmf(mean: float, sd: float) -> np.ndarray:
    """PMF of round-then-clamp on a normal draw, over the 13 scale values."""
    pmf = np.empty(13)
    for k in range(3, 16):
        if k == 3:
            p = _norm_cdf((3.5 - mean) / sd)
        elif k == 15:
            p = 1.0 - _norm_cdf((14.5 - mean) / sd)
        else:
            p = _norm_cdf((k + 0.5 - mean) / sd) - _norm_cdf((k - 0.5 - mean) / sd)
        pmf[k - 3] = max(p, 1e-300)
    return pmf / pmf.sum()


def _trunc_normal_logpdf(v: np.ndarray, mean: float, sd: float) -> np.ndarray:
    log_norm = math.log(max(1.0 - _norm_cdf((0.0 - mean) / sd), 1e-300))
    return (
        -0.5 * math.log(2.0 * math.pi * sd * sd)
        - (v - mean) ** 2 / (2.0 * sd * sd)
        - log_norm
    )


def _bernoulli_loglik(bit: np.ndarray, p: float) -> np.ndarray:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return bit * math.log(p) + (1.0 - bit) * math.log(1.0 - p)


@dataclass(frozen=True)
class OracleEstimate:
    accuracy: float
    stderr: float
    draws: int


def oracle_accuracy(cfg: GeneratorConfig, draws: int = 100_000, seed: int | None = None) -> OracleEstimate:
    """Monte-Carlo estimate of the Bayes-optimal accuracy on the ten features.

    Draws feature vectors from the generative model, classifies each with
    the exact posterior (feature bits use the effective presence rate
    p * (1 - negation_prob)), and reports the hit rate with its standard
    error. This is the ceiling any classifier can reach on this corpus
    distribution.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = rng_from(cfg.seed if seed is None else seed, 13)
    prior_psy = cfg.n_psychiatric / max(cfg.n_psychiatric + cfg.n_nonpsychiatric, 1)

    classes = (rng.random(draws) < prior_psy).astype(np.int64)  # 1 = psychiatric
    log_post = np.zeros((draws, 2))
    log_post[:, 1] += math.log(max(prior_psy, 1e-300))
    log_post[:, 0] += math.log(max(1.0 - prior_psy, 1e-300))

    models = {1: cfg.vitals[PSY], 0: cfg.vitals[NON]}
    qprobs = {
        1: {c: cfg.keyword_probs[PSY].get(c, 0.0) * (1.0 - cfg.negation_prob) for c in TEXT_FEATURE_NAMES},
        0: {c: cfg.keyword_probs[NON].get(c, 0.0) * (1.0 - cfg.negation_prob) for c in TEXT_FEATURE_NAMES},
    }
    gcs_pmfs = {cls: _gcs_pmf(*models[cls].gcs) for cls in (0, 1)}

    # sample each feature from its true class model
    bp = np.empty(draws)
    rr = np.empty(draws)
    gcs = np.empty(draws, dtype=np.int64)
    circ = np.empty(draws)
    pulse = np.empty(draws)
    bits = {c: np.empty(draws) for c in TEXT_FEATURE_NAMES}
    for cls in (0, 1):
        mask = classes == cls
        m = int(mask.sum())
        if m == 0:
            continue
        vm = models[cls]
        for target, (mean, sd) in ((bp, vm.systolic_bp), (rr, vm.respiratory_rate)):
            v = rng.normal(mean, sd, m)
            bad = v <= 0
            while bad.any():
                v[bad] = rng.normal(mean, sd, int(bad.sum()))
                bad = v <= 0
            target[mask] = v
        gcs[mask] = rng.choice(13, size=m, p=gcs_pmfs[cls]) + 3
        circ[mask] = (rng.random(m) < vm.circulation_normal_p).astype(float)
        pulse[mask] = (rng.random(m) < vm.pulse_rhythm_regular_p).astype(float)
        for c in TEXT_FEATURE_NAMES:
            bits[c][mask] = (rng.random(m) < qprobs[cls][c]).astype(float)

    for cls in (0, 1):
        vm = models[cls]
        log_post[:, cls] += _trunc_normal_logpdf(bp, *vm.systolic_bp)
        log_post[:, cls] += _trunc_normal_logpdf(rr, *vm.respiratory_rate)
        log_post[:, cls] += np.log(gcs_pmfs[cls][gcs - 3])
        log_post[:, cls] += _bernoulli_loglik(circ, vm.circulation_normal_p)
        log_post[:, cls] += _bernoulli_loglik(pulse, vm.pulse_rhythm_regular_p)
        for c in TEXT_FEATURE_NAMES:
            log_post[:, cls] += _bernoulli_loglik(bits[c], qprobs[cls][c])

    predicted = (log_post[:, 1] > log_post[:, 0]).astype(np.int64)
    accuracy = float(np.mean(predicted == classes))
    stderr = math.sqrt(max(accuracy * (1.0 - accuracy), 1e-300) / draws)
    return OracleEstimate(accuracy=accuracy, stderr=stderr, draws=draws)
