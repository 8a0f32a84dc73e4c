import numpy as np
import pytest

from rescue_triage.records import Label, from_dict, validate_record, record_to_dict
from rescue_triage.synthgen import (
    NON,
    PSY,
    GeneratorConfig,
    VitalsModel,
    default_config,
    generate,
    injection_pools,
    oracle_accuracy,
)
from rescue_triage.textfeat import default_lexicons, extract_features


def small_config(**overrides):
    base = default_config(n_psychiatric=50, n_nonpsychiatric=40, seed=9)
    d = base.to_dict()
    d.update(overrides)
    return from_dict(GeneratorConfig, d)


class TestGenerate:
    def test_empty_config(self):
        cfg = small_config(n_psychiatric=0, n_nonpsychiatric=0)
        assert generate(cfg) == []

    def test_same_seed_identical_corpora(self):
        cfg = small_config()
        a = [record_to_dict(r) for r in generate(cfg)]
        b = [record_to_dict(r) for r in generate(cfg)]
        assert a == b

    def test_counts_and_labels(self):
        records = generate(small_config())
        labels = [r.label for r in records]
        assert labels.count(Label.PSYCHIATRIC) == 50
        assert labels.count(Label.NON_PSYCHIATRIC) == 40

    def test_records_pass_validation(self):
        for r in generate(small_config()):
            raw = record_to_dict(r)
            flat = {"case_id": raw["case_id"], "notes": raw["notes"], "label": raw["label"]}
            flat.update(raw["vitals"])
            validate_record(flat)

    def test_forced_injection_extracted_exactly(self):
        cfg = small_config(
            negation_prob=0.0,
            keyword_probs={
                PSY: {"alcoholism": 1.0},
                NON: {"alcoholism": 0.0},
            },
        )
        cats, lex = default_lexicons()
        for r in generate(cfg):
            tf = extract_features(r, cats, lex)
            if r.label == Label.PSYCHIATRIC:
                assert tf.alcoholism is not None
            else:
                assert tf.alcoholism is None

    def test_negated_injections_not_extracted(self):
        cfg = small_config(
            negation_prob=1.0,
            keyword_probs={PSY: {"mental_abnormality": 1.0}, NON: {}},
        )
        cats, lex = default_lexicons()
        for r in generate(cfg):
            tf = extract_features(r, cats, lex)
            assert tf.mental_abnormality is None

    def test_keyword_frequencies_converge(self):
        cfg = default_config(n_psychiatric=10_000, n_nonpsychiatric=0, seed=3)
        cats, lex = default_lexicons()
        records = generate(cfg)
        hits = sum(
            extract_features(r, cats, lex).psychiatric_symptoms is not None for r in records
        )
        p = cfg.keyword_probs[PSY]["psychiatric_symptoms"] * (1 - cfg.negation_prob)
        se = np.sqrt(p * (1 - p) / len(records))
        assert abs(hits / len(records) - p) < 3 * se


class TestInjectionPools:
    def test_cross_listed_keywords_excluded(self):
        pools = injection_pools()
        assert "cannabis" not in pools["intoxication"]
        assert "cannabis" not in pools["alcoholism"]
        assert "drunk" in pools["alcoholism"]


class TestOracle:
    def test_identical_classes_fall_to_prior(self):
        vm = VitalsModel((130, 20), (16, 4), (13, 2), 0.5, 0.5)
        probs = {c: 0.2 for c in ("preillness", "intoxication", "alcoholism",
                                  "mental_abnormality", "psychiatric_symptoms")}
        cfg = GeneratorConfig(
            n_psychiatric=70, n_nonpsychiatric=30,
            vitals={PSY: vm, NON: vm},
            keyword_probs={PSY: dict(probs), NON: dict(probs)},
            seed=1,
        )
        est = oracle_accuracy(cfg, draws=60_000)
        assert abs(est.accuracy - 0.7) < 3 * est.stderr + 0.01

    def test_separated_classes_near_one(self):
        cfg = small_config(
            vitals={
                PSY: VitalsModel((240, 4), (30, 1), (4, 0.5), 0.0, 0.0).to_dict(),
                NON: VitalsModel((90, 4), (10, 1), (15, 0.5), 1.0, 1.0).to_dict(),
            },
        )
        est = oracle_accuracy(cfg, draws=30_000)
        assert est.accuracy > 0.999

    def test_seed_invariant_within_error(self):
        cfg = default_config(n_psychiatric=300, n_nonpsychiatric=250, seed=2)
        a = oracle_accuracy(cfg, draws=120_000, seed=101)
        b = oracle_accuracy(cfg, draws=120_000, seed=202)
        assert abs(a.accuracy - b.accuracy) < 3 * (a.stderr + b.stderr)

    def test_stderr_reported(self):
        est = oracle_accuracy(small_config(), draws=5_000)
        assert 0.0 < est.stderr < 0.05
        assert est.draws == 5_000


class TestConfigValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            small_config(negation_prob=1.5)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            small_config(keyword_probs={PSY: {"bogus": 0.5}, NON: {}})

    def test_roundtrip(self):
        cfg = default_config()
        assert from_dict(GeneratorConfig, cfg.to_dict()) == cfg
