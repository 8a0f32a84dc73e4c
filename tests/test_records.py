import json
import logging
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.typing import NDArray

from rescue_triage.cli import main
from rescue_triage.records import (
    BAD_VALUE,
    EMPTY_CASE_ID,
    FEATURE_ORDER,
    GCS_OUT_OF_RANGE,
    NEGATIVE_VITAL,
    ConfigError,
    ConfusionMatrix,
    Dataset,
    FeatureVector,
    Label,
    MissingVitalError,
    RecordValidationError,
    RescueRecord,
    TextFeatures,
    Vitals,
    asjson,
    check_unique_case_ids,
    from_dict,
    record_to_dict,
    to_feature_vector,
    validate_record,
)

from conftest import REFERENCE_CASES


def full_vitals(**overrides):
    base = dict(
        systolic_bp=130.0,
        respiratory_rate=16.0,
        gcs=15,
        circulation_normal=True,
        pulse_rhythm_regular=False,
    )
    base.update(overrides)
    return Vitals(**base)


class TestVitals:
    def test_partial_fields_allowed(self):
        v = Vitals(systolic_bp=120.0)
        assert v.missing_fields() == [
            "respiratory_rate", "gcs", "circulation_normal", "pulse_rhythm_regular"
        ]
        assert not v.complete

    def test_negative_bp_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Vitals(systolic_bp=-10.0)

    def test_gcs_bounds(self):
        with pytest.raises(ValueError):
            Vitals(gcs=2)
        with pytest.raises(ValueError):
            Vitals(gcs=16)
        assert Vitals(gcs=3).gcs == 3
        assert Vitals(gcs=15).gcs == 15

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(RecordValidationError) as err:
            Vitals(systolic_bp=float("nan"))
        assert {(i.kind, i.field) for i in err.value.issues} == {(BAD_VALUE, "systolic_bp")}

    def test_every_bad_field_named(self):
        with pytest.raises(RecordValidationError) as err:
            Vitals(systolic_bp=-1.0, respiratory_rate=float("inf"), gcs=2)
        assert {(i.kind, i.field) for i in err.value.issues} == {
            (NEGATIVE_VITAL, "systolic_bp"), (BAD_VALUE, "respiratory_rate"), (GCS_OUT_OF_RANGE, "gcs")
        }


class TestValidateRecord:
    def test_valid_record(self):
        rec = validate_record(
            {"case_id": "a1", "gcs": 15, "respiratory_rate": 16, "systolic_bp": 130,
             "circulation_normal": True, "pulse_rhythm_regular": False,
             "notes": ["ok"], "label": "psychiatric"}
        )
        assert rec.case_id == "a1"
        assert rec.vitals.complete
        assert rec.label == Label.PSYCHIATRIC

    def test_negative_respiratory_rate(self):
        with pytest.raises(RecordValidationError) as err:
            validate_record({"case_id": "a", "respiratory_rate": -5})
        kinds = {(i.kind, i.field) for i in err.value.issues}
        assert (NEGATIVE_VITAL, "respiratory_rate") in kinds

    def test_gcs_out_of_range(self):
        with pytest.raises(RecordValidationError) as err:
            validate_record({"case_id": "a", "gcs": 17})
        assert {(i.kind, i.field) for i in err.value.issues} == {(GCS_OUT_OF_RANGE, "gcs")}

    def test_collects_all_violations(self):
        with pytest.raises(RecordValidationError) as err:
            validate_record({"case_id": "", "gcs": 17, "systolic_bp": -1})
        kinds = {i.kind for i in err.value.issues}
        assert kinds == {EMPTY_CASE_ID, GCS_OUT_OF_RANGE, NEGATIVE_VITAL}

    def test_single_field_violations_enumerated(self):
        good = {"case_id": "a", "gcs": 15, "respiratory_rate": 16, "systolic_bp": 130,
                "circulation_normal": 1, "pulse_rhythm_regular": 0}
        validate_record(good)  # sanity: accepted
        for field, bad in [("case_id", ""), ("gcs", 16), ("gcs", 2),
                           ("respiratory_rate", -5), ("systolic_bp", 0)]:
            raw = dict(good)
            raw[field] = bad
            with pytest.raises(RecordValidationError):
                validate_record(raw)

    @pytest.mark.parametrize("field, value", [("gcs", "nan"), ("gcs", "inf"), ("systolic_bp", "nan")])
    def test_non_finite_vital_is_a_bad_value(self, field, value):
        with pytest.raises(RecordValidationError) as err:
            validate_record({"case_id": "a", field: value})
        assert {(i.kind, i.field) for i in err.value.issues} == {(BAD_VALUE, field)}

    def test_unknown_label_permitted_prelabeling(self):
        rec = validate_record({"case_id": "a"})
        assert rec.label == Label.UNKNOWN
        assert rec.vitals is None

    def test_empty_case_id_rejected_on_type(self):
        with pytest.raises(RecordValidationError):
            RescueRecord(case_id="  ")


class TestFeatureVector:
    def test_all_text_none_direct_encoding(self):
        fv = to_feature_vector(full_vitals(circulation_normal=True), TextFeatures())
        assert fv.circulation_normal == 1.0
        assert fv.preillness == fv.intoxication == fv.alcoholism == 0.0
        assert fv.mental_abnormality == fv.psychiatric_symptoms == 0.0

    def test_reference_case_has_two_text_bits(self):
        fv, _, _ = REFERENCE_CASES["Test1"]
        bits = [fv.preillness, fv.intoxication, fv.alcoholism,
                fv.mental_abnormality, fv.psychiatric_symptoms]
        assert sum(bits) == 2.0
        assert fv.alcoholism == 1.0 and fv.intoxication == 1.0
        assert fv.gcs == 12.0 and fv.systolic_bp == 130.0 and fv.respiratory_rate == 16.0

    def test_missing_vital_raises(self):
        with pytest.raises(MissingVitalError) as err:
            to_feature_vector(Vitals(systolic_bp=120.0), TextFeatures())
        assert "gcs" in err.value.missing

    def test_bit_entries_validated(self):
        with pytest.raises(ValueError):
            FeatureVector.from_array([15, 0.5, 130, 0, 16, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected(self, value):
        with pytest.raises(ValueError, match="systolic_bp"):
            FeatureVector.from_array([15, 1, value, 0, 16, 0, 0, 0, 0, 0])

    def test_fixed_order(self):
        fv, _, _ = REFERENCE_CASES["Test2"]
        arr = fv.to_array()
        assert list(arr) == [getattr(fv, n) for n in FEATURE_ORDER]
        assert FEATURE_ORDER[0] == "gcs" and FEATURE_ORDER[-1] == "psychiatric_symptoms"

    @settings(max_examples=200, deadline=None)
    @given(
        gcs=st.integers(3, 15),
        bp=st.floats(1.0, 400.0, allow_nan=False),
        rr=st.floats(0.5, 80.0, allow_nan=False),
        bits=st.tuples(*[st.booleans()] * 7),
    )
    def test_roundtrip_array_and_json(self, gcs, bp, rr, bits):
        circ, pulse, *text = bits
        fv = FeatureVector(
            gcs=float(gcs), circulation_normal=float(circ), systolic_bp=bp,
            pulse_rhythm_regular=float(pulse), respiratory_rate=rr,
            preillness=float(text[0]), intoxication=float(text[1]),
            alcoholism=float(text[2]), mental_abnormality=float(text[3]),
            psychiatric_symptoms=float(text[4]),
        )
        assert FeatureVector.from_array(fv.to_array()) == fv
        assert FeatureVector.from_dict(json.loads(json.dumps(fv.to_dict()))) == fv

    def test_encoding_injective_on_field_changes(self):
        base, _, _ = REFERENCE_CASES["Test2"]
        seen = {tuple(base.to_array())}
        for i, name in enumerate(FEATURE_ORDER):
            arr = base.to_array()
            arr[i] = 1.0 - arr[i] if arr[i] in (0.0, 1.0) else arr[i] + 1.0
            assert tuple(arr) not in seen


class TestConfusionMatrix:
    def test_total(self):
        cm = ConfusionMatrix(tp=2, fp=1, tn=3, fn=0)
        assert cm.total == 6

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)


class TestSerialization:
    def test_record_jsonl_roundtrip(self):
        rec = validate_record(
            {"case_id": "x9", "gcs": 12, "respiratory_rate": 18, "systolic_bp": 140,
             "circulation_normal": False, "pulse_rhythm_regular": True,
             "notes": ["erste notiz", "zweite notiz"], "label": "non_psychiatric"}
        )
        back = from_dict(RescueRecord, json.loads(json.dumps(record_to_dict(rec))))
        assert back == rec

    def test_corpus_line_validated_like_an_ingest_row(self):
        line = record_to_dict(validate_record({"case_id": "x9", "gcs": 12, "systolic_bp": 140}))
        line["vitals"]["gcs"] = 2
        with pytest.raises(ConfigError, match=r"^RescueRecord\.vitals: gcs_out_of_range: field 'gcs' = 2$"):
            from_dict(RescueRecord, line)

    def test_ingest_drops_a_row_with_infinite_gcs(self, tmp_path, caplog):
        export = tmp_path / "export.csv"
        export.write_text(
            "case_id,systolic_bp,respiratory_rate,gcs,circulation,pulse_rhythm,notes,label\n"
            "k1,130,16,15,normal,false,ruhig,psychiatric\n"
            "k2,120,18,inf,abnormal,true,unruhig,non_psychiatric\n"
        )
        out = tmp_path / "corpus.jsonl"
        with caplog.at_level(logging.WARNING):
            assert main(["ingest", str(export), "--out", str(out)]) == 0
        assert [json.loads(l)["case_id"] for l in out.read_text().splitlines()] == ["k1"]
        assert "dropped row 1" in caplog.text and "'gcs' = inf" in caplog.text

    def test_duplicate_case_ids_detected(self):
        a = RescueRecord(case_id="a")
        with pytest.raises(ValueError):
            check_unique_case_ids([a, RescueRecord(case_id="a")])


@dataclass(frozen=True)
class _Arrays:
    w: NDArray[np.float64]
    mask: NDArray[np.bool_]
    ids: NDArray[np.int32]


class TestArrayFields:
    def test_roundtrip_keeps_values_shapes_and_dtypes(self):
        arrays = _Arrays(
            np.array([[0.1, -2.5], [1e300, 3.0]]), np.array([True, False]), np.array([3, -1], dtype=np.int32)
        )
        back = from_dict(_Arrays, json.loads(json.dumps(asjson(arrays))))
        for name in ("w", "mask", "ids"):
            got, want = getattr(back, name), getattr(arrays, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_an_integer_list_fills_a_float_array(self):
        assert from_dict(_Arrays, {"w": [1, 2], "mask": [], "ids": []}).w.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("key,value,message", [
        ("w", "1.5", "_Arrays.w: expected a rectangular list of float64 values"),
        ("w", ["1.5", "2"], "_Arrays.w: expected a rectangular list of float64 values"),
        ("w", [[1.0, 2.0], [3.0]], "_Arrays.w: expected a rectangular list of float64 values"),
        ("w", [1.0, None], "_Arrays.w: expected a rectangular list of float64 values"),
        ("mask", [0, 1], "_Arrays.mask: expected a rectangular list of bool values"),
        ("ids", [1.5], "_Arrays.ids: expected a rectangular list of int32 values"),
        ("ids", [2**40], "_Arrays.ids: values out of range for int32"),
    ])
    def test_anything_but_a_rectangular_list_of_numbers_is_refused(self, key, value, message):
        d = {"w": [1.0], "mask": [True], "ids": [1], key: value}
        with pytest.raises(ConfigError, match=re.escape(message)):
            from_dict(_Arrays, d)


class TestDataset:
    def test_from_vectors_and_select(self):
        fv1, _, _ = REFERENCE_CASES["Test1"]
        fv2, _, _ = REFERENCE_CASES["Test2"]
        data = Dataset.from_vectors([fv1, fv2], [Label.PSYCHIATRIC, Label.NON_PSYCHIATRIC], ["a", "b"])
        assert data.y.tolist() == [1, 0]
        sub = data.select(["gcs", "alcoholism"])
        assert sub.X.shape == (2, 2)
        assert sub.X[0].tolist() == [12.0, 1.0]
