import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescue_triage.ingest import (
    ColumnAllMissing,
    IngestConfig,
    MissingKeyColumn,
    Table,
    TooFewValues,
    apply_iqr,
    impute,
    ingest_tables,
    iqr_filter,
    merge_cases,
    reduce_columns,
    scrub_cells,
    type_cells,
)
from rescue_triage.records import Label, from_dict


def table(columns, *rows):
    return Table(list(columns), [dict(zip(columns, r)) for r in rows])


CFG = IngestConfig(
    key_column="case_id",
    column_types={"bp": "numeric", "rr": "numeric", "notes": "text", "pulse": "boolean"},
    negative_forbidden_columns=("bp", "rr"),
)


class TestMergeCases:
    def test_single_table_unique_keys_identity(self):
        t = table(["case_id", "bp"], ["k1", "130"], ["k2", "140"])
        merged = merge_cases([t], CFG)
        assert merged.columns == ["case_id", "bp"]
        assert merged.rows == t.rows

    def test_equal_values_collapse(self):
        t = table(["case_id", "bp"], ["k", "130"], ["k", "130"])
        merged = merge_cases([t], CFG)
        assert merged.rows == [{"case_id": "k", "bp": "130"}]

    def test_differing_values_comma_joined_first_seen(self):
        t = table(["case_id", "bp"], ["k", "130"], ["k", "142"])
        merged = merge_cases([t], CFG)
        assert merged.rows == [{"case_id": "k", "bp": "130,142"}]

    def test_across_tables_with_new_columns(self):
        t1 = table(["case_id", "bp"], ["k", "130"])
        t2 = table(["case_id", "rr"], ["k", "16"], ["j", "18"])
        merged = merge_cases([t1, t2], CFG)
        assert merged.columns == ["case_id", "bp", "rr"]
        assert merged.rows[0] == {"case_id": "k", "bp": "130", "rr": "16"}
        assert merged.rows[1] == {"case_id": "j", "bp": None, "rr": "18"}

    def test_missing_key_column(self):
        with pytest.raises(MissingKeyColumn) as err:
            merge_cases([table(["case_id"], ["k"]), table(["bp"], ["130"])], CFG)
        assert err.value.table_index == 1

    def test_idempotent(self):
        t = table(["case_id", "bp"], ["k", "130"], ["k", "142"], ["j", "100"])
        once = merge_cases([t], CFG)
        twice = merge_cases([once], CFG)
        assert twice.rows == once.rows
        assert twice.columns == once.columns

    def test_within_case_cell_sets_stable_under_row_permutation(self):
        rows = [["k", "130"], ["k", "142"], ["k", "150"]]
        base = merge_cases([table(["case_id", "bp"], *rows)], CFG)
        permuted = merge_cases([table(["case_id", "bp"], rows[2], rows[0], rows[1])], CFG)
        assert set(base.rows[0]["bp"].split(",")) == set(permuted.rows[0]["bp"].split(","))


class TestReduceColumns:
    def test_duplicate_column_removed(self):
        t = table(["case_id", "a", "b"], ["k", "1", "1"], ["j", "2", "2"])
        out = reduce_columns(t, CFG)
        assert out.columns == ["case_id", "a"]

    def test_explicit_drop(self):
        cfg = IngestConfig(key_column="case_id", drop_columns=("geo_detail",))
        t = table(["case_id", "geo_detail"], ["k", "x"])
        out = reduce_columns(t, cfg)
        assert out.columns == ["case_id"]

    def test_no_change_without_duplicates(self):
        t = table(["case_id", "a", "b"], ["k", "1", "2"])
        out = reduce_columns(t, CFG)
        assert out.columns == t.columns
        assert out.rows == t.rows

    def test_row_count_preserved(self):
        t = table(["case_id", "a", "b"], ["k", "1", "1"], ["j", "1", "1"], ["i", "2", "2"])
        assert len(reduce_columns(t, CFG).rows) == 3


class TestIqrFilter:
    def test_hand_computed_example(self):
        result = iqr_filter([1, 2, 3, 4, 100], 1.5)
        assert result.low_fence == -1.0
        assert result.high_fence == 7.0
        assert result.outlier_indices == (4,)
        assert result.replacement == 2.5
        assert result.cleaned == [1, 2, 3, 4, 2.5]

    def test_constant_list_no_outliers(self):
        result = iqr_filter([5, 5, 5, 5], 1.5)
        assert result.outlier_indices == ()
        assert result.cleaned == [5, 5, 5, 5]

    def test_clean_list_unchanged(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        result = iqr_filter(values, 1.5)
        assert result.cleaned == values
        assert result.outlier_indices == ()
        assert result.replacement is None

    def test_too_few_values(self):
        with pytest.raises(TooFewValues):
            iqr_filter([1, 2, 3], 1.5)

    def test_output_within_fences_and_length_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.normal(50, 10, 30).tolist() + rng.normal(500, 5, 3).tolist()
            result = iqr_filter(values, 1.5)
            assert len(result.cleaned) == len(values)
            assert all(result.low_fence <= v <= result.high_fence for v in result.cleaned)


class TestImpute:
    def test_mean_fill(self):
        t = table(["case_id", "bp"], ["a", 10.0], ["b", None], ["c", 20.0])
        out = impute(t, CFG)
        assert out.rows[1]["bp"] == 15.0

    def test_full_column_unchanged(self):
        t = table(["case_id", "bp"], ["a", 10.0], ["b", 20.0])
        assert impute(t, CFG).rows == t.rows

    def test_all_missing_column(self):
        t = table(["case_id", "bp"], ["a", None], ["b", None])
        with pytest.raises(ColumnAllMissing):
            impute(t, CFG)

    def test_missing_boolean_left_absent(self):
        t = table(["case_id", "pulse"], ["a", True], ["b", None])
        out = impute(t, CFG)
        assert out.rows[1]["pulse"] is None


_KEYS = st.sampled_from(["k1", "k2", "k3", "k4", "", " ", None])
_CELLS = st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _key_tables(draw):
    tables = []
    for i in range(draw(st.integers(1, 3))):
        keys = draw(st.lists(_KEYS, max_size=8))
        tables.append(table(["case_id", f"c{i}"], *[[k, str(j)] for j, k in enumerate(keys)]))
    return tables


def _numeric_table(cells):
    return table(["case_id", "bp", "rr"], *[[f"k{i}", bp, rr] for i, (bp, rr) in enumerate(cells)])


class TestIngestProperties:
    @settings(max_examples=100, deadline=None)
    @given(_key_tables())
    def test_merge_keeps_first_seen_case_order_across_tables(self, tables):
        first_seen = dict.fromkeys(
            r["case_id"] for t in tables for r in t.rows if r["case_id"] is not None and r["case_id"].strip()
        )
        assert [r["case_id"] for r in merge_cases(tables, CFG).rows] == list(first_seen)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_CELLS, _CELLS), max_size=30))
    def test_iqr_leaves_each_cell_inside_its_fences_or_replaced(self, cells):
        t = _numeric_table(cells)
        out, reports = apply_iqr(t, CFG)
        replacement = {r.column: r.replacement for r in reports}
        for c in ("bp", "rr"):
            present = [r[c] for r in t.rows if r[c] is not None]
            if len(present) < 4:
                assert [r[c] for r in out.rows] == [r[c] for r in t.rows]
                continue
            q1, q3 = np.quantile(present, [0.25, 0.75])
            low, high = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            for before, after in zip(t.rows, out.rows):
                if before[c] is None:
                    assert after[c] is None
                else:
                    assert low <= after[c] <= high or after[c] == replacement[c]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_CELLS, _CELLS), min_size=1, max_size=30))
    def test_impute_leaves_no_numeric_cell_missing(self, cells):
        t = _numeric_table(cells)
        if any(all(r[c] is None for r in t.rows) for c in ("bp", "rr")):
            with pytest.raises(ColumnAllMissing):
                impute(t, CFG)
            return
        out = impute(t, CFG)
        assert all(r[c] is not None for r in out.rows for c in ("bp", "rr"))


class TestScrubAndType:
    def test_quotes_and_brackets_stripped(self):
        t = table(["case_id", "notes"], ["a", '"panik" (stark)'])
        out = scrub_cells(t, CFG)
        assert out.rows[0]["notes"] == "panik stark"

    def test_negative_vital_blanked(self):
        t = table(["case_id", "rr"], ["a", "-5"])
        out = scrub_cells(t, CFG)
        assert out.rows[0]["rr"] is None

    def test_alias_map_applied(self):
        cfg = IngestConfig(
            key_column="case_id",
            column_types={"notes": "text"},
            aliases={"panik": "panic"},
        )
        t = table(["case_id", "notes"], ["a", "starke panik heute"])
        out = scrub_cells(t, cfg)
        assert out.rows[0]["notes"] == "starke panic heute"

    def test_numeric_typing_first_part_of_merged_cell(self):
        t = table(["case_id", "bp"], ["a", "130,142"])
        out = type_cells(t, CFG)
        assert out.rows[0]["bp"] == 130.0

    def test_non_finite_numeric_part_skipped(self):
        t = table(["case_id", "bp"], ["a", "nan"], ["b", "inf,130"], ["c", "120"], ["d", "125"], ["e", "128"])
        typed = type_cells(t, CFG)
        assert [r["bp"] for r in typed.rows] == [None, 130.0, 120.0, 125.0, 128.0]
        apply_iqr(typed, CFG)  # four finite values: the filter runs

    def test_circulation_normalization(self):
        cfg = IngestConfig(key_column="case_id")
        t = table(["case_id", "circulation"], ["a", "Normal"], ["b", "0"], ["c", "3"])
        out = type_cells(t, cfg)
        assert [r["circulation"] for r in out.rows] == [True, False, False]

    def test_boolean_typing(self):
        t = table(["case_id", "pulse"], ["a", "FALSE"], ["b", "true"], ["c", "nonsense"])
        out = type_cells(t, CFG)
        assert [r["pulse"] for r in out.rows] == [False, True, None]


class TestConfig:
    def test_key_column_cannot_be_dropped(self):
        with pytest.raises(ValueError):
            IngestConfig(key_column="k", drop_columns=("k",))

    def test_multiplier_positive(self):
        with pytest.raises(ValueError):
            IngestConfig(iqr_multiplier=0.0)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError):
            from_dict(IngestConfig, {"bogus": 1})


class TestEndToEndIngest:
    def test_csv_shaped_tables_to_records(self):
        cfg = IngestConfig(
            key_column="case_id",
            column_types={
                "systolic_bp": "numeric",
                "respiratory_rate": "numeric",
                "gcs": "numeric",
                "pulse_rhythm": "boolean",
                "notes": "text",
            },
            negative_forbidden_columns=("systolic_bp", "respiratory_rate"),
        )
        t1 = table(
            ["case_id", "systolic_bp", "respiratory_rate", "gcs", "circulation", "pulse_rhythm", "notes", "label"],
            ["k1", "130", "16", "15", "Normal", "FALSE", "patient ruhig", "psychiatric"],
            ["k1", "130", "18", "15", "Normal", "FALSE", None, "psychiatric"],
            ["k2", "120", "-4", "14", "0", "TRUE", "alles ok", "non_psychiatric"],
            ["k3", "125", "17", "13", "Normal", "FALSE", "unauffaellig", "non_psychiatric"],
            ["k4", "122", "15", "14", "Normal", "FALSE", None, "non_psychiatric"],
        )
        records, errors = ingest_tables([t1], cfg)
        assert not errors
        by_id = {r.case_id: r for r in records}
        assert len(by_id) == 4
        assert by_id["k1"].vitals.respiratory_rate == 16.0  # first reading wins
        # negative rr was blanked as a definite outlier, then mean-imputed
        assert by_id["k2"].vitals.respiratory_rate == pytest.approx((16 + 17 + 15) / 3)
        assert by_id["k2"].vitals.circulation_normal is False
        assert by_id["k1"].label == Label.PSYCHIATRIC
