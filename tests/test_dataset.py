import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tabmtl.dataset import (
    ColumnDescriptor,
    Dataset,
    NormalizationStats,
    OutcomeVector,
    RawTable,
    apply_ordinal,
    apply_standardizer,
    clean,
    dataset_schema,
    fit_standardizer,
    kfold_split,
    load_csv,
    load_schema,
    mice_impute,
    preprocess_pipeline,
    save_schema,
    schema_from_json,
    schema_to_json,
    select_task,
    subset_rows,
    transform,
    write_dataset_csv,
)
from tabmtl.errors import ConfigError, DataError

NUM_A = ColumnDescriptor("a", "numeric")
NUM_B = ColumnDescriptor("b", "numeric")
OUT_CLS = ColumnDescriptor("label", "outcome", task_index=0, task="classification", num_classes=2)
OUT_REG = ColumnDescriptor("target", "outcome", task_index=0, task="regression")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def cells(table):
    """Each column of the table as a list, None for a missing cell."""
    return [[None if v is None or v != v else v for v in c.tolist()] for c in table.columns]


class TestRawTable:
    def test_numbers_stored_as_float64_and_text_as_objects(self):
        cat = ColumnDescriptor("color", "categorical", levels=("r", "g"))
        table = RawTable((NUM_A, cat), ([1.0, None], ["r", None]))
        assert table.columns[0].dtype == np.float64 and np.isnan(table.columns[0][1])
        assert table.columns[1].tolist() == ["r", None]
        assert table.n_rows == 2

    def test_one_column_per_schema_entry(self):
        with pytest.raises(DataError, match="2 columns for 3 schema entries"):
            RawTable((NUM_A, NUM_B, OUT_CLS), ([1.0], [2.0]))

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(DataError, match="unequal lengths"):
            RawTable((NUM_A, NUM_B, OUT_CLS), ([1.0, 2.0], [3.0], [0.0, 1.0]))


class TestLoadCsv:
    def test_happy_path_with_reordered_header(self, tmp_path):
        path = write(tmp_path, "label,b,a\n1,2.5,1.0\n0,NA,\n")
        table = load_csv(path, (NUM_A, NUM_B, OUT_CLS))
        assert cells(table) == [[1.0, None], [2.5, None], [1.0, 0.0]]

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1.0,oops,1\n")
        with pytest.raises(DataError, match=r"row 0.*'b'.*'oops'"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    def test_row_length_mismatch(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1.0,2.0,1\n3.0,4.0\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    def test_missing_schema_column(self, tmp_path):
        path = write(tmp_path, "a,label\n1.0,1\n")
        with pytest.raises(DataError, match="lacks"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    def test_unknown_column(self, tmp_path):
        path = write(tmp_path, "a,b,extra,label\n1,2,3,1\n")
        with pytest.raises(DataError, match="unknown"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    def test_nonfinite_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,label\ninf,2.0,1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    def test_categorical_cells_stay_strings(self, tmp_path):
        cat = ColumnDescriptor("color", "categorical", levels=("red", "green"))
        path = write(tmp_path, "color,label\nred,0\ngreen,1\n")
        table = load_csv(path, (cat, OUT_CLS))
        assert table.columns[0][0] == "red"

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,b,label\n1.0,2.0,1\n".encode("utf-8-sig"))
        table = load_csv(path, (NUM_A, NUM_B, OUT_CLS))
        assert cells(table) == [[1.0], [2.0], [1.0]]

    def test_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b,label\n1.0,2.0,1\n".encode() + "caf\u00e9".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv.*UTF-8"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))


class TestClean:
    def test_removes_duplicate_rows_on_attributes_only(self):
        # rows 0 and 2 agree on every input attribute, outcome differs
        table = RawTable((NUM_A, NUM_B, OUT_CLS),
                         ([1.0, 4.0, 1.0], [2.0, 3.0, 2.0], [1.0, 1.0, 0.0]))
        cleaned, report = clean(table)
        assert cleaned.n_rows == 2
        assert report.duplicates_removed == 1
        assert cells(cleaned) == [[1.0, 4.0], [2.0, 3.0], [1.0, 1.0]]

    def test_rows_missing_the_same_cell_are_duplicates(self):
        # rows 0 and 2 agree on every attribute, each missing 'a'
        table = RawTable(
            (NUM_A, NUM_B, OUT_CLS),
            ([None, 1.0, None, 4.0], [2.0, 3.0, 2.0, 5.0], [1.0, 0.0, 0.0, 1.0]),
        )
        cleaned, report = clean(table)
        assert report.duplicates_removed == 1
        assert cells(cleaned) == [[None, 1.0, 4.0], [2.0, 3.0, 5.0], [1.0, 0.0, 1.0]]

    def test_drops_constant_column(self):
        table = RawTable((NUM_A, NUM_B, OUT_CLS),
                         ([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0]))
        cleaned, report = clean(table)
        assert [c.name for c in cleaned.schema] == ["b", "label"]
        assert report.dropped_columns == [{"name": "a", "reason": "constant"}]

    def test_missing_fraction_strictly_greater(self):
        # 'a' missing 8/10 = 0.8 exactly: kept at threshold 0.8, dropped below it
        columns = ([None] * 8 + [1.0, 2.0], [*map(float, range(8)), 98.0, 99.0],
                   [float(i % 2) for i in range(8)] + [1.0, 0.0])
        kept, _ = clean(RawTable((NUM_A, NUM_B, OUT_CLS), columns), 0.8)
        assert any(c.name == "a" for c in kept.schema)
        dropped, report = clean(RawTable((NUM_A, NUM_B, OUT_CLS), columns), 0.75)
        assert all(c.name != "a" for c in dropped.schema)
        assert "missing fraction" in report.dropped_columns[0]["reason"]

    def test_outcome_never_dropped(self):
        table = RawTable((NUM_A, OUT_CLS), ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))  # outcome constant
        cleaned, _ = clean(table)
        assert any(c.kind == "outcome" for c in cleaned.schema)

    def test_column_drop_exposes_new_duplicates(self):
        # unique only through column b; b is constant and gets dropped,
        # after which the two rows collide and one must go
        table = RawTable((NUM_A, NUM_B, OUT_CLS),
                         ([1.0, 1.0, 2.0], [7.0, 7.0, 7.0], [0.0, 1.0, 0.0]))
        cleaned, report = clean(table)
        assert report.duplicates_removed == 1
        assert report.dropped_columns[0]["name"] == "b"
        assert cleaned.n_rows == 2

    def test_error_when_all_attributes_dropped(self):
        table = RawTable((NUM_A, OUT_CLS), ([3.0, 3.0], [0.0, 1.0]))
        with pytest.raises(DataError, match="dropped every"):
            clean(table)

    def test_bad_fraction_rejected(self):
        table = RawTable((NUM_A, OUT_CLS), ([1.0, 2.0], [0.0, 1.0]))
        with pytest.raises(ConfigError):
            clean(table, max_missing_frac=1.5)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, 0.0, 1.0]),
                st.sampled_from([None, 0.0, 1.0, 2.0]),
                st.sampled_from([None, 0.0, 1.0]),
                st.sampled_from([0.0, 1.0]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_cleaning_is_idempotent(self, rows):
        schema = (
            ColumnDescriptor("c0", "numeric"),
            ColumnDescriptor("c1", "numeric"),
            ColumnDescriptor("c2", "numeric"),
            ColumnDescriptor("y", "outcome", task_index=0, task="regression"),
        )
        table = RawTable(schema, tuple(zip(*rows)))
        try:
            once, _ = clean(table, 0.6)
        except DataError:
            assume(False)
        twice, report = clean(once, 0.6)
        assert cells(twice) == cells(once)
        assert twice.schema == once.schema
        assert report.duplicates_removed == 0
        assert report.dropped_columns == []


class TestOrdinal:
    SCHEMA = (
        ColumnDescriptor("grade", "ordinal", mapping={"low": 0.0, "mid": 1.0, "high": 2.0}),
        OUT_REG,
    )

    def test_maps_strings(self):
        table = RawTable(self.SCHEMA, (["low", "high", None], [1.0, 2.0, 3.0]))
        mapped = apply_ordinal(table)
        assert cells(mapped) == [[0.0, 2.0, None], [1.0, 2.0, 3.0]]

    def test_unknown_value_rejected(self):
        table = RawTable(self.SCHEMA, (["nope"], [1.0]))
        with pytest.raises(DataError, match="'nope'"):
            apply_ordinal(table)


def numeric_table(arrays, missing):
    """Columns c0.. from float arrays, with the ``missing`` (row, col) cells blanked."""
    columns = [np.array(a, dtype=np.float64) for a in arrays]
    for i, j in missing:
        columns[j][i] = np.nan
    return RawTable(tuple(ColumnDescriptor(f"c{j}", "numeric") for j in range(len(columns))),
                    columns)


class TestMice:
    def test_observed_cells_untouched(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=20), rng.normal(size=20)
        miss = {(3, 0), (7, 1), (11, 0)}
        table = numeric_table([a, b], miss)
        imputed = mice_impute(table)
        for j, (orig, new) in enumerate(zip(table.columns, imputed.columns)):
            for i in range(20):
                if (i, j) not in miss:
                    assert new[i] == orig[i]
                else:
                    assert np.isfinite(new[i])

    def test_single_column_matches_independent_least_squares(self):
        rng = np.random.default_rng(2)
        n = 50
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 1.5 * x1 - 2.0 * x2 + 0.3 + 0.05 * rng.normal(size=n)
        miss_rows = [4, 17, 30, 42]
        table = numeric_table([x1, x2, y], {(i, 2) for i in miss_rows})
        imputed = mice_impute(table, max_sweeps=10, tol=1e-12)
        obs = np.array([i for i in range(n) if i not in miss_rows])
        design = np.column_stack([np.ones(len(obs)), x1[obs], x2[obs]])
        beta = np.linalg.lstsq(design, y[obs], rcond=None)[0]
        for i in miss_rows:
            expected = beta[0] + beta[1] * x1[i] + beta[2] * x2[i]
            assert imputed.columns[2][i] == pytest.approx(expected, abs=1e-6)

    def test_exact_linear_relation_recovered(self):
        x = np.linspace(-2, 2, 30)
        y = 2.0 * x + 1.0
        miss_rows = [2, 9, 21, 28]
        table = numeric_table([x, y], {(i, 1) for i in miss_rows})
        imputed = mice_impute(table)
        for i in miss_rows:
            assert imputed.columns[1][i] == pytest.approx(2.0 * x[i] + 1.0, abs=1e-6)

    def test_no_missing_is_identity(self):
        table = numeric_table([np.arange(5.0), np.arange(5.0) ** 2], set())
        assert mice_impute(table) is table

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.normal(size=(3, 25))
        miss = {(1, 0), (2, 1), (5, 2), (9, 0)}
        table = numeric_table([a, b, c], miss)
        first = mice_impute(table)
        second = mice_impute(table)
        assert cells(first) == cells(second)

    def test_too_few_observed_rejected(self):
        table = numeric_table([np.arange(3.0), np.arange(3.0)], {(0, 1), (1, 1)})
        with pytest.raises(DataError, match="observed"):
            mice_impute(table)

    def test_non_numeric_column_rejected(self):
        # a numeric-kind column holding text, as only a hand-built table can
        table = RawTable((NUM_A, NUM_B), ([1.0, None, 3.0], [1.0, "x", 2.0]))
        with pytest.raises(DataError, match="non-numeric value 'x'"):
            mice_impute(table)

    def test_categorical_and_identifier_columns_pass_through(self):
        cat = ColumnDescriptor("color", "categorical", levels=("r", "g"))
        ident = ColumnDescriptor("pid", "identifier")
        a, b = [1.0, None, 3.0, 4.0, 5.5], [2.0, 4.1, None, 8.2, 9.0]
        table = RawTable((ident, NUM_A, cat, NUM_B),
                         (["p1", "p2", "p3", "p4", None], a, ["r", "g", None, "r", "g"], b))
        imputed = mice_impute(table)
        assert imputed.columns[0].tolist() == ["p1", "p2", "p3", "p4", None]
        assert imputed.columns[2].tolist() == ["r", "g", None, "r", "g"]
        # they take no part in the regressions either
        alone = mice_impute(RawTable((NUM_A, NUM_B), (a, b)))
        assert cells(imputed)[1::2] == cells(alone)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_property_observed_kept_missing_filled_deterministic(self, data):
        n, p = data.draw(st.integers(4, 12)), data.draw(st.integers(1, 4))
        x = data.draw(hnp.arrays(np.float64, (n, p), elements=st.floats(-1e3, 1e3)))
        mask = data.draw(hnp.arrays(np.bool_, (n, p)))
        assume(np.all((~mask).sum(axis=0) >= 2))
        levels = ("r", "g", "b")
        cat = data.draw(st.lists(st.sampled_from((*levels, None)), min_size=n, max_size=n))
        schema = (*(ColumnDescriptor(f"c{j}", "numeric") for j in range(p)),
                  ColumnDescriptor("color", "categorical", levels=levels))
        table = RawTable(schema, (*np.where(mask, np.nan, x).T, cat))

        imputed = mice_impute(table)
        out = np.column_stack(imputed.columns[:p])
        assert np.array_equal(out[~mask].view(np.uint64), x[~mask].view(np.uint64))
        assert np.all(np.isfinite(out[mask]))
        assert cells(imputed)[p] == cat
        again = np.column_stack(mice_impute(table).columns[:p])
        assert np.array_equal(again.view(np.uint64), out.view(np.uint64))


class TestTransform:
    def test_zscore_hand_values(self):
        table = RawTable((NUM_A, OUT_REG), ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]))
        ds = transform(table)
        expected = (3.0 - 2.0) / math.sqrt(2.0 / 3.0)
        assert expected == pytest.approx(1.224744871391589, abs=1e-15)
        assert ds.features[:, 0] == pytest.approx([-expected, 0.0, expected], abs=1e-12)
        assert ds.normalization_stats.mean[0] == pytest.approx(2.0)
        assert ds.normalization_stats.std[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_constant_feature_zeroed_with_unit_std(self):
        schema = (NUM_A, NUM_B, OUT_REG)
        table = RawTable(schema, ([7.0, 7.0, 7.0], [1.0, 2.0, 5.0], [0.0, 1.0, 2.0]))
        ds = transform(table)
        assert np.all(ds.features[:, 0] == 0.0)
        assert ds.normalization_stats.std[0] == 1.0

    def test_timeseries_group_summed_at_first_position(self):
        schema = (
            NUM_A,
            ColumnDescriptor("day1", "timeseries", group="dose"),
            ColumnDescriptor("day2", "timeseries", group="dose"),
            NUM_B,
            OUT_REG,
        )
        table = RawTable(schema, (
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 5.0],
            [2.0, 4.0, 7.0],
            [10.0, 20.0, 30.0],
            [0.0, 1.0, 2.0],
        ))
        ds = transform(table)
        assert ds.feature_names == ("a", "dose_sum", "b")
        sums = ds.raw_features()[:, 1]
        assert sums == pytest.approx([3.0, 7.0, 12.0])

    def test_one_hot_names_and_indicators(self):
        cat = ColumnDescriptor("color", "categorical", levels=("red", "green", "blue"))
        table = RawTable((cat, OUT_REG), (["red", "blue", "green"], [0.0, 1.0, 2.0]))
        ds = transform(table)
        assert ds.feature_names == ("color=red", "color=green", "color=blue")
        raw = ds.raw_features()
        assert raw[0] == pytest.approx([1.0, 0.0, 0.0])
        assert raw[1] == pytest.approx([0.0, 0.0, 1.0])

    def test_undeclared_level_rejected(self):
        cat = ColumnDescriptor("color", "categorical", levels=("red",))
        table = RawTable((cat, OUT_REG), (["purple"], [0.0]))
        with pytest.raises(DataError, match="'purple'"):
            transform(table)

    def test_identifier_dropped(self):
        ident = ColumnDescriptor("patient_id", "identifier")
        table = RawTable((ident, NUM_A, OUT_REG), (["p1", "p2"], [1.0, 2.0], [0.0, 1.0]))
        ds = transform(table)
        assert ds.feature_names == ("a",)

    def test_outcomes_ordered_by_task_index(self):
        schema = (
            NUM_A,
            ColumnDescriptor("second", "outcome", task_index=1, task="regression"),
            ColumnDescriptor("first", "outcome", task_index=0, task="classification",
                             num_classes=2),
        )
        table = RawTable(schema, ([1.0, 2.0], [0.5, 1.5], [1.0, 0.0]))
        ds = transform(table)
        assert ds.task_names() == ("first", "second")
        assert ds.outcomes[0].values.dtype == np.int64

    def test_non_integer_labels_rejected(self):
        table = RawTable((NUM_A, OUT_CLS), ([1.0, 2.0], [0.5, 1.0]))
        with pytest.raises(DataError, match="integer"):
            transform(table)

    def test_missing_cell_rejected(self):
        table = RawTable((NUM_A, OUT_REG), ([None, 2.0], [0.0, 1.0]))
        with pytest.raises(DataError, match="missing"):
            transform(table)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-5, 5, allow_nan=False),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_output_standardized(self, pairs):
        a, b = zip(*pairs)
        ds = transform(RawTable((NUM_A, NUM_B, OUT_CLS), (a, b, [i % 2 for i in range(len(a))])))
        assert np.all(np.isfinite(ds.features))
        for j in range(2):
            col = ds.features[:, j]
            if np.all(col == 0.0):
                continue
            assert abs(col.mean()) < 1e-9
            assert col.std() == pytest.approx(1.0, abs=1e-9)


class TestDataset:
    def make(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        outs = (
            OutcomeVector("y1", "classification", np.array([0, 1, 0]), 2),
            OutcomeVector("y2", "regression", np.array([0.5, 1.5, 2.5])),
        )
        return Dataset(features, ("f1", "f2"), outs, NormalizationStats.identity(2))

    def test_raw_features_inverts_zscore(self):
        rng = np.random.default_rng(8)
        x = rng.normal(2.0, 3.0, size=(20, 4))
        stats = fit_standardizer(x)
        z = apply_standardizer(x, stats)
        ds = Dataset(z, ("a", "b", "c", "d"),
                     (OutcomeVector("y", "regression", np.zeros(20)),), stats)
        assert np.allclose(ds.raw_features(), x, atol=1e-12)

    def test_subset_rows(self):
        ds = subset_rows(self.make(), np.array([2, 0]))
        assert ds.n_rows == 2
        assert ds.features[0, 0] == 5.0
        assert ds.outcomes[1].values[1] == 0.5

    def test_select_task(self):
        ds = select_task(self.make(), "y2")
        assert ds.task_names() == ("y2",)
        with pytest.raises(ConfigError):
            select_task(ds, "y1")

    def test_outcome_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(
                np.zeros((3, 1)), ("f",),
                (OutcomeVector("y", "regression", np.zeros(2)),),
                NormalizationStats.identity(1),
            )

    def test_label_range_checked(self):
        with pytest.raises(DataError):
            OutcomeVector("y", "classification", np.array([0, 2]), 2)

    def test_require_complete(self):
        x = np.array([[1.0], [np.nan]])
        ds = Dataset(x, ("f",),
                     (OutcomeVector("y", "regression", np.zeros(2)),),
                     NormalizationStats.identity(1))
        assert not ds.is_complete()
        with pytest.raises(DataError):
            ds.require_complete()


class TestKfold:
    def test_seven_rows_five_folds(self):
        plan = kfold_split(7, 5, seed=0)
        sizes = sorted(len(plan.test_indices(f)) for f in range(5))
        assert sizes == [1, 1, 1, 2, 2]

    def test_deterministic_and_seed_sensitive(self):
        a = kfold_split(40, 5, seed=3)
        b = kfold_split(40, 5, seed=3)
        c = kfold_split(40, 5, seed=4)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_train_test_disjoint_and_cover(self):
        plan = kfold_split(23, 4, seed=1)
        for f in range(4):
            tr, te = plan.train_indices(f), plan.test_indices(f)
            assert len(np.intersect1d(tr, te)) == 0
            assert sorted(np.concatenate([tr, te]).tolist()) == list(range(23))

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            kfold_split(10, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold_split(3, 4, seed=0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_partition_property(self, data):
        n = data.draw(st.integers(2, 120))
        k = data.draw(st.integers(2, min(n, 10)))
        seed = data.draw(st.integers(0, 1000))
        plan = kfold_split(n, k, seed)
        all_test = np.concatenate([plan.test_indices(f) for f in range(k)])
        assert sorted(all_test.tolist()) == list(range(n))
        sizes = [len(plan.test_indices(f)) for f in range(k)]
        assert max(sizes) - min(sizes) <= 1
        assert all(s in (n // k, n // k + 1) for s in sizes)
        dealt = np.empty(n, dtype=np.int64)
        for pos, idx in enumerate(np.random.default_rng(seed).permutation(n)):
            dealt[idx] = pos % k  # the round-robin deal, one row at a time
        assert np.array_equal(plan.assignments, dealt)


class TestSchemaJson:
    FULL = (
        ColumnDescriptor("id", "identifier"),
        ColumnDescriptor("age", "numeric"),
        ColumnDescriptor("stage", "ordinal", mapping={"I": 1.0, "II": 2.0}),
        ColumnDescriptor("color", "categorical", levels=("r", "g")),
        ColumnDescriptor("d1", "timeseries", group="dose"),
        ColumnDescriptor("y", "outcome", task_index=0, task="classification", num_classes=3),
        ColumnDescriptor("z", "outcome", task_index=1, task="regression"),
    )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        save_schema(self.FULL, path)
        loaded = load_schema(path)
        assert loaded == self.FULL

    def test_json_shape(self):
        doc = schema_to_json(self.FULL)
        assert doc[0] == {"name": "id", "kind": "identifier", "params": {}}
        assert doc[5]["params"] == {"task_index": 0, "task": "classification",
                                    "num_classes": 3}

    def test_invalid_json_rejected(self, tmp_path):
        path = write(tmp_path, "not json", "schema.json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_schema(path)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            schema_from_json([
                {"name": "a", "kind": "numeric", "params": {}},
                {"name": "a", "kind": "numeric", "params": {}},
            ])

    def test_task_indices_must_be_contiguous(self):
        with pytest.raises(ConfigError, match="task_index"):
            schema_from_json([
                {"name": "y", "kind": "outcome",
                 "params": {"task_index": 1, "task": "regression"}},
            ])


class TestCsvRoundTrip:
    def test_value_exact_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        outs = (
            OutcomeVector("y1", "classification", rng.integers(0, 2, 10), 2),
            OutcomeVector("y2", "regression", rng.normal(size=10)),
        )
        ds = Dataset(x, ("f1", "f2", "f3"), outs, NormalizationStats.identity(3))
        path = tmp_path / "round.csv"
        write_dataset_csv(ds, path)
        back = load_csv(path, dataset_schema(ds))
        assert np.array_equal(np.column_stack(back.columns[:3]), x)
        assert np.array_equal(back.columns[3].astype(np.int64), outs[0].values)

    def test_nan_written_as_na(self, tmp_path):
        x = np.array([[1.0], [np.nan]])
        ds = Dataset(x, ("f",),
                     (OutcomeVector("y", "regression", np.zeros(2)),),
                     NormalizationStats.identity(1))
        path = tmp_path / "na.csv"
        write_dataset_csv(ds, path)
        assert "NA" in path.read_text()
        back = load_csv(path, dataset_schema(ds))
        assert np.isnan(back.columns[0][1])


class TestPipeline:
    def test_end_to_end_with_missing(self):
        rng = np.random.default_rng(6)
        n = 40
        x1 = rng.normal(size=n)
        x2 = 0.5 * x1 + 0.1 * rng.normal(size=n)
        y = (x1 > 0).astype(float)
        a = np.where(np.arange(n) % 7 == 0, np.nan, x1)
        table = RawTable((NUM_A, NUM_B, OUT_CLS), (a, x2, y))
        ds, report = preprocess_pipeline(table)
        assert ds.is_complete()
        assert ds.n_rows == n
        assert report.dropped_columns == []

    def test_missing_categorical_rejected(self):
        cat = ColumnDescriptor("color", "categorical", levels=("r", "g"))
        table = RawTable((cat, NUM_A, OUT_REG),
                         (["r", None, "g"], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0]))
        with pytest.raises(DataError, match="missing"):
            preprocess_pipeline(table)
