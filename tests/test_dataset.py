import csv
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tabmtl import dataset as dataset_module
from tabmtl.dataset import (
    MICE_RIDGE,
    MISSING_TOKENS,
    CleaningReport,
    ColumnDescriptor,
    Dataset,
    NormalizationStats,
    OutcomeVector,
    RawTable,
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
    validate_schema,
    write_dataset_csv,
)
from tabmtl.errors import ConfigError, DataError
from tabmtl.network import load_model
from tabmtl.synth import load_truth

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
    def test_numbers_and_levels_stored_as_float64(self):
        cat = ColumnDescriptor("color", "categorical", levels=("r", "g"))
        table = RawTable((NUM_A, cat), ([1.0, None], ["r", None]))
        assert table.columns[0].dtype == np.float64 and np.isnan(table.columns[0][1])
        assert table.columns[1].dtype == np.float64
        assert cells(table)[1] == [0.0, None]
        assert table.n_rows == 2

    def test_nan_among_text_is_missing(self):
        # rows 1 and 2 are equal; each holds its own NaN object in 'c', a missing cell
        cat = ColumnDescriptor("c", "categorical", levels=("r", "g"))
        nans = [float("nan"), float("nan")]
        table = RawTable((cat, NUM_A, OUT_REG),
                         (["r", *nans, "g"], [1.0, 2.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0]))
        assert table.columns[0].dtype == np.float64
        assert cells(table)[0] == [0.0, None, None, 1.0]
        cleaned, report = clean(table)
        assert report.duplicates_removed == 1
        assert cells(cleaned)[0] == [0.0, None, 1.0]
        with pytest.raises(DataError, match="^row 1, column 'c': missing value; impute before"):
            transform(cleaned)

    def test_one_column_per_schema_entry(self):
        with pytest.raises(DataError, match="2 columns for 3 schema entries"):
            RawTable((NUM_A, NUM_B, OUT_CLS), ([1.0], [2.0]))

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(DataError, match="unequal lengths"):
            RawTable((NUM_A, NUM_B, OUT_CLS), ([1.0, 2.0], [3.0], [0.0, 1.0]))

    def test_rows_keep_the_input_row_numbers_through_clean_and_mice(self):
        # input rows 10 and 11 agree on every input attribute
        table = RawTable((NUM_A, NUM_B, OUT_REG),
                         ([1.0, 1.0, 2.0, 3.0], [5.0, 5.0, None, 4.0], [0.0, 1.0, 2.0, 3.0]),
                         rows=[10, 11, 12, 13])
        assert RawTable(table.schema, table.columns).rows.tolist() == [0, 1, 2, 3]
        cleaned, _ = clean(table)
        assert cleaned.rows.tolist() == [10, 12, 13]
        assert mice_impute(cleaned).rows.tolist() == [10, 12, 13]
        with pytest.raises(DataError, match="^3 row numbers for 4 rows$"):
            RawTable(table.schema, table.columns, [0, 1, 2])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_numeric_valued_columns_are_float64_or_the_first_text_is_named(self, data):
        schema = (NUM_A, ColumnDescriptor("grade", "ordinal", mapping={"low": 0, "high": 2.5}),
                  ColumnDescriptor("dose_1", "timeseries", group="dose"), OUT_REG)
        n = data.draw(st.integers(0, 8))
        cell = (st.floats(allow_infinity=False) | st.integers(-10**6, 10**6) | st.none()
                | st.sampled_from(["low", "high", "mid", "1.5", ""]))
        columns = [data.draw(st.lists(cell, min_size=n, max_size=n)) for _ in schema]

        def code(value, col):
            """The cell as a float, or None for text its column has no code for."""
            if isinstance(value, str):
                return (col.mapping or {}).get(value)
            return np.nan if value is None else float(value)

        expected = [[code(v, col) for v in column] for column, col in zip(columns, schema)]
        faults = [(r, col.name, columns[j][r]) for r in range(n)
                  for j, col in enumerate(schema) if expected[j][r] is None]
        if faults:
            row, name, value = faults[0]
            named = rf"^row {row}, column '{name}': .*{re.escape(repr(value))}"
            with pytest.raises(DataError, match=named):
                RawTable(schema, columns)
        else:
            table = RawTable(schema, columns)
            for got, want in zip(table.columns, expected):
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_level_and_identifier_columns_are_codes_or_the_first_fault_is_named(self, data):
        levels = ("n", "s", "w")
        schema = (ColumnDescriptor("pid", "identifier"), NUM_A,
                  ColumnDescriptor("site", "categorical", levels=levels), OUT_REG)
        n = data.draw(st.integers(0, 8))
        missing = st.none() | st.builds(float, st.just("nan"))  # a fresh NaN object each time
        # numbers and texts that print alike, so a code by text would merge them
        number = st.sampled_from([0, 1, 1.0, -0.0, 2.5]) | st.floats(allow_nan=False,
                                                                    allow_infinity=False)
        refused = data.draw(st.booleans())  # else no cell is refused
        cell = {
            "pid": missing | number | st.sampled_from(["0", "1", "1.0", "2.5", "a", "nan", ""]),
            "a": missing | number | (st.just("x") if refused else st.nothing()),
            "site": missing | st.sampled_from(levels)
                    | (st.sampled_from(["zz", "N", "", 1.0]) if refused else st.nothing()),
            "target": missing | number,
        }
        columns = [data.draw(st.lists(cell[col.name], min_size=n, max_size=n)) for col in schema]

        def is_missing(value):
            return value is None or (isinstance(value, float) and math.isnan(value))

        def identifier_codes(column):
            """Codes in first-seen order, equal exactly where the cells are: found by
            ``==`` against a list, not by hashing (text never equals a number)."""
            distinct, codes = [], []
            for v in column:
                if is_missing(v):
                    codes.append(np.nan)
                    continue
                if all(d != v for d in distinct):
                    distinct.append(v)
                codes.append(float(next(k for k, d in enumerate(distinct) if d == v)))
            return codes

        def code(value, col):
            """The cell as a float, or None for a cell its column refuses."""
            if is_missing(value):
                return np.nan
            if col.kind == "categorical":
                return float(levels.index(value)) if value in levels else None
            return None if isinstance(value, str) else float(value)

        expected = [identifier_codes(columns[0])] + [
            [code(v, col) for v in column] for column, col in zip(columns[1:], schema[1:])]
        faults = [(r, col.name, columns[j][r]) for r in range(n)
                  for j, col in enumerate(schema) if expected[j][r] is None]
        if faults:
            row, name, value = faults[0]
            named = rf"^row {row}, column '{name}': .*{re.escape(repr(value))}"
            with pytest.raises(DataError, match=named):
                RawTable(schema, columns)
            return
        table = RawTable(schema, columns)
        for got, want in zip(table.columns, expected):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)
        # a table's own columns are its codes: building it again changes nothing
        again = RawTable(schema, table.columns)
        assert [c.tobytes() for c in again.columns] == [c.tobytes() for c in table.columns]

    def test_float64_categorical_column_is_taken_as_level_indices(self):
        cat = ColumnDescriptor("color", "categorical", levels=("r", "g"))
        table = RawTable((cat, OUT_REG), (np.array([1.0, np.nan, 0.0]), [0.0, 1.0, 2.0]))
        assert cells(table)[0] == [1.0, None, 0.0]
        for codes, named in (([0.0, 2.0, 1.0], "row 1, column 'color': code 2.0"),
                             ([0.0, 1.0, 0.5], "row 2, column 'color': code 0.5"),
                             ([-1.0, 1.0, 0.0], "row 0, column 'color': code -1.0")):
            with pytest.raises(DataError, match="^" + re.escape(named) + r" is not a level index in \[0, 2\)$"):
                RawTable((cat, OUT_REG), (np.array(codes), [0.0, 1.0, 2.0]))


def reference_load_csv(path, schema):
    """A per-cell loop for load_csv: each row in turn, each cell of it parsed
    alone. The rows read before a read fault make a RawTable, so a bad cell among
    them is named first; then that fault is raised. Expects a header that
    matches the schema."""

    def parse(text, col):
        """None if missing, a float if a numeric-valued column's text is a finite
        number, else the text for RawTable to code or refuse."""
        if text in MISSING_TOKENS:
            return None
        try:
            value = float(text)
        except ValueError:
            return text
        return value if col.is_numeric_valued() and math.isfinite(value) else text

    cols = validate_schema(schema)
    columns, fault = [[] for _ in cols], None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            for row_idx, record in enumerate(reader):
                if len(record) != len(header):
                    fault = DataError(
                        f"{path}: row {row_idx} has {len(record)} cells, expected {len(header)}"
                    )
                    break
                for col, column in zip(cols, columns):
                    column.append(parse(record[header.index(col.name)], col))
    except UnicodeDecodeError as exc:
        fault = DataError(f"{path}: not valid UTF-8: {exc}")
    table = RawTable(cols, columns)
    if fault is not None:
        raise fault
    return table


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
        with pytest.raises(DataError, match=r"^row 0, column 'a': value 'inf' is not a finite number$"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    def test_categorical_cells_become_level_indices(self, tmp_path):
        cat = ColumnDescriptor("color", "categorical", levels=("red", "green"))
        path = write(tmp_path, "color,label\nred,0\ngreen,1\n")
        table = load_csv(path, (cat, OUT_CLS))
        assert table.columns[0].dtype == np.float64
        assert table.columns[0].tolist() == [0.0, 1.0]

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

    @pytest.mark.parametrize("block_rows", [1, 3, 64])
    def test_bad_cell_named_before_a_later_short_row(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(dataset_module, "_BLOCK_ROWS", block_rows)
        rows = ["1,2,0"] * 7
        rows[2], rows[5] = "1,oops,0", "1,2"
        path = write(tmp_path, "a,b,label\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"^row 2, column 'b': value 'oops' is not a finite number$"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    @pytest.mark.parametrize("block_rows", [1, 3, 64])
    def test_short_row_named_before_a_later_bad_cell(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(dataset_module, "_BLOCK_ROWS", block_rows)
        rows = ["1,2,0"] * 7
        rows[1], rows[4] = "1,2", "1,inf,0"
        path = write(tmp_path, "a,b,label\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"row 1 has 2 cells, expected 3$"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    def test_bad_cell_in_a_later_block_names_its_absolute_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset_module, "_BLOCK_ROWS", 3)
        rows = ["1,2,0"] * 7
        rows[4], rows[5] = "1,-Infinity,0", "x,2,0"
        path = write(tmp_path, "a,b,label\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"^row 4, column 'b': value '-Infinity' is not a finite number$"):
            load_csv(path, (NUM_A, NUM_B, OUT_CLS))

    @pytest.mark.parametrize("block_rows", [1, 3, 64])
    def test_unknown_label_named_before_a_later_bad_number(self, tmp_path, monkeypatch, block_rows):
        # the grade used to be checked only after every cell had parsed as a number
        monkeypatch.setattr(dataset_module, "_BLOCK_ROWS", block_rows)
        grade = ColumnDescriptor("grade", "ordinal", mapping={"low": 0, "high": 1})
        path = write(tmp_path, "a,grade,label\n1,low,0\n1,zz,1\n2,high,0\noops,low,1\n")
        with pytest.raises(DataError, match=r"^row 1, column 'grade': value 'zz' not in ordinal mapping$"):
            load_csv(path, (NUM_A, grade, OUT_CLS))

    def test_bad_cell_named_before_a_later_invalid_byte(self, tmp_path):
        # past the text decoder's first chunk, so the rows before the byte are read first
        pad = "x" * 100
        rows = [f"{pad},1,0"] * 400
        rows[2] = f"{pad},oops,0"
        data = ("id,a,label\n" + "\n".join(rows) + "\n").encode() + b"\xff,1,0\n"
        path = tmp_path / "late.csv"
        path.write_bytes(data)
        schema = (ColumnDescriptor("id", "identifier"), NUM_A, OUT_CLS)
        with pytest.raises(DataError, match=r"^row 2, column 'a'"):
            load_csv(path, schema)
        path.write_bytes(data.replace(b"oops", b"2"))
        with pytest.raises(DataError, match="late.csv: not valid UTF-8"):
            load_csv(path, schema)

    def test_ordinal_labels_in_a_later_block_keep_none_for_missing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset_module, "_BLOCK_ROWS", 2)
        grade = ColumnDescriptor("grade", "ordinal", mapping={"low": 0, "high": 1})
        path = write(tmp_path, "grade,label\n1,0\n,1\nlow,0\nNA,1\n")
        column = load_csv(path, (grade, OUT_CLS)).columns[0]
        assert column.dtype == np.float64
        np.testing.assert_array_equal(column, [1.0, np.nan, 0.0, np.nan])

    @pytest.mark.parametrize("block_rows", [1, 3, 64])
    def test_identifier_codes_continue_across_blocks(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(dataset_module, "_BLOCK_ROWS", block_rows)
        ident = ColumnDescriptor("id", "identifier")
        path = write(tmp_path, "id,label\np1,0\np2,1\np1,0\nNA,1\np3,0\np2,1\n")
        column = load_csv(path, (ident, OUT_CLS)).columns[0]
        np.testing.assert_array_equal(column, [0.0, 1.0, 0.0, np.nan, 2.0, 1.0])

    @pytest.mark.parametrize("block_rows", [1, 3, 64])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_cell_reference(self, tmp_path_factory, block_rows, data):
        """Same table (dtype and bytes) or the same DataError text as the per-cell loop."""
        schema = (
            ColumnDescriptor("id", "identifier"),
            NUM_A,
            ColumnDescriptor("grade", "ordinal", mapping={"low": 0, "high": 2}),
            ColumnDescriptor("site", "categorical", levels=("n", "s")),
            ColumnDescriptor("dose_1", "timeseries", group="dose"),
            OUT_REG,
        )
        numbers = ["1.5", "-2", "0", "1e3", " 7 ", "", "NA"]
        texts = {
            "identifier": ["p1", "x" * 3000, "", "NA", "1"],  # long cells spread the file
            "categorical": ["n", "s", "", "NA"],
            "ordinal": numbers + ["low", "high"],
        }
        # refused in every column but the identifier: "w" and "nan" are no site
        # level and "mid" no grade
        faults = ["oops", "inf", "nan", "-Infinity", "1e999", "1,5", "w", "mid"]
        # no faults, or a bad cell in about one of eight, or of five
        rate = data.draw(st.sampled_from([0, 1, 2]))
        header = data.draw(st.permutations([c.name for c in schema]))
        kinds = {c.name: c.kind for c in schema}
        row = st.tuples(
            *(st.sampled_from(texts.get(kinds[name], numbers) * 8 + faults * rate)
              for name in header),
            st.sampled_from(["whole"] * 60 + ["short", "bad byte"] * rate),
        )
        lines = [",".join(header).encode()]
        for *cells, shape in data.draw(st.lists(row, max_size=12)):
            line = ",".join(cells).encode()
            if shape == "short":
                line = line[:line.rindex(b",")]
            elif shape == "bad byte":
                line = b"\xff" + line
            lines.append(line)
        path = tmp_path_factory.getbasetemp() / f"differential_{block_rows}.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")

        def outcome(load):
            try:
                table = load(path, schema)
            except DataError as exc:
                return str(exc)
            return [(c.dtype.str, c.tobytes()) for c in table.columns]

        with mock.patch.object(dataset_module, "_BLOCK_ROWS", block_rows):
            assert outcome(load_csv) == outcome(reference_load_csv)


def reference_clean(table, max_missing_frac=0.8):
    """``clean`` by integer codes: on every pass each non-outcome column is coded
    by ``np.unique`` (cells equal as numbers share a code, and so do all missing
    cells), duplicate rows are rows of equal attribute codes, and a column's
    distinct observed values are its distinct codes less the missing cells' one."""
    schema, columns, rows = list(table.schema), list(table.columns), table.rows
    report = CleaningReport()

    def attribute_indices():
        return [i for i, c in enumerate(schema) if c.kind not in ("outcome", "identifier")]

    changed = True
    while changed:
        changed = False
        codes = {i: np.unique(columns[i], return_inverse=True)[1]
                 for i, c in enumerate(schema) if c.kind != "outcome"}
        key = np.column_stack([codes[i] for i in attribute_indices()])
        keep = np.sort(np.unique(key, axis=0, return_index=True)[1])
        if len(keep) < len(key):
            report.duplicates_removed += len(key) - len(keep)
            changed = True
            columns, rows = [c[keep] for c in columns], rows[keep]
            codes = {i: c[keep] for i, c in codes.items()}
        drop = {}
        for i, col_codes in codes.items():
            missing = np.isnan(columns[i])
            observed = np.count_nonzero(np.bincount(col_codes)) - bool(missing.any())
            if observed <= 1:
                drop[i] = "constant" if observed else "no observed values"
            elif (frac := int(missing.sum()) / len(keep)) > max_missing_frac:
                drop[i] = f"missing fraction {frac:.4f} > {max_missing_frac}"
        if drop:
            changed = True
            for i, reason in drop.items():
                report.dropped_columns.append({"name": schema[i].name, "reason": reason})
            schema = [c for i, c in enumerate(schema) if i not in drop]
            columns = [c for i, c in enumerate(columns) if i not in drop]
        if not attribute_indices():
            raise DataError("cleaning dropped every input-attribute column")
    return RawTable(schema, columns, rows), report


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference(self, data):
        """Same schema, report, row numbers and column bytes, or the same DataError,
        as cleaning by codes. Float64 columns keep each NaN's sign and -0.0, so a
        row may equal another only as numbers."""
        zeros_and_nans = [0.0, -0.0, np.nan, -np.nan]
        pools = {"numeric": zeros_and_nans + [1.0, -2.5], "categorical": zeros_and_nans + [1.0, 2.0],
                 "identifier": zeros_and_nans + [1.0, 2.0, 3.0], "outcome": [0.0, -0.0, 1.0, 2.0]}
        kinds = ["numeric"] * data.draw(st.integers(1, 3)) + data.draw(
            st.lists(st.sampled_from(["numeric", "categorical", "identifier"]), max_size=3))
        schema = [ColumnDescriptor(f"c{j}", kind, levels=("x", "y", "z") if kind == "categorical" else None)
                  for j, kind in enumerate(kinds)]
        schema.insert(data.draw(st.integers(0, len(schema))),
                      ColumnDescriptor("y", "outcome", task_index=0, task="regression"))
        n = data.draw(st.integers(0, 12))
        columns = [np.array(data.draw(st.lists(st.sampled_from(pools[c.kind]), min_size=n, max_size=n)),
                   dtype=np.float64) for c in schema]
        table = RawTable(tuple(schema), columns, np.arange(n) + 100)
        max_missing_frac = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0))

        def outcome(clean_table):
            try:
                cleaned, report = clean_table(table, max_missing_frac)
            except DataError as exc:
                return str(exc)
            return (cleaned.schema, report, cleaned.rows.tolist(),
                    [c.tobytes() for c in cleaned.columns])

        assert outcome(clean) == outcome(reference_clean)

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
        assert table.columns[0].dtype == np.float64
        assert cells(table) == [[0.0, 2.0, None], [1.0, 2.0, 3.0]]

    def test_unknown_value_rejected(self):
        with pytest.raises(DataError, match="'nope'"):
            RawTable(self.SCHEMA, (["nope"], [1.0]))


def numeric_table(arrays, missing):
    """Columns c0.. from float arrays, with the ``missing`` (row, col) cells blanked."""
    columns = [np.array(a, dtype=np.float64) for a in arrays]
    for i, j in missing:
        columns[j][i] = np.nan
    return RawTable(tuple(ColumnDescriptor(f"c{j}", "numeric") for j in range(len(columns))),
                    columns)


def reference_mice(x: np.ndarray, sweeps: int) -> np.ndarray:
    """A textbook chain over a matrix with NaN for missing cells, ``sweeps`` full sweeps.

    Each column is centered by its observed mean and its missing cells start at 0.
    Each link is one least-squares problem over the column's observed rows, with
    the intercept and the other columns as predictors, in schema order, and the
    ridge appended as sqrt(MICE_RIDGE) * I rows with zero targets.
    """
    miss = np.isnan(x)
    mean = np.nanmean(x, axis=0)
    z = np.where(miss, 0.0, x - mean)
    n, p = z.shape
    ridge_rows = np.sqrt(MICE_RIDGE) * np.eye(p)
    for _ in range(sweeps):
        for k in sorted(np.flatnonzero(miss.any(axis=0)), key=lambda k: (miss[:, k].sum(), k)):
            a = np.column_stack([np.ones(n), np.delete(z, k, axis=1)])
            obs = ~miss[:, k]
            beta = np.linalg.lstsq(np.vstack([a[obs], ridge_rows]),
                                   np.concatenate([z[obs, k], np.zeros(p)]), rcond=None)[0]
            z[miss[:, k], k] = a[miss[:, k]] @ beta
    return np.where(miss, z + mean, x)


def draw_incomplete_matrix(data, collinear: bool) -> np.ndarray:
    """An n x p matrix, NaN for missing cells, with at least p + 4 observed cells a column.

    Each column has a drawn std in [0.1, 100] and a mean up to 1e6 of its stds
    from 0. With ``collinear`` the last column may be twice the first plus
    noise of 5% to 100% of the first's spread.
    """
    p = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(3 * p + 6, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p))
    if collinear and data.draw(st.booleans()):
        x[:, -1] = 2.0 * x[:, 0] + data.draw(st.floats(0.05, 1.0)) * x[:, -1]
    scale = np.array(data.draw(st.lists(st.floats(0.1, 100.0), min_size=p, max_size=p)))
    offset = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 1e3, 1e6]) | st.floats(-1e6, 1e6),
                                         min_size=p, max_size=p)))
    mask = rng.random((n, p)) < data.draw(st.floats(0.05, 0.3))
    assume(np.all((~mask).sum(axis=0) >= p + 4))
    return np.where(mask, np.nan, (x + offset) * scale)


def impute_matrix(x: np.ndarray, **kwargs) -> np.ndarray:
    return np.column_stack(mice_impute(numeric_table(x.T, set()), **kwargs).columns)


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
        imputed = mice_impute(table, mice_sweeps=10, mice_tol=1e-12)
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

    def test_complete_one_row_table_is_returned_as_it_is(self):
        # the no-op is decided before any column is counted: this raised
        # "column 'a' has 1 observed values"
        table = numeric_table([np.array([1.0]), np.array([2.0])], set())
        assert mice_impute(table) is table

    def test_outcome_cells_predict_but_stay_missing(self):
        rng = np.random.default_rng(4)
        a, b, y = rng.normal(size=(3, 20))
        a[[2, 9]], y[[5, 9]] = np.nan, np.nan
        imputed = mice_impute(RawTable((NUM_A, NUM_B, OUT_REG), (a, b, y)))
        as_feature = mice_impute(RawTable((NUM_A, NUM_B, ColumnDescriptor("y", "numeric")),
                                          (a, b, y)))
        assert cells(imputed)[:2] == cells(as_feature)[:2]
        assert cells(imputed)[2] == [None if v != v else v for v in y.tolist()]

    def test_outcome_blanks_alone_return_the_table_as_it_is(self):
        a, b, y = np.random.default_rng(4).normal(size=(3, 6))
        y[[0, 2, 3]] = np.nan
        table = RawTable((NUM_A, NUM_B, OUT_REG), (a, b, y))
        assert mice_impute(table) is table

    @pytest.mark.parametrize("observed", [0, 1])
    def test_outcome_with_too_few_observed_values_predicts_nothing(self, observed):
        rng = np.random.default_rng(5)
        a, b, y = rng.normal(size=(3, 20))
        a[[2, 9]], y[observed:] = np.nan, np.nan
        imputed = mice_impute(RawTable((NUM_A, NUM_B, OUT_REG), (a, b, y)))
        alone = mice_impute(RawTable((NUM_A, NUM_B), (a, b)))
        assert cells(imputed)[:2] == cells(alone)
        assert cells(imputed)[2] == [None if v != v else v for v in y.tolist()]

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
        with pytest.raises(DataError, match=r"^row 1, column 'b': value 'x' is not a finite number$"):
            RawTable((NUM_A, NUM_B), ([1.0, None, 3.0], [1.0, "x", 2.0]))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_rejected(self, tol):
        table = numeric_table([np.arange(6.0), np.arange(6.0) ** 2], {(2, 1)})
        with pytest.raises(ConfigError, match="tol"):
            mice_impute(table, mice_tol=tol)

    def test_categorical_and_identifier_columns_pass_through(self):
        cat = ColumnDescriptor("color", "categorical", levels=("r", "g"))
        ident = ColumnDescriptor("pid", "identifier")
        a, b = [1.0, None, 3.0, 4.0, 5.5], [2.0, 4.1, None, 8.2, 9.0]
        table = RawTable((ident, NUM_A, cat, NUM_B),
                         (["p1", "p2", "p3", "p4", None], a, ["r", "g", None, "r", "g"], b))
        imputed = mice_impute(table)
        assert cells(imputed)[0] == [0.0, 1.0, 2.0, 3.0, None]
        assert cells(imputed)[2] == [0.0, 1.0, None, 0.0, 1.0]
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
        assert cells(imputed)[p] == [None if c is None else levels.index(c) for c in cat]
        again = np.column_stack(mice_impute(table).columns[:p])
        assert np.array_equal(again.view(np.uint64), out.view(np.uint64))

    @staticmethod
    def assert_shift_moves_imputations(x: np.ndarray, col: int, shift: float) -> None:
        """Adding ``shift`` to column ``col`` adds it to the column's imputed cells.

        In exact arithmetic centering makes the chain blind to the shift. In
        floats the shifted column's cells round to the spacing of their
        magnitude, and so does its mean, the center where its missing cells
        start: near 1e6 that spacing is 1.2e-10. A chain that has not
        converged (at ``tol=0`` it runs all 10 sweeps) depends on where its
        missing cells start, and carries that rounding into them amplified:
        45-fold, 4.9e-9 of a std of 1.07, in the draw of
        ``test_shift_of_a_column_1e6_stds_from_0``, and up to 1140-fold over
        20000 draws of its shape. The textbook chain of ``reference_mice`` on
        the same two matrices rounds the same way and moves its imputed cells
        by the same amount, bit for bit in those draws. So the bound is that
        movement, the rounding's part, plus 1e-9 x std, all of the bound
        where the shift rounds nothing.
        """
        shifted = x.copy()
        shifted[:, col] += shift
        before = impute_matrix(x, mice_tol=0.0)
        after = impute_matrix(shifted, mice_tol=0.0)
        observed = ~np.isnan(x)
        assert np.array_equal(after[observed].view(np.uint64), shifted[observed].view(np.uint64))
        filled = ~observed[:, col]
        moved = after[filled, col] - before[filled, col] - shift
        rounding = (reference_mice(shifted, 10) - reference_mice(x, 10))[filled, col] - shift
        assert np.all(np.abs(moved) <= 1e-9 * np.nanstd(x[:, col]) + np.abs(rounding))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shift_moves_imputations_by_the_constant(self, data):
        x = draw_incomplete_matrix(data, collinear=False)
        col = data.draw(st.integers(0, x.shape[1] - 1))
        self.assert_shift_moves_imputations(x, col, data.draw(st.floats(-1e4, 1e4)))

    def test_shift_of_a_column_1e6_stds_from_0(self):
        # a draw that fails a bound of 1e-9 x std alone: p=5, n=21, column 2
        # 1e6 from 0 with std 1.07, a 0.258 mask and a shift of 1.745
        rng = np.random.default_rng(826)
        x = rng.normal(size=(21, 5)) + np.array([0.0, 0.0, 1e6, 0.0, 0.0])
        x[rng.random((21, 5)) < 0.258] = np.nan
        self.assert_shift_moves_imputations(x, 2, 1.745)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_reference_chain(self, data):
        x = draw_incomplete_matrix(data, collinear=True)
        got = impute_matrix(x, mice_sweeps=3, mice_tol=0.0)
        assert np.all(np.abs(got - reference_mice(x, 3)) <= 1e-9 * np.nanstd(x, axis=0))


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
        with pytest.raises(DataError, match=re.escape(
                "row 0, column 'color': value 'purple' not in declared levels ['red']")):
            RawTable((cat, OUT_REG), (["purple"], [0.0]))

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

    @pytest.mark.parametrize("labels, named", [
        # a relative tolerance let both through, as class 100000 and class 2
        ([0.0, 1.0, 100000.4, 1.0], "row 2, column 'y': class label 100000.4 is not an integer"),
        ([0.0, 2.00001, 1.0, 2.0], "row 1, column 'y': class label 2.00001 is not an integer"),
    ])
    def test_label_off_an_integer_named(self, labels, named):
        undeclared = ColumnDescriptor("y", "outcome", task_index=0, task="classification")
        table = RawTable((NUM_A, undeclared), ([1.0, 2.0, 3.0, 4.0], labels))
        with pytest.raises(DataError, match=re.escape(named)):
            transform(table)

    def test_label_within_1e_9_of_an_integer_kept(self):
        undeclared = ColumnDescriptor("y", "outcome", task_index=0, task="classification")
        table = RawTable((NUM_A, undeclared), ([1.0, 2.0, 3.0], [0.0, 1.0 + 5e-10, 2.0]))
        assert transform(table).outcomes[0].values.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("labels, named", [
        ([0.0, -1.0, 1.0], "row 1, column 'y': class label -1.0"),
        # the count is inferred, and a label of the row count or more is refused
        ([0.0, 1.0, 1e300], "row 2, column 'y': class label 1e+300"),
    ])
    def test_label_out_of_range_named(self, labels, named):
        undeclared = ColumnDescriptor("y", "outcome", task_index=0, task="classification")
        table = RawTable((NUM_A, undeclared), ([1.0, 2.0, 3.0], labels))
        with pytest.raises(DataError, match=re.escape(named)):
            transform(table)

    def test_overflowing_timeseries_sum_named(self):
        schema = (ColumnDescriptor("day1", "timeseries", group="dose"),
                  ColumnDescriptor("day2", "timeseries", group="dose"), OUT_REG)
        table = RawTable(schema, ([1.0, 1e308], [2.0, 1e308], [0.0, 1.0]))
        with pytest.raises(DataError, match="column 'dose_sum'"):
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

    def test_rescaled_zscores_the_raw_features_with_the_given_stats(self):
        ds = self.make()
        stats = NormalizationStats(np.array([1.0, -2.0]), np.array([4.0, 0.5]))
        out = ds.rescaled(stats)
        assert out.normalization_stats is stats and out.task_names() == ds.task_names()
        assert np.array_equal(out.features, apply_standardizer(ds.raw_features(), stats))
        tiny = NormalizationStats(np.zeros(2), np.array([1.0, 1e-310]))
        with pytest.raises(DataError, match="^feature 'f2' leaves the float range"):
            ds.rescaled(tiny)

    def test_task_index(self):
        assert self.make().task_index("y2") == 1
        with pytest.raises(ConfigError, match=r"^no task named 'y3'; tasks are \['y1', 'y2'\]$"):
            self.make().task_index("y3")

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

    def test_fractional_label_refused(self):
        # both were truncated, to classes 0 and 1
        with pytest.raises(DataError, match="task 'y', row 0: class label 0.7 is not an integer"):
            OutcomeVector("y", "classification", [0.7, 1.2], 2)

    def test_label_within_1e_9_of_a_class_rounded_to_it(self):
        labels = OutcomeVector("y", "classification", [1e-10, 1.0 - 1e-10], 2).values
        assert labels.dtype == np.int64 and labels.tolist() == [0, 1]

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            kfold_split(10, 2, seed=-1)

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

    @pytest.mark.parametrize("name, kind, params, match", [
        ("a", "numeric", {"levelz": ["x"]}, r"schema entry 'a': unknown params \['levelz'\]"),
        ("a", "numeric", {"levels": ["x"]}, "numeric column 'a' takes no levels"),
        ("c", "categorical", {"levels": ["x"], "group": "g"}, "column 'c' takes no group"),
        ("y", "outcome", {"task_index": 0, "task": "regression", "num_classes": 2},
         "'y': a regression task takes no num_classes"),
        ("g", "ordinal", {"mapping": {"low": 10**400}}, "mapping value for 'low'"),
    ])
    def test_fields_the_kind_does_not_take_rejected(self, name, kind, params, match):
        with pytest.raises(ConfigError, match=match):
            schema_from_json([{"name": name, "kind": kind, "params": params}])


# what a schema field might be given: JSON's types and Python's, of every kind
_ANY = (st.none() | st.booleans() | st.integers(-2, 3) | st.integers(-2, 3).map(np.int64)
        | st.sampled_from([2.5, 3.0, math.nan, math.inf, 10**400]) | st.text(max_size=2))
FIELD_VALUES = {
    "levels": _ANY | st.lists(st.text(max_size=2) | _ANY, max_size=3)
    | st.lists(st.text(max_size=2), min_size=1, max_size=3).map(tuple),
    "mapping": _ANY | st.lists(st.text(max_size=2), max_size=2)
    | st.dictionaries(st.text(max_size=2), _ANY | st.floats(), max_size=3),
    "group": _ANY | st.lists(st.text(max_size=2), max_size=2),
    # a lone outcome saves only as task 0
    "task_index": st.sampled_from([0, np.int64(0), False, 0.0, -1, "0", None]),
    "task": st.sampled_from(["classification", "regression", "outcome", None]) | _ANY,
    "num_classes": st.sampled_from([2, 3, np.int64(3), 2.5, 3.0, True, 1, 10**18]) | _ANY,
}


@st.composite
def column_fields(draw):
    """A kind, its own fields, and at times one field of another kind."""
    kind = draw(st.sampled_from(sorted(dataset_module.KIND_PARAMS)) | _ANY)
    own = dataset_module.KIND_PARAMS.get(kind, ()) if isinstance(kind, str) else ()
    params = {name: draw(FIELD_VALUES[name]) for name in own}
    stray = draw(st.none() | st.sampled_from(sorted(FIELD_VALUES)))
    if stray is not None:
        params[stray] = draw(FIELD_VALUES[stray])
    return kind, params


@settings(max_examples=400, deadline=None)
@given(fields=column_fields())
def test_column_is_refused_or_saves_and_loads_unchanged(tmp_path_factory, fields):
    """A ColumnDescriptor raises ConfigError, or keeps every value it is given
    and comes back from its schema file equal, saving the same bytes again."""
    kind, params = fields
    try:
        col = ColumnDescriptor("c", kind, **params)
    except ConfigError:
        return
    for name, value in params.items():
        assert getattr(col, name) == (tuple(value) if isinstance(value, list) else value)
    first = tmp_path_factory.getbasetemp() / "column.json"
    second = tmp_path_factory.getbasetemp() / "column_again.json"
    save_schema([col], first)
    loaded = load_schema(first)
    save_schema(loaded, second)
    assert loaded == (col,)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("kind, load", [("schema", load_schema), ("model", load_model),
                                        ("truth", load_truth)])
@pytest.mark.parametrize("content", [None, "directory", b"{", b"[1, 2]"],
                         ids=["missing", "directory", "invalid_json", "malformed"])
def test_json_file_faults_name_the_file(tmp_path, kind, load, content):
    path = tmp_path / f"{kind}.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=f"{kind} file {re.escape(str(path))}"):
        load(path)


def reference_write_dataset_csv(dataset, path):
    """The writer before its cells bypassed ``csv.writer``: each cell's ``repr``,
    "NA" for NaN, every row through ``csv.writer``."""
    header = list(dataset.feature_names) + list(dataset.task_names())
    columns = [*dataset.features.T, *(o.values for o in dataset.outcomes)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*(c.tolist() for c in columns)):
            writer.writerow(["NA" if v != v else repr(v) for v in row])


class TestCsvRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_writes_the_bytes_of_the_reference(self, tmp_path_factory, data):
        """Rows around the block size, NaN of either sign, -0.0, the smallest
        subnormal, floats whose repr has an exponent, and labels of two digits."""
        n = data.draw(st.sampled_from([1, 2, 63, 64, 65, 129]) | st.integers(1, 140))
        d = data.draw(st.integers(1, 3))
        special = [np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 123456789.125,
                   1.7976931348623157e308]
        value = st.sampled_from(special) | st.floats(allow_nan=False, allow_infinity=False)
        features = data.draw(hnp.arrays(np.float64, (n, d), elements=value))
        num_classes = data.draw(st.integers(2, 12))
        outs = (
            OutcomeVector("y,1", "classification",
                          data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, num_classes - 1))),
                          num_classes),
            OutcomeVector("y2", "regression", data.draw(hnp.arrays(
                np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False)))),
        )
        names = ("f", 'q"uote', " lead")[:d]
        ds = Dataset(features, names, outs, NormalizationStats.identity(d))
        path = tmp_path_factory.getbasetemp() / "writer.csv"
        reference = tmp_path_factory.getbasetemp() / "writer_reference.csv"
        write_dataset_csv(ds, path)
        reference_write_dataset_csv(ds, reference)
        assert path.read_bytes() == reference.read_bytes()

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
