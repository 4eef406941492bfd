"""Tabular data ingestion, cleaning, imputation, transformation, and CV splits.

The pipeline mirrors a typical small-cohort study: load a raw CSV against a
declared schema, drop duplicates/constant/over-missing columns, impute the
remaining gaps with chained-equation regressions, then map everything to a
fully numeric, z-scored feature matrix plus per-task outcome vectors.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"
ORDINAL = "ordinal"
TIMESERIES = "timeseries"
IDENTIFIER = "identifier"
OUTCOME = "outcome"

MISSING_TOKENS = ("", "NA")

# kinds whose cells are parsed as numbers
_NUMERIC_VALUED = (NUMERIC, ORDINAL, TIMESERIES, OUTCOME)

CLASSIFICATION = "classification"
REGRESSION = "regression"

CONSTANT_STD_FLOOR = 1e-12
MICE_RIDGE = 1e-8


# the fields each column kind takes besides its name and kind, in field order
KIND_PARAMS = {NUMERIC: (), CATEGORICAL: ("levels",), ORDINAL: ("mapping",), TIMESERIES: ("group",),
               IDENTIFIER: (), OUTCOME: ("task_index", "task", "num_classes")}


def as_int(value, what: str) -> int:
    """``value`` as an ``int`` if it is an integer, numpy's included, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_real(value, what: str) -> float:
    """``value`` as a ``float`` if it is a finite real number, numpy's included, and not a bool."""
    # the bound rules out NaN, the infinities and integers past the float range
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ColumnDescriptor:
    """Declares how one raw column is typed and transformed.

    ``kind`` is one of numeric, categorical (with string ``levels``), ordinal
    (with a string-to-number ``mapping``), timeseries (with a ``group`` label),
    identifier, or outcome (with integer ``task_index``, ``task`` kind, and
    ``num_classes`` for classification). Fields of other kinds must be None.
    """

    name: str
    kind: str
    levels: tuple[str, ...] | None = None
    mapping: dict[str, float] | None = None
    group: str | None = None
    task_index: int | None = None
    task: str | None = None
    num_classes: int | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"column name must be a string, got {self.name!r}")
        if not isinstance(self.kind, str) or self.kind not in KIND_PARAMS:
            raise ConfigError(f"unknown column kind {self.kind!r} for {self.name!r}")
        for f in fields(self)[2:]:
            if getattr(self, f.name) is not None and f.name not in KIND_PARAMS[self.kind]:
                raise ConfigError(f"{self.kind} column {self.name!r} takes no {f.name}")
        if self.kind == CATEGORICAL:
            if not (isinstance(self.levels, (list, tuple)) and self.levels
                    and all(isinstance(v, str) for v in self.levels)):
                raise ConfigError(f"categorical column {self.name!r} needs non-empty levels, "
                                  f"a list of strings, got {self.levels!r}")
            object.__setattr__(self, "levels", tuple(self.levels))
            if len(set(self.levels)) != len(self.levels):
                raise ConfigError(f"categorical column {self.name!r} has duplicate levels")
        elif self.kind == ORDINAL:
            if not (isinstance(self.mapping, dict) and self.mapping):
                raise ConfigError(f"ordinal column {self.name!r} needs a mapping, "
                                  f"a non-empty object, got {self.mapping!r}")
            object.__setattr__(self, "mapping", {
                str(k): as_real(v, f"ordinal column {self.name!r}: mapping value for {k!r}")
                for k, v in self.mapping.items()})
        elif self.kind == TIMESERIES:
            if not self.group or not isinstance(self.group, str):
                raise ConfigError(f"timeseries column {self.name!r} needs a group name")
        elif self.kind == OUTCOME:
            what = f"outcome column {self.name!r}"
            object.__setattr__(self, "task_index", as_int(self.task_index, f"{what}: task_index"))
            if self.task_index < 0:
                raise ConfigError(f"{what} needs task_index >= 0")
            if self.task not in (CLASSIFICATION, REGRESSION):
                raise ConfigError(f"{what} needs task 'classification' or 'regression'")
            if self.num_classes is not None:
                if self.task != CLASSIFICATION:
                    raise ConfigError(f"{what}: a regression task takes no num_classes")
                object.__setattr__(self, "num_classes",
                                   as_int(self.num_classes, f"{what}: num_classes"))
                if self.num_classes < 2:
                    raise ConfigError(f"{what} needs num_classes >= 2")

    def is_numeric_valued(self) -> bool:
        return self.kind in _NUMERIC_VALUED


def validate_schema(schema: Sequence[ColumnDescriptor]) -> tuple[ColumnDescriptor, ...]:
    cols = tuple(schema)
    names = [c.name for c in cols]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate column names in schema: {dupes}")
    task_indices = sorted(c.task_index for c in cols if c.kind == OUTCOME)
    if task_indices and task_indices != list(range(len(task_indices))):
        raise ConfigError(f"outcome task_index values must be 0..M-1, got {task_indices}")
    return cols


def _column(cells, col: ColumnDescriptor, faults: list[tuple[int, str]],
            start: int = 0, seen: dict | None = None) -> np.ndarray | None:
    """Cells as a read-only float64 array, coded as ``RawTable`` says.

    Rows are numbered from ``start``, and an identifier column continues the
    first-seen codes in ``seen``. On a fault the row and message of the
    column's first go to ``faults``, and no column is returned.
    """
    if not (isinstance(cells, np.ndarray) and cells.dtype == np.float64):
        cells = [None if c is None or c != c else c for c in cells]  # only NaN differs from itself
        if col.kind == IDENTIFIER:
            seen = {None: None} if seen is None else seen  # a missing cell stays missing
            cells = [seen.setdefault(c, len(seen) - 1) for c in cells]
        else:
            codes = (col.mapping or {}) if col.is_numeric_valued() else {
                level: i for i, level in enumerate(col.levels)}
            bad = next((r for r, c in enumerate(cells) if c is not None and c not in codes
                        and (col.kind == CATEGORICAL or isinstance(c, str))), None)
            if bad is not None:
                value = cells[bad]
                fault = (f"value {value!r} not in ordinal mapping" if col.kind == ORDINAL
                         else f"value {value!r} is not a finite number" if col.is_numeric_valued()
                         else f"value {value!r} not in declared levels {list(col.levels)}")
                faults.append((start + bad, f"row {start + bad}, column {col.name!r}: {fault}"))
                return None
            cells = [codes.get(c, c) for c in cells]
        cells = np.array(cells, dtype=np.float64)
    elif col.kind == CATEGORICAL:
        bad = np.flatnonzero(~(np.isnan(cells) | np.isin(cells, range(len(col.levels)))))
        if bad.size:
            row = start + int(bad[0])
            faults.append((row, f"row {row}, column {col.name!r}: code "
                           f"{float(cells[bad[0]])!r} is not a level index in [0, {len(col.levels)})"))
            return None
    cells.setflags(write=False)
    return cells


def _raise_first(faults: list[tuple[int, str]]) -> None:
    """Raise the first of the cell faults in row order, then in the order found."""
    if faults:
        raise DataError(min(faults, key=lambda fault: fault[0])[1])


@dataclass(frozen=True, eq=False)
class RawTable:
    """Parsed cells in schema column order, one read-only float64 array per column.

    ``columns`` holds one sequence of cells per schema entry, all of one
    length, and each becomes float64 as the table is built, with NaN for a
    missing cell (None or NaN); ``load_csv`` rejects non-finite input, so NaN
    never means anything else. An ordinal label becomes its code from the
    column's mapping and a categorical level its index in the column's
    levels. An identifier column's cells, text and numbers alike, become
    codes in first-seen order, equal exactly where the cells are. A float64
    array is taken as coded already. Other text in a numeric-valued column,
    any other categorical cell, or a categorical code that is no level's
    index raises DataError naming its row, the first in row order, then
    schema order.

    ``rows`` holds each row's number in the input it was read from, ``0..n-1``
    unless given. ``clean`` keeps the numbers of the rows it keeps, so a fault
    found later names the input row.
    """

    schema: tuple[ColumnDescriptor, ...]
    columns: tuple[np.ndarray, ...]
    rows: np.ndarray | None = None

    def __post_init__(self):
        schema, columns = validate_schema(self.schema), tuple(self.columns)
        if len(columns) != len(schema):
            raise DataError(f"{len(columns)} columns for {len(schema)} schema entries")
        faults: list[tuple[int, str]] = []
        columns = tuple(_column(c, col, faults) for c, col in zip(columns, schema))
        _raise_first(faults)  # found in schema order
        if len({len(c) for c in columns}) > 1:
            raise DataError(f"columns have unequal lengths {[len(c) for c in columns]}")
        n = len(columns[0]) if columns else 0
        rows = np.arange(n) if self.rows is None else np.asarray(self.rows, dtype=np.int64)
        if rows.shape != (n,):
            raise DataError(f"{rows.size} row numbers for {n} rows")
        rows.setflags(write=False)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


_BLOCK_ROWS = 64  # rows coded at once: one block's text is held, never the whole file's
_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")


def _floats(cells: tuple[str, ...]) -> np.ndarray | None:
    """The cells as float64, NaN where missing; None if any other is not a finite number."""
    try:
        values = np.fromiter(map(float, map(_AS_NAN.get, cells, cells)), np.float64, len(cells))
    except ValueError:  # not a number: an ordinal level label, or a bad cell
        return None
    numbers = len(cells) - sum(map(cells.count, MISSING_TOKENS))
    return values if np.count_nonzero(np.isfinite(values)) == numbers else None


def _number_or_text(text: str) -> float | str:
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _code_block(records: list[list[str]], start: int, fields: list[tuple[int, ColumnDescriptor]],
                seen: list[dict], columns: list[list]) -> None:
    """Code a block of rows, numbered from ``start``, and add one float64 part to
    each of ``columns``; the first faulty cell in row order, then schema order,
    raises.

    A numeric-valued column of finite numbers and missing cells takes one pass.
    Any other goes to ``_column`` with None for a missing cell and, in a
    numeric-valued column, a float for a finite number's text.
    """
    by_pos, faults = tuple(zip(*records)), []
    for (pos, col), codes, parts in zip(fields, seen, columns):
        numeric = col.is_numeric_valued()
        values = _floats(by_pos[pos]) if numeric else None
        if values is None:
            cells = [None if c in MISSING_TOKENS else _number_or_text(c) if numeric else c
                     for c in by_pos[pos]]
            values = _column(cells, col, faults, start, codes)
        parts.append(values)
    _raise_first(faults)


def load_csv(path: str | Path, schema: Sequence[ColumnDescriptor]) -> RawTable:
    """Parse a UTF-8 comma-separated file, with or without a BOM, against the schema.

    The header must contain exactly the schema's column names, in any order.
    Empty cells and the literal "NA" are missing. Rows are coded a column at a
    time, in blocks of ``_BLOCK_ROWS``, as ``RawTable`` codes a hand-built
    table, where text in a numeric-valued column is a number if it is one and
    finite; a fault names the first bad cell or row in row order.
    """
    cols = validate_schema(schema)
    path = Path(path)
    columns: list[list] = [[np.empty(0)] for _ in cols]  # each column's coded blocks
    seen = [{None: None} for _ in cols]  # each identifier column's first-seen codes
    block, start, fault = [], 0, None
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            header_pos = {name: i for i, name in enumerate(header)}
            if len(header_pos) != len(header):
                raise DataError(f"{path}: duplicate header names")
            missing = [c.name for c in cols if c.name not in header_pos]
            if missing:
                raise DataError(f"{path}: header lacks schema columns {missing}")
            unknown = [name for name in header if all(c.name != name for c in cols)]
            if unknown:
                raise DataError(f"{path}: unknown columns {unknown}")
            fields = [(header_pos[c.name], c) for c in cols]
            for row_idx, record in enumerate(reader):
                if len(record) != len(header):
                    fault = DataError(
                        f"{path}: row {row_idx} has {len(record)} cells, expected {len(header)}"
                    )
                    break
                block.append(record)
                if len(block) == _BLOCK_ROWS:
                    _code_block(block, start, fields, seen, columns)
                    block, start = [], row_idx + 1
    except UnicodeDecodeError as exc:
        fault = DataError(f"{path}: not valid UTF-8: {exc}")
    except OSError as exc:  # missing, a directory, unreadable
        fault = DataError(f"cannot read {path}: {exc.strerror}")
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        fault = DataError(f"{path}: line {reader.line_num}: {exc}")
    if block:  # coded before a read fault is raised, so an earlier bad cell is named first
        _code_block(block, start, fields, seen, columns)
    if fault is not None:
        raise fault
    return RawTable(cols, [np.concatenate(parts) for parts in columns])


@dataclass
class CleaningReport:
    dropped_columns: list[dict] = field(default_factory=list)
    duplicates_removed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def clean(table: RawTable, max_missing_frac: float = 0.8) -> tuple[RawTable, CleaningReport]:
    """Drop duplicate rows, constant columns, and over-missing columns.

    Duplicates are rows identical on every input-attribute cell (outcome and
    identifier columns are not compared). A column is dropped when it has at
    most one distinct observed value, or when its missing fraction strictly
    exceeds ``max_missing_frac``. Outcome columns are never dropped. The
    passes repeat until nothing changes, so cleaning an already-clean table
    is a no-op even when column drops expose new duplicate rows.
    """
    if not 0.0 <= max_missing_frac <= 1.0:
        raise ConfigError(f"max_missing_frac must be in [0, 1], got {max_missing_frac}")
    schema = list(table.schema)
    columns, rows = list(table.columns), table.rows
    report = CleaningReport()

    def attribute_indices() -> list[int]:
        return [i for i, c in enumerate(schema) if c.kind not in (OUTCOME, IDENTIFIER)]

    if not attribute_indices():
        raise DataError("table has no input-attribute columns")

    changed = True
    while changed:
        changed = False
        # duplicate rows: the first row of each distinct attribute key stays. With
        # one NaN for every NaN and 0.0 for -0.0, cells equal as numbers, or both
        # missing, are equal as bytes, so a row compares as one void value
        key = np.column_stack([columns[i] for i in attribute_indices()])
        key[np.isnan(key)] = np.nan
        key += 0.0
        key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
        keep = np.sort(np.unique(key, return_index=True)[1])
        if len(keep) < len(key):
            report.duplicates_removed += len(key) - len(keep)
            changed = True
            columns, rows = [c[keep] for c in columns], rows[keep]
        # constant and over-missing columns
        drop: dict[int, str] = {}
        for i in [i for i, c in enumerate(schema) if c.kind != OUTCOME]:
            missing = np.isnan(columns[i])
            observed = columns[i][~missing]
            if (observed == observed[:1]).all():  # one value, or none
                drop[i] = "constant" if observed.size else "no observed values"
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


def mice_impute(table: RawTable, max_sweeps: int = 10, tol: float = 1e-6) -> RawTable:
    """Fill the missing cells of the numeric-valued columns by chained regressions.

    Numeric, ordinal, timeseries and outcome columns are imputed, but an
    outcome's imputed cells only serve as predictors inside the chain: they
    stay missing in the result. Categorical and identifier columns pass
    through unchanged and are not used as predictors. A table with no
    missing numeric-valued cell is returned as it is. Each column is
    centered by the mean of its observed cells, and missing cells start at
    that mean. Incomplete columns are then swept in ascending order of
    missing count (ties by schema order); each is regressed, with an
    intercept, on the other centered columns over its observed rows, with
    ridge damping 1e-8*I on these centered normal equations, and its missing
    cells are overwritten by the fit's predictions. Centering keeps the fits
    independent of the columns' offsets: adding a constant to a column adds
    it to that column's imputed cells. Sweeps stop when the largest absolute
    change of any imputed cell drops below ``tol`` or after ``max_sweeps``
    sweeps. Only missing cells are written, as prediction plus column mean;
    observed cells come back bit for bit. The chain is deterministic: a
    single run with ordinary-least-squares imputers and no posterior noise.
    A column whose centered sum of squares overflows the float range raises
    DataError.
    """
    if max_sweeps < 1:
        raise ConfigError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol}")
    numeric = [j for j, c in enumerate(table.schema) if c.is_numeric_valued()]
    if not any(np.isnan(table.columns[j]).any() for j in numeric):
        return table
    n, p = table.n_rows, len(numeric)
    # one [1, X] design matrix: numeric column k is x's column k, design's k + 1
    design = np.column_stack([np.ones(n), *(table.columns[j] for j in numeric)])
    x = design[:, 1:]
    missing = np.isnan(x)
    observed_counts = n - missing.sum(axis=0)
    for j, count in zip(numeric, observed_counts):
        if count < 2:
            raise DataError(
                f"column {table.schema[j].name!r} has {count} observed values; need at least 2"
            )

    # center each column on its observed mean (missing cells start at 0, that
    # mean) and form the design's Gram matrix, refusing a column whose sum of
    # squares overflows
    with np.errstate(over="ignore", invalid="ignore"):
        col_means = np.nanmean(x, axis=0)
        x -= col_means
        x[missing] = 0.0
        gram = design.T @ design
    overflowed = ~np.isfinite(gram.diagonal()[1:])
    if overflowed.any():
        name = table.schema[numeric[int(np.argmax(overflowed))]].name
        raise DataError(f"column {name!r}: values too large to impute "
                        "(the column's sum of squares overflows)")

    # each link of the chain fixes a column's missing rows, its predictors (the intercept
    # and the other columns) and their normal equations' flat indices into the Gram matrix
    ridge = MICE_RIDGE * np.eye(p)
    chain = []
    incomplete = np.flatnonzero(missing.any(axis=0))
    for k in sorted(incomplete, key=lambda k: (int(missing[:, k].sum()), k)):
        predictors = np.array([0] + [c + 1 for c in range(p) if c != k])
        chain.append((k + 1, np.flatnonzero(missing[:, k]), predictors,
                      predictors[:, None] * (p + 1) + predictors, predictors * (p + 1) + k + 1))

    # the observed rows' normal equations are the whole design's Gram matrix less
    # the missing rows' part; a link changes only its own column of the design,
    # so only that row and column of the Gram matrix are recomputed
    for _ in range(max_sweeps):
        max_change = 0.0
        for c, miss_rows, predictors, lhs, rhs in chain:
            d_miss = design[miss_rows]
            g_obs = gram - d_miss.T @ d_miss
            beta = np.linalg.solve(g_obs.take(lhs) + ridge, g_obs.take(rhs))
            preds = d_miss[:, predictors] @ beta
            max_change = max(max_change, float(np.max(np.abs(preds - d_miss[:, c]))))
            design[miss_rows, c] = preds
            gram[:, c] = gram[c, :] = design.T @ design[:, c]
        if max_change < tol:
            break

    # only missing feature cells are written: (v - mean) + mean need not give back v
    columns = list(table.columns)
    for k, j in enumerate(numeric):
        if missing[:, k].any() and table.schema[j].kind != OUTCOME:
            columns[j] = np.where(missing[:, k], x[:, k] + col_means[k], table.columns[j])
    return RawTable(table.schema, columns, table.rows)


def class_labels(values: np.ndarray, bound: int, where) -> np.ndarray:
    """The float ``values`` rounded to int64 class labels, if each lies within 1e-9 of
    an integer in [0, bound). Else DataError naming, by ``where(i)``, the first entry
    ``i`` (in flat order) off an integer or, if none is, the first one out of range."""
    labels = np.rint(values)
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite label is out of range
        off = np.flatnonzero(np.abs(values - labels) > 1e-9)
    if off.size:
        raise DataError(f"{where(off[0])}: class label {float(values.flat[off[0]])!r} "
                        "is not an integer")
    bad = np.flatnonzero(~((labels >= 0) & (labels < bound)))  # NaN is neither
    if bad.size:
        raise DataError(f"{where(bad[0])}: class label {float(values.flat[bad[0]])!r} "
                        f"not in [0, {bound})")
    return labels.astype(np.int64)


@dataclass(frozen=True)
class OutcomeVector:
    """One task's targets: integer labels for classification, reals for regression."""

    task_name: str
    kind: str
    values: np.ndarray
    num_classes: int | None = None

    def __post_init__(self):
        if self.kind == CLASSIFICATION:
            if self.num_classes is None or self.num_classes < 2:
                raise ConfigError(f"task {self.task_name!r}: num_classes must be >= 2")
            values = class_labels(np.asarray(self.values, dtype=np.float64), self.num_classes,
                                  lambda i: f"task {self.task_name!r}, row {i}")
        elif self.kind == REGRESSION:
            values = np.asarray(self.values, dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise DataError(f"task {self.task_name!r}: non-finite regression targets")
        else:
            raise ConfigError(f"unknown outcome kind {self.kind!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature (mean, std) used for z-scoring; constant features record std=1."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ConfigError("normalization stats must be matching 1-D arrays")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def identity(cls, d: int) -> "NormalizationStats":
        return cls(np.zeros(d), np.ones(d))


@dataclass(frozen=True)
class Dataset:
    """Model-ready feature matrix plus per-task outcomes.

    ``features`` may contain NaN only for deliberately masked synthetic data
    headed into the imputation pipeline; model training rejects it.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    outcomes: tuple[OutcomeVector, ...]
    normalization_stats: NormalizationStats

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if n < 1 or d < 1:
            raise DataError(f"need at least one row and one feature, got shape {feats.shape}")
        names = tuple(self.feature_names)
        if len(names) != d:
            raise DataError(f"{len(names)} feature names for {d} features")
        outs = tuple(self.outcomes)
        if len(outs) < 1:
            raise DataError("need at least one outcome")
        for out in outs:
            if len(out) != n:
                raise DataError(f"outcome {out.task_name!r} has {len(out)} values for {n} rows")
        if np.isinf(feats).any():
            raise DataError("features contain infinite values")
        if self.normalization_stats.mean.shape[0] != d:
            raise DataError("normalization stats length does not match feature count")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "outcomes", outs)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_tasks(self) -> int:
        return len(self.outcomes)

    def task_names(self) -> tuple[str, ...]:
        return tuple(o.task_name for o in self.outcomes)

    def task_index(self, name: str) -> int:
        names = self.task_names()
        if name not in names:
            raise ConfigError(f"no task named {name!r}; tasks are {list(names)}")
        return names.index(name)

    def is_complete(self) -> bool:
        return not np.isnan(self.features).any()

    def require_complete(self) -> None:
        if not self.is_complete():
            raise DataError("features contain missing values; run imputation first")

    def raw_features(self) -> np.ndarray:
        """Undo the recorded z-scoring."""
        return self.features * self.normalization_stats.std + self.normalization_stats.mean

    def rescaled(self, stats: NormalizationStats) -> "Dataset":
        """The same rows z-scored from ``raw_features()`` with ``stats``; DataError if
        a value leaves the float range."""
        with np.errstate(over="ignore"):
            features = apply_standardizer(self.raw_features(), stats)
        bad = np.isinf(features).any(axis=0)
        if bad.any():
            raise DataError(f"feature {self.feature_names[bad.argmax()]!r} leaves the float "
                            "range when rescaled")
        return Dataset(features, self.feature_names, self.outcomes, stats)


def subset_rows(dataset: Dataset, indices: np.ndarray) -> Dataset:
    """A Dataset restricted to the given rows; normalization stats carry over."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ConfigError("indices must be a non-empty 1-D array")
    if idx.min() < 0 or idx.max() >= dataset.n_rows:
        raise ConfigError(f"row indices out of range for {dataset.n_rows} rows")
    outcomes = tuple(
        OutcomeVector(o.task_name, o.kind, o.values[idx], o.num_classes)
        for o in dataset.outcomes
    )
    return Dataset(
        dataset.features[idx],
        dataset.feature_names,
        outcomes,
        dataset.normalization_stats,
    )


def select_task(dataset: Dataset, task_name: str) -> Dataset:
    """A single-task view of the dataset (for single-task baselines)."""
    return Dataset(
        dataset.features,
        dataset.feature_names,
        (dataset.outcomes[dataset.task_index(task_name)],),
        dataset.normalization_stats,
    )


def fit_standardizer(x: np.ndarray) -> NormalizationStats:
    """Per-column mean and population std; stds below 1e-12 are recorded as 1."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < CONSTANT_STD_FLOOR, 1.0, std)
    return NormalizationStats(mean, std)


def apply_standardizer(x: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - stats.mean) / stats.std


def _numbers(table: RawTable, j: int) -> np.ndarray:
    """Column ``j``; its first missing cell raises DataError naming its input row."""
    missing = np.flatnonzero(np.isnan(table.columns[j]))
    if missing.size:
        what = ("missing outcome" if table.schema[j].kind == OUTCOME
                else "missing value; impute before transforming")
        raise DataError(f"row {table.rows[missing[0]]}, column {table.schema[j].name!r}: {what}")
    return table.columns[j]


def transform(table: RawTable) -> Dataset:
    """Map a complete table to a z-scored numeric Dataset.

    Ordinal columns enter as their codes, each timeseries group is summed
    row-wise into a single "<group>_sum" column, each categorical column's
    level indices expand to one indicator per level, identifiers are
    dropped, and every resulting feature is z-score normalized with
    population statistics. Features with std below 1e-12 are set identically
    to 0 and recorded with std = 1. A feature that overflows the float range,
    or whose mean or std does, a class label more than 1e-9 from an integer,
    a declared ``num_classes`` above the row count and a class label outside
    [0, num_classes), or [0, row count) when undeclared, raise DataError. A
    missing cell (``missing outcome`` in an outcome column) or a bad class
    label is named at its row in ``table.rows``.
    """
    n = table.n_rows
    if n == 0:
        raise DataError("cannot transform an empty table")

    feature_cols: list[np.ndarray] = []
    feature_names: list[str] = []
    outcome_cols: dict[int, tuple[ColumnDescriptor, np.ndarray]] = {}
    groups_done: set[str] = set()

    for idx, col in enumerate(table.schema):
        if col.kind in (NUMERIC, ORDINAL):
            feature_cols.append(_numbers(table, idx))
            feature_names.append(col.name)
        elif col.kind == TIMESERIES:
            if col.group in groups_done:
                continue
            groups_done.add(col.group)
            total = np.zeros(n)
            for mi, mcol in enumerate(table.schema):
                if mcol.kind == TIMESERIES and mcol.group == col.group:
                    with np.errstate(over="ignore"):  # an infinite sum is refused below
                        total += _numbers(table, mi)
            feature_cols.append(total)
            feature_names.append(f"{col.group}_sum")
        elif col.kind == CATEGORICAL:
            indicators = np.zeros((n, len(col.levels)))
            indicators[np.arange(n), _numbers(table, idx).astype(np.int64)] = 1.0
            for li, level in enumerate(col.levels):
                feature_cols.append(indicators[:, li])
                feature_names.append(f"{col.name}={level}")
        elif col.kind == OUTCOME:
            outcome_cols[col.task_index] = (col, _numbers(table, idx))

    if not feature_cols:
        raise DataError("transform produced no feature columns")
    if not outcome_cols:
        raise DataError("table has no outcome columns")

    raw = np.column_stack(feature_cols)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value has a non-finite mean
        stats = fit_standardizer(raw)
    overflowed = ~(np.isfinite(stats.mean) & np.isfinite(stats.std))
    if overflowed.any():
        raise DataError(f"column {feature_names[int(np.argmax(overflowed))]!r}: values too "
                        "large to standardize (they, their mean or their std overflow)")
    features = apply_standardizer(raw, stats)
    features[:, raw.std(axis=0) < CONSTANT_STD_FLOOR] = 0.0

    outcomes = []
    for task_index in sorted(outcome_cols):
        col, values = outcome_cols[task_index]
        if col.task == CLASSIFICATION:
            # a class count, declared or inferred, is at most the row count
            if col.num_classes is not None and col.num_classes > n:
                raise DataError(
                    f"column {col.name!r}: {col.num_classes} classes for a table of {n} rows")
            labels = class_labels(values, n if col.num_classes is None else col.num_classes,
                                  lambda i: f"row {table.rows[i]}, column {col.name!r}")
            k = col.num_classes if col.num_classes is not None else int(labels.max()) + 1
            if k < 2:
                raise DataError(f"column {col.name!r}: need at least 2 classes, inferred {k}")
            outcomes.append(OutcomeVector(col.name, CLASSIFICATION, labels, k))
        else:
            outcomes.append(OutcomeVector(col.name, REGRESSION, values))

    return Dataset(features, tuple(feature_names), tuple(outcomes), stats)


def preprocess_pipeline(
    raw: RawTable,
    max_missing_frac: float = 0.8,
    mice_sweeps: int = 10,
    mice_tol: float = 1e-6,
) -> tuple[Dataset, CleaningReport]:
    """Full raw-to-model-ready pipeline: clean, impute, transform.

    Imputation runs on the numeric-valued columns (numeric, ordinal,
    timeseries, outcome) before one-hot expansion; categorical columns pass
    through and must already be complete. Outcomes are predictors only: a
    missing outcome cell is refused by ``transform``. ``mice_sweeps`` and
    ``mice_tol`` are checked even when no cell is missing.
    """
    if mice_sweeps < 1:
        raise ConfigError(f"mice_sweeps must be >= 1, got {mice_sweeps}")
    if not (math.isfinite(mice_tol) and mice_tol >= 0.0):
        raise ConfigError(f"mice_tol must be finite and >= 0, got {mice_tol}")
    cleaned, report = clean(raw, max_missing_frac)
    return transform(mice_impute(cleaned, mice_sweeps, mice_tol)), report


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each row to one of k cross-validation folds."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        if a.ndim != 1:
            raise ConfigError("assignments must be 1-D")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ConfigError("fold assignments out of range")
        for f in range(self.k):
            if not np.any(a == f):
                raise ConfigError(f"fold {f} is empty")
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def kfold_split(n: int, k: int, seed: int) -> FoldPlan:
    """Shuffle indices with the seeded PRNG, then deal them round-robin to k folds."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of samples n={n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % k
    return FoldPlan(k, assignments)


# --- schema / CSV serialization ---------------------------------------------


def schema_to_json(schema: Sequence[ColumnDescriptor]) -> list[dict]:
    """Each column as ``{"name", "kind", "params"}``, ``params`` its kind's set fields."""
    return [{"name": c.name, "kind": c.kind,
             "params": {k: getattr(c, k) for k in KIND_PARAMS[c.kind] if getattr(c, k) is not None}}
            for c in validate_schema(schema)]


def schema_from_json(doc: list[dict]) -> tuple[ColumnDescriptor, ...]:
    """The schema of a ``schema_to_json`` document; ``ColumnDescriptor`` checks each field."""
    if not isinstance(doc, list):
        raise ConfigError("schema document must be a JSON array")
    cols = []
    for entry in doc:
        if not (isinstance(entry, dict) and "name" in entry and "kind" in entry):
            raise ConfigError(f"schema entry {entry!r} needs a 'name' and a 'kind'")
        json_object(entry, ("name", "kind", "params"), f"schema entry {entry['name']!r}")
        params = entry.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError(f"schema entry {entry['name']!r}: params must be a JSON object")
        unknown = sorted(set(params) - {f.name for f in fields(ColumnDescriptor)[2:]})
        if unknown:
            raise ConfigError(f"schema entry {entry['name']!r}: unknown params {unknown}")
        cols.append(ColumnDescriptor(entry["name"], entry["kind"], **params))
    return validate_schema(cols)


def save_schema(schema: Sequence[ColumnDescriptor], path: str | Path) -> None:
    write_json(path, schema_to_json(schema))


def write_json(path: str | Path, doc) -> None:
    """``doc`` as indented JSON and a newline: every JSON file but ``model.json``."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_json(path: str | Path, kind: str, parse):
    """``parse`` of the UTF-8 JSON document in ``path``, a ``kind`` file.

    Any fault, in reading the file or in ``parse``, raises ConfigError naming
    the file.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read {kind} file {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{kind} file {path}: invalid JSON: {exc}") from None
    try:
        return parse(doc)
    except ConfigError as exc:
        raise ConfigError(f"{kind} file {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # a malformed document
        raise ConfigError(f"{kind} file {path}: {exc!r}") from None


def json_object(doc, keys: Sequence[str], what: str) -> dict:
    """``doc`` if it is a JSON object whose keys are all in ``keys``; else
    ConfigError naming ``what`` and each unknown key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"{what}: unknown keys {unknown}")
    return doc


def json_numbers(values, what: str, size: int, where=None) -> np.ndarray:
    """``values`` as float64 if it is a flat list of ``size`` finite numbers, none a bool;
    ``where``, given the mask of non-finite values, names the part that holds them."""
    try:
        flat = np.array(values)
    except ValueError:  # lists nested to unequal depths
        flat = np.array(None)
    # np.array reads a JSON true among numbers as 1.0: the list itself must hold no bool
    if flat.ndim != 1 or flat.dtype.kind not in "iuf" or bool in set(map(type, values)):
        raise ConfigError(f"{what} must be a flat list of numbers")
    if flat.size != size:
        raise ConfigError(f"{what} has {flat.size} values, expected {size}")
    flat = flat.astype(np.float64, copy=False)
    bad = ~np.isfinite(flat)
    if bad.any():
        raise ConfigError(f"{where(bad) if where else what} has non-finite values")
    return flat


def load_schema(path: str | Path) -> tuple[ColumnDescriptor, ...]:
    """Read a schema file written by ``save_schema``; any fault names the file."""
    return read_json(path, "schema", schema_from_json)


def dataset_schema(dataset: Dataset) -> tuple[ColumnDescriptor, ...]:
    """Schema describing a Dataset written back to CSV: numeric features + outcomes."""
    cols = [ColumnDescriptor(name, NUMERIC) for name in dataset.feature_names]
    for i, out in enumerate(dataset.outcomes):
        cols.append(
            ColumnDescriptor(
                out.task_name,
                OUTCOME,
                task_index=i,
                task=out.kind,
                num_classes=out.num_classes,
            )
        )
    return validate_schema(cols)


_CSV_BLOCK_ROWS = 64  # rows formatted at once, so the table's text is never held whole


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write features and outcomes as CSV; NaN cells become "NA".

    Cells are formatted a row at a time, one block of rows after another, as
    the ``repr`` of a float or of an integer class label. Only the header goes
    through ``csv.writer``, since a name may need quoting; no cell does.
    """
    header = list(dataset.feature_names) + list(dataset.task_names())
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, dataset.n_rows, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            labels = zip(*(o.values[block].tolist() for o in dataset.outcomes))
            text = "".join(",".join(map(repr, [*row, *y])) + "\r\n"
                           for row, y in zip(dataset.features[block].tolist(), labels))
            # only a float NaN's repr holds "nan", and a Dataset holds no inf
            fh.write(text.replace("nan", "NA"))
