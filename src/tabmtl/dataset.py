"""Tabular data ingestion, cleaning, imputation, transformation, and CV splits.

The pipeline mirrors a typical small-cohort study: load a raw CSV against a
declared schema, drop duplicates/constant/over-missing columns, impute the
remaining gaps with chained-equation regressions, then map everything to a
fully numeric, z-scored feature matrix plus per-task outcome vectors.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ColumnDescriptor:
    """Declares how one raw column is typed and transformed.

    ``kind`` is one of numeric, categorical (with ``levels``), ordinal (with
    a string-to-number ``mapping``), timeseries (with a ``group`` label),
    identifier, or outcome (with ``task_index``, ``task`` kind, and
    ``num_classes`` for classification).
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
        if self.kind == CATEGORICAL:
            if not self.levels:
                raise ConfigError(f"categorical column {self.name!r} needs non-empty levels")
            object.__setattr__(self, "levels", tuple(self.levels))
            if len(set(self.levels)) != len(self.levels):
                raise ConfigError(f"categorical column {self.name!r} has duplicate levels")
        elif self.kind == ORDINAL:
            if not self.mapping:
                raise ConfigError(f"ordinal column {self.name!r} needs a mapping")
            mapping = {str(k): float(v) for k, v in self.mapping.items()}
            for key, value in mapping.items():
                if not np.isfinite(value):
                    raise ConfigError(
                        f"ordinal column {self.name!r}: mapping value for {key!r} "
                        f"is {value}, not a finite number"
                    )
            object.__setattr__(self, "mapping", mapping)
        elif self.kind == TIMESERIES:
            if not self.group or not isinstance(self.group, str):
                raise ConfigError(f"timeseries column {self.name!r} needs a group name")
        elif self.kind == OUTCOME:
            if self.task_index is None or self.task_index < 0:
                raise ConfigError(f"outcome column {self.name!r} needs task_index >= 0")
            if self.task not in (CLASSIFICATION, REGRESSION):
                raise ConfigError(
                    f"outcome column {self.name!r} needs task 'classification' or 'regression'"
                )
            if self.task == CLASSIFICATION and self.num_classes is not None and self.num_classes < 2:
                raise ConfigError(f"outcome column {self.name!r} needs num_classes >= 2")
        elif self.kind not in (NUMERIC, IDENTIFIER):
            raise ConfigError(f"unknown column kind {self.kind!r} for {self.name!r}")

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


def _column(cells) -> np.ndarray:
    """Cells as float64 (None becomes NaN) unless one is a string, else as objects."""
    if not (isinstance(cells, np.ndarray) and cells.dtype == np.float64):
        cells = list(cells)
        is_text = any(issubclass(t, str) for t in set(map(type, cells)))
        cells = np.array(cells, dtype=object if is_text else np.float64)
    cells.setflags(write=False)
    return cells


def _missing(values: np.ndarray) -> np.ndarray:
    return np.isnan(values) if values.dtype == np.float64 else np.equal(values, None)


@dataclass(frozen=True, eq=False)
class RawTable:
    """Parsed cells in schema column order, one read-only 1-D array per column.

    ``columns`` holds one sequence of None, float and str cells per schema
    entry, all of one length. A column whose cells are all numbers or missing
    is stored as float64, and NaN marks a missing cell; ``load_csv`` rejects
    non-finite input, so NaN never means anything else. Any other column
    (categorical, identifier, or ordinal while it still holds level labels)
    is an object array of str, float and None, with None for missing.
    """

    schema: tuple[ColumnDescriptor, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        schema, columns = validate_schema(self.schema), tuple(self.columns)
        if len(columns) != len(schema):
            raise DataError(f"{len(columns)} columns for {len(schema)} schema entries")
        columns = tuple(_column(c) for c in columns)
        if len({len(c) for c in columns}) > 1:
            raise DataError(f"columns have unequal lengths {[len(c) for c in columns]}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", columns)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def _parse_cell(text: str, col: ColumnDescriptor, row_idx: int):
    if text in MISSING_TOKENS:
        return None
    if col.is_numeric_valued():
        try:
            value = float(text)
        except ValueError:
            if col.kind == ORDINAL:
                return text  # level label; mapped to its code by apply_ordinal
            raise DataError(
                f"row {row_idx}, column {col.name!r}: cannot parse {text!r} as a number"
            ) from None
        if not np.isfinite(value):
            raise DataError(f"row {row_idx}, column {col.name!r}: non-finite value {text!r}")
        return value
    return text


def load_csv(path: str | Path, schema: Sequence[ColumnDescriptor]) -> RawTable:
    """Parse a UTF-8 comma-separated file, with or without a BOM, against the schema.

    The header must contain exactly the schema's column names, in any order.
    Empty cells and the literal "NA" are missing.
    """
    cols = validate_schema(schema)
    path = Path(path)
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
            fields = [(header_pos[c.name], c, []) for c in cols]
            for row_idx, record in enumerate(reader):
                if len(record) != len(header):
                    raise DataError(
                        f"{path}: row {row_idx} has {len(record)} cells, expected {len(header)}"
                    )
                for pos, col, cells in fields:
                    cells.append(_parse_cell(record[pos], col, row_idx))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from None
    except OSError as exc:  # missing, a directory, unreadable
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return RawTable(cols, [cells for _, _, cells in fields])


@dataclass
class CleaningReport:
    dropped_columns: list[dict] = field(default_factory=list)
    duplicates_removed: int = 0

    def to_dict(self) -> dict:
        return {
            "dropped_columns": self.dropped_columns,
            "duplicates_removed": self.duplicates_removed,
        }


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
    columns = list(table.columns)
    report = CleaningReport()

    def attribute_indices() -> list[int]:
        return [i for i, c in enumerate(schema) if c.kind not in (OUTCOME, IDENTIFIER)]

    if not attribute_indices():
        raise DataError("table has no input-attribute columns")

    changed = True
    while changed:
        changed = False
        # duplicate rows: the first row of each distinct attribute key stays
        key = np.column_stack([_codes(columns[i]) for i in attribute_indices()])
        keep = np.sort(np.unique(key, axis=0, return_index=True)[1])
        if len(keep) < len(key):
            report.duplicates_removed += len(key) - len(keep)
            changed = True
            columns = [c[keep] for c in columns]
        # constant and over-missing columns
        drop: dict[int, str] = {}
        for i, col in enumerate(schema):
            if col.kind == OUTCOME:
                continue
            missing = _missing(columns[i])
            observed = len(np.unique(_codes(columns[i])[~missing]))
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

    return RawTable(schema, columns), report


def _codes(values: np.ndarray) -> np.ndarray:
    """Integer codes, equal exactly where the cells are equal; missing cells share one."""
    if values.dtype == np.float64:
        return np.unique(values, return_inverse=True)[1]
    seen: dict = {}
    return np.array([seen.setdefault(c, len(seen)) for c in values.tolist()], dtype=np.int64)


def apply_ordinal(table: RawTable) -> RawTable:
    """Map ordinal level labels to their numeric codes; other cells pass through."""
    columns = list(table.columns)
    faults = []
    for j, col in enumerate(table.schema):
        if col.kind != ORDINAL or columns[j].dtype == np.float64:
            continue
        cells = columns[j].tolist()
        bad = [r for r, c in enumerate(cells) if isinstance(c, str) and c not in col.mapping]
        if bad:
            faults.append((bad[0], j, cells[bad[0]]))
        else:
            columns[j] = np.array([col.mapping.get(c, c) for c in cells], dtype=np.float64)
    if faults:
        r, j, cell = min(faults)
        raise DataError(
            f"row {r}, column {table.schema[j].name!r}: value {cell!r} not in ordinal mapping"
        )
    return RawTable(table.schema, columns)


def mice_impute(table: RawTable, max_sweeps: int = 10, tol: float = 1e-6) -> RawTable:
    """Fill the missing cells of the numeric-valued columns by chained regressions.

    Numeric, ordinal (mapped to codes), timeseries and outcome columns are
    imputed; categorical and identifier columns pass through unchanged and
    are not used as predictors. Missing cells start at their column means.
    Incomplete columns are then swept in ascending order of missing count
    (ties by schema order); each is regressed, with an intercept, on the
    other numeric-valued columns over its observed rows, with ridge damping
    1e-8*I on the normal equations, and its missing cells are overwritten by
    the fit's predictions. Sweeps stop when the largest absolute change of
    any imputed cell drops below ``tol`` or after ``max_sweeps`` sweeps.
    Observed cells are never altered. The chain is deterministic: a single
    run with ordinary-least-squares imputers and no posterior noise.
    """
    if max_sweeps < 1:
        raise ConfigError(f"max_sweeps must be >= 1, got {max_sweeps}")
    numeric = [j for j, c in enumerate(table.schema) if c.is_numeric_valued()]
    n, p = table.n_rows, len(numeric)
    if n == 0 or p == 0:
        return table
    for j in numeric:
        if table.columns[j].dtype != np.float64:
            cell = next(c for c in table.columns[j].tolist() if isinstance(c, str))
            raise DataError(
                f"column {table.schema[j].name!r} holds non-numeric value {cell!r}; "
                "imputation requires numeric cells"
            )
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
    if not missing.any():
        return table

    col_means = np.nanmean(x, axis=0)
    for k in range(p):
        x[missing[:, k], k] = col_means[k]

    # each link of the chain fixes a column's observed and missing rows and its
    # predictors (the intercept and the other columns), so a sweep only gathers cells
    ridge = MICE_RIDGE * np.eye(p)
    chain = []
    incomplete = np.flatnonzero(missing.any(axis=0))
    for k in sorted(incomplete, key=lambda k: (int(missing[:, k].sum()), k)):
        predictors = [0] + [c + 1 for c in range(p) if c != k]
        miss_rows, obs_rows = missing[:, k], ~missing[:, k]
        chain.append((k + 1, obs_rows, miss_rows,
                      np.ix_(obs_rows, predictors), np.ix_(miss_rows, predictors)))

    for _ in range(max_sweeps):
        max_change = 0.0
        for c, obs_rows, miss_rows, obs_cells, miss_cells in chain:
            a_obs = design[obs_cells]
            beta = np.linalg.solve(a_obs.T @ a_obs + ridge, a_obs.T @ design[obs_rows, c])
            preds = design[miss_cells] @ beta
            max_change = max(max_change, float(np.max(np.abs(preds - design[miss_rows, c]))))
            design[miss_rows, c] = preds
        if max_change < tol:
            break

    columns = list(table.columns)
    for k, j in enumerate(numeric):
        columns[j] = design[:, k + 1]
    return RawTable(table.schema, columns)


@dataclass(frozen=True)
class OutcomeVector:
    """One task's targets: integer labels for classification, reals for regression."""

    task_name: str
    kind: str
    values: np.ndarray
    num_classes: int | None = None

    def __post_init__(self):
        if self.kind == CLASSIFICATION:
            values = np.asarray(self.values, dtype=np.int64)
            if self.num_classes is None or self.num_classes < 2:
                raise ConfigError(f"task {self.task_name!r}: num_classes must be >= 2")
            if values.size and (values.min() < 0 or values.max() >= self.num_classes):
                raise DataError(
                    f"task {self.task_name!r}: labels outside [0, {self.num_classes})"
                )
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

    def outcome_by_name(self, name: str) -> OutcomeVector:
        for o in self.outcomes:
            if o.task_name == name:
                return o
        raise ConfigError(f"no task named {name!r}; tasks are {list(self.task_names())}")

    def is_complete(self) -> bool:
        return not np.isnan(self.features).any()

    def require_complete(self) -> None:
        if not self.is_complete():
            raise DataError("features contain missing values; run imputation first")

    def raw_features(self) -> np.ndarray:
        """Undo the recorded z-scoring."""
        return self.features * self.normalization_stats.std + self.normalization_stats.mean


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
    outcome = dataset.outcome_by_name(task_name)
    return Dataset(
        dataset.features,
        dataset.feature_names,
        (outcome,),
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


def _require_complete(col: ColumnDescriptor, values: np.ndarray, bad: np.ndarray | None = None):
    """Raise for the first missing cell, or the first cell flagged in ``bad``."""
    missing = _missing(values)
    rows = np.flatnonzero(missing if bad is None else missing | bad)
    if rows.size == 0:
        return
    i = int(rows[0])
    if missing[i]:
        raise DataError(f"row {i}, column {col.name!r}: missing value; impute before transforming")
    raise DataError(
        f"row {i}, column {col.name!r}: value {values.tolist()[i]!r} "
        f"not in declared levels {list(col.levels)}"
    )


def _numbers(table: RawTable, j: int) -> np.ndarray:
    _require_complete(table.schema[j], table.columns[j])
    return np.asarray(table.columns[j], dtype=np.float64)


def transform(table: RawTable) -> Dataset:
    """Map a complete table to a z-scored numeric Dataset.

    Ordinal columns are mapped through their dictionaries (already-numeric
    cells pass through), each timeseries group is summed row-wise into a
    single "<group>_sum" column, categorical columns expand to one indicator
    per level, identifiers are dropped, and every resulting feature is
    z-score normalized with population statistics. Features with std below
    1e-12 are set identically to 0 and recorded with std = 1.
    """
    table = apply_ordinal(table)
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
                    total += _numbers(table, mi)
            feature_cols.append(total)
            feature_names.append(f"{col.group}_sum")
        elif col.kind == CATEGORICAL:
            level_pos = {lv: i for i, lv in enumerate(col.levels)}
            values = table.columns[idx]
            codes = np.array([level_pos.get(c, -1) for c in values.tolist()], dtype=np.int64)
            _require_complete(col, values, codes < 0)
            indicators = np.zeros((n, len(col.levels)))
            indicators[np.arange(n), codes] = 1.0
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
    stats = fit_standardizer(raw)
    features = apply_standardizer(raw, stats)
    features[:, raw.std(axis=0) < CONSTANT_STD_FLOOR] = 0.0

    outcomes = []
    for task_index in sorted(outcome_cols):
        col, values = outcome_cols[task_index]
        if col.task == CLASSIFICATION:
            rounded = np.rint(values)
            if not np.allclose(values, rounded, atol=1e-9):
                raise DataError(f"column {col.name!r}: classification labels must be integers")
            labels = rounded.astype(np.int64)
            if labels.min() < 0:
                raise DataError(f"column {col.name!r}: negative class label")
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
    """Full raw-to-model-ready pipeline: clean, map ordinals, impute, transform.

    Imputation runs on the numeric-valued columns (numeric, mapped ordinal,
    timeseries, outcome) before one-hot expansion; categorical and identifier
    cells pass through and must already be complete. ``mice_sweeps`` is
    checked even when no cell is missing.
    """
    if mice_sweeps < 1:
        raise ConfigError(f"mice_sweeps must be >= 1, got {mice_sweeps}")
    cleaned, report = clean(raw, max_missing_frac)
    mapped = apply_ordinal(cleaned)
    if any(_missing(v).any() for c, v in zip(mapped.schema, mapped.columns)
           if c.is_numeric_valued()):
        mapped = mice_impute(mapped, mice_sweeps, mice_tol)
    return transform(mapped), report


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

    @property
    def n(self) -> int:
        return len(self.assignments)

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
    perm = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % k
    return FoldPlan(k, assignments)


# --- schema / CSV serialization ---------------------------------------------


def schema_to_json(schema: Sequence[ColumnDescriptor]) -> list[dict]:
    out = []
    for c in validate_schema(schema):
        params: dict = {}
        if c.kind == CATEGORICAL:
            params["levels"] = list(c.levels)
        elif c.kind == ORDINAL:
            params["mapping"] = dict(c.mapping)
        elif c.kind == TIMESERIES:
            params["group"] = c.group
        elif c.kind == OUTCOME:
            params["task_index"] = c.task_index
            params["task"] = c.task
            if c.task == CLASSIFICATION and c.num_classes is not None:
                params["num_classes"] = c.num_classes
        out.append({"name": c.name, "kind": c.kind, "params": params})
    return out


def schema_from_json(doc: list[dict]) -> tuple[ColumnDescriptor, ...]:
    if not isinstance(doc, list):
        raise ConfigError("schema document must be a JSON array")
    cols = []
    for entry in doc:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and "kind" in entry):
            raise ConfigError(f"schema entry {entry!r} needs a string 'name' and a 'kind'")
        params = entry.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError(f"schema entry {entry['name']!r}: params must be a JSON object")
        levels = params.get("levels")
        if levels is not None and not (
            isinstance(levels, list) and all(isinstance(v, str) for v in levels)
        ):
            raise ConfigError(f"schema entry {entry['name']!r}: levels must be a list of strings")
        try:
            cols.append(
                ColumnDescriptor(
                    name=entry["name"],
                    kind=entry["kind"],
                    levels=None if levels is None else tuple(levels),
                    mapping=params.get("mapping"),
                    group=params.get("group"),
                    task_index=params.get("task_index"),
                    task=params.get("task"),
                    num_classes=params.get("num_classes"),
                )
            )
        except (TypeError, ValueError, AttributeError) as exc:  # e.g. levels given as a number
            raise ConfigError(f"schema entry {entry['name']!r}: malformed params: {exc}") from None
    return validate_schema(cols)


def save_schema(schema: Sequence[ColumnDescriptor], path: str | Path) -> None:
    Path(path).write_text(json.dumps(schema_to_json(schema), indent=2) + "\n")


def load_schema(path: str | Path) -> tuple[ColumnDescriptor, ...]:
    """Read a schema file written by ``save_schema``; any fault names the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read schema file {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    try:
        return schema_from_json(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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

    Cells are formatted a column at a time, one block of rows after another,
    as the ``repr`` of a float or of an integer class label.
    """
    header = list(dataset.feature_names) + list(dataset.task_names())
    columns = [*dataset.features.T, *(o.values for o in dataset.outcomes)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, dataset.n_rows, _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS].tolist() for c in columns]
            # v != v only for NaN
            writer.writerows(zip(*(["NA" if v != v else repr(v) for v in b] for b in block)))
