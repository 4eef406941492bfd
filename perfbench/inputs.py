"""Seeded inputs for the benchmark workloads, and the checks on their outputs.

The program only ever sees the CSV and schema files written here. The values
the benchmark needs to judge an output (the unmasked feature matrix, the
informative feature names) stay in the ``Inputs`` object.

Each workload is one op: a list of CLI argument lists that run in order
against one output directory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tabmtl.dataset import ColumnDescriptor, save_schema
from tabmtl.synth import SynthConfig, generate

# quality floors: loose enough to hold on any seed, tight enough to catch a
# broken imputer, optimizer or attribution. On the informative columns MICE
# scores 0.84-0.93 of the mean-fill RMSE of the same cells (seeds 0-49), and
# mean fill scores 1.0 by definition.
PREP_RMSE_RATIO_CEILING = 0.96
TUNE_AUC_FLOOR = 0.65
FIT_WIDE_RECALL_FLOOR = 0.4

PREP = dict(rows=2000, features=30, missing_frac=0.1, duplicates=40)
TUNE = dict(rows=400, features=15, k=5, batch=64, trunk_widths=(16, 32),
            head_width=16, lr0=(0.005, 0.02), weight_decay=(0.01, 0.001),
            epochs=10, loss_weight=0.5)
FIT_WIDE = dict(rows=2000, features=60, trunk=(256, 256), head=64, batch=256,
                epochs=15)

ORDINAL_LEVELS = {"low": 0.0, "mid": 1.0, "high": 2.0}
SITE_LEVELS = ("north", "south", "east", "west")


@dataclass
class Inputs:
    workload: str
    seed: int
    ops: list[list[str]]          # CLI argument lists making up one op
    rows: int                     # data rows in the input CSV
    shape: dict                   # recorded in the provenance block
    steps: int                    # optimizer steps one op must take
    truth: dict = field(default_factory=dict)

    def quality(self, out: Path) -> tuple[str, float, bool]:
        """The workload's quality figure, read from an op's outputs in ``out``,
        and whether it meets its floor."""
        if self.workload == "prep":
            rmse = _impute_rmse(self.truth, out)
            return "impute_rmse", rmse, rmse <= self.truth["rmse_ceiling"]
        if self.workload == "tune":
            auc = json.loads((out / "gridsearch.json").read_text())["best_score"]
            auc = float("nan") if auc is None else float(auc)
            return "cv_auc", auc, auc >= TUNE_AUC_FLOOR
        recall = _attr_recall(self.truth, out)
        return "attr_recall", recall, recall >= FIT_WIDE_RECALL_FLOOR


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None or value != value:
        return "NA"
    return repr(float(value))


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])


def _outcome_columns(dataset) -> tuple[list[ColumnDescriptor], list[str], list]:
    schema, names, columns = [], [], []
    for j, o in enumerate(dataset.outcomes):
        schema.append(ColumnDescriptor(o.task_name, "outcome", task_index=j, task=o.kind,
                                       num_classes=o.num_classes))
        names.append(o.task_name)
        columns.append([int(v) for v in o.values] if o.kind == "classification"
                       else o.values.tolist())
    return schema, names, columns


def _numeric_table(dataset, directory: Path) -> tuple[Path, Path]:
    """CSV and schema holding the dataset's features and outcomes, nothing else."""
    schema = [ColumnDescriptor(n, "numeric") for n in dataset.feature_names]
    out_schema, out_names, out_cols = _outcome_columns(dataset)
    data, schema_path = directory / "data.csv", directory / "schema.json"
    _write_csv(data, list(dataset.feature_names) + out_names,
               list(dataset.features.T) + out_cols)
    save_schema(schema + out_schema, schema_path)
    return data, schema_path


def build(workload: str, seed: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, directory)


def _build_prep(seed: int, directory: Path) -> Inputs:
    p = PREP
    config = SynthConfig(n_samples=p["rows"], n_features=p["features"],
                         missing_frac=p["missing_frac"], seed=seed)
    dataset, ground = generate(config)
    complete, _ = generate(SynthConfig(n_samples=p["rows"], n_features=p["features"],
                                       seed=seed))
    n = p["rows"]
    rng = np.random.default_rng([seed, 1])
    ordinal = rng.choice(list(ORDINAL_LEVELS), size=n).tolist()
    site = rng.choice(SITE_LEVELS, size=n).tolist()
    dose = rng.gamma(2.0, 1.5, size=(n, 3))
    ident = [f"id{i:05d}" for i in range(n)]

    schema = [ColumnDescriptor("patient_id", "identifier")]
    schema += [ColumnDescriptor(name, "numeric") for name in dataset.feature_names]
    schema += [
        ColumnDescriptor("grade", "ordinal", mapping=ORDINAL_LEVELS),
        ColumnDescriptor("site", "categorical", levels=SITE_LEVELS),
        *(ColumnDescriptor(f"dose_{t + 1}", "timeseries", group="dose") for t in range(3)),
        ColumnDescriptor("batch_flag", "numeric"),
    ]
    out_schema, out_names, out_cols = _outcome_columns(dataset)
    columns = ([ident] + [list(c) for c in dataset.features.T]
               + [ordinal, site] + [list(c) for c in dose.T] + [[1.0] * n] + out_cols)

    # duplicate rows: copies of earlier rows under fresh identifiers, appended so
    # cleaning keeps the originals in their original order
    dup_src = np.sort(rng.choice(n, size=p["duplicates"], replace=False))
    for c, col in enumerate(columns):
        if c == 0:
            col.extend(f"id{n + i:05d}" for i in range(len(dup_src)))
        else:
            col.extend(col[i] for i in dup_src)

    data, schema_path = directory / "data.csv", directory / "schema.json"
    _write_csv(data, [c.name for c in schema] + out_names, columns)
    save_schema(schema + out_schema, schema_path)
    mask = np.isnan(dataset.features)
    # imputation is scored on the informative columns only: the outcomes MICE
    # regresses on are linear in them, while the other columns are independent
    # noise that no imputer predicts better than their mean
    truth = {"names": [dataset.feature_names[i] for i in ground.informative_indices],
             "mask": mask[:, ground.informative_indices],
             "values": complete.features[:, ground.informative_indices], "base_rows": n}
    mean_fill = [np.nanmean(dataset.features[:, i]) - truth["values"][truth["mask"][:, j], j]
                 for j, i in enumerate(ground.informative_indices)]
    truth["mean_fill_rmse"] = _rms(np.concatenate(mean_fill))
    truth["rmse_ceiling"] = PREP_RMSE_RATIO_CEILING * truth["mean_fill_rmse"]
    return Inputs(
        "prep", seed,
        ops=[["preprocess", "--data", str(data), "--schema", str(schema_path), "--out", "{out}",
              "--mice-tol", "0"]],
        rows=n + p["duplicates"],
        shape={"rows": n + p["duplicates"], "columns": len(schema) + len(out_schema),
               "numeric_features": p["features"], "missing_cells": int(mask.sum()),
               "duplicate_rows": p["duplicates"]},
        steps=0,
        truth=truth,
    )


def _build_tune(seed: int, directory: Path) -> Inputs:
    t = TUNE
    dataset, _ = generate(SynthConfig(n_samples=t["rows"], n_features=t["features"], seed=seed))
    data, schema = _numeric_table(dataset, directory)
    configs = len(t["trunk_widths"]) * len(t["lr0"]) * len(t["weight_decay"])
    fold_rows = [t["rows"] // t["k"] + (1 if f < t["rows"] % t["k"] else 0) for f in range(t["k"])]
    steps_per_config = sum(
        t["epochs"] * math.ceil((t["rows"] - test) / t["batch"]) for test in fold_rows
    )
    join = lambda values: ",".join(str(v) for v in values)  # noqa: E731
    op = ["gridsearch", "--data", str(data), "--schema", str(schema), "--out", "{out}",
          "--primary-task", "task_a", "--k", str(t["k"]), "--seed", str(seed),
          "--trunk-depths", "1", "--trunk-widths", join(t["trunk_widths"]),
          "--head-depths", "1", "--head-widths", str(t["head_width"]),
          "--lr0-values", join(t["lr0"]), "--weight-decay-values", join(t["weight_decay"]),
          "--epochs-values", str(t["epochs"]), "--loss-weight-values", str(t["loss_weight"])]
    return Inputs(
        "tune", seed, ops=[op], rows=t["rows"],
        shape={"rows": t["rows"], "features": t["features"], "k": t["k"],
               "batch": t["batch"], "configs": configs, "epochs": t["epochs"]},
        steps=configs * steps_per_config,
    )


def _build_fit_wide(seed: int, directory: Path) -> Inputs:
    f = FIT_WIDE
    config = SynthConfig(n_samples=f["rows"], n_features=f["features"], seed=seed)
    dataset, truth = generate(config)
    data, schema = _numeric_table(dataset, directory)
    common = ["--data", str(data), "--schema", str(schema)]
    train = ["train", *common, "--trunk", ",".join(map(str, f["trunk"])),
             "--head", str(f["head"]), "--batch-size", str(f["batch"]),
             "--epochs", str(f["epochs"]), "--seed", str(seed), "--out", "{out}/train"]
    attribute = ["attribute", *common, "--model", "{out}/train/model.json",
                 "--task", "task_a", "--out", "{out}/attribute"]
    return Inputs(
        "fit_wide", seed, ops=[train, attribute], rows=f["rows"],
        shape={"rows": f["rows"], "features": f["features"], "trunk": list(f["trunk"]),
               "head": f["head"], "batch": f["batch"], "epochs": f["epochs"]},
        steps=f["epochs"] * math.ceil(f["rows"] / f["batch"]),
        truth={"informative": [dataset.feature_names[i] for i in truth.informative_indices]},
    )


_BUILDERS = {"prep": _build_prep, "tune": _build_tune, "fit_wide": _build_fit_wide}


# --- output checks -----------------------------------------------------------


def _rms(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(err * err)))


def _impute_rmse(truth: dict, out: Path) -> float:
    """RMSE of the imputed cells of the informative columns, in raw units,
    against the masked values."""
    with (out / "dataset.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        table = np.array([[float(v) for v in row] for row in reader])
    if table.shape[0] != truth["base_rows"]:
        return float("inf")  # duplicates not removed, or rows lost
    stats = json.loads((out / "normalization.json").read_text())
    pos = {name: i for i, name in enumerate(stats["feature_names"])}
    col = {name: i for i, name in enumerate(header)}
    errors = []
    for j, name in enumerate(truth["names"]):
        rows = truth["mask"][:, j]
        raw = table[rows, col[name]] * stats["std"][pos[name]] + stats["mean"][pos[name]]
        errors.append(raw - truth["values"][rows, j])
    return _rms(np.concatenate(errors))


def _attr_recall(truth: dict, out: Path) -> float:
    """Share of the informative features ranked in the top n_informative."""
    doc = json.loads((out / "attribute" / "attribution.json").read_text())
    informative = truth["informative"]
    top = {doc["feature_names"][i] for i in doc["ranking"][: len(informative)]}
    return len(top & set(informative)) / len(informative)
