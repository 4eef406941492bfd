"""Pinned sha256 digests of `preprocess` and `train` outputs on a small seeded table.

CLI outputs are promised byte-identical across runs and refactors. The input
has every column kind, 65 of its 704 cells missing (9%), 4 duplicate rows and
a constant column, so the digests cover cleaning, ordinal mapping, MICE,
one-hot encoding, z-scoring, the CSV writer and a short training run. A
change that moves any of them on purpose re-pins the digests here and says
so in CHANGES.md.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
import pytest

from tabmtl.cli import main

ROWS = 60
DUPLICATES = 4
MISSING_FRAC = 0.18  # of the numeric-valued input cells

SCHEMA = [
    {"name": "pid", "kind": "identifier"},
    {"name": "age", "kind": "numeric"},
    {"name": "weight", "kind": "numeric"},
    {"name": "score", "kind": "numeric"},
    {"name": "always_1", "kind": "numeric"},
    {"name": "grade", "kind": "ordinal", "params": {"mapping": {"low": 0, "mid": 1, "high": 2}}},
    {"name": "site", "kind": "categorical", "params": {"levels": ["a", "b", "c"]}},
    {"name": "dose_1", "kind": "timeseries", "params": {"group": "dose"}},
    {"name": "dose_2", "kind": "timeseries", "params": {"group": "dose"}},
    {"name": "sick", "kind": "outcome",
     "params": {"task_index": 0, "task": "classification", "num_classes": 2}},
    {"name": "stay", "kind": "outcome", "params": {"task_index": 1, "task": "regression"}},
]

PREPROCESS_DIGESTS = {
    "dataset.csv":
        "533ecb46ca7a540b348ab22e7c152d0c89ba43e9d2b1b05e86f6e113d2b4aee4",
    "dataset_schema.json":
        "8f0d738cd4f224bf4eb1d176482b8ea80216f5b8e969f15c7fcabee763463678",
    "cleaning_report.json":
        "2e9c434e55582658b92dc2c393bbcff34781ab240241e111cb2d5a09a7addb5b",
    "normalization.json":
        "fa303041bbcd3a01780f7408f297deb773502ed21da9190321ba6156980f8d04",
}
TRAIN_DIGESTS = {
    "history.json":
        "7e0bca532f4261f0a7ca43f6218e7c53078b0cdce189be3751eac7f79e9d3af3",
    "model.json":
        "4de0a6b81a69b38a4fafeaa3150c5619db1cefa0a5fc549e5b9f5b987c0f83c6",
}


def _write_input(directory):
    rng = np.random.default_rng(2024)
    age = rng.normal(60.0, 8.0, ROWS)
    weight = 0.5 * age + rng.normal(40.0, 5.0, ROWS)
    score = rng.normal(0.0, 1.0, ROWS)
    grade = rng.choice(["low", "mid", "high"], ROWS)
    site = rng.choice(["a", "b", "c"], ROWS)
    dose = rng.gamma(2.0, 1.5, (ROWS, 2))
    sick = (score + 0.05 * (age - 60.0) + rng.normal(0.0, 0.5, ROWS) > 0).astype(int)
    stay = 2.0 + 0.1 * weight + dose.sum(axis=1) + rng.normal(0.0, 0.3, ROWS)

    rows = []
    for i in range(ROWS):
        rows.append([f"p{i:03d}", f"{age[i]:.2f}", f"{weight[i]:.2f}", f"{score[i]:.4f}", "1",
                     str(grade[i]), str(site[i]), f"{dose[i, 0]:.3f}", f"{dose[i, 1]:.3f}",
                     str(sick[i]), f"{stay[i]:.3f}"])
    # blank numeric-valued input cells: age, weight, score, grade, dose_1, dose_2
    for i, j in zip(*np.nonzero(rng.random((ROWS, 6)) < MISSING_FRAC)):
        rows[i][(1, 2, 3, 5, 7, 8)[j]] = "NA" if j % 2 else ""
    # duplicates differ only in the identifier, so cleaning drops them
    for k, i in enumerate(rng.choice(ROWS, DUPLICATES, replace=False)):
        rows.append([f"dup{k}"] + rows[i][1:])

    data, schema = directory / "data.csv", directory / "schema.json"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c["name"] for c in SCHEMA])
        writer.writerows(rows)
    schema.write_text(json.dumps(SCHEMA))
    return data, schema


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _write_input(tmp_path_factory.mktemp("golden"))


def test_preprocess_and_train_outputs_are_pinned(inputs, tmp_path):
    data, schema = inputs
    prep = tmp_path / "prep"
    assert main(["preprocess", "--data", str(data), "--schema", str(schema),
                 "--out", str(prep)]) == 0
    assert _digests(prep, PREPROCESS_DIGESTS) == PREPROCESS_DIGESTS

    train = tmp_path / "train"
    assert main(["train", "--data", str(prep / "dataset.csv"),
                 "--schema", str(prep / "dataset_schema.json"), "--out", str(train),
                 "--trunk", "8", "--head", "4", "--epochs", "4", "--batch-size", "16",
                 "--seed", "3"]) == 0
    assert _digests(train, TRAIN_DIGESTS) == TRAIN_DIGESTS
