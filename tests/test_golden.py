"""Pinned sha256 digests of `preprocess` and `train` outputs on a small seeded table.

CLI outputs are promised byte-identical across runs and refactors. The input
has every column kind, 65 of its 704 cells missing (9%), 4 duplicate rows and
a constant column, so the digests cover cleaning, ordinal mapping, MICE,
one-hot encoding, z-scoring, the CSV writer and a short training run. Further
`train` digests pin one short run per network shape, and one test checks that
`train` writes the same bytes whatever the number of BLAS threads. A change
that moves any of them on purpose re-pins the digests here and says so in
CHANGES.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys

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
        "80d1c3755e0169ed273edd5cdcd0c3fd69f1cb6ad523fc5ace2b6f65aeb337ae",
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


# --- training engine shapes ---------------------------------------------------
# Short `train` runs over topologies the default digest above does not reach.
# Every case trains on 50 rows, so with the default batch of 16 the last batch
# of each epoch has 2 rows; one case uses batches of 7, leaving a 1-row tail.

SHAPE_ROWS = 50
SHAPE_TRAIN_ARGS = ["--epochs", "4", "--batch-size", "16", "--seed", "5"]

SHAPE_CASES = {
    "no_trunk": (("bin", "los"), ["--trunk", "", "--head", "4"]),
    "deep_trunk": (("bin", "los"), ["--trunk", "8,6,5", "--head", "4"]),
    "no_head_hidden": (("tri", "los"), ["--trunk", "8", "--head", ""]),
    "mixed_heads": (("tri", "los", "bin"), ["--trunk", "8", "--head", "4"]),
    "regression_only": (("los", "bw"), ["--trunk", "6", "--head", "3,3"]),
    "zero_loss_weight": (("bin", "tri", "los"),
                         ["--trunk", "8", "--head", "4", "--loss-weights", "1,0,0.5"]),
    "one_row_tail": (("bin",), ["--trunk", "5", "--head", "", "--batch-size", "7"]),
    "weight_decay": (("tri", "bw"),
                     ["--trunk", "8", "--head", "4", "--weight-decay", "0.05",
                      "--lr-min", "0.001"]),
}

SHAPE_DIGESTS = {
    "deep_trunk": {
        "history.json":
            "231a7cc8b88795c1378e87a86604ad718d198edafcca52567fb0ff7c15bf2831",
        "model.json":
            "2d87e41cb696eb4f1e9ac99d208af8b4be39c10472062cccac2ce5ed38ab1a6c",
    },
    "mixed_heads": {
        "history.json":
            "48e9990bc144555fbed6a50173d01f0eb71bdfa8af19855de0301feabb427d93",
        "model.json":
            "19ae7b99d1d1bcb939d2953dac256d666491700c072041232033a5965d3542a1",
    },
    "no_head_hidden": {
        "history.json":
            "159b701e2fc6a19952c25ebca2a25c4377c6eb9ed8e046dc1b5b7ade75798ec9",
        "model.json":
            "9491bb37298e92d8eaa9374eb32f09f890aeed68b0545461348d83d9effd8fc5",
    },
    "no_trunk": {
        "history.json":
            "d54aa6d4773105eabc561d586a33901d91d70db8b6c5f72c41ff14a509665d1c",
        "model.json":
            "a6fe0ca2c8799e5a162ca915af7b9f7f71a98eca38275a926a0996946e3ba29e",
    },
    "one_row_tail": {
        "history.json":
            "f86a85b9492890fcb77df10815b51c06372619b5e90b05634444fd8a3d1d54aa",
        "model.json":
            "0fc8c89911699e347fab24d1612d22048d207e01650f566ce33e5615778dc11d",
    },
    "regression_only": {
        "history.json":
            "9dfd6f0ee5f0e84b1f76f796ddf2bb47b28b3e443ef0fdba8630ce4ee65367b4",
        "model.json":
            "a4a3b48c5a6b9b12531189e425871e0d9a61e4725d071bd6fa22f961db153ee1",
    },
    "weight_decay": {
        "history.json":
            "a48d3d6eccfe073368cfdf177f850d985d94d7f94051354e77e744baf4e518fc",
        "model.json":
            "db8a70745e097aa1ee94b8ae089483e923bf255eeafce358c1adacd59589ade1",
    },
    "zero_loss_weight": {
        "history.json":
            "b0b11fb44fb03b1ca884f02972f1db9e7af39b72faaf730dccf19834d22c282d",
        "model.json":
            "21c1f28275b43f2c59554d2e59326671d1e96dc93dda72e61966080cccee0719",
    },
}

OUTCOMES = {
    "bin": {"task": "classification", "num_classes": 2},
    "tri": {"task": "classification", "num_classes": 3},
    "los": {"task": "regression"},
    "bw": {"task": "regression"},
}


def _write_shape_input(directory, outcomes, rows=SHAPE_ROWS):
    """Five numeric features and the named outcomes, in task order."""
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 1.0, (rows, 5))
    signal = x[:, 0] - 0.5 * x[:, 1] + rng.normal(0.0, 0.5, rows)
    values = {
        "bin": (signal > 0).astype(int),
        "tri": np.digitize(signal, [-0.5, 0.5]),
        "los": 1.5 + 0.8 * x[:, 2] + rng.normal(0.0, 0.2, rows),
        "bw": -0.3 * x[:, 3] + x[:, 4] ** 2 + rng.normal(0.0, 0.2, rows),
    }
    names = [f"f{i}" for i in range(5)] + list(outcomes)
    data, schema = directory / "data.csv", directory / "schema.json"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(rows):
            cells = [f"{v:.5f}" for v in x[i]]
            cells += [repr(values[o][i].item()) for o in outcomes]
            writer.writerow(cells)
    entries = [{"name": f"f{i}", "kind": "numeric"} for i in range(5)]
    entries += [{"name": o, "kind": "outcome", "params": {"task_index": t, **OUTCOMES[o]}}
                for t, o in enumerate(outcomes)]
    schema.write_text(json.dumps(entries))
    return data, schema


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_train_outputs_are_pinned_per_shape(case, tmp_path):
    outcomes, args = SHAPE_CASES[case]
    data, schema = _write_shape_input(tmp_path, outcomes)
    out = tmp_path / "train"
    assert main(["train", "--data", str(data), "--schema", str(schema), "--out", str(out),
                 *SHAPE_TRAIN_ARGS, *args]) == 0
    assert _digests(out, TRAIN_DIGESTS) == SHAPE_DIGESTS[case]


def test_train_outputs_do_not_depend_on_blas_threads(tmp_path):
    """`train` writes the same bytes with one BLAS thread and with two.

    The trunk is wide enough (512-row batches through 128 units) that
    OpenBLAS splits its matrix multiplies across threads when allowed to.
    """
    synth = tmp_path / "synth"
    assert main(["synth", "--out", str(synth), "--n-samples", "512", "--n-features", "40",
                 "--seed", "2"]) == 0
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "tabmtl", "train", "--data", str(synth / "data.csv"),
             "--schema", str(synth / "schema.json"), "--out", str(out),
             "--trunk", "128,128", "--head", "32", "--epochs", "3", "--batch-size", "512"],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        runs[threads] = _digests(out, TRAIN_DIGESTS)
    assert runs["1"] == runs["2"]


# --- cross-validation and grid search ----------------------------------------
# `cv` on 50 rows with k=4 trains folds of 37 and 38 rows, so the folds fall
# into two row counts and every epoch ends on a partial batch. `gridsearch` on
# 100 rows with k=3 trains folds of 66 and 67 rows in batches of 64; its grid
# has two topologies, two epoch counts, and weight decays of 0 and 0.01.

CV_ARGS = ["--trunk", "8", "--head", "4", "--epochs", "4", "--batch-size", "16",
           "--seed", "5", "--k", "4"]
CV_DIGESTS = {
    "cv_report.json":
        "865ad0c85c5dd9b7e0d5cc5c1a617c0a56f26458ccdd8f91e007b04e1d916e20",
    "cv_report.txt":
        "25fd26057959160fc9f1664f66a29a54c35d6f84818dd310bf582dd9fa2eb00d",
}
GRID_ROWS = 100
GRID_ARGS = ["--primary-task", "bin", "--k", "3", "--seed", "7",
             "--trunk-depths", "1", "--trunk-widths", "4,8", "--head-depths", "1",
             "--head-widths", "3", "--lr0-values", "0.01,0.05",
             "--weight-decay-values", "0,0.01", "--epochs-values", "2,3",
             "--loss-weight-values", "0.5"]
GRID_DIGESTS = {
    "gridsearch.json":
        "cb24a4b7580c4e7a61277f49baec254cdfc2d702764e6b12f2b1986303a963bc",
    "best_cv_report.txt":
        "21569f762e9e7a336094bf9465876949d157ffa88a7c5ddd103971ffddd33708",
}


def test_cv_outputs_are_pinned(tmp_path):
    data, schema = _write_shape_input(tmp_path, ("tri", "los", "bin"))
    out = tmp_path / "cv"
    assert main(["cv", "--data", str(data), "--schema", str(schema), "--out", str(out),
                 *CV_ARGS]) == 0
    assert _digests(out, CV_DIGESTS) == CV_DIGESTS


def test_gridsearch_outputs_are_pinned(tmp_path):
    data, schema = _write_shape_input(tmp_path, ("bin", "los"), rows=GRID_ROWS)
    out = tmp_path / "grid"
    assert main(["gridsearch", "--data", str(data), "--schema", str(schema),
                 "--out", str(out), *GRID_ARGS]) == 0
    assert _digests(out, GRID_DIGESTS) == GRID_DIGESTS
