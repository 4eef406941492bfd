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
            "15636778d5e60a17e26395fe6ea8c925860ccaa923e38fc952a6451ea55d20aa",
    },
    "mixed_heads": {
        "history.json":
            "48e9990bc144555fbed6a50173d01f0eb71bdfa8af19855de0301feabb427d93",
        "model.json":
            "178fc00fb96d9868e39bcfb4fe6f860777668ea6e4ef98af356a5be315712e09",
    },
    "no_head_hidden": {
        "history.json":
            "159b701e2fc6a19952c25ebca2a25c4377c6eb9ed8e046dc1b5b7ade75798ec9",
        "model.json":
            "bc0ef5249ea3740483f139ad508dc9f6ea75cafc761c204c0f0f8084a65c97b3",
    },
    "no_trunk": {
        "history.json":
            "d54aa6d4773105eabc561d586a33901d91d70db8b6c5f72c41ff14a509665d1c",
        "model.json":
            "97f5ff9f26bd0f1bd3025e6be292b9e22ab899c240f46d52b87f24c9071fee5e",
    },
    "one_row_tail": {
        "history.json":
            "f86a85b9492890fcb77df10815b51c06372619b5e90b05634444fd8a3d1d54aa",
        "model.json":
            "5bbf90d5dee45ae3d84c703f54ec528859867cd5be09ea202845b343af57c513",
    },
    "regression_only": {
        "history.json":
            "9dfd6f0ee5f0e84b1f76f796ddf2bb47b28b3e443ef0fdba8630ce4ee65367b4",
        "model.json":
            "814ad1f49f04e83dc4ef25df4969742fdbfc22e162dd1a45d98a51325b687667",
    },
    "weight_decay": {
        "history.json":
            "a48d3d6eccfe073368cfdf177f850d985d94d7f94051354e77e744baf4e518fc",
        "model.json":
            "5375bf05d3fb2086bb6868156370e0ad36e0025deec1210fb5d2e3b6aa8c5a6d",
    },
    "zero_loss_weight": {
        "history.json":
            "b0b11fb44fb03b1ca884f02972f1db9e7af39b72faaf730dccf19834d22c282d",
        "model.json":
            "540c659674683f4c133f9a2733f3c0d20ce356e512134d4f3009558d6611d7c9",
    },
}

OUTCOMES = {
    "bin": {"task": "classification", "num_classes": 2},
    "tri": {"task": "classification", "num_classes": 3},
    "los": {"task": "regression"},
    "bw": {"task": "regression"},
}


def _write_shape_input(directory, outcomes):
    """Five numeric features and the named outcomes, in task order."""
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 1.0, (SHAPE_ROWS, 5))
    signal = x[:, 0] - 0.5 * x[:, 1] + rng.normal(0.0, 0.5, SHAPE_ROWS)
    values = {
        "bin": (signal > 0).astype(int),
        "tri": np.digitize(signal, [-0.5, 0.5]),
        "los": 1.5 + 0.8 * x[:, 2] + rng.normal(0.0, 0.2, SHAPE_ROWS),
        "bw": -0.3 * x[:, 3] + x[:, 4] ** 2 + rng.normal(0.0, 0.2, SHAPE_ROWS),
    }
    names = [f"f{i}" for i in range(5)] + list(outcomes)
    data, schema = directory / "data.csv", directory / "schema.json"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(SHAPE_ROWS):
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
