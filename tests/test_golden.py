"""Pinned sha256 digests of `preprocess` and `train` outputs on a small seeded table.

CLI outputs are promised byte-identical across runs and refactors. The input
has every column kind, 65 of its 704 cells missing (9%), 4 duplicate rows and
a constant column, so the digests cover cleaning, ordinal mapping, MICE,
one-hot encoding, z-scoring, the CSV writer and a short training run. Further
`train` digests pin one short run per network shape, and one test checks that
`train` and `attribute` write the same bytes whatever the number of BLAS
threads. `attribute` is pinned on one of those models, and `train` and
`attribute` on a table of several row blocks. A change that moves any of them
on purpose re-pins the digests here and says so in CHANGES.md.

Beside each `model.json` digest, `PARAMS` pins the sha256 of the parameter
vector the file decodes to, as little-endian float64 bytes. Those hashes were
taken from the files of model format version 2, which held the vector as a
list of decimal numbers, so a change of the file's encoding alone moves the
`model.json` digest and not this one.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tabmtl.cli import main
from tabmtl.network import ROW_BLOCK

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

PARAMS = "model.json params"  # pseudo-file: the decoded parameter vector of model.json

PREPROCESS_DIGESTS = {
    "dataset.csv":
        "42617da64f049b4386a01f9f87445d352b5f7fc9330c4af8cdf500771c6eafb6",
    "dataset_schema.json":
        "8f0d738cd4f224bf4eb1d176482b8ea80216f5b8e969f15c7fcabee763463678",
    "cleaning_report.json":
        "2e9c434e55582658b92dc2c393bbcff34781ab240241e111cb2d5a09a7addb5b",
    "normalization.json":
        "694b2cec388438a7f042c0cb8fac0651aa5a2f11c0beba9f2ad36444f37099df",
}
TRAIN_DIGESTS = {
    "history.json":
        "21222fb520913b4001a2740a6dcdcbc903a5515ad52ebbce2a1258ef18b297fd",
    "model.json":
        "9421e436542e45eff750e86148cbaef334f33f1ace69553b818802b3d24b0ac3",
    PARAMS:
        "f802a3d91b74b2ea6da3e33794b1afef404be16ab2c2f8a260e958455dfc1624",
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
    return {name: hashlib.sha256(_pinned_bytes(directory, name)).hexdigest() for name in names}


def _pinned_bytes(directory, name):
    if name != PARAMS:
        return (directory / name).read_bytes()
    params = json.loads((directory / "model.json").read_text())["params"]
    return np.frombuffer(base64.b64decode(params, validate=True), "<f8").tobytes()


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
            "69e84552a0d50ae4f3abcd769799f5f6c165da3d4b451e0cb21225616e417d70",
        PARAMS:
            "f4efeabf043281bee511916b50c73ebd8d4cef63b634d1b42ca7103223192946",
    },
    "mixed_heads": {
        "history.json":
            "48e9990bc144555fbed6a50173d01f0eb71bdfa8af19855de0301feabb427d93",
        "model.json":
            "0e773ed3c97be99f60080efab547b227f8d9262573afe60d4ae44a046d36309b",
        PARAMS:
            "3fe97044b5aae4bbe33fa7eeaef7f7487c2e871c46c3bf7ec8ee87ef01f71c66",
    },
    "no_head_hidden": {
        "history.json":
            "159b701e2fc6a19952c25ebca2a25c4377c6eb9ed8e046dc1b5b7ade75798ec9",
        "model.json":
            "e9b3b7cd82e3c58ba5383b602bcd297a8a475c88d863b5aef3a28f317f82bb99",
        PARAMS:
            "78dc3d45f5041e11d6f69285bc31df630502cd7717ab2c0c8deffc56c769d66b",
    },
    "no_trunk": {
        "history.json":
            "d54aa6d4773105eabc561d586a33901d91d70db8b6c5f72c41ff14a509665d1c",
        "model.json":
            "1529ca22585e244a42af81fcfefe13d22bc733b1e9efd4dafa4d9d7f619588f7",
        PARAMS:
            "49494ee83e29299676daf178b714f10c3b0792a8186acc6d348d58eaf5699e67",
    },
    "one_row_tail": {
        "history.json":
            "f86a85b9492890fcb77df10815b51c06372619b5e90b05634444fd8a3d1d54aa",
        "model.json":
            "a06314a5a0b1e9afbffdbaa45446bac6fc948610aa5b246fc8645262c4c3f743",
        PARAMS:
            "a73d3a9b113fe54a29e476f9de2b2814d0d72b4c90337347dd365a1ccf78a456",
    },
    "regression_only": {
        "history.json":
            "9dfd6f0ee5f0e84b1f76f796ddf2bb47b28b3e443ef0fdba8630ce4ee65367b4",
        "model.json":
            "ad258fbf82d912bd6674a8203500f966345b2476524e19d585d963a5b083abac",
        PARAMS:
            "30db9bbeaa419111c68b1d8720c7e405dbd9959fa919d65c2309927fe21a37b2",
    },
    "weight_decay": {
        "history.json":
            "a48d3d6eccfe073368cfdf177f850d985d94d7f94051354e77e744baf4e518fc",
        "model.json":
            "65bf5b0b910e30911481547081d456111e1d09e75d3fd3a795ba6494460b1a32",
        PARAMS:
            "ca13062503062cd5753f22772b340a50bcb082159eaa1c26cbfcac6c5d9d4903",
    },
    "zero_loss_weight": {
        "history.json":
            "b0b11fb44fb03b1ca884f02972f1db9e7af39b72faaf730dccf19834d22c282d",
        "model.json":
            "8ab919cb22c9fc2efe9a64675b408016db469a4e323add8e7ef87303b5c95402",
        PARAMS:
            "7d2ccfd718723ffdad85e3271bb4a2487f8e2714acd89c54e4b64e8ec51bf4c8",
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


ATTRIBUTE_ARGS = ["--task", "tri", "--target-class", "2", "--top-k", "3"]
ATTRIBUTE_DIGESTS = {
    "attribution.json":
        "91b5733c5d5d5088e5509352b544ec53b5d482cfa187230ddfce0d3314d1152f",
    "attribution.txt":
        "f9e73ed6246a382303d01fdefd97e843d134da636cbdb0ea1c51695f657ea2a1",
}


def test_attribute_outputs_are_pinned(tmp_path):
    outcomes, args = SHAPE_CASES["mixed_heads"]
    data, schema = _write_shape_input(tmp_path, outcomes)
    inputs = ["--data", str(data), "--schema", str(schema)]
    model = tmp_path / "train"
    assert main(["train", *inputs, "--out", str(model), *SHAPE_TRAIN_ARGS, *args]) == 0
    out = tmp_path / "attribute"
    assert main(["attribute", *inputs, "--model", str(model / "model.json"),
                 "--out", str(out), *ATTRIBUTE_ARGS]) == 0
    assert _digests(out, ATTRIBUTE_DIGESTS) == ATTRIBUTE_DIGESTS


# `train` and `attribute` on more rows than `network.ROW_BLOCK`, so `evaluate`
# (train_metrics.json) and the input gradients run block by block. The digests
# were taken from the whole-batch code these blocks replaced.
BLOCKED_ROWS = 700
BLOCKED_TRAIN_DIGESTS = {
    "history.json":
        "9f694999b27c9918dbc3ed97fc41007e81b8092ee8d73c19005f711d27ab8665",
    "model.json":
        "2135b9bcfb4cafad6d7f15f2ac900028f90e144f2ca43b4a7a5c74a3fa0199f0",
    PARAMS:
        "2dda20792fd292febad67b42d4a1bc45016afb66f0be867860451976abe66fa8",
    "train_metrics.json":
        "54b9273a0cda87d05ec93380ddefb476aef26626d89f20188873bbf1ff6e99d4",
}
BLOCKED_ATTRIBUTE_DIGESTS = {
    "attribution.json":
        "2fa14b8fc3f6103c325d60c77bef86fdecd528015393555fee96416cf8e50522",
    "attribution.txt":
        "63c949ccd5341ec09e223f6781b03946f4ff2491f958a5f03d88f162140a2b1d",
}


def test_blocked_inference_outputs_are_pinned(tmp_path):
    assert BLOCKED_ROWS > 2 * ROW_BLOCK
    outcomes, args = SHAPE_CASES["mixed_heads"]
    data, schema = _write_shape_input(tmp_path, outcomes, rows=BLOCKED_ROWS)
    inputs = ["--data", str(data), "--schema", str(schema)]
    model = tmp_path / "train"
    assert main(["train", *inputs, "--out", str(model), *SHAPE_TRAIN_ARGS, *args]) == 0
    assert _digests(model, BLOCKED_TRAIN_DIGESTS) == BLOCKED_TRAIN_DIGESTS
    out = tmp_path / "attribute"
    assert main(["attribute", *inputs, "--model", str(model / "model.json"),
                 "--out", str(out), *ATTRIBUTE_ARGS]) == 0
    assert _digests(out, BLOCKED_ATTRIBUTE_DIGESTS) == BLOCKED_ATTRIBUTE_DIGESTS


def test_train_outputs_do_not_depend_on_blas_threads(tmp_path):
    """`train` and `attribute` write the same bytes with one BLAS thread and with two.

    The trunk is wide enough (512-row batches through 128 units) that
    OpenBLAS splits its matrix multiplies across threads when allowed to.
    `attribute` runs its 512 rows as two blocks of `network.ROW_BLOCK`.
    """
    synth = tmp_path / "synth"
    assert main(["synth", "--out", str(synth), "--n-samples", "512", "--n-features", "40",
                 "--seed", "2"]) == 0
    inputs = ["--data", str(synth / "data.csv"), "--schema", str(synth / "schema.json")]
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        for command in (
            ["train", *inputs, "--out", str(out), "--trunk", "128,128", "--head", "32",
             "--epochs", "3", "--batch-size", "512"],
            ["attribute", *inputs, "--model", str(out / "model.json"), "--task", "task_a",
             "--out", str(out / "attribute")],
        ):
            result = subprocess.run([sys.executable, "-m", "tabmtl", *command],
                                    capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
        runs[threads] = (_digests(out, [*TRAIN_DIGESTS, "train_metrics.json"]),
                         _digests(out / "attribute", ATTRIBUTE_DIGESTS))
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
