import argparse
import contextlib
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabmtl.cli import _parse_list, build_parser, main
from tabmtl.dataset import preprocess_pipeline
from tabmtl.synth import SynthConfig
from tabmtl.train import GRID_AXES, SearchSpace, TrainConfig, cross_validate, grid_search


def run_cli(*args, timeout=None):
    """The CLI in a subprocess, where a numpy RuntimeWarning is an error as in-process."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tabmtl", *map(str, args)],
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--out", str(out), "--n-samples", "60", "--n-features", "6",
        "--n-informative", "3", "--noise-std", "0.3", "--seed", "1",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def gappy_dir(tmp_path_factory):
    """The synth_dir table with 10% of its feature cells missing."""
    out = tmp_path_factory.mktemp("gappy")
    code = main([
        "synth", "--out", str(out), "--n-samples", "60", "--n-features", "6",
        "--n-informative", "3", "--noise-std", "0.3", "--missing-frac", "0.1", "--seed", "1",
    ])
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        for name in ("data.csv", "schema.json", "truth.json", "manifest.json"):
            assert (synth_dir / name).exists()

    def test_manifest_hashes_match_files(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert isinstance(manifest["elapsed_seconds"], float)
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((synth_dir / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_elapsed_seconds_ignores_wall_clock_steps(self, tmp_path, monkeypatch):
        # the wall clock steps back an hour between any two readings
        readings = itertools.count()
        monkeypatch.setattr("tabmtl.cli.time.time", lambda: 2e9 - 3600.0 * next(readings))
        assert main(["synth", "--out", str(tmp_path), "--n-samples", "20", "--seed", "1"]) == 0
        elapsed = json.loads((tmp_path / "manifest.json").read_text())["elapsed_seconds"]
        assert 0 <= elapsed < 60

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        code = main([
            "synth", "--out", str(again), "--n-samples", "60", "--n-features", "6",
            "--n-informative", "3", "--noise-std", "0.3", "--seed", "1",
        ])
        assert code == 0
        for name in ("data.csv", "schema.json", "truth.json"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path):
        result = run_cli("synth", "--out", tmp_path / "x", "--n-informative", "2")
        assert result.returncode == 2
        assert "error" in result.stderr


class TestPreprocess:
    def test_round_trip(self, synth_dir, tmp_path):
        out = tmp_path / "prep"
        code = main([
            "preprocess", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"), "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "cleaning_report.json").read_text())
        assert set(report) == {"dropped_columns", "duplicates_removed"}
        norm = json.loads((out / "normalization.json").read_text())
        assert len(norm["mean"]) == len(norm["feature_names"])

    def test_missing_file_exits_2(self, synth_dir, tmp_path):
        result = run_cli(
            "preprocess", "--data", tmp_path / "absent.csv",
            "--schema", synth_dir / "schema.json", "--out", tmp_path / "o",
        )
        assert result.returncode == 2

    def test_missing_schema_exits_2(self, synth_dir, tmp_path):
        result = run_cli(
            "preprocess", "--data", synth_dir / "data.csv",
            "--schema", tmp_path / "nope.json", "--out", tmp_path / "o",
        )
        assert result.returncode == 2
        assert "nope.json" in result.stderr

    def test_usage_error_exits_2(self):
        result = run_cli("preprocess", "--data", "x.csv")
        assert result.returncode == 2

    @pytest.mark.parametrize("missing_frac", ["0", "0.1"])
    def test_mice_sweeps_below_1_exits_2(self, tmp_path, missing_frac):
        # rejected whether or not the table has a cell to impute
        code = main(["synth", "--out", str(tmp_path / "s"), "--n-samples", "60",
                     "--missing-frac", missing_frac, "--seed", "1"])
        assert code == 0
        result = run_cli(
            "preprocess", "--data", tmp_path / "s" / "data.csv",
            "--schema", tmp_path / "s" / "schema.json", "--out", tmp_path / "o",
            "--mice-sweeps", "0",
        )
        assert result.returncode == 2
        assert "mice_sweeps" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("fault", [
        "params_list", "levels_int", "mapping_list", "name_list", "group_list",
        "schema_not_utf8", "schema_is_dir", "data_is_dir", "field_too_long",
    ])
    def test_malformed_schema_or_csv_exits_2(self, tmp_path, fault):
        data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
        data.write_text("a,c,y\n1.0,x,0\n2.0,y,1\n3.0,x,1\n")
        entries = [
            {"name": "a", "kind": "numeric"},
            {"name": "c", "kind": "categorical", "params": {"levels": ["x", "y"]}},
            {"name": "y", "kind": "outcome",
             "params": {"task_index": 0, "task": "classification"}},
        ]
        bad = schema
        if fault == "params_list":
            entries[0]["params"] = ["levels"]
        elif fault == "levels_int":
            entries[1]["params"]["levels"] = 2
        elif fault == "mapping_list":
            entries[1] = {"name": "c", "kind": "ordinal", "params": {"mapping": ["x", "y"]}}
        elif fault == "name_list":
            entries[0]["name"] = ["a"]
        elif fault == "group_list":
            entries[0] = {"name": "a", "kind": "timeseries", "params": {"group": ["g"]}}
        schema.write_text(json.dumps(entries))
        if fault == "schema_not_utf8":
            schema.write_bytes(json.dumps(entries).replace("a", "é", 1).encode("latin-1"))
        elif fault == "schema_is_dir":
            bad = schema = tmp_path / "schema_dir"
            schema.mkdir()
        elif fault == "data_is_dir":
            bad = data = tmp_path / "data_dir"
            data.mkdir()
        elif fault == "field_too_long":  # over the csv module's 131072-character field limit
            bad = data
            data.write_text("a,c,y\n1.0,x,0\n2.0," + "y" * 131073 + ",1\n")
        result = run_cli("preprocess", "--data", data, "--schema", schema,
                         "--out", tmp_path / "o")
        assert result.returncode == 2, result.stderr
        assert str(bad) in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key", ["zz", "parms"])
    def test_unknown_schema_entry_key_exits_2_naming_it(self, synth_dir, tmp_path, capsys, key):
        # was ignored: a misspelt "parms" dropped the column's params without a word
        entries = json.loads((synth_dir / "schema.json").read_text())
        entry = next(e for e in entries if e["name"] == "task_a")
        entry[key] = entry.pop("params") if key == "parms" else 1
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(entries))
        code = main(["preprocess", "--data", str(synth_dir / "data.csv"),
                     "--schema", str(schema), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"schema file {schema}: schema entry 'task_a': unknown keys [{key!r}]" in err

    @pytest.mark.parametrize("column, params", [
        ("grade", {"mapping": {"low": 0, "high": "nan"}}),
        ("grade", {"mapping": {"low": 0, "high": "inf"}}),
        ("grade", {"mapping": {"low": "-Infinity", "high": 1}}),
        ("site", {"levels": "xy"}),
        ("site", {"levels": {"x": 0, "y": 1}}),
        ("site", {"levels": ["x", 1]}),
        ("y", {"task_index": 0, "task": "classification", "num_classes": 2.5}),
        ("y", {"task_index": 0, "task": "classification", "num_classes": float("inf")}),
        ("y", {"task_index": 0, "task": "classification", "num_classes": True}),
        ("y", {"task_index": 0.0, "task": "classification"}),
        ("y", {"task_index": False, "task": "classification"}),
        # appended last so the earlier cases keep their ids
        ("grade", {"mapping": {"low": "0", "high": 1}}),
        ("grade", {"mapping": {"low": True, "high": 0}}),
    ])
    def test_bad_levels_or_mapping_exits_2_naming_the_column(self, tmp_path, column, params):
        data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
        data.write_text("age,grade,site,y\n1.0,low,x,0\n2.0,high,y,1\n3.0,low,x,1\n")
        kinds = {"grade": "ordinal", "site": "categorical", "y": "outcome"}
        entries = [{"name": "age", "kind": "numeric"},
                   {"name": "grade", "kind": "ordinal", "params": {"mapping": {"low": 0, "high": 1}}},
                   {"name": "site", "kind": "categorical", "params": {"levels": ["x", "y"]}},
                   {"name": "y", "kind": "outcome",
                    "params": {"task_index": 0, "task": "classification"}}]
        entries[[e["name"] for e in entries].index(column)] = {
            "name": column, "kind": kinds[column], "params": params}
        schema.write_text(json.dumps(entries))
        result = run_cli("preprocess", "--data", data, "--schema", schema,
                         "--out", tmp_path / "o")
        assert result.returncode == 2, result.stderr
        assert str(schema) in result.stderr
        assert repr(column) in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("source, column, scale, cell, named", [
        # a complete column whose std overflows: was written as all 0.0, std Infinity
        ("synth_dir", "x0", 1e300, None, ["column 'x0'", "standardize"]),
        # MICE's Gram matrix overflows: was reported as a missing value in x0
        ("gappy_dir", "x0", 1e200, None, ["column 'x0'", "impute"]),
        ("gappy_dir", "task_c", None, "1e300", ["column 'task_c'", "impute"]),
        # the int64 cast warned, then called the label negative
        ("synth_dir", "task_a", None, "1e300", ["row 24, column 'task_a'", "1e+300"]),
        # was refused with no row named
        ("synth_dir", "task_a", None, "3", ["row 24, column 'task_a'", "3.0", "[0, 2)"]),
    ])
    def test_overflow_or_bad_label_exits_2_naming_it(self, request, tmp_path,
                                                     source, column, scale, cell, named):
        src = request.getfixturevalue(source)
        header, *rows = [line.split(",") for line in (src / "data.csv").read_text().splitlines()]
        j = header.index(column)
        for r, row in enumerate(rows):
            if scale is not None and row[j] != "NA":
                row[j] = repr(float(row[j]) * scale)
            elif r == 24 and cell is not None:
                row[j] = cell
        data, out = tmp_path / "data.csv", tmp_path / "o"
        data.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        result = run_cli("preprocess", "--data", data, "--schema", src / "schema.json",
                         "--out", out)
        assert result.returncode == 2, result.stderr
        assert all(part in result.stderr for part in named), result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("blanks, named", [
        ({"task_a": 24}, "row 24, column 'task_a': missing outcome"),
        ({"task_c": 24}, "row 24, column 'task_c': missing outcome"),
        ({"task_a": 31, "task_c": 7}, "row 31, column 'task_a': missing outcome"),
    ], ids=["binary", "regression", "both"])
    def test_blank_outcome_exits_2_naming_it(self, gappy_dir, tmp_path, blanks, named):
        # MICE's guess was written as the label: a blank task_c cell was trained
        # on, and a blank task_a cell was refused as a fractional class label
        header, *rows = [line.split(",") for line in
                         (gappy_dir / "data.csv").read_text().splitlines()]
        for column, r in blanks.items():
            rows[r][header.index(column)] = ""
        data, out = tmp_path / "data.csv", tmp_path / "o"
        data.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        result = run_cli("preprocess", "--data", data, "--schema", gappy_dir / "schema.json",
                         "--out", out)
        assert result.returncode == 2, result.stderr
        assert named in result.stderr
        assert "Traceback" not in result.stderr
        assert list(out.iterdir()) == []

    def test_unknown_ordinal_label_names_its_csv_row(self, tmp_path):
        # data row 1 duplicates row 0: the label used to be named at its row
        # in the cleaned table, row 4
        data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
        data.write_text("a,g,y\n1,lo,0\n1,lo,0\n2,hi,1\n3,lo,0\n4,hi,1\n5,zz,0\n")
        schema.write_text(json.dumps([
            {"name": "a", "kind": "numeric"},
            {"name": "g", "kind": "ordinal", "params": {"mapping": {"lo": 0, "hi": 1}}},
            {"name": "y", "kind": "outcome", "params": {"task_index": 0, "task": "regression"}},
        ]))
        result = run_cli("preprocess", "--data", data, "--schema", schema,
                         "--out", tmp_path / "o")
        assert result.returncode == 2, result.stderr
        assert "row 5, column 'g': value 'zz' not in ordinal mapping" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_level_names_its_csv_row(self, tmp_path):
        # data row 1 duplicates row 0: the level used to be named at its row
        # in the cleaned table, row 4
        data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
        data.write_text("a,site,y\n1,n,0\n1,n,0\n2,s,1\n3,n,0\n4,s,1\n5,zz,0\n")
        schema.write_text(json.dumps([
            {"name": "a", "kind": "numeric"},
            {"name": "site", "kind": "categorical", "params": {"levels": ["n", "s"]}},
            {"name": "y", "kind": "outcome", "params": {"task_index": 0, "task": "regression"}},
        ]))
        result = run_cli("preprocess", "--data", data, "--schema", schema,
                         "--out", tmp_path / "o")
        assert result.returncode == 2, result.stderr
        assert ("row 5, column 'site': value 'zz' not in declared levels ['n', 's']"
                in result.stderr)
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("last, named", [
        ("5,,0", "row 5, column 'site': missing value; impute before transforming"),
        ("5,n,0.5", "row 5, column 'y': class label 0.5 is not an integer"),
    ], ids=["missing_level", "fractional_label"])
    def test_fault_found_after_cleaning_names_its_csv_row(self, tmp_path, last, named):
        # data row 1 duplicates row 0: these faults used to be named at their
        # row in the cleaned table, row 4
        data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
        data.write_text(f"a,site,y\n1,n,0\n1,n,0\n2,s,1\n3,n,0\n4,s,1\n{last}\n")
        schema.write_text(json.dumps([
            {"name": "a", "kind": "numeric"},
            {"name": "site", "kind": "categorical", "params": {"levels": ["n", "s"]}},
            {"name": "y", "kind": "outcome",
             "params": {"task_index": 0, "task": "classification", "num_classes": 2}},
        ]))
        result = run_cli("preprocess", "--data", data, "--schema", schema,
                         "--out", tmp_path / "o")
        assert result.returncode == 2, result.stderr
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    def test_out_is_existing_file_exits_2(self, synth_dir, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        result = run_cli(
            "preprocess", "--data", synth_dir / "data.csv",
            "--schema", synth_dir / "schema.json", "--out", out,
        )
        assert result.returncode == 2
        assert str(out) in result.stderr
        assert "Traceback" not in result.stderr


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = main([
        "train", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.json"), "--out", str(out),
        "--trunk", "8", "--head", "4", "--epochs", "5",
        "--batch-size", "16", "--seed", "0",
    ])
    assert code == 0
    return out


class TestTrain:
    def test_model_loads_and_has_stats(self, trained_dir):
        from tabmtl.network import load_model

        state, feature_names, stats = load_model(trained_dir / "model.json")
        assert state.topology.num_tasks == 3
        assert len(feature_names) == len(stats.mean) == state.topology.input_dim

    def test_history_has_epochs(self, trained_dir):
        history = json.loads((trained_dir / "history.json").read_text())
        assert len(history) == 5
        assert {"epoch", "total_loss", "task_losses"} <= set(history[0])

    def test_divergence_exits_3(self, synth_dir, tmp_path):
        result = run_cli(
            "train", "--data", synth_dir / "data.csv",
            "--schema", synth_dir / "schema.json", "--out", tmp_path / "o",
            "--trunk", "", "--head", "", "--lr0", "1e200", "--epochs", "3",
        )
        assert result.returncode == 3
        assert "numerical" in result.stderr

    def test_finite_blowup_exits_3(self, synth_dir, tmp_path):
        # the loss stays finite (about 1e41) but far above the first step's
        result = run_cli(
            "train", "--data", synth_dir / "data.csv",
            "--schema", synth_dir / "schema.json", "--out", tmp_path / "o",
            "--lr0", "1e6", "--epochs", "5",
        )
        assert result.returncode == 3
        assert "diverged" in result.stderr and "epoch" in result.stderr
        assert "Traceback" not in result.stderr


class TestCv:
    def test_report_written(self, synth_dir, tmp_path):
        out = tmp_path / "cv"
        code = main([
            "cv", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"), "--out", str(out),
            "--trunk", "8", "--head", "", "--epochs", "2",
            "--batch-size", "16", "--k", "3",
        ])
        assert code == 0
        doc = json.loads((out / "cv_report.json").read_text())
        assert doc["k"] == 3
        assert len(doc["folds"]) == 3
        text = (out / "cv_report.txt").read_text()
        assert "task_a" in text and "pooled" in text


class TestGridsearch:
    def test_small_grid(self, synth_dir, tmp_path):
        out = tmp_path / "gs"
        code = main([
            "gridsearch", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"), "--out", str(out),
            "--trunk-depths", "1", "--trunk-widths", "4,8",
            "--head-depths", "1", "--head-widths", "4",
            "--lr0-values", "0.01", "--weight-decay-values", "0.001",
            "--epochs-values", "2", "--loss-weight-values", "1",
            "--primary-task", "task_a", "--k", "3",
        ])
        assert code == 0
        doc = json.loads((out / "gridsearch.json").read_text())
        assert len(doc["trials"]) == 2
        assert doc["best_params"]["epochs"] == 2

    def test_unknown_primary_exits_2(self, synth_dir, tmp_path):
        result = run_cli(
            "gridsearch", "--data", synth_dir / "data.csv",
            "--schema", synth_dir / "schema.json", "--out", tmp_path / "o",
            "--trunk-depths", "1", "--trunk-widths", "4",
            "--epochs-values", "1", "--primary-task", "nope", "--k", "2",
        )
        assert result.returncode == 2


GRID = ["--trunk-depths", "1", "--trunk-widths", "4", "--head-depths", "1",
        "--head-widths", "3", "--lr0-values", "0.01", "--weight-decay-values", "0",
        "--epochs-values", "1", "--loss-weight-values", "1", "--primary-task", "task_a",
        "--k", "2"]


# each vector is tens of TiB, so its allocation fails at once; a width whose
# vector could be allocated lazily would page gigabytes in as training runs
@pytest.mark.parametrize("command, widths", [
    ("train", ["--trunk", "100000000000"]),
    ("train", ["--trunk", "8", "--head", "100000000000"]),
    ("train", ["--trunk", str(10**30)]),  # past numpy's largest shape
    ("cv", ["--trunk", "100000000000", "--k", "2"]),
    ("gridsearch", [*GRID[:2], "--trunk-widths", "100000000000", *GRID[4:]]),
])
def test_width_too_large_to_allocate_exits_2(synth_dir, tmp_path, capsys, command, widths):
    # was exit 1: "unexpected error: Unable to allocate 74.9 TiB"
    code = main([command, "--data", str(synth_dir / "data.csv"),
                 "--schema", str(synth_dir / "schema.json"), "--out", str(tmp_path / "o"),
                 "--epochs" if command != "gridsearch" else "--budget", "1", *widths])
    err = capsys.readouterr().err
    assert code == 2, err
    assert re.search(r"cannot allocate the model's \d{12,} parameters", err), err
    assert "--trunk" in err and "--head" in err and "--trunk-widths" in err


@pytest.mark.parametrize("option", ["--n-samples", "--n-features"])
def test_synth_table_too_large_to_allocate_exits_2(tmp_path, capsys, option):
    # was exit 1: "unexpected error: Unable to allocate 21.8 TiB" at 1e11 rows;
    # 2**60 is past numpy's largest array, so nothing is allocated
    code = main(["synth", "--out", str(tmp_path / "o"), option, str(2**60)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "cannot allocate the" in err and "--n-samples or --n-features" in err


@pytest.mark.parametrize("command, options, named, value", [
    ("train", ["--loss-weights", "1,nan,1"], "loss weights", "nan"),
    ("train", ["--loss-weights", "1,inf,1"], "loss weights", "inf"),
    ("train", ["--lr0", "inf"], "lr0", "inf"),
    ("train", ["--lr0", "nan"], "lr0", "nan"),
    ("train", ["--weight-decay", "nan"], "weight_decay", "nan"),
    ("train", ["--weight-decay", "inf"], "weight_decay", "inf"),
    ("gridsearch", ["--weight-decay-values", "inf"], "weight_decay", "inf"),
    ("gridsearch", ["--loss-weight-values", "nan"], "loss weights", "nan"),
    ("gridsearch", ["--trunk-depths", "-1", "--head-depths", "-2"], "trunk_depths", "-1"),
    ("synth", ["--noise-std", "inf"], "noise_std", "inf"),
    ("synth", ["--noise-std", "nan"], "noise_std", "nan"),
    ("train", ["--seed", "-1"], "seed", "-1"),
    ("cv", ["--seed", "-1"], "seed", "-1"),
    ("gridsearch", ["--seed", "-1"], "seed", "-1"),
    ("synth", ["--seed", "-1"], "seed", "-1"),
    ("preprocess", ["--mice-tol", "nan"], "mice_tol", "nan"),
    ("preprocess", ["--mice-tol", "-1"], "mice_tol", "-1"),
    ("preprocess", ["--mice-tol", "inf"], "mice_tol", "inf"),
    # named before the model file, which does not exist, is read
    ("attribute", ["--task", "task_a", "--model", "absent-model.json", "--top-k", "0"],
     "--top-k", "0"),    ("train", ["--loss-weights", "none"], "at least one loss weight", "positive"),
])
def test_bad_numeric_option_exits_2(synth_dir, tmp_path, command, options, named, value):
    """Non-finite values, negative seeds and tolerances, negative search depths and
    an attribution top-k below 1 are refused where they enter."""
    args = [command, "--out", tmp_path / "o"]
    if command != "synth":
        args += ["--data", synth_dir / "data.csv", "--schema", synth_dir / "schema.json"]
    if command == "gridsearch":
        args += GRID  # argparse keeps the last value given, so the case's options win
    result = run_cli(*args, *options)
    assert result.returncode == 2, result.stderr
    assert named in result.stderr and value in result.stderr
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr


@pytest.mark.parametrize("command, options, code", [
    ("synth", ["--n-samples", "20", "--n-features", "4", "--n-informative", "3"], 0),
    ("preprocess", [], 0),
    ("train", ["--trunk", "4", "--head", "", "--epochs", "1"], 0),
    ("cv", ["--trunk", "4", "--head", "", "--epochs", "1", "--k", "2"], 0),
    ("gridsearch", GRID, 0),
    ("attribute", ["--task", "task_a"], 0),
    ("attribute", ["--task", "task_a", "--top-k", "0"], 2),
    ("report", [], 0),
])
def test_out_holds_exactly_the_manifest_outputs(synth_dir, trained_dir, tmp_path,
                                                command, options, code):
    """A run leaves its outputs and a manifest hashing exactly them; a failed run, none."""
    out = tmp_path / "o"
    args = [command, "--out", out, *options]
    if command != "synth":
        args += ["--data", synth_dir / "data.csv", "--schema", synth_dir / "schema.json"]
    if command == "attribute":
        args += ["--model", trained_dir / "model.json"]
    assert main([str(a) for a in args]) == code
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if code:
        assert written == []
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command and manifest["outputs"]
        assert written == sorted([*manifest["outputs"], "manifest.json"])


class TestAttribute:
    def test_report_files(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "att"
        code = main([
            "attribute", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--model", str(trained_dir / "model.json"),
            "--out", str(out), "--task", "task_a", "--top-k", "3",
        ])
        assert code == 0
        doc = json.loads((out / "attribution.json").read_text())
        assert doc["task_name"] == "task_a"
        assert doc["target"] == 1
        assert len(doc["scores"]) == 6
        text = (out / "attribution.txt").read_text()
        assert text.count("- ") == 3

    def test_unknown_task_exits_2(self, synth_dir, trained_dir, tmp_path):
        result = run_cli(
            "attribute", "--data", synth_dir / "data.csv",
            "--schema", synth_dir / "schema.json",
            "--model", trained_dir / "model.json",
            "--out", tmp_path / "o", "--task", "task_z",
        )
        assert result.returncode == 2
        assert "no task named 'task_z'; tasks are ['task_a', 'task_b', 'task_c']" in result.stderr

    @pytest.mark.parametrize("mutate", [
        "missing_file", "truncated", "not_object", "no_topology", "no_params", "no_version",
        "version_1", "params_dict", "params_short",
        # topology sizes that are not JSON integers
        "input_dim=1e999", "shared_layers=1e999", "hidden_layers=1e999", "num_classes=1e999",
        "input_dim=2.7", "num_classes=true",
    ])
    def test_bad_model_file_exits_2(self, synth_dir, trained_dir, tmp_path, mutate):
        text = (trained_dir / "model.json").read_text()
        model = tmp_path / "model.json"
        doc = json.loads(text)
        if mutate == "truncated":
            model.write_text(text[: len(text) // 2])
        elif mutate == "not_object":
            model.write_text("[1, 2]")
        elif mutate.startswith("no_"):
            del doc[mutate[3:]]
            model.write_text(json.dumps(doc))
        elif mutate in ("version_1", "params_dict"):
            # the layout of a version-1 file: one nested list per named array
            from tabmtl.network import load_model

            state, _, _ = load_model(trained_dir / "model.json")
            doc["params"] = {name: arr.tolist() for name, arr in state.params.items()}
            doc["version"] = 1 if mutate == "version_1" else doc["version"]
            model.write_text(json.dumps(doc, indent=2))
        elif mutate == "params_short":
            doc["params"].pop()
            model.write_text(json.dumps(doc))
        elif "=" in mutate:
            field, value = mutate.split("=")
            topo = doc["topology"]
            head = next(h for h in topo["heads"] if "num_classes" in h["output"])
            holder, key = {"input_dim": (topo, "input_dim"),
                           "shared_layers": (topo["shared_layers"], 0),
                           "hidden_layers": (head["hidden_layers"], 0),
                           "num_classes": (head["output"], "num_classes")}[field]
            holder[key] = "VALUE"
            model.write_text(json.dumps(doc).replace('"VALUE"', value))
        result = run_cli(
            "attribute", "--data", synth_dir / "data.csv",
            "--schema", synth_dir / "schema.json",
            "--model", model, "--out", tmp_path / "o", "--task", "task_a",
        )
        assert result.returncode == 2
        assert str(model) in result.stderr
        assert "Traceback" not in result.stderr
        if mutate == "version_1":
            assert "retrain" in result.stderr
        if "=" in mutate:
            assert mutate.split("=")[0] in result.stderr

    @pytest.mark.parametrize("key, value", [
        ("mean", None), ("std", None),  # the field is absent
        ("mean", "short"), ("std", "long"), ("std", '"1.0"'), ("mean", "true"),
        ("mean", "NaN"), ("std", "Infinity"), ("mean", "1e999"), ("std", "9" * 400),
        ("std", "0"), ("std", "-1.5"),
        ("std", "1e-310"),  # positive, but scales a feature past the float range
    ])
    def test_bad_normalization_stats_exits_2(self, synth_dir, trained_dir, tmp_path, capsys,
                                             key, value):
        doc = json.loads((trained_dir / "model.json").read_text())
        stats = doc["normalization_stats"]
        if value is None:
            del stats[key]
        elif value == "short":
            stats[key].pop()
        elif value == "long":
            stats[key].append(1.0)
        else:
            stats[key][0] = "VALUE"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc).replace('"VALUE"', value or ""))
        code = main([
            "attribute", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--model", str(model), "--out", str(tmp_path / "o"), "--task", "task_a",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert str(model) in err and "normalization_stats" in err
        if value != "1e-310":
            assert repr(key) in err

    @pytest.mark.parametrize("holder", ["model", "topology", "head", "head output",
                                        "normalization_stats"])
    def test_unknown_model_key_exits_2_naming_it(self, synth_dir, trained_dir, tmp_path, capsys,
                                                 holder):
        # was ignored, and attribute exited 0
        doc = json.loads((trained_dir / "model.json").read_text())
        head = doc["topology"]["heads"][0]
        {"model": doc, "topology": doc["topology"], "head": head, "head output": head["output"],
         "normalization_stats": doc["normalization_stats"]}[holder]["zz"] = 1
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main([
            "attribute", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--model", str(model), "--out", str(tmp_path / "o"), "--task", "task_a",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"model file {model}: {holder}" in err and "unknown keys ['zz']" in err

    def test_model_without_normalization_stats_exits_2(self, synth_dir, trained_dir, tmp_path,
                                                       capsys):
        # what save_model wrote when given no stats
        doc = json.loads((trained_dir / "model.json").read_text())
        del doc["normalization_stats"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main([
            "attribute", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--model", str(model), "--out", str(tmp_path / "o"), "--task", "task_a",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert str(model) in err and "normalization_stats" in err and "tabmtl train" in err
        assert not (tmp_path / "o" / "attribution.json").exists()

    def test_scales_features_as_training_did(self, synth_dir, trained_dir, tmp_path):
        """On some of the training rows, the scores equal the training Dataset's,
        not those of the rows z-scored by their own mean and std."""
        from tabmtl.attrib import grad_cam_features
        from tabmtl.dataset import load_csv, load_schema, preprocess_pipeline, subset_rows
        from tabmtl.network import load_model

        header, *rows = (synth_dir / "data.csv").read_text().splitlines()
        picked = np.arange(0, len(rows), 3)
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join([header, *(rows[i] for i in picked)]) + "\n")
        out = tmp_path / "att"
        code = main([
            "attribute", "--data", str(subset), "--schema", str(synth_dir / "schema.json"),
            "--model", str(trained_dir / "model.json"), "--out", str(out), "--task", "task_a",
        ])
        assert code == 0
        got = np.array(json.loads((out / "attribution.json").read_text())["scores"])

        schema = load_schema(synth_dir / "schema.json")
        training, _ = preprocess_pipeline(load_csv(synth_dir / "data.csv", schema))
        state, _, _ = load_model(trained_dir / "model.json")
        want = grad_cam_features(state, subset_rows(training, picked)).scores
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestReport:
    def test_summary_contents(self, synth_dir, tmp_path):
        out = tmp_path / "rep"
        code = main([
            "report", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["n_rows"] == 60
        assert doc["tasks"]["task_a"]["class_counts"]
        assert doc["tasks"]["task_c"]["histogram"]["counts"]
        assert len(doc["tasks"]["task_c"]["histogram"]["bin_edges"]) == 21
        assert "task_a|task_b" in doc["pairwise"]

    def test_constant_outcome_pearson_is_null(self, tmp_path):
        # np.corrcoef divides by the constant outcome's zero std
        data, schema, out = tmp_path / "data.csv", tmp_path / "schema.json", tmp_path / "rep"
        data.write_text("x,r1,r2\n1.0,5.0,1.0\n2.0,5.0,2.0\n3.0,5.0,4.0\n4.0,5.0,3.0\n")
        schema.write_text(json.dumps([
            {"name": "x", "kind": "numeric"},
            {"name": "r1", "kind": "outcome", "params": {"task_index": 0, "task": "regression"}},
            {"name": "r2", "kind": "outcome", "params": {"task_index": 1, "task": "regression"}},
        ]))
        assert main(["report", "--data", str(data), "--schema", str(schema),
                     "--out", str(out)]) == 0

        def no_constants(name):
            raise AssertionError(f"report.json holds the non-JSON constant {name}")

        doc = json.loads((out / "report.json").read_text(), parse_constant=no_constants)
        assert doc["pairwise"]["r1|r2"] == {"type": "correlation", "pearson": None}
        assert "r1|r2 pearson: n/a" in (out / "report.txt").read_text()

    def test_outcome_std_overflow_exits_2_naming_it(self, synth_dir, tmp_path):
        # was exit 0, with "std": Infinity (not JSON) in report.json
        lines = (synth_dir / "data.csv").read_text().splitlines()
        header, *rows = [line.split(",") for line in lines]
        j = header.index("task_c")
        for row in rows:
            row[j] = repr(float(row[j]) * 1e300)
        data, out = tmp_path / "data.csv", tmp_path / "rep"
        data.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        result = run_cli("report", "--data", data, "--schema", synth_dir / "schema.json",
                         "--out", out)
        assert result.returncode == 2, result.stderr
        assert "column 'task_c'" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "report"])
def test_class_count_above_the_row_count_exits_2(synth_dir, tmp_path, command):
    # was exit 1 ("array is too big") for train, and report counted to 10**18
    entries = json.loads((synth_dir / "schema.json").read_text())
    next(e for e in entries if e["name"] == "task_a")["params"]["num_classes"] = 10**18
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(entries))
    result = run_cli(command, "--data", synth_dir / "data.csv", "--schema", schema,
                     "--out", tmp_path / "o", timeout=60)
    assert result.returncode == 2, result.stderr
    assert "column 'task_a'" in result.stderr and "60 rows" in result.stderr
    assert "Traceback" not in result.stderr


def json_nodes(doc) -> list[tuple]:
    """The (container, key) of every value inside a JSON document, depth first."""
    nodes, stack = [], [doc]
    while stack:
        container = stack.pop()
        for key, value in (container.items() if isinstance(container, dict)
                           else enumerate(container)):
            nodes.append((container, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return nodes


JSON_FAULTS = {
    "wrong type": lambda value: {} if isinstance(value, list) else [value],
    "bool": lambda value: True,
    "huge int": lambda value: 10**400,
    "NaN": lambda value: math.nan,
    "Infinity": lambda value: -math.inf,
    "string": lambda value: "1",
}


@pytest.mark.parametrize("target", ["schema", "model"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_schema_or_model_exits_0_or_2_naming_the_fault(synth_dir, trained_dir, target,
                                                               data):
    """One fault in a synth schema.json (run through preprocess) or a trained
    model.json (run through attribute): a deleted key or item, a value of
    another JSON type, a bool, a huge int, NaN or Infinity, an unknown key,
    or the file cut short."""
    source = {"schema": synth_dir / "schema.json", "model": trained_dir / "model.json"}[target]
    text = source.read_text()
    doc = json.loads(text)
    fault = data.draw(st.sampled_from(["delete", "unknown key", "truncate", *JSON_FAULTS]))
    if fault == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        nodes = json_nodes(doc)
        container, key = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        if fault == "delete":
            del container[key]
        elif fault == "unknown key":
            holder = container[key] if isinstance(container[key], dict) else container
            if isinstance(holder, dict):
                holder["zz"] = 1
        else:
            container[key] = JSON_FAULTS[fault](container[key])
        text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, source.name)
        path.write_text(text)
        args = ["--data", str(synth_dir / "data.csv"), "--out", str(Path(tmp, "o"))]
        if target == "schema":
            args = ["preprocess", "--schema", str(path), *args]
        else:
            args = ["attribute", "--schema", str(synth_dir / "schema.json"), "--model", str(path),
                    "--task", "task_a", *args]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args)
    err = err.getvalue()
    assert code in (0, 2), err
    # a schema fault may surface as the CSV's, or as a column's in the table it reads
    assert code == 0 or any(name in err for name in (str(path), "data.csv", "column '")), err
    assert "Traceback" not in err


CSV_FAULTS = ["truncate", "drop cell", "extra cell", "invalid UTF-8", "NUL", "non-finite text",
              "duplicate row", "blank column"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_csv_exits_0_or_2_naming_the_fault(synth_dir, data):
    """One or two faults in a synth data.csv run through preprocess: the file cut
    mid-row, a row a cell short or long, an invalid UTF-8 byte or a NUL, ``nan``,
    ``inf`` or ``1e999`` as a cell, a duplicated row, or a column of blank cells."""
    header, *rows = (synth_dir / "data.csv").read_bytes().split(b"\r\n")[:-1]
    rows = [row.split(b",") for row in rows]
    faults = data.draw(st.lists(st.sampled_from(CSV_FAULTS), min_size=1, max_size=2))
    for fault in faults:  # a truncation cuts the file's text below
        r = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, len(rows[r]) - 1))
        if fault == "drop cell":
            del rows[r][c]
        elif fault == "extra cell":
            rows[r].insert(c, b"1")
        elif fault in ("invalid UTF-8", "NUL"):
            cell = rows[r][c]
            at = data.draw(st.integers(0, len(cell)))
            rows[r][c] = cell[:at] + (b"\xff" if fault == "invalid UTF-8" else b"\0") + cell[at:]
        elif fault == "non-finite text":
            rows[r][c] = data.draw(st.sampled_from([b"nan", b"inf", b"-inf", b"1e999", b"NaN"]))
        elif fault == "duplicate row":
            rows.insert(data.draw(st.integers(0, len(rows))), list(rows[r]))
        elif fault == "blank column":
            blank = data.draw(st.sampled_from([b"", b"NA"]))
            for row in rows:
                if c < len(row):
                    row[c] = blank
    text = b"\r\n".join([header, *(b",".join(row) for row in rows)]) + b"\r\n"
    if "truncate" in faults:
        text = text[:data.draw(st.integers(len(header) + 2, len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "data.csv"), Path(tmp, "o")
        path.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is a fault, here exit 1
            code = main(["preprocess", "--data", str(path),
                         "--schema", str(synth_dir / "schema.json"), "--out", str(out)])
        outputs = [p.read_text() for p in out.glob("*.json")]
    err = err.getvalue()
    assert code in (0, 2), err
    assert code == 0 or str(path) in err or re.search(r"\brow \d+, column '", err), err
    assert "Traceback" not in err
    assert not any("NaN" in doc or "Infinity" in doc for doc in outputs)


def test_closed_stdout_still_exits_0(tmp_path):
    """A reader that has gone (``tabmtl ... | head -0``) costs the message, not the run."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tabmtl", "synth", "--out", str(tmp_path / "s"),
             "--n-samples", "30", "--n-features", "4", "--n-informative", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"data.csv", "schema.json", "truth.json"}


def test_defaults_are_the_library_dataclasses():
    """synth, train, cv and gridsearch take their defaults from SynthConfig,
    TrainConfig and SearchSpace. The data options and ``--k`` restate the
    defaults of preprocess_pipeline, cross_validate and grid_search, so they
    are pinned to those signatures here."""
    parser = build_parser()
    args = vars(parser.parse_args(["synth", "--out", "o"]))
    assert SynthConfig(**{f.name: args[f.name] for f in fields(SynthConfig)}) == SynthConfig()
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    for command in ("train", "cv"):
        args = parser.parse_args([command, "--out", "o", "--data", "d", "--schema", "s"])
        for name in ("lr0", "lr_min", "weight_decay", "epochs", "batch_size", "seed"):
            value = getattr(args, name)
            assert (type(value), value) == (type(defaults[name]), defaults[name]), name
    args = parser.parse_args(["gridsearch", "--out", "o", "--data", "d", "--schema", "s",
                              "--primary-task", "t"])
    space = SearchSpace(**{name: _parse_list(getattr(args, name), kind)
                           for name, kind in GRID_AXES.items()})
    assert space.grid() == SearchSpace().grid()
    for name in ("budget", "seed"):
        value, default = getattr(args, name), getattr(SearchSpace(), name)
        assert (type(value), value) == (type(default), default), name

    def signature_default(function, name):
        return inspect.signature(function).parameters[name].default

    required = {"gridsearch": ["--primary-task", "t"], "attribute": ["--model", "m", "--task", "t"]}
    for command in ("preprocess", "train", "cv", "gridsearch", "attribute", "report"):
        args = vars(parser.parse_args([command, "--out", "o", "--data", "d", "--schema", "s",
                                       *required.get(command, [])]))
        pinned = {name: signature_default(preprocess_pipeline, name)
                  for name in ("max_missing_frac", "mice_sweeps", "mice_tol")}
        if command in ("cv", "gridsearch"):
            pinned["k"] = signature_default(cross_validate if command == "cv" else grid_search, "k")
        for name, default in pinned.items():
            assert (type(args[name]), args[name]) == (type(default), default), (command, name)


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "tabmtl" in result.stdout


DATA_OPTIONS = ["--data", "--schema", "--max-missing-frac", "--mice-sweeps", "--mice-tol"]
TRAIN_OPTIONS = ["--trunk", "--head", "--loss-weights", "--lr0", "--lr-min",
                 "--weight-decay", "--epochs", "--batch-size", "--seed"]
OPTION_INVENTORY = {
    "synth": ["--out", "--n-samples", "--n-features", "--n-informative", "--rho",
              "--noise-std", "--class-balance", "--missing-frac", "--seed"],
    "preprocess": DATA_OPTIONS + ["--out"],
    "train": DATA_OPTIONS + TRAIN_OPTIONS + ["--out"],
    "cv": DATA_OPTIONS + TRAIN_OPTIONS + ["--out", "--k"],
    "gridsearch": DATA_OPTIONS + [
        "--out", "--trunk-depths", "--trunk-widths", "--head-depths", "--head-widths",
        "--lr0-values", "--weight-decay-values", "--epochs-values", "--loss-weight-values",
        "--primary-task", "--budget", "--k", "--seed",
    ],
    "attribute": DATA_OPTIONS + ["--model", "--out", "--task", "--target-class", "--top-k"],
    "report": DATA_OPTIONS + ["--out"],
}


def test_options_are_not_abbreviated():
    # the removed `attribute --mode` was read as an abbreviation of `--model`
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(["attribute", "--data", "d", "--schema", "s", "--out", "o",
                                   "--model", "m", "--task", "t", "--mode", "input_gradient"])
    assert exited.value.code == 2


def parser_options():
    """The top-level parser's options, and each subcommand's, help aside."""
    def options(parser):
        return sorted(s for a in parser._actions for s in a.option_strings
                      if s not in ("-h", "--help"))

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return options(parser), {name: options(p) for name, p in sub.choices.items()}


def test_option_inventory():
    """Every option is listed here, so adding one is a deliberate change."""
    top, found = parser_options()
    assert top == ["--version"]
    assert found == {name: sorted(opts) for name, opts in OPTION_INVENTORY.items()}


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_only_options_the_parser_defines():
    """Each backticked ``--option`` exists, in the subcommand it is written with,
    and each command of the CLI example parses."""
    top, per_command = parser_options()
    known = set(top).union(*per_command.values())
    text = README.read_text()
    prose = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    spans = re.findall(r"`(?:(\w+) )?(--[a-z0-9-]+)`", prose)
    assert spans
    for command, option in spans:
        assert option in per_command[command] if command else option in known, (command, option)

    # the CLI example block: each command, its continuation lines joined, parses
    block = re.search(r"^```\n(tabmtl .*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    commands = block.group(1).replace("\\\n", " ").splitlines()
    assert len(commands) == len(per_command)
    parser = build_parser()
    for line in commands:
        program, *args = shlex.split(line)
        assert program == "tabmtl"
        parser.parse_args(args)
