import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tabmtl.cli import build_parser, main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tabmtl", *map(str, args)],
        capture_output=True, text=True,
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

        state, stats = load_model(trained_dir / "model.json")
        assert stats is not None
        assert state.topology.num_tasks == 3
        assert len(stats["feature_names"]) == state.topology.input_dim

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
     "--top-k", "0"),
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

            state, _ = load_model(trained_dir / "model.json")
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

    def test_model_without_normalization_stats_exits_2(self, synth_dir, trained_dir, tmp_path,
                                                       capsys):
        # what save_model writes when given no stats
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
        state, _ = load_model(trained_dir / "model.json")
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
    "cv": DATA_OPTIONS + TRAIN_OPTIONS + ["--out", "--k", "--leaky-stats"],
    "gridsearch": DATA_OPTIONS + [
        "--out", "--trunk-depths", "--trunk-widths", "--head-depths", "--head-widths",
        "--lr0-values", "--weight-decay-values", "--epochs-values", "--loss-weight-values",
        "--primary-task", "--budget", "--k", "--seed", "--leaky-stats",
    ],
    "attribute": DATA_OPTIONS + ["--model", "--out", "--task", "--target-class", "--mode",
                                 "--top-k"],
    "report": DATA_OPTIONS + ["--out"],
}


def test_option_inventory():
    """Every option is listed here, so adding one is a deliberate change."""
    def options(parser):
        return sorted(s for a in parser._actions for s in a.option_strings
                      if s not in ("-h", "--help"))

    parser = build_parser()
    assert options(parser) == ["--version"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: options(p) for name, p in sub.choices.items()}
    assert found == {name: sorted(opts) for name, opts in OPTION_INVENTORY.items()}
