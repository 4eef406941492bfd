"""Command-line front end.

Every subcommand reads CSV + schema inputs and returns its outputs, an
ordered mapping from file name to content, with the message to print.
``main`` writes them into --out and then a manifest.json recording the
invocation and the SHA-256 of exactly those files; a command that fails
writes no output. Outputs are byte-identical across repeat runs with the
same arguments; only the manifest's elapsed_seconds field varies.

Exit codes: 0 success, 2 configuration or data errors, 3 numerical failures
during optimization, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .attrib import grad_cam_features
from .dataset import (
    CLASSIFICATION,
    CleaningReport,
    Dataset,
    as_int,
    dataset_schema,
    load_csv,
    load_schema,
    preprocess_pipeline,
    save_schema,
    write_dataset_csv,
    write_json,
)
from .errors import ConfigError, DataError, NumericalError, TabmtlError
from .network import load_model, save_model, stats_record
from .synth import SynthConfig, generate, save_truth
from .train import (
    GRID_AXES,
    SearchSpace,
    TrainConfig,
    build_topology,
    cross_validate,
    evaluate,
    grid_search,
    train_model,
)


def _parse_list(text: str, kind: type) -> tuple:
    """Comma-separated ``kind`` values; an empty string or "none" is no values."""
    text = text.strip()
    if not text or text.lower() == "none":
        return ()
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(
            f"expected comma-separated {kind.__name__} values, got {text!r}"
        ) from None


def _write_outputs(out_dir: Path, outputs: dict) -> None:
    """Write each output: a callable writes its own file, a str is text, else JSON."""
    for name, content in outputs.items():
        path = out_dir / name
        if callable(content):
            content(path)
        elif isinstance(content, str):
            path.write_text(content + "\n")
        else:
            write_json(path, content)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, args: argparse.Namespace, names, started: float) -> None:
    arg_dict = {
        k: str(v) if isinstance(v, Path) else v
        for k, v in sorted(vars(args).items())
        if k != "func"
    }
    manifest = {
        "command": args.command,
        "package_version": __version__,
        "arguments": arg_dict,
        "outputs": {name: _sha256(out_dir / name) for name in names},
        "elapsed_seconds": time.perf_counter() - started,
    }
    write_json(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _load_dataset(args) -> tuple[Dataset, CleaningReport]:
    schema = load_schema(args.schema)
    raw = load_csv(args.data, schema)  # a fault names the file, or its row and column
    try:
        return preprocess_pipeline(
            raw,
            max_missing_frac=args.max_missing_frac,
            mice_sweeps=args.mice_sweeps,
            mice_tol=args.mice_tol,
        )
    except DataError as exc:  # e.g. every column dropped: no row to name
        raise DataError(f"{args.data}: {exc}") from None


def _train_config(dataset: Dataset, args) -> TrainConfig:
    topology = build_topology(
        dataset, _parse_list(args.trunk, int), _parse_list(args.head, int)
    )
    weights = _parse_list(args.loss_weights, float) if args.loss_weights else None
    return TrainConfig(topology, loss_weights=weights,
                       **{name: getattr(args, name) for name in TRAIN_OPTIONS})


# --- subcommands -------------------------------------------------------------


def cmd_synth(args) -> tuple[dict, str]:
    config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    dataset, truth = generate(config)
    data = "data.csv"
    outputs = {
        data: lambda path: write_dataset_csv(dataset, path),
        "schema.json": lambda path: save_schema(dataset_schema(dataset), path),
        "truth.json": lambda path: save_truth(truth, path),
    }
    return outputs, (f"wrote {dataset.n_rows} rows x {dataset.n_features} features "
                     f"to {Path(args.out) / data}")


def cmd_preprocess(args) -> tuple[dict, str]:
    dataset, report = _load_dataset(args)
    outputs = {
        "dataset.csv": lambda path: write_dataset_csv(dataset, path),
        "dataset_schema.json": lambda path: save_schema(dataset_schema(dataset), path),
        "cleaning_report.json": report.to_dict(),
        "normalization.json": stats_record(dataset.feature_names, dataset.normalization_stats),
    }
    return outputs, (f"wrote model-ready table ({dataset.n_rows} rows, "
                     f"{dataset.n_features} features), "
                     f"dropped {len(report.dropped_columns)} columns, "
                     f"removed {report.duplicates_removed} duplicate rows")


def cmd_train(args) -> tuple[dict, str]:
    dataset, _ = _load_dataset(args)
    config = _train_config(dataset, args)
    result = train_model(dataset, config)
    outputs = {
        "model.json": lambda path: save_model(result.state, path, dataset.feature_names,
                                              dataset.normalization_stats),
        "history.json": result.history,
        "train_metrics.json": evaluate(result.state, dataset),
    }
    return outputs, f"trained {config.epochs} epochs; final loss {result.final_loss:.6f}"


def cmd_cv(args) -> tuple[dict, str]:
    dataset, _ = _load_dataset(args)
    config = _train_config(dataset, args)
    report = cross_validate(dataset, config, k=args.k, seed=args.seed)
    table = report.render_table()
    return {"cv_report.json": report.to_dict(), "cv_report.txt": table}, table


def cmd_gridsearch(args) -> tuple[dict, str]:
    dataset, _ = _load_dataset(args)
    space = SearchSpace(
        **{name: _parse_list(getattr(args, name), kind) for name, kind in GRID_AXES.items()},
        primary_task=args.primary_task, budget=args.budget, seed=args.seed,
    )
    result = grid_search(dataset, space, k=args.k)
    outputs = {
        "gridsearch.json": result.to_dict(),
        "best_cv_report.txt": result.best_report.render_table(),
    }
    score = "n/a" if result.best_score is None else f"{result.best_score:.6f}"
    return outputs, (f"evaluated {len(result.trials)} configurations; "
                     f"best {space.primary_task} score {score}\n"
                     f"{json.dumps(result.best_params)}")


def cmd_attribute(args) -> tuple[dict, str]:
    as_int(args.top_k, "--top-k", 1)  # checked before the data and the model are read
    dataset, _ = _load_dataset(args)
    state, feature_names, stats = load_model(args.model)
    if feature_names != dataset.feature_names:
        raise ConfigError(f"model file {args.model}: the model was trained on different "
                          "features than this data produces")
    try:  # z-scored with the mean and std the model records, not the data's own
        dataset = dataset.rescaled(stats)
    except DataError as exc:
        raise ConfigError(f"model file {args.model}: normalization_stats: {exc}") from None
    report = grad_cam_features(state, dataset, task_index=dataset.task_index(args.task),
                               target_class=args.target_class)
    text = report.render_text(args.top_k)
    return {"attribution.json": report.to_dict(), "attribution.txt": text}, text


def _mean_std(values: np.ndarray, column: str) -> tuple[float, float]:
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mean, std = float(values.mean()), float(values.std())
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DataError(f"column {column!r}: values too large to summarize "
                        "(their mean or std overflows)")
    return mean, std


def _dataset_report(dataset: Dataset) -> dict:
    tasks: dict[str, dict] = {}
    for o in dataset.outcomes:
        if o.kind == CLASSIFICATION:
            counts = {str(c): int((o.values == c).sum()) for c in range(o.num_classes)}
            tasks[o.task_name] = {"kind": o.kind, "class_counts": counts}
        else:
            mean, std = _mean_std(o.values, o.task_name)
            counts, edges = np.histogram(o.values, bins=20)
            tasks[o.task_name] = {
                "kind": o.kind,
                "mean": mean,
                "std": std,
                "histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()},
            }
    pairwise: dict[str, dict] = {}
    for i in range(dataset.n_tasks):
        for j in range(i + 1, dataset.n_tasks):
            a, b = dataset.outcomes[i], dataset.outcomes[j]
            key = f"{a.task_name}|{b.task_name}"
            if a.kind == CLASSIFICATION and b.kind == CLASSIFICATION:
                table = [
                    [int(((a.values == ca) & (b.values == cb)).sum())
                     for cb in range(b.num_classes)]
                    for ca in range(a.num_classes)
                ]
                pairwise[key] = {"type": "contingency", "counts": table}
            elif a.kind == CLASSIFICATION or b.kind == CLASSIFICATION:
                cls, reg = (a, b) if a.kind == CLASSIFICATION else (b, a)
                by_class = {}
                for c in range(cls.num_classes):
                    vals = reg.values[cls.values == c]
                    mean, std = _mean_std(vals, reg.task_name) if vals.size else (None, None)
                    by_class[str(c)] = {"n": int(vals.size), "mean": mean, "std": std}
                pairwise[key] = {"type": "means_by_class",
                                 "classification_task": cls.task_name,
                                 "regression_task": reg.task_name,
                                 "by_class": by_class}
            else:
                with np.errstate(divide="ignore", invalid="ignore"):  # nan for a constant outcome
                    r = float(np.corrcoef(a.values, b.values)[0, 1])
                pairwise[key] = {"type": "correlation", "pearson": r if np.isfinite(r) else None}
    return {
        "n_rows": dataset.n_rows,
        "n_features": dataset.n_features,
        "feature_names": list(dataset.feature_names),
        "tasks": tasks,
        "pairwise": pairwise,
    }


def _render_report(doc: dict) -> str:
    lines = [f"rows: {doc['n_rows']}  features: {doc['n_features']}"]
    for name, info in doc["tasks"].items():
        if info["kind"] == CLASSIFICATION:
            counts = "  ".join(f"{c}: {n}" for c, n in info["class_counts"].items())
            lines.append(f"{name} (classification)  {counts}")
        else:
            lines.append(
                f"{name} (regression)  mean {info['mean']:.4f}  std {info['std']:.4f}"
            )
    for key, info in doc["pairwise"].items():
        if info["type"] == "contingency":
            lines.append(f"{key} contingency: {info['counts']}")
        elif info["type"] == "means_by_class":
            per = "  ".join(
                f"class {c}: mean {v['mean']:.4f}" if v["mean"] is not None else f"class {c}: empty"
                for c, v in info["by_class"].items()
            )
            lines.append(f"{key}  {per}")
        else:
            r = info["pearson"]
            lines.append(f"{key} pearson: {'n/a' if r is None else format(r, '.4f')}")
    return "\n".join(lines)


def cmd_report(args) -> tuple[dict, str]:
    dataset, _ = _load_dataset(args)
    doc = _dataset_report(dataset)
    text = _render_report(doc)
    return {"report.json": doc, "report.txt": text}, text


# --- parser ------------------------------------------------------------------

# the TrainConfig fields that train and cv take as options
TRAIN_OPTIONS = ("lr0", "lr_min", "weight_decay", "epochs", "batch_size", "seed")


def _add_options(p: argparse.ArgumentParser, defaults: dict, helps: dict | None = None) -> None:
    """An option ``--field-name`` for each field, typed and defaulted by its default."""
    for name, default in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                       help=(helps or {}).get(name))


def _signature_defaults(function, *names: str) -> dict:
    """The defaults of ``function``'s parameters ``names``, by name."""
    parameters = inspect.signature(function).parameters
    return {name: parameters[name].default for name in names}


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, type=Path, help="input CSV file")
    p.add_argument("--schema", required=True, type=Path, help="column schema JSON")
    _add_options(p, _signature_defaults(preprocess_pipeline, "max_missing_frac", "mice_sweeps",
                                        "mice_tol"),
                 {"max_missing_frac": "drop columns missing more than this fraction"})


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trunk", default="64", help="shared layer widths, e.g. 64,64 (empty for none)")
    p.add_argument("--head", default="32", help="per-head hidden widths, e.g. 32 (empty for none)")
    p.add_argument("--loss-weights", default="", help="per-task loss weights, e.g. 1,0.5,0.5")
    _add_options(p, {f.name: f.default for f in fields(TrainConfig) if f.name in TRAIN_OPTIONS})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabmtl",
        description="Multi-task learning on tabular data: synthesize, preprocess, "
                    "train, cross-validate, tune, and attribute.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # options are spelt out in full: a removed or mistyped option is refused,
    # not taken for a prefix of another (`--mode` of `--model`)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("synth", help="generate a synthetic dataset with correlated outcomes")
    p.add_argument("--out", required=True, type=Path)
    _add_options(p, asdict(SynthConfig()))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="clean, impute, and transform a raw CSV")
    _add_data_args(p)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one model on the full table")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="k-fold cross-validate one configuration")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--out", required=True, type=Path)
    _add_options(p, _signature_defaults(cross_validate, "k"))
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("gridsearch", help="grid search hyperparameters by cross-validation")
    _add_data_args(p)
    p.add_argument("--out", required=True, type=Path)
    space = SearchSpace()
    for name in GRID_AXES:
        p.add_argument("--" + name.replace("_", "-"),
                       default=",".join(f"{v:g}" for v in getattr(space, name)),
                       help="candidate weights for non-primary tasks"
                       if name == "loss_weight_values" else None)
    p.add_argument("--primary-task", required=True)
    p.add_argument("--budget", type=int, default=space.budget,
                   help="evaluate at most this many configurations")
    _add_options(p, _signature_defaults(grid_search, "k"))
    p.add_argument("--seed", type=int, default=space.seed)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("attribute", help="rank features by gradient importance")
    _add_data_args(p)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--task", required=True)
    p.add_argument("--target-class", type=int, default=None)
    p.add_argument("--top-k", type=int, default=10)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("report", help="summarize outcome distributions and overlaps")
    _add_data_args(p)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        out = _out_dir(args)
        outputs, message = args.func(args)
        _write_outputs(out, outputs)
        _write_manifest(out, args, outputs, started)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except TabmtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1
    try:
        print(message, flush=True)
    except BrokenPipeError:
        # the reader is gone, and every output is written: point stdout at
        # devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def entry_point() -> None:
    sys.exit(main())
