"""Command-line front end.

Every subcommand reads CSV + schema inputs, writes its outputs into --out,
and drops a manifest.json recording the invocation and the SHA-256 of each
output file. Outputs are byte-identical across repeat runs with the same
arguments; only the manifest's elapsed_seconds field varies.

Exit codes: 0 success, 2 configuration or data errors, 3 numerical failures
during optimization, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .attrib import HIDDEN_ACTIVATION, INPUT_GRADIENT, grad_cam_features, top_k
from .dataset import (
    CLASSIFICATION,
    CleaningReport,
    Dataset,
    dataset_schema,
    load_csv,
    load_schema,
    preprocess_pipeline,
    save_schema,
    write_dataset_csv,
)
from .errors import ConfigError, NumericalError, TabmtlError
from .network import LossWeights, load_model, save_model
from .synth import SynthConfig, generate, save_truth
from .train import (
    SearchSpace,
    TrainConfig,
    build_topology,
    cross_validate,
    evaluate,
    grid_search,
    train_model,
)


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text.lower() == "none":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    outputs: list[Path], started: float) -> None:
    arg_dict = {
        k: str(v) if isinstance(v, Path) else v
        for k, v in sorted(vars(args).items())
        if k != "func"
    }
    manifest = {
        "command": command,
        "package_version": __version__,
        "arguments": arg_dict,
        "outputs": {p.name: _sha256(p) for p in outputs},
        "elapsed_seconds": time.time() - started,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _load_dataset(args) -> tuple[Dataset, CleaningReport]:
    schema = load_schema(args.schema)
    raw = load_csv(args.data, schema)
    return preprocess_pipeline(
        raw,
        max_missing_frac=args.max_missing_frac,
        mice_sweeps=args.mice_sweeps,
        mice_tol=args.mice_tol,
    )


def _train_config(dataset: Dataset, args) -> TrainConfig:
    topology = build_topology(
        dataset, _parse_int_list(args.trunk), _parse_int_list(args.head)
    )
    weights = None
    if args.loss_weights:
        weights = LossWeights(_parse_float_list(args.loss_weights))
    return TrainConfig(
        topology,
        loss_weights=weights,
        lr0=args.lr0,
        lr_min=args.lr_min,
        weight_decay=args.weight_decay,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )


def _stats_dict(dataset: Dataset) -> dict:
    return {"feature_names": list(dataset.feature_names), **dataset.normalization_stats.to_dict()}


# --- subcommands -------------------------------------------------------------


def cmd_synth(args) -> int:
    started = time.time()
    out = _out_dir(args)
    config = SynthConfig(
        n_samples=args.n_samples,
        n_features=args.n_features,
        n_informative=args.n_informative,
        rho=args.rho,
        noise_std=args.noise_std,
        class_balance=args.class_balance,
        missing_frac=args.missing_frac,
        seed=args.seed,
    )
    dataset, truth = generate(config)
    write_dataset_csv(dataset, out / "data.csv")
    save_schema(dataset_schema(dataset), out / "schema.json")
    save_truth(truth, out / "truth.json")
    _write_manifest(out, "synth", args,
                    [out / "data.csv", out / "schema.json", out / "truth.json"], started)
    print(f"wrote {dataset.n_rows} rows x {dataset.n_features} features to {out / 'data.csv'}")
    return 0


def cmd_preprocess(args) -> int:
    started = time.time()
    out = _out_dir(args)
    dataset, report = _load_dataset(args)
    write_dataset_csv(dataset, out / "dataset.csv")
    save_schema(dataset_schema(dataset), out / "dataset_schema.json")
    _write_json(out / "cleaning_report.json", report.to_dict())
    _write_json(out / "normalization.json", _stats_dict(dataset))
    _write_manifest(out, "preprocess", args,
                    [out / "dataset.csv", out / "dataset_schema.json",
                     out / "cleaning_report.json", out / "normalization.json"], started)
    print(f"wrote model-ready table ({dataset.n_rows} rows, {dataset.n_features} features), "
          f"dropped {len(report.dropped_columns)} columns, "
          f"removed {report.duplicates_removed} duplicate rows")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    out = _out_dir(args)
    dataset, _ = _load_dataset(args)
    config = _train_config(dataset, args)
    result = train_model(dataset, config)
    save_model(result.state, out / "model.json", _stats_dict(dataset))
    _write_json(out / "history.json", result.history)
    _write_json(out / "train_metrics.json", evaluate(result.state, dataset))
    _write_manifest(out, "train", args,
                    [out / "model.json", out / "history.json", out / "train_metrics.json"],
                    started)
    print(f"trained {config.epochs} epochs; final loss {result.final_loss:.6f}")
    return 0


def cmd_cv(args) -> int:
    started = time.time()
    out = _out_dir(args)
    dataset, _ = _load_dataset(args)
    config = _train_config(dataset, args)
    report = cross_validate(
        dataset, config, k=args.k, seed=args.seed, leaky_stats=args.leaky_stats,
    )
    _write_json(out / "cv_report.json", report.to_dict())
    table = report.render_table()
    (out / "cv_report.txt").write_text(table + "\n")
    _write_manifest(out, "cv", args,
                    [out / "cv_report.json", out / "cv_report.txt"], started)
    print(table)
    return 0


def cmd_gridsearch(args) -> int:
    started = time.time()
    out = _out_dir(args)
    dataset, _ = _load_dataset(args)
    space = SearchSpace(
        trunk_depths=_parse_int_list(args.trunk_depths),
        trunk_widths=_parse_int_list(args.trunk_widths),
        head_depths=_parse_int_list(args.head_depths),
        head_widths=_parse_int_list(args.head_widths),
        lr0_values=_parse_float_list(args.lr0_values),
        weight_decay_values=_parse_float_list(args.weight_decay_values),
        epochs_values=tuple(int(e) for e in _parse_int_list(args.epochs_values)),
        loss_weight_values=_parse_float_list(args.loss_weight_values),
        primary_task=args.primary_task,
        budget=args.budget,
        seed=args.seed,
    )
    result = grid_search(dataset, space, k=args.k, leaky_stats=args.leaky_stats)
    _write_json(out / "gridsearch.json", result.to_dict())
    (out / "best_cv_report.txt").write_text(result.best_report.render_table() + "\n")
    _write_manifest(out, "gridsearch", args,
                    [out / "gridsearch.json", out / "best_cv_report.txt"], started)
    score = "n/a" if result.best_score is None else f"{result.best_score:.6f}"
    print(f"evaluated {len(result.trials)} configurations; "
          f"best {space.primary_task} score {score}")
    print(json.dumps(result.best_params))
    return 0


def cmd_attribute(args) -> int:
    started = time.time()
    out = _out_dir(args)
    dataset, _ = _load_dataset(args)
    state, stats = load_model(args.model)
    if stats is not None and stats.get("feature_names") != list(dataset.feature_names):
        raise ConfigError(
            "model was trained on different features than this data produces"
        )
    task_names = list(dataset.task_names())
    if args.task not in task_names:
        raise ConfigError(f"no task named {args.task!r}; tasks are {task_names}")
    report = grad_cam_features(
        state, dataset,
        task_index=task_names.index(args.task),
        target_class=args.target_class,
        mode=args.mode,
    )
    _write_json(out / "attribution.json", report.to_dict())
    text = report.render_text(args.top_k)
    (out / "attribution.txt").write_text(text + "\n")
    _write_manifest(out, "attribute", args,
                    [out / "attribution.json", out / "attribution.txt"], started)
    print(text)
    return 0


def _dataset_report(dataset: Dataset) -> dict:
    tasks: dict[str, dict] = {}
    for o in dataset.outcomes:
        if o.kind == CLASSIFICATION:
            counts = {str(c): int((o.values == c).sum()) for c in range(o.num_classes)}
            tasks[o.task_name] = {"kind": o.kind, "class_counts": counts}
        else:
            counts, edges = np.histogram(o.values, bins=20)
            tasks[o.task_name] = {
                "kind": o.kind,
                "mean": float(o.values.mean()),
                "std": float(o.values.std()),
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
                    by_class[str(c)] = {
                        "n": int(vals.size),
                        "mean": float(vals.mean()) if vals.size else None,
                        "std": float(vals.std()) if vals.size else None,
                    }
                pairwise[key] = {"type": "means_by_class",
                                 "classification_task": cls.task_name,
                                 "regression_task": reg.task_name,
                                 "by_class": by_class}
            else:
                r = float(np.corrcoef(a.values, b.values)[0, 1])
                pairwise[key] = {"type": "correlation", "pearson": r}
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
            lines.append(f"{key} pearson: {info['pearson']:.4f}")
    return "\n".join(lines)


def cmd_report(args) -> int:
    started = time.time()
    out = _out_dir(args)
    dataset, _ = _load_dataset(args)
    doc = _dataset_report(dataset)
    _write_json(out / "report.json", doc)
    text = _render_report(doc)
    (out / "report.txt").write_text(text + "\n")
    _write_manifest(out, "report", args, [out / "report.json", out / "report.txt"], started)
    print(text)
    return 0


# --- parser ------------------------------------------------------------------


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, type=Path, help="input CSV file")
    p.add_argument("--schema", required=True, type=Path, help="column schema JSON")
    p.add_argument("--max-missing-frac", type=float, default=0.8,
                   help="drop columns missing more than this fraction")
    p.add_argument("--mice-sweeps", type=int, default=10)
    p.add_argument("--mice-tol", type=float, default=1e-6)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trunk", default="64", help="shared layer widths, e.g. 64,64 (empty for none)")
    p.add_argument("--head", default="32", help="per-head hidden widths, e.g. 32 (empty for none)")
    p.add_argument("--loss-weights", default="", help="per-task loss weights, e.g. 1,0.5,0.5")
    p.add_argument("--lr0", type=float, default=1e-2)
    p.add_argument("--lr-min", type=float, default=0.0)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabmtl",
        description="Multi-task learning on tabular data: synthesize, preprocess, "
                    "train, cross-validate, tune, and attribute.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with correlated outcomes")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--n-samples", type=int, default=200)
    p.add_argument("--n-features", type=int, default=30)
    p.add_argument("--n-informative", type=int, default=5)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--noise-std", type=float, default=0.8)
    p.add_argument("--class-balance", type=float, default=0.5)
    p.add_argument("--missing-frac", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--leaky-stats", action="store_true",
                   help="normalize with whole-table statistics instead of per-fold")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("gridsearch", help="grid search hyperparameters by cross-validation")
    _add_data_args(p)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--trunk-depths", default="1,2")
    p.add_argument("--trunk-widths", default="64,128")
    p.add_argument("--head-depths", default="1")
    p.add_argument("--head-widths", default="64")
    p.add_argument("--lr0-values", default="0.005,0.01,0.02")
    p.add_argument("--weight-decay-values", default="0.1,0.01,0.001")
    p.add_argument("--epochs-values", default="20,50,100")
    p.add_argument("--loss-weight-values", default="0.25,0.5,1,2",
                   help="candidate weights for non-primary tasks")
    p.add_argument("--primary-task", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="evaluate at most this many configurations")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--leaky-stats", action="store_true")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("attribute", help="rank features by gradient importance")
    _add_data_args(p)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--task", required=True)
    p.add_argument("--target-class", type=int, default=None)
    p.add_argument("--mode", choices=[INPUT_GRADIENT, HIDDEN_ACTIVATION],
                   default=INPUT_GRADIENT)
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
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except TabmtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
