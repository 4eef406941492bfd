"""tabmtl benchmark: one workload, run in-process through ``tabmtl.cli.main``.

    python3 perfbench/run.py --workload prep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run generates the workload's inputs from
the seed, sets up (a fresh-process import of the CLI, input generation and one
warm-up op) several times, then runs ops back to back, one client in a closed
loop, until ``--seconds`` have passed. Every op is checked: exit code, sha256
of every output against the warm-up op, and the workload's quality floor.

``--trace 0`` reports the end-to-end metrics. A speed probe, fixed work that
does not use the program, runs before every set-up and op; the gated times are
wall times scaled to one probe speed, so that the machine's own drift does
not read as a change of the program. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics from the spans.
The last line of stdout is the result as one JSON object. A longer report is
written to ``.perfbench_out/`` in the checkout, next to the spans of a traced
run. BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# The speed probe's time at the speed the gated times are given in. On a
# 2-core Xeon VM at 2.0 GHz the probe took 70-80 ms, or 120-150 ms while
# other guests loaded the host.
PROBE_S = 0.08
# after each set-up and op, probes run for at least this share of its time
PROBE_SHARE = 0.1

# functions whose calls and share of the op are per-layer metrics
LAYER_FUNCTIONS = {
    "dataset": ("load_csv", "clean", "mice_impute", "transform", "preprocess_pipeline",
                "write_dataset_csv", "kfold_split", "fit_standardizer",
                "apply_standardizer", "subset_rows"),
    "network": ("forward", "backward", "task_loss", "loss_mtl", "predict", "init_params",
                "save_model", "load_model"),
    "optim": ("adam_step", "cosine_lr", "init_adam"),
    "train": ("train_model", "cross_validate", "grid_search", "evaluate"),
    "metrics": ("classification_metrics", "mse_metric"),
    "attrib": ("grad_cam_features",),
    "cli": (),
}
SELF_SHARE = ("dataset.preprocess_pipeline", "train.train_model", "train.cross_validate",
              "train.grid_search")


def _load_program():
    """Import the CLI from this checkout's src/, never from elsewhere."""
    if not (SRC / "tabmtl" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'tabmtl'}; "
                         "run from the root of a tabmtl checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import tabmtl.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported tabmtl from {cli.__file__}, not {SRC}")
    return cli


# --- provenance ----------------------------------------------------------------


def _blas() -> dict:
    import numpy as np

    info = {"threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]), "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        info.update(name=None, version=None)
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tabmtl").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, inputs) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "input_shape": inputs.shape,
        "steps_per_op": inputs.steps,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "loop": "closed, one client, sequential ops in one process",
    }


# --- machine speed -------------------------------------------------------------------


def probe_s() -> float:
    """Wall time of a fixed piece of work that does not use the program.

    The speed of a shared machine can drift by up to 2x, for causes outside
    this process: the ops, their CPU time and this probe all slow down
    together. The probe runs between ops and the gated times are scaled by
    ``PROBE_S`` over its mean. Its three parts mirror the workloads: string
    formatting and parsing, small-array numpy calls, and 256 x 256 matrix
    multiplies.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small, weight = rng.standard_normal((64, 16)), rng.standard_normal((16, 16))
    big = rng.standard_normal((256, 256))
    start = time.perf_counter()
    text = ",".join(repr(i / 7) for i in range(30000))
    sum(float(cell) for cell in text.split(","))
    m = small
    for _ in range(2000):
        h = np.maximum(m @ weight, 0.0)
        m = small + 0.001 * (h - h.mean(axis=0))
    for _ in range(30):
        big @ big
    return time.perf_counter() - start


def sample_speed(probes: list, busy_s: float) -> None:
    """Probe for ``PROBE_SHARE`` of ``busy_s``, at least once, so the probes
    sample the machine's speed evenly over the run."""
    spent = 0.0
    while spent == 0.0 or spent < PROBE_SHARE * busy_s:
        probes.append(probe_s())
        spent += probes[-1]


# --- ops -------------------------------------------------------------------------


def run_op(cli, inputs, out: Path) -> int:
    """Run the op's CLI calls into a fresh ``out``; the first non-zero exit code ends it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in inputs.ops:
            try:
                code = cli.main([a.replace("{out}", str(out)) for a in argv])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            if code != 0:
                return code
    return 0


def digests(out: Path) -> dict:
    """sha256 of every output, as each manifest.json under ``out`` records it."""
    return {str(p.relative_to(out)): json.loads(p.read_text())["outputs"]
            for p in sorted(out.rglob("manifest.json"))}


def check(inputs, out: Path, code: int, reference: dict | None) -> tuple[list[str], tuple]:
    """Reasons the op failed (none when it passed) and its quality figure."""
    if code != 0:
        return [f"exit code {code}"], (None, None, False)
    failures = []
    try:
        got = digests(out)
        figure = inputs.quality(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], (None, None, False)
    if not got:
        failures.append("no manifest written")
    if reference is not None and got != reference:
        failures.append("output sha256 differs from the warm-up op")
    if not figure[2]:
        failures.append(f"{figure[0]} {figure[1]} misses its floor")
    return failures, figure


def timed_op(cli, inputs, out: Path, reference, tracer=None, op_id=0):
    shutil.rmtree(out, ignore_errors=True)
    if tracer is None:
        start = time.perf_counter()
        code = run_op(cli, inputs, out)
        elapsed = time.perf_counter() - start
    else:
        tracer.install()
        try:
            start = time.perf_counter()
            code = tracer.run_op(op_id, lambda: run_op(cli, inputs, out))
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
    failures, figure = check(inputs, out, code, reference)
    return elapsed, failures, figure


def setup(cli, build, workload: str, seed: int, work: Path, repeats: int, probes: list):
    """Import, generate and warm up ``repeats`` times, sampling the speed after
    each; the first warm-up's digests are the reference for every later op."""
    times, failures, reference, inputs, figure, input_digest = [], [], None, None, None, None
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for r in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import tabmtl.cli"], env=env,
                              capture_output=True, timeout=120)
        if done.returncode != 0:
            failures.append(f"setup {r}: importing tabmtl.cli in a fresh process failed")
        inputs = build(workload, seed, work / "inputs")
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        code = run_op(cli, inputs, out)
        times.append(time.perf_counter() - start)
        sample_speed(probes, times[-1])

        data = hashlib.sha256((work / "inputs" / "data.csv").read_bytes()).hexdigest()
        if input_digest not in (None, data):
            failures.append(f"setup {r}: the same seed generated different inputs")
        input_digest = data
        fails, figure = check(inputs, out, code, reference)
        failures += [f"setup {r}: {f}" for f in fails]
        if reference is None and code == 0:
            reference = digests(out)
    return inputs, times, reference, figure, failures, input_digest


# --- reporting ---------------------------------------------------------------------


def tail(times: list[float]) -> dict:
    """The highest of p99/p95/p90/p75/p50 with at least ten ops beyond it,
    else the slowest op."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return {"value": ordered[min(n - 1, int(n * pct / 100))], "percentile": pct,
                    "samples": n}
    return {"value": ordered[-1], "percentile": 100, "samples": n}


def end_to_end(inputs, setup_times, op_times, probes) -> dict:
    """Gated metrics; times are wall times scaled to the probe's speed ``PROBE_S``."""
    scale = PROBE_S / statistics.mean(probes)
    p50 = statistics.median(op_times) * scale
    return {
        "setup_s": {"value": statistics.median(setup_times) * scale, "unit": "s"},
        "op_s_p50": {"value": p50, "unit": "s"},
        "rows_per_s": {"value": inputs.rows / p50, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(inputs, tracer, traced_ids, traced_times, untraced_times, bytes_written):
    """Per-layer metrics from the traced ops, their count reconciliation, and the
    per-function table the report keeps."""
    ops = [tracer.summarize(i) for i in traced_ids]
    med = statistics.median
    metrics: dict[str, dict] = {}
    table: dict[str, dict] = {}
    for name in sorted({n for op in ops for n in op["functions"]}):
        rows = [op["functions"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}) for op in ops]
        table[name] = {"calls": rows[0]["calls"], "s": med(r["s"] for r in rows),
                       "self_s": med(r["self_s"] for r in rows)}
        for figure in ("flop", "bytes"):
            if figure in rows[0]:
                table[name][figure] = rows[0][figure]

    def fn(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def share(seconds_of_op):
        return med(seconds_of_op(op) / op["op_s"] for op in ops)

    def fn_share(name, key):
        return share(lambda op: op["functions"].get(name, {}).get(key, 0.0))

    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            full = f"{layer}.{name}"
            metrics[f"{full}.calls"] = {"value": fn(full)["calls"], "unit": "count"}
            metrics[f"{full}.share"] = {"value": fn_share(full, "s"), "unit": "frac"}
    for full in SELF_SHARE:
        metrics[f"{full}.self_share"] = {"value": fn_share(full, "self_s"), "unit": "frac"}
    for layer in LAYER_FUNCTIONS:
        metrics[f"{layer}.self_share"] = {
            "value": share(lambda op: sum(v["self_s"] for n, v in op["functions"].items()
                                          if n.startswith(layer + "."))),
            "unit": "frac"}

    flop = [fn(n).get("flop", 0) for n in ("network.forward", "network.backward")]
    gflop = None if None in flop else sum(flop) / 1e9
    matmul_s = fn("network.forward")["s"] + fn("network.backward")["s"]
    metrics["network.gflop"] = {"value": gflop or 0.0, "unit": "GFLOP"}
    metrics["network.gflop_per_s"] = {
        "value": gflop / matmul_s if gflop and matmul_s > 0 else 0.0, "unit": "GFLOP/s"}
    metrics["dataset.write_dataset_csv.bytes"] = {
        "value": fn("dataset.write_dataset_csv").get("bytes") or 0, "unit": "B"}
    metrics["network.save_model.bytes"] = {
        "value": fn("network.save_model").get("bytes") or 0, "unit": "B"}
    metrics["cli.bytes_written"] = {"value": bytes_written, "unit": "B"}

    checks = {
        "optim.adam_step.calls == steps from the inputs":
            fn("optim.adam_step")["calls"] == inputs.steps,
        "dataset.mice_impute.calls == 1 on prep, else 0":
            fn("dataset.mice_impute")["calls"] == (1 if inputs.workload == "prep" else 0),
        "network.forward.calls == steps + predict.calls + input_gradients.calls":
            fn("network.forward")["calls"] == inputs.steps + fn("network.predict")["calls"]
            + fn("network.input_gradients")["calls"],
        "every traced op made the same calls":
            all({n: v["calls"] for n, v in op["functions"].items()}
                == {n: v["calls"] for n, v in ops[0]["functions"].items()} for op in ops),
    }
    metrics["trace.op_s_p50"] = {"value": med(traced_times), "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": med(traced_times) / med(untraced_times) - 1.0,
                                      "unit": "frac"}
    metrics["trace.spans"] = {"value": ops[0]["spans"], "unit": "count"}
    metrics["trace.reconcile_failures"] = {"value": sum(not ok for ok in checks.values()),
                                           "unit": "count"}
    detail = {"functions": table, "reconcile": checks, "absent": tracer.absent,
              "premise": premise(inputs.workload, metrics),
              "gflop_computed_from": "2 x rows x multiply-adds of the layer shapes per "
                                     "forward, twice that per backward"}
    return metrics, detail


# functions whose spans contain network.forward or network.backward
MATMUL_ANCESTORS = {"train.train_model", "train.cross_validate", "train.grid_search",
                    "train.evaluate", "network.predict", "attrib.grad_cam_features"}


def premise(workload: str, metrics: dict) -> dict:
    """The layer shares each workload was chosen for, as the traced ops show them."""
    def v(name):
        return metrics[name]["value"]

    if workload == "prep":
        return {"dataset holds most of the op": v("dataset.self_share") > 0.5}
    if workload == "tune":
        held = v("network.self_share") + v("optim.self_share") + v("train.self_share")
        return {"network + optim + train hold most of the op": held > 0.5,
                "mice_impute is never called": v("dataset.mice_impute.calls") == 0}
    matmul = v("network.forward.share") + v("network.backward.share")
    others = [v(f"{layer}.{fn}.share") for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
              if f"{layer}.{fn}" not in MATMUL_ANCESTORS | {"network.forward", "network.backward"}]
    return {"forward + backward is the largest share": matmul > max(others),
            "gflop_per_s is reported": v("network.gflop_per_s") > 0}


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --- main ----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("prep", "tune", "fit_wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = _load_program()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        return _run(cli, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(cli, args, work: Path) -> int:
    from inputs import build  # importable once _load_program has set the path
    from tracer import Tracer

    repeats = 1 if args.trace else SETUP_REPEATS
    probes: list[float] = []
    inputs, setup_times, reference, figure, failures, input_digest = setup(
        cli, build, args.workload, args.seed, work, repeats, probes)
    out = work / "out"

    op_times, traced_times, untraced_times, traced_ids = [], [], [], []
    attempted = failed = 0
    tracer = Tracer(LAYER_FUNCTIONS) if args.trace else None
    bytes_written = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            elapsed, fails, _ = timed_op(
                cli, inputs, out, reference, tracer if traced else None, attempted)
            if not args.trace:
                sample_speed(probes, elapsed)
            attempted += 1
            failed += bool(fails)
            failures += [f"op {attempted - 1}: {f}" for f in fails]
            if traced:
                traced_times.append(elapsed)
                traced_ids.append(attempted - 1)
                bytes_written = _bytes_under(out)
            else:
                (untraced_times if args.trace else op_times).append(elapsed)
        if time.perf_counter() >= deadline:
            break

    name, value, _ = figure
    report = {
        "provenance": provenance(args.workload, args.seed, inputs),
        "input_sha256": input_digest,
        "output_sha256": reference,
        "quality": {"name": name, "value": value},
        "fail_frac": failed / attempted,
        "failures": failures,
    }
    if args.trace:
        metrics, detail = per_layer(inputs, tracer, traced_ids, traced_times,
                                    untraced_times, bytes_written)
        report["trace"] = detail
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = end_to_end(inputs, setup_times, op_times, probes)
        p50 = metrics["op_s_p50"]["value"]
        report.update(
            op_s=op_times, setup_s=setup_times, probe_s=probes,
            wall_op_s_p50=statistics.median(op_times),
            wall_setup_s=statistics.median(setup_times),
            op_s_tail=tail(op_times),
            steps_per_s=inputs.steps / p50 if inputs.steps else None,
        )
    report["metrics"] = metrics
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    for key, entry in metrics.items():
        print(f"{key} = {entry['value']} {entry['unit']}")
    if not args.trace:
        t = report["op_s_tail"]
        print(f"op_s_tail = {t['value']} s wall (p{t['percentile']} of {t['samples']} ops, "
              "not gated)")
        print(f"wall_op_s_p50 = {report['wall_op_s_p50']} s, wall_setup_s = "
              f"{report['wall_setup_s']} s, probe_s_mean = {statistics.mean(probes)} s "
              f"(gated times are scaled by {PROBE_S} / probe_s_mean)")
        if report["steps_per_s"] is not None:
            print(f"steps_per_s = {report['steps_per_s']} 1/s")
    print(f"{name} = {value} (quality floor {'met' if figure[2] else 'MISSED'})")
    print(f"fail_frac = {report['fail_frac']} ({failed} of {attempted} ops)")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"report: {path.relative_to(ROOT)}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
