"""Self-test of the benchmark at its minimum length.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it runs
``run.py`` for one second untraced twice at seed ``SEED``, and once traced, and
checks that:

- the last line of stdout is the result object, correct, with no failed op;
- every metric BENCHMARK.json names is present, a finite number, in its unit;
- the traced run's count reconciliation holds exactly, and the layer shares
  show the workload's premise;
- the two untraced runs generated identical inputs and identical outputs.

Last, it checks that ``run.py`` fails, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's files. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED = 7


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done, problems: list[str], label: str) -> dict | None:
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{label}: last stdout line is not JSON (exit {done.returncode}); "
                        f"stderr: {done.stderr[-500:]}")
        return None
    if done.returncode != 0:
        problems.append(f"{label}: exit code {done.returncode}")
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}; "
                        + "; ".join(line for line in lines if line.startswith("FAILED")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    return result


def check_metrics(result: dict, specs: list[dict], problems: list[str], label: str) -> None:
    metrics = result.get("metrics", {})
    for spec in specs:
        entry = metrics.get(spec["name"])
        if entry is None:
            problems.append(f"{label}: metric {spec['name']} missing")
            continue
        value = entry.get("value")
        if entry.get("unit") != spec["unit"]:
            problems.append(f"{label}: {spec['name']} unit {entry.get('unit')!r}, "
                            f"expected {spec['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {spec['name']} value {value!r}")
    extra = sorted(set(metrics) - {s["name"] for s in specs})
    if extra:
        problems.append(f"{label}: metrics not named in BENCHMARK.json: {extra}")


def report_of(workload: str, seed: int, trace: int) -> dict:
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def check_bare_directory(bench: dict, problems: list[str]) -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = bench["workloads"][0]["name"]
        done = run(workload, 1, 0, cwd=bare)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        if done.returncode == 0:
            problems.append("bare directory: run.py exited 0")
        if last.startswith("{"):
            problems.append("bare directory: run.py printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for workload in (w["name"] for w in bench["workloads"]):
        digests = []
        for attempt in range(2):
            label = f"{workload} trace 0 run {attempt + 1}"
            result = result_of(run(workload, SEED, 0), problems, label)
            if result is not None:
                check_metrics(result, bench["end_to_end"], problems, label)
                report = report_of(workload, SEED, 0)
                digests.append((report["input_sha256"], report["output_sha256"]))
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: two runs at seed {SEED} differ in input or "
                            "output sha256")

        label = f"{workload} trace 1"
        result = result_of(run(workload, SEED, 1), problems, label)
        if result is not None:
            check_metrics(result, bench["per_layer"], problems, label)
            report = report_of(workload, SEED, 1)
            for kind in ("reconcile", "premise"):
                for check, ok in report["trace"][kind].items():
                    if not ok:
                        problems.append(f"{label}: {kind} failed: {check}")
            if report["trace"]["absent"]:
                problems.append(f"{label}: traced functions absent: {report['trace']['absent']}")
        print(f"{workload}: checked", flush=True)

    check_bare_directory(bench, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
