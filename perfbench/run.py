"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload answer --seed 1 --seconds 12 --trace 0

Run from the root of a checkout of the repository. The run

1. generates the workload's inputs from ``--seed`` in this process,
   which never imports the program (``perfbench/gen.py``);
2. starts two fresh processes that only set the program up and time it,
   then a fresh measured process (``perfbench/measure.py``) that sets
   the program up, runs whole rounds of the workload's operations for
   ``--seconds`` and writes latencies and outputs; ``setup_s`` is the
   median of the three set-ups; with ``--trace 1`` a second, traced
   measured process follows the untraced one; times are CPU times of
   the measured process (see ``measure.py``);
3. starts a checker process (``perfbench/check.py``) that recomputes
   every output on the saturated store with the seed evaluator;
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``).

``--workload all`` runs every workload in turn and prints one JSON line
per workload, then a summary line whose metric names carry the
workload as a prefix. Spans of traced runs are written to
``.perfbench-out/<workload>-<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402  (standard library only)

WORKLOADS = ("select", "answer", "maintain")

#: Percentile behind ``tail_ms``, fixed per workload from its sample
#: count and its operation classes (see README.md).
TAIL_PERCENTILE = {"select": 90, "answer": 90, "maintain": 95}

#: Set-ups per run, each in a fresh process; ``setup_s`` is their median.
SETUPS = 3

#: Wall-clock cap of each child process, in seconds.
CHILD_TIMEOUT = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "selection.search_s": "s",
    "selection.states_created": "count",
    "selection.enumerate_s": "s",
    "selection.price_s": "s",
    "selection.consider_s": "s",
    "selection.cost_reduction": "ratio",
    "stats.atom_count_s": "s",
    "stats.atom_count.calls": "count",
    "stats.atom_count.evaluated": "count",
    "query.parse_s": "s",
    "reformulation.reformulate_s": "s",
    "reformulation.disjuncts": "count",
    "engine.union_plan_s": "s",
    "engine.union_execute_s": "s",
    "engine.answer_rows": "count",
    "engine.plan_cache.hit": "count",
    "engine.plan_cache.miss": "count",
    "engine.plan_cache.flush": "count",
    "engine.plan_cache.hit_ratio": "ratio",
    "mqo.shared_nodes.materialized": "count",
    "rdf.store_write_s": "s",
    "selection.maintenance.delta_s": "s",
    "selection.maintenance.delta_queries": "count",
    "selection.view_read_s": "s",
    "engine.route.interpreted": "count",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_pct": "%",
}


class BenchmarkError(RuntimeError):
    pass


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _end_group(group: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _child(argv: list[str], root: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Its own process group, so that anything it starts ends with it.
    process = subprocess.Popen(
        [sys.executable, *argv], cwd=root, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        _end_group(process.pid)
        process.communicate()
        raise BenchmarkError(f"{argv[0]} did not finish in {CHILD_TIMEOUT}s")
    except BaseException:
        # Interrupted or terminated: end the child before going.
        _end_group(process.pid)
        process.wait()
        raise
    _end_group(process.pid)
    if process.returncode != 0:
        raise BenchmarkError(f"{argv[0]} failed:\n{err[-4000:]}")
    return out


def _measure_argv(workload: str, inputs: Path, out: Path, seconds: float,
                  trace: int) -> list[str]:
    return [str(HERE / "measure.py"), "--workload", workload,
            "--inputs", str(inputs), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]


def setup_only(root: Path, workload: str, inputs: Path, out: Path) -> float:
    """One set-up in a process of its own; returns its time."""
    _child(_measure_argv(workload, inputs, out, 0, 0) + ["--setup-only"], root)
    return json.loads(out.read_text())["setup_s"]


def measure(root: Path, workload: str, inputs: Path, out: Path,
            seconds: float, trace: int) -> tuple[dict, dict]:
    """One measured process plus the checker over its outputs."""
    _child(_measure_argv(workload, inputs, out, seconds, trace), root)
    result = json.loads(out.read_text())
    verdict = json.loads(_child(
        [str(HERE / "check.py"), "--workload", workload, "--inputs",
         str(inputs), "--outputs", str(out.with_suffix(".check.json"))],
        root,
    ).strip().splitlines()[-1])
    return result, verdict


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    work = root / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = work / "inputs"
        gen.generate(workload, seed, inputs)
        # The extra set-ups feed only ``setup_s``, an untraced metric.
        setups = [] if trace else [
            setup_only(root, workload, inputs, work / f"setup-{attempt}.json")
            for attempt in range(SETUPS - 1)
        ]
        plain, verdict = measure(root, workload, inputs, work / "plain.json",
                                 seconds, 0)
        runs = [(plain, verdict)]
        if trace:
            traced, traced_verdict = measure(
                root, workload, inputs, work / "traced.json", seconds, 1
            )
            runs.append((traced, traced_verdict))
            spans = root / ".perfbench-out"
            spans.mkdir(exist_ok=True)
            shutil.copyfile(work / "traced.spans.jsonl",
                            spans / f"{workload}-{seed}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Wrong outputs, found by the checker or by the measured process,
    # count as failed and make the run incorrect.
    wrong = sum(len(v["mismatches"]) + r["wrong"] for r, v in runs)
    attempted = sum(r["ops"] for r, _ in runs)
    if trace:
        traced = runs[1][0]
        layers = dict(traced["layers"])
        plain_rate = plain["ops"] / plain["busy_s"]
        traced_rate = traced["ops"] / traced["busy_s"]
        layers["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        latencies = plain["latencies_ms"]
        values = {
            "setup_s": statistics.median(setups + [plain["setup_s"]]),
            "throughput_per_s": plain["ops"] / plain["busy_s"],
            "p50_ms": statistics.median(latencies),
            "tail_ms": nearest_rank(latencies, TAIL_PERCENTILE[workload]),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminated: unwind, so that every child process is ended first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(root, name, args.seed, args.seconds, args.trace)
            for name in names
        }
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
