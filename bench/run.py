"""phasemin benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout is the parent of this file's directory and
the program is imported from its ``src``.  Without ``--workload`` all four
workloads run, one after another, each in its own fresh child process.

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json, the value the
benchmark runner passes.  ``--trace 0`` prints the end-to-end metrics of the
chosen workload(s): setup_s (timed around each workload's child),
items_per_s, op_p50_ms, op_p90_ms and peak_rss_mb.  ``--trace 1``
runs one traced round of every workload, each in a fresh child, and prints
the per-layer metrics, each measured on the workload it belongs to (see
README.md).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the checkout has no ``src/phasemin``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"
CHILD_TIMEOUT_S = 150.0
# set-up samples per workload, half taken before its child and half after,
# so that one slow stretch of the host does not set the median
SETUP_RUNS = 8
IMPORTTIME_RUNS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "item/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_child(argv, capture=False) -> str:
    """Run a child to completion and return its stderr if ``capture``.

    The wait blocks in waitpid, so the caller's clock sees the exit at once;
    subprocess's own timeout polls in steps of up to 50 ms.  A watchdog kills
    a child that outlives CHILD_TIMEOUT_S, and the wait still reaps it.
    """
    with subprocess.Popen(argv, env=child_env(), cwd=ROOT, text=True,
                          stderr=subprocess.PIPE if capture else None) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stderr = proc.stderr.read() if capture else ""
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return stderr


def setup_samples(count) -> list:
    """Wall times of ``count`` fresh interpreters importing phasemin.cli."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "import phasemin.cli"])
        times.append(time.perf_counter() - start)
    return times


def run_seconds() -> float:
    """The measured time of one run, as BENCHMARK.json sets it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def measure_imports() -> dict:
    """Summed self import time of scipy.*, numpy.* and phasemin.* (ms, median)."""
    samples = {"scipy": [], "numpy": [], "phasemin": []}
    for run in range(IMPORTTIME_RUNS + 1):
        stderr = run_child([sys.executable, "-X", "importtime", "-c", "import phasemin.cli"],
                           capture=True)
        totals = dict.fromkeys(samples, 0.0)
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in totals:
                totals[top] += float(self_us) / 1e3
        if run:
            for key, value in totals.items():
                samples[key].append(value)
    return {f"import.{key}_ms": statistics.median(v) for key, v in samples.items()}


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "phasemin").glob("*.py")))


def run_workload(workload, seed, seconds, trace) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = work / "result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", str(work), "--out", str(out)]
    if trace:
        RESULTS.mkdir(exist_ok=True)
        argv += ["--spans", str(RESULTS / f"spans-{workload}-seed{seed}.json")]
    try:
        run_child(argv)
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if Path(result["phasemin"]).resolve() != (SRC / "phasemin").resolve():
        raise RuntimeError(f"phasemin was imported from {result['phasemin']}, not {SRC}")
    for line in result["unexpected"]:
        print(f"[{workload}] FAILED {line}", file=sys.stderr)
    return result


def end_to_end(result, setup_s) -> dict:
    values = {
        "setup_s": setup_s,
        "items_per_s": result["round_items"] / result["typical_round_seconds"],
        "op_p50_ms": result["op_p50_ms"],
        "op_p90_ms": result["op_p90_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="workload input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="minimum measured time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phasemin" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'phasemin'} is missing", file=sys.stderr)
        return 2
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    seconds = run_seconds() if args.seconds is None else args.seconds

    if args.trace:
        metrics = dict(measure_imports())
        results = {}
        for workload in WORKLOADS:
            results[workload] = run_workload(workload, args.seed, seconds, 1)
            metrics.update(results[workload]["layers"])
            print(f"{workload}: traced op_p50_ms {results[workload]['op_p50_ms']:.4f}")
        metrics["src.lines"] = source_lines()
        report_on = [results[w] for w in chosen]
        final = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in tracing.PER_LAYER_UNITS.items()}
        for name in sorted(final):
            print(f"  {name:40s} {final[name]['value']:14.6g} {final[name]['unit']}")
        correct = all(not r["unexpected"] for r in results.values())
    else:
        report_on, final = [], {}
        for workload in chosen:
            # the first interpreter only warms the file cache
            before = setup_samples(1 + SETUP_RUNS // 2)[1:]
            result = run_workload(workload, args.seed, seconds, 0)
            setup_s = statistics.median(before + setup_samples(SETUP_RUNS - len(before)))
            report_on.append(result)
            metrics = end_to_end(result, setup_s)
            print(f"{workload}: {result['attempted']} ops in {result['rounds']} rounds, "
                  f"{result['failed']} failed")
            for name, metric in metrics.items():
                print(f"  {name:14s} {metric['value']:14.6g} {metric['unit']}")
            prefix = "" if args.workload else f"{workload}."
            final.update({prefix + name: m for name, m in metrics.items()})
        correct = all(not r["unexpected"] for r in report_on)

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in report_on),
        "failed": sum(r["failed"] for r in report_on),
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
