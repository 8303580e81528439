"""Runs one workload in a fresh process and writes its raw figures as JSON.

Started by run.py with ``PYTHONPATH`` set to the checkout's ``src`` and BLAS
pinned to one thread.  The round (see workloads.py) is prepared first, then
one untimed warm-up pass runs the first operation of each kind, then whole
rounds run until ``--seconds`` have passed and at least MIN_OPS operations
were timed.  With ``--trace 1`` exactly one round runs, under the tracer.

Every operation is ``phasemin.cli.main(argv)`` called in-process; only that
call is timed.  Every output is checked; a failed operation is one whose
exit code is not 0 or whose output fails its check.  A failure is expected
only where the check reports a known program fault (see checks.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import checks
import tracer as tracing
import workloads

# enough operations that ten of them lie beyond the 90th percentile
MIN_OPS = 100


def run_op(main, op):
    """Time one CLI call, then check it.

    Returns (seconds, failure or None, whether the failure is a known fault).
    Only a check that raises checks.KnownFault makes a known failure; a
    non-zero exit, a crash or any other failed check is unexpected.
    """
    start = perf_counter()
    try:
        code = main(op.argv)
    except (Exception, SystemExit) as err:  # a crash is a failed operation, not a crashed run
        code = f"{type(err).__name__}: {err}"
    seconds = perf_counter() - start
    if code != 0:
        return seconds, f"exit {code}", False
    try:
        with open(op.output, "r", encoding="utf-8") as handle:
            text = handle.read()
        if op.reference is None:
            op.reference = text
        elif text != op.reference:
            raise checks.CheckFailure("output differs from the same call's first output")
        op.check(text)
    except checks.KnownFault as err:
        return seconds, f"known fault: {err}", True
    except (checks.CheckFailure, OSError, ValueError, KeyError, TypeError, IndexError) as err:
        return seconds, f"{type(err).__name__}: {err}", False
    return seconds, None, False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--out", required=True, help="result JSON")
    parser.add_argument("--spans", default=None, help="traced run: write spans here")
    args = parser.parse_args(argv)

    import phasemin.cli

    ops = workloads.build(args.workload, args.seed, args.work)
    cli_main = phasemin.cli.main
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        cli_main = tracer.traced(cli_main, "cli.main")

    warm = {}
    for op in ops:
        warm.setdefault(op.kind, op)
    for op in warm.values():
        run_op(cli_main, op)

    times, unexpected = [], []
    failed = 0
    started = perf_counter()
    rounds = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = len(times)
            seconds, failure, known = run_op(cli_main, op)
            if tracer is not None:
                tracer.op = None
            times.append(seconds)
            if failure is not None:
                failed += 1
                if not known:
                    unexpected.append(f"{op.kind} {' '.join(op.argv)}: {failure}")
        rounds += 1
        if tracer is not None:
            break
        if perf_counter() - started >= args.seconds and len(times) >= MIN_OPS:
            break

    deciles = statistics.quantiles(times, n=10, method="inclusive")
    # a typical round: each operation at its median time over the rounds, so
    # that a stall of the host in one round does not set the throughput
    typical_round = sum(statistics.median(times[k::len(ops)]) for k in range(len(ops)))
    round_items = sum(op.items for op in ops)
    result = {
        "workload": args.workload,
        "rounds": rounds,
        "attempted": len(times),
        "failed": failed,
        "unexpected": unexpected[:10],
        "round_items": round_items,
        "typical_round_seconds": typical_round,
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phasemin": os.path.dirname(phasemin.__file__),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(args.workload, tracer.spans, round_items)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
