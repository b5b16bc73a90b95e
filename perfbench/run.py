"""Benchmark of crossarray: one workload, one seed, one JSON line of metrics.

Run from the repository root, with no install:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs whole rounds of passes untraced for about S seconds
and prints the end-to-end metrics. ``--trace 1`` runs a fixed number of
passes, each once untraced and once with every traced crossarray function
wrapped (see tracing.py), and prints the per-layer metrics. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
failed checks go to standard error. See README.md for the workloads.
"""

import os

# BLAS threads are fixed before numpy loads; child processes inherit them.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
TAIL_PASSES = 100  # a p90 needs ten passes beyond it to be a tail


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_pass(workload, index, tracer=None):
    result = workload.run_pass(index, tracer)
    for problem in result.problems:
        print(f"check failed: pass {index}: {problem}", file=sys.stderr)
    return result


def run_for(workload, seconds):
    """Untraced whole rounds until the next round would end after ``seconds``
    (checks included), and at least ``min_rounds`` of them."""
    results, rounds = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(workload.round_passes):
            results.append(run_pass(workload, len(results)))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if (len(rounds) >= workload.min_rounds
                and now - start + statistics.median(rounds) > seconds):
            return results


def main():
    args = parse_args()
    if not (SRC / "crossarray" / "__init__.py").is_file():
        print(f"error: no crossarray source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    salt = list(workloads.WORKLOADS).index(args.workload)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, salt)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "trace": args.trace, "blas_threads": int(BLAS_THREADS),
                          "python": sys.version.split()[0], "numpy": np.__version__}))
        workload.prepare()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            # each pass untraced, then the same pass traced, so drift in the
            # machine's speed falls on both sides of the overhead alike
            tracer = tracing.Tracer()
            results, traced = [], []
            for index in range(workload.traced_passes(args.seconds)):
                results.append(run_pass(workload, index))
                uninstall = tracing.install(tracer)
                try:
                    traced.append(run_pass(workload, index, tracer))
                finally:
                    uninstall()
            startup = statistics.median(workload.startup() for _ in range(STARTUP_REPEATS))
            overhead = sum(r.elapsed for r in traced) - sum(r.elapsed for r in results)
            metrics = tracing.per_layer(tracer, startup, overhead)
            summary = {"passes": len(traced), "overhead_s": overhead}
            results += traced
        else:
            results = run_for(workload, args.seconds)
            elapsed = [r.elapsed for r in results]
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "op_p50_s": (statistics.median(elapsed), "s"),
                "samples_per_s": (statistics.median(r.samples / r.elapsed for r in results),
                                  "1/s"),
                "peak_rss_mb": (max(r.rss_kb for r in results) / 1024.0, "MB"),
            }
            summary = {"passes": len(results), "timed_s": sum(elapsed)}
            if len(elapsed) >= TAIL_PASSES:
                summary["op_p90_s"] = statistics.quantiles(elapsed, n=10,
                                                           method="inclusive")[8]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other workload's directory is left
    correct = not any(r.problems for r in results)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
