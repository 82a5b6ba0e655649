#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload kv_etc --seed 1 --seconds 10 --trace 0

The workload's inputs are generated from ``--seed`` first; then whole
repetitions (fresh cluster, set-up, measured phase, output checks) run
until ``--seconds`` of host time have passed, and at least three times.
Simulated results must be identical in every repetition.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same repetitions and then one more under cProfile, and reports the
per-layer metrics (see ``layers.py``).  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; every earlier line
is a human-readable summary.  See NOTES.md for the workloads and the
metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_REPS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def end_to_end_metrics(reps) -> dict:
    """The user-visible metrics, medians over repetitions for host time."""
    from workloads import CPU_TAGS, percentile
    rep = reps[0]
    ops = rep.ops
    cpu_us = sum(rep.counters["cpu." + tag] for tag in CPU_TAGS)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "host_ops_per_s": (statistics.median(r.ops / r.run_s for r in reps),
                           "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "sim_op_p50_us": (percentile(rep.latencies, 50), "us"),
        "sim_op_p99_us": (percentile(rep.latencies, 99), "us"),
        "sim_ops_per_ms": (ops / (rep.sim_us / 1000.0), "1/ms"),
        "cpu_us_per_op": (cpu_us / ops, "us"),
    }


def output_errors(reps, traced) -> list:
    """Every failed output or determinism check (empty when correct)."""
    errors = []
    for index, rep in enumerate(reps + ([traced] if traced else [])):
        errors.extend(f"rep {index}: {error}" for error in rep.errors)
        if rep.counters["fp.mismodels"]:
            errors.append(f"rep {index}: fastpath.mismodels = "
                          f"{rep.counters['fp.mismodels']}")
        if rep.ops == 0:
            errors.append(f"rep {index}: no op completed")
        if rep.digest != reps[0].digest:
            what = "traced run" if rep is traced else f"rep {index}"
            errors.append(f"{what} diverged from rep 0: digest "
                          f"{rep.digest} != {reps[0].digest}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    inputs = workload.make_inputs(args.seed)

    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
        gc.collect()
        reps.append(workload.run_rep(inputs))
    traced = None
    if args.trace:
        gc.collect()
        traced = workload.run_rep(inputs, trace=True)

    errors = output_errors(reps, traced)
    if args.trace:
        from layers import per_layer_metrics
        metrics = per_layer_metrics(reps, traced)
    else:
        metrics = end_to_end_metrics(reps)

    rep = reps[0]
    print(f"{args.workload} seed={args.seed}: {len(reps)} reps x "
          f"{rep.ops} ops, digest {rep.digest} "
          f"(sim.now delta {rep.sim_us!r} us, "
          f"{rep.counters['sim.events']} events)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
