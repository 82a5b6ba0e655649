#!/usr/bin/env python
"""Wall-clock micro-benchmark harness for the simulator itself.

Unlike ``benchmarks/`` (which reproduce the paper's *simulated-time*
figures), this tool measures how fast the simulator runs on the host:
ops per second of wall time, events per second, and peak RSS, over a
fixed op mix.  Results seed the perf trajectory across PRs — each run
is recorded under a label in a JSON file (default ``BENCH_pr10.json``)
and a ``baseline`` vs ``current`` pair yields the speedup numbers.

Usage:
    PYTHONPATH=src python tools/bench.py                    # label "current"
    PYTHONPATH=<seed>/src python tools/bench.py --label baseline
    python tools/bench.py --quick                           # CI smoke run

The op mixes only use APIs present in the PR-2 seed, so the same file
can be pointed (via PYTHONPATH) at any older tree to produce a
comparable baseline.  ``--jobs N`` additionally times the parallel
figure-sweep runner (serial vs N workers, asserting byte-identical
results); ``--compare FILE`` turns the run into a regression gate:
exit 1 if any mix's events/s falls more than 20% below the reference
file's ``current`` entry, or if peak RSS grows more than 25% over it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
try:  # honor an explicit PYTHONPATH (baseline runs) before repo src
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.cluster import Cluster  # noqa: E402
from repro.core import LiteContext, lite_boot, rpc_server_loop  # noqa: E402

try:
    from repro.verbs.fastpath import fp_stats  # noqa: E402
except ImportError:  # a tree from before the fast path
    fp_stats = None


KB = 1024
MB = 1024 * 1024


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _lite_pair(n_nodes: int = 2):
    cluster = Cluster(n_nodes)
    kernels = lite_boot(cluster)
    return cluster, kernels


def _timed_run(cluster, driver_gen):
    """Run one driver process; returns (wall_s, sim_us, events)."""
    sim = cluster.sim
    seq_before = sim._seq
    sim_before = sim.now
    start = time.perf_counter()
    cluster.run_process(driver_gen)
    wall = time.perf_counter() - start
    return wall, sim.now - sim_before, sim._seq - seq_before


def mix_small_ops(quick: bool) -> dict:
    """High-op-count mix: 64 B writes/reads, event-engine bound."""
    ops = 2_000 if quick else 12_000
    cluster, kernels = _lite_pair()
    ctx = LiteContext(kernels[0], "bench", kernel_level=True)
    holder = {}

    def setup():
        holder["lh"] = yield from ctx.lt_malloc(1 * MB, nodes=2)

    cluster.run_process(setup())
    lh = holder["lh"]
    payload = b"x" * 64

    def driver():
        for index in range(ops):
            if index & 1:
                yield from ctx.lt_read(lh, 0, 64)
            else:
                yield from ctx.lt_write(lh, 0, payload)

    wall, sim_us, events = _timed_run(cluster, driver())
    return {"ops": ops, "wall_s": wall, "sim_us": sim_us, "events": events}


def mix_large_msg(quick: bool) -> dict:
    """Large-message throughput mix: 1 MB writes/reads, copy bound.

    The op counts are deliberately not tiny: at 60 quick ops the whole
    mix ran ~50 ms of wall clock and the CI gate saw events/s spreads
    of ~25% from scheduler jitter alone.  Large ops are cheap enough
    (~40 us of wall each now that the vectorized fast path commits the
    whole chunk fan-out arithmetically) that even the quick mix can
    afford a run north of 100 ms, which is what it takes for the
    median-of-N gate spread to stay under 10%.  The 900-op count that
    cleared that bar before ISSUE 10 finishes in ~35 ms today, so the
    counts are rescaled to the same de-flake treatment PR 7 gave rpc.
    """
    ops = 3_000 if quick else 8_000
    cluster, kernels = _lite_pair()
    ctx = LiteContext(kernels[0], "bench", kernel_level=True)
    holder = {}

    def setup():
        holder["lh"] = yield from ctx.lt_malloc(8 * MB, nodes=2)

    cluster.run_process(setup())
    lh = holder["lh"]
    payload = bytes(1 * MB)

    def driver():
        for index in range(ops):
            if index & 1:
                yield from ctx.lt_read(lh, 0, 1 * MB)
            else:
                yield from ctx.lt_write(lh, 0, payload)

    wall, sim_us, events = _timed_run(cluster, driver())
    return {"ops": ops, "wall_s": wall, "sim_us": sim_us, "events": events}


def mix_rpc(quick: bool) -> dict:
    """RPC echo mix: 512 B calls through the write-imm ring."""
    ops = 1_500 if quick else 5_000
    cluster, kernels = _lite_pair()
    client = LiteContext(kernels[0], "cli")
    server = LiteContext(kernels[1], "srv")
    cluster.sim.process(rpc_server_loop(server, 1, lambda data: data))
    payload = b"r" * 512

    def driver():
        yield cluster.sim.timeout(5)
        for _ in range(ops):
            yield from client.lt_rpc(2, 1, payload, max_reply=1024)

    wall, sim_us, events = _timed_run(cluster, driver())
    return {"ops": ops, "wall_s": wall, "sim_us": sim_us, "events": events}


def mix_cancel_storm(quick: bool) -> dict:
    """Timer cancel-storm: arm a far deadline, finish fast, cancel.

    The keep-alive / RPC-deadline pattern that motivated the scheduler
    overhaul: under lazy cancellation every dead timer used to sit in
    the heap until its distant expiry, so the heap grew without bound
    and every push/pop paid log(dead + live).  Uses only engine APIs so
    the same mix runs against older trees for a baseline.
    """
    rounds = 8_000 if quick else 25_000
    workers = 8
    cluster, _kernels = _lite_pair()
    sim = cluster.sim

    def worker():
        for _ in range(rounds):
            deadline = sim.timeout(10_000.0)
            yield sim.timeout(0.5)
            deadline.cancel()

    def driver():
        procs = [sim.process(worker()) for _ in range(workers)]
        for proc in procs:
            yield proc

    wall, sim_us, events = _timed_run(cluster, driver())
    return {
        "ops": rounds * workers,
        "wall_s": wall,
        "sim_us": sim_us,
        "events": events,
    }


def mix_crash_recovery(quick: bool) -> dict:
    """Crash-recovery mix: replicated writes through a seeded crash.

    A ``replicas=2`` LMR takes retry-wrapped 64 B writes/reads while
    its primary's node crashes and restarts — so the run times the
    whole lease/failover/rejoin/resync machinery, not just the happy
    path.  Reports the unavailability window and promotion time from
    the recovery layer's ``repro.obs`` histograms alongside the usual
    throughput numbers (extra keys are ignored by the compare gate).
    """
    from repro.core import LiteError
    from repro.fault import FaultInjector, FaultPlan
    from repro.recovery import RecoveryManager

    ops = 400 if quick else 2_000
    cluster, kernels = _lite_pair(3)
    sim = cluster.sim
    plan = FaultPlan().crash(1, 4000.0, restart_at_us=9000.0)
    injector = FaultInjector(cluster, plan)
    injector.install()
    injector.arm_lite(kernels, keepalive_interval_us=500.0, miss_limit=2)
    recovery = RecoveryManager(
        cluster, kernels, lease_ttl_us=1500.0,
        renew_interval_us=400.0, sweep_interval_us=300.0,
    ).arm()
    ctx = LiteContext(kernels[0], "bench", kernel_level=True)
    holder = {}

    def setup():
        holder["lh"] = yield from ctx.lt_malloc(
            256 * KB, nodes=2, replicas=2
        )

    cluster.run_process(setup())
    lh = holder["lh"]
    payload = b"x" * 64

    def driver():
        for index in range(ops):
            offset = (index * 64) % (256 * KB)
            for attempt in range(8):
                try:
                    if index & 1:
                        yield from ctx.lt_read(lh, offset, 64)
                    else:
                        yield from ctx.lt_write(lh, offset, payload)
                    break
                except LiteError:
                    yield sim.timeout(300.0 * (attempt + 1))
            yield sim.timeout(10.0)
        # Settle past the restart so rejoin + resync are in the timing.
        if sim.now < 14000.0:
            yield sim.timeout(14000.0 - sim.now)
        recovery.stop()

    wall, sim_us, events = _timed_run(cluster, driver())
    unavail = recovery.metrics.histogram("recovery.unavailability_us")
    promo = recovery.metrics.histogram("recovery.promotion_us")
    return {
        "ops": ops,
        "wall_s": wall,
        "sim_us": sim_us,
        "events": events,
        "promotions": recovery.promotions,
        "rejoins": recovery.rejoins,
        "unavailability_p50_us": unavail.snapshot().percentile(50),
        "unavailability_p99_us": unavail.snapshot().percentile(99),
        "promotion_p99_us": promo.snapshot().percentile(99),
    }


def mix_churn(quick: bool) -> dict:
    """Elastic-churn control-plane mix: short-lived pooled sessions.

    Drives the INTERNALS §15 scenario end to end — seeded client
    arrivals, QP-pool lease grant/renew/expire (every 5th client
    abandons so the sweeper works too), lazy MR registration, and the
    occasional cold bring-up when arrivals overlap past the reserve.
    Times the *control plane*: the per-op payloads are small on
    purpose.  The extra keys (hit/miss split, median time-to-first-op
    per lease source) are informational; the compare gate only reads
    events/s.
    """
    from repro.workloads.churn import run_churn

    clients = 150 if quick else 600
    cluster, kernels = _lite_pair()
    sim = cluster.sim
    seq_before = sim._seq
    start = time.perf_counter()
    stats = run_churn(
        cluster, kernels, n_clients=clients, seed=0,
        ops_per_client=4, mean_gap_us=10.0, abandon_every=5,
    )
    wall = time.perf_counter() - start
    return {
        "ops": stats.ops_ok + stats.ops_failed,
        "wall_s": wall,
        "sim_us": sim.now,
        "events": sim._seq - seq_before,
        "hits": stats.hits,
        "misses": stats.misses,
        "ttfo_hit_med_us": stats.median_ttfo("hit"),
        "ttfo_cold_med_us": stats.median_ttfo("cold"),
        "expiries": stats.expiries,
    }


MIXES = {
    "small_ops": mix_small_ops,
    "large_msg": mix_large_msg,
    "rpc": mix_rpc,
    "cancel_storm": mix_cancel_storm,
    "crash_recovery": mix_crash_recovery,
    "churn": mix_churn,
}


def trace_overhead(quick: bool, repeats: int = 5) -> dict:
    """Cost of the observability layer on the small-ops mix.

    Three variants of the same run: ``baseline`` (no tracer, the normal
    fast path), ``disabled`` (install_tracer under a flipped kill
    switch — must be a no-op), and ``traced`` (full span recording).
    Wall times are min-of-N with the variants interleaved; simulated
    time must be bit-identical across all three (tracing never
    schedules events), and the disabled variant must stay within 5% of
    baseline wall clock.  Traced overhead is reported, not asserted.
    """
    from repro.obs import install_tracer, set_enabled

    ops = 2_000 if quick else 12_000

    def one_run(mode: str):
        cluster, kernels = _lite_pair()
        ctx = LiteContext(kernels[0], "bench", kernel_level=True)
        holder = {}

        def setup():
            holder["lh"] = yield from ctx.lt_malloc(1 * MB, nodes=2)

        cluster.run_process(setup())
        lh = holder["lh"]
        payload = b"x" * 64
        if mode == "disabled":
            set_enabled(False)
            try:
                assert install_tracer(cluster) is None
            finally:
                set_enabled(True)
        elif mode == "traced":
            install_tracer(cluster)

        def driver():
            for index in range(ops):
                if index & 1:
                    yield from ctx.lt_read(lh, 0, 64)
                else:
                    yield from ctx.lt_write(lh, 0, payload)

        wall, sim_us, _events = _timed_run(cluster, driver())
        return wall, sim_us

    modes = ("baseline", "disabled", "traced")
    walls = {mode: [] for mode in modes}
    sims = {}
    for _ in range(repeats):
        for mode in modes:
            wall, sim_us = one_run(mode)
            walls[mode].append(wall)
            sims.setdefault(mode, sim_us)
            assert sim_us == sims[mode], f"{mode} run not deterministic"

    assert sims["disabled"] == sims["baseline"], \
        "disabled tracer perturbed simulated time"
    assert sims["traced"] == sims["baseline"], \
        "tracing perturbed simulated time"

    best = {mode: min(walls[mode]) for mode in modes}
    off_ratio = best["disabled"] / best["baseline"]
    on_ratio = best["traced"] / best["baseline"]
    print(f"  trace-overhead ({ops} ops, min of {repeats}):")
    print(f"    baseline  {best['baseline']:.3f} s")
    print(f"    disabled  {best['disabled']:.3f} s  ({off_ratio:.3f}x)")
    print(f"    traced    {best['traced']:.3f} s  ({on_ratio:.3f}x)")
    print(f"    sim time identical across variants: {sims['baseline']:.3f} us")
    assert off_ratio < 1.05, \
        f"tracing-off overhead {off_ratio:.3f}x exceeds the 5% budget"
    return {
        "ops": ops,
        "wall_s": best,
        "off_ratio": off_ratio,
        "on_ratio": on_ratio,
        "sim_us": sims["baseline"],
    }


def _sweep_point(ops: int) -> dict:
    """One figure-sweep point: a self-contained RPC sim, fully
    deterministic output (simulated time + event count, no wall clock).
    Module-level so the parallel runner can pickle it."""
    cluster, kernels = _lite_pair()
    client = LiteContext(kernels[0], "cli")
    server = LiteContext(kernels[1], "srv")
    cluster.sim.process(rpc_server_loop(server, 1, lambda data: data))
    payload = b"s" * 256

    def driver():
        yield cluster.sim.timeout(5)
        for _ in range(ops):
            yield from client.lt_rpc(2, 1, payload, max_reply=1024)

    cluster.run_process(driver())
    return {"ops": ops, "sim_us": cluster.sim.now, "events": cluster.sim._seq}


def sweep_timing(quick: bool, jobs: int) -> dict:
    """Serial vs parallel wall clock for a figure-style sweep.

    Byte-identity of the per-point results is asserted, not sampled:
    the parallel runner must be a pure wall-clock optimization.
    """
    from repro.sweep import run_sweep

    points = [120, 160, 200, 240] if quick else [400, 500, 600, 700, 800]
    start = time.perf_counter()
    serial = run_sweep(_sweep_point, points, jobs=1)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(_sweep_point, points, jobs=jobs)
    parallel_wall = time.perf_counter() - start
    identical = json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)
    assert identical, "parallel sweep diverged from serial results"
    speedup = serial_wall / parallel_wall
    print(f"  sweep ({len(points)} points): serial {serial_wall:.3f} s, "
          f"--jobs {jobs} {parallel_wall:.3f} s ({speedup:.2f}x), "
          f"results byte-identical")
    return {
        "points": points,
        "jobs": jobs,
        "host_cpus": os.cpu_count(),
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "speedup": speedup,
        "identical": identical,
    }


def compare_gate(results: dict, reference_path: str,
                 budget: float = 0.20, rss_budget: float = 0.25) -> int:
    """Regression gate: events/s must stay within ``budget`` of the
    reference entry for every shared mix, and ``peak_rss_kb`` must not
    grow more than ``rss_budget``.  Returns a shell exit code.

    Quick runs compare against a quick reference (``current_quick``):
    op counts differ by ~5x between modes, so fixed setup costs make
    cross-mode events/s incomparable.  A failing mix prints the
    events/s spread it measured across the gate passes so a flaky host
    (spread near the budget) is distinguishable from a real regression
    (spread small, ratio bad) straight from the CI log.
    """
    try:
        with open(reference_path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"  compare: cannot read {reference_path}: {exc}")
        return 1
    key = "current_quick" if results.get("quick") else "current"
    reference = doc.get(key) or doc.get("current") or {}
    if reference.get("quick", False) != results.get("quick", False):
        print(f"  compare: warning — reference '{key}' mode differs "
              f"from this run; ratios may be skewed")
    failed = False
    for name in MIXES:
        ref = reference.get(name)
        cur = results.get(name)
        if not ref or not cur or "events_per_s" not in ref:
            print(f"  compare[{name}]: no reference, skipped")
            continue
        ratio = cur["events_per_s"] / ref["events_per_s"]
        verdict = "ok" if ratio >= 1.0 - budget else "REGRESSION"
        if verdict != "ok" and "events_per_s_best" in cur:
            # A real regression slows *every* pass; when the median
            # misses the budget but the best pass clears it, the run
            # was fighting a co-tenant burst, not a code change.
            best_ratio = cur["events_per_s_best"] / ref["events_per_s"]
            if best_ratio >= 1.0 - budget:
                verdict = "ok (median low, best pass clears — host noise)"
        spread = cur.get("events_per_s_spread")
        detail = "" if spread is None or verdict == "ok" else \
            f" [measured spread {spread:.2f} across gate passes]"
        print(f"  compare[{name}]: {ratio:.2f}x of reference "
              f"({cur['events_per_s']:,.0f} vs {ref['events_per_s']:,.0f} "
              f"events/s) {verdict}{detail}")
        failed |= not verdict.startswith("ok")
        # Per-mix RSS marks localize where a leak — e.g. an unbounded
        # plan memo — first moves the needle.  Informational only: the
        # marks are process-lifetime high-water values, so in the
        # multi-pass gate below they inherit earlier passes' peaks and
        # can't be compared 1:1 against a single-pass reference.  The
        # *global* peak_rss_kb gate underneath is the failure mechanism
        # — a real leak compounds across every gate pass and trips it.
        if ref.get("peak_rss_kb") and cur.get("peak_rss_kb"):
            mix_growth = cur["peak_rss_kb"] / ref["peak_rss_kb"] - 1.0
            if mix_growth > rss_budget:
                print(f"  compare[{name}.peak_rss_kb]: "
                      f"{cur['peak_rss_kb']:,} vs {ref['peak_rss_kb']:,} KB "
                      f"({mix_growth:+.1%}) — growth first visible here "
                      f"(info; the global peak_rss_kb gate decides)")
    ref_rss = reference.get("peak_rss_kb")
    cur_rss = results.get("peak_rss_kb")
    if ref_rss and cur_rss:
        growth = cur_rss / ref_rss - 1.0
        verdict = "ok" if growth <= rss_budget else "REGRESSION"
        print(f"  compare[peak_rss_kb]: {cur_rss:,} vs {ref_rss:,} KB "
              f"({growth:+.1%}) {verdict}")
        failed |= verdict != "ok"
    else:
        print("  compare[peak_rss_kb]: no reference, skipped")
    if failed:
        print(f"  compare: FAILED (events/s dropped more than "
              f"{budget:.0%}, or peak RSS grew more than "
              f"{rss_budget:.0%}, vs {reference_path})")
        return 1
    print("  compare: passed")
    return 0


def profile_mix(name: str, quick: bool) -> None:
    """cProfile one mix and print the top 25 functions by cumulative time.

    Ties are broken by (file, line, name) so two runs of the same build
    print rows in the same order — diffs between profiles are then real
    movement, not sort jitter.
    """
    import cProfile
    import pstats

    fn = MIXES[name]
    profiler = cProfile.Profile()
    profiler.enable()
    sample = fn(quick)
    profiler.disable()
    print(f"bench: profile mix={name} quick={quick} "
          f"wall={sample['wall_s']:.3f} s events={sample['events']}")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative", "name")
    stats.print_stats(25)


def _fp_totals():
    """(commits, attempts, declines by reason) over every fast entry."""
    if fp_stats is None:
        return None
    return (fp_stats.commits + fp_stats.vec_commits + fp_stats.chain_commits,
            fp_stats.attempts + fp_stats.vec_attempts
            + fp_stats.chain_attempts,
            dict(getattr(fp_stats, "declines", {})))


def _fp_summary(before, after) -> str:
    """One mix's commit ratio and most frequent decline reason."""
    if before is None:
        return ""
    commits = after[0] - before[0]
    attempts = after[1] - before[1]
    if not attempts:
        return ", fast path not attempted"
    text = f", {commits / attempts:.1%} fast commits"
    declines = {reason: count - before[2].get(reason, 0)
                for reason, count in after[2].items()}
    top = max(declines, key=declines.get, default=None)
    if top is not None and declines[top]:
        share = declines[top] / (attempts - commits)
        text += f", top decline {top} {share:.0%}"
    return text


def run_all(quick: bool) -> dict:
    results = {}
    for name, fn in MIXES.items():
        fp_before = _fp_totals()
        sample = fn(quick)
        fp_note = _fp_summary(fp_before, _fp_totals())
        sample["ops_per_s"] = sample["ops"] / sample["wall_s"]
        sample["events_per_s"] = sample["events"] / sample["wall_s"]
        # RSS high-water mark after each mix.  ru_maxrss is a process-
        # lifetime maximum, so the series is cumulative — but comparing
        # it mix-by-mix against the reference localizes where growth
        # first appears (e.g. the vectorized plan memo leaking under
        # large_msg moves that mix's mark, not only the end-of-run
        # total where it could hide behind later mixes' noise).
        sample["peak_rss_kb"] = _peak_rss_kb()
        results[name] = sample
        print(
            f"  {name:>10}: {sample['ops']:>6} ops in {sample['wall_s']:.3f} s "
            f"({sample['ops_per_s']:,.0f} ops/s, "
            f"{sample['events_per_s']:,.0f} events/s{fp_note})"
        )
    results["peak_rss_kb"] = _peak_rss_kb()
    print(f"  peak RSS: {results['peak_rss_kb']:,} KB")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small op counts (CI smoke run)")
    parser.add_argument("--label", default="current",
                        help="key to record results under (default: current)")
    parser.add_argument("--out", default=os.path.join(_ROOT, "BENCH_pr10.json"),
                        help="JSON results file (merged, not overwritten)")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="measure observability-layer overhead only "
                             "(asserts tracing-off stays within 5%%)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="also time the figure-sweep runner serial vs "
                             "N workers (asserts identical results)")
    parser.add_argument("--compare", metavar="FILE",
                        help="regression gate: exit 1 if any mix's events/s "
                             "falls >20%% below FILE's 'current' entry or "
                             "peak RSS grows >25%% over it")
    parser.add_argument("--profile", metavar="MIX", choices=sorted(MIXES),
                        help="cProfile one mix and print the top 25 "
                             "functions by cumulative time, then exit")
    args = parser.parse_args(argv)

    if args.profile:
        profile_mix(args.profile, args.quick)
        return 0

    if args.trace_overhead:
        print(f"bench: trace-overhead quick={args.quick}")
        trace_overhead(args.quick)
        return 0

    print(f"bench: label={args.label} quick={args.quick}")
    results = run_all(args.quick)
    if args.compare:
        # Gate on the median of 5 passes so noisy samples can't fail CI
        # in either direction (best-of-N would let one lucky sample
        # mask a real regression; the median tolerates two bad passes).
        # The first pass above is treated as pure warmup and discarded:
        # interpreter/allocator cold start makes it ~25% slower than
        # steady state.  The recorded spread is *trimmed* — top and
        # bottom pass dropped before measuring — so it reports
        # steady-state repeatability; a single co-tenant burst
        # otherwise shows a misleading 25% spread for a perfectly
        # healthy build.  The spread is kept in the JSON so a flaky
        # host is visible in the artifact.
        passes = 5
        print(f"bench: first pass was warmup; {passes} gate passes "
              f"(median of {passes})")
        samples = [run_all(args.quick) for _ in range(passes)]
        for name in MIXES:
            runs = sorted(
                (sample[name] for sample in samples),
                key=lambda run: run["events_per_s"],
            )
            rates = [run["events_per_s"] for run in runs]
            median = rates[len(rates) // 2]
            chosen = dict(runs[len(runs) // 2])
            inner = rates[1:-1] if len(rates) >= 3 else rates
            chosen["events_per_s_spread"] = (inner[-1] - inner[0]) / median
            chosen["events_per_s_best"] = rates[-1]
            results[name] = chosen
    results["quick"] = args.quick
    if args.jobs > 1:
        results["sweep"] = sweep_timing(args.quick, args.jobs)

    doc = {}
    if os.path.exists(args.out):
        try:
            with open(args.out) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = {}
    doc[args.label] = results
    base, cur = doc.get("baseline"), doc.get("current")
    if base and cur:
        speedups = {}
        for name in MIXES:
            if name in base and name in cur:
                speedups[name] = base[name]["wall_s"] / cur[name]["wall_s"]
        doc["speedup"] = speedups
        for name, factor in speedups.items():
            print(f"  speedup[{name}]: {factor:.2f}x")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.compare:
        return compare_gate(results, args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
