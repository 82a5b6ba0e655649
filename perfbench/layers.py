"""Per-layer attribution of a traced run, and the per-layer metrics.

Host time: a cProfile run of the measured phase gives every function's
self time.  A function defined in the program is charged to the layer
that owns its module (``LAYER_OF_MODULE``); the benchmark's own code is
``bench``.  Self time of the standard library and of built-ins has no
layer of its own, so it is charged to the layers of its callers, split
by the time each call edge took.  Layer shares of the profile are then
scaled to the untraced run's host time per op, so the layer figures add
up to ``1e6 / host_ops_per_s`` rather than to the inflated profiled
time.

Everything else is a program counter read over the untraced run's
measured phase (see ``workloads.counter_snapshot``).
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from workloads import CPU_TAGS, percentile

import repro

_PROGRAM = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH = os.path.dirname(os.path.abspath(__file__)) + os.sep

# Program packages (relative to src/repro/) and their layers; first
# match wins, so the more specific prefix comes first.
LAYER_OF_MODULE = (
    ("verbs/fastpath", "fastpath"),
    ("sim/", "sim"),
    ("verbs/", "verbs"),
    ("hw/", "hw"),
    ("core/", "core"),
    ("apps/", "apps"),
    ("cluster/", "cluster"),
    ("recovery/", "recovery"),
    ("fault/", "fault"),
    ("obs/", "obs"),
)

HOST_LAYERS = ("sim", "fastpath", "verbs", "hw", "core", "apps", "cluster",
               "recovery", "fault", "obs", "other", "bench")


def layer_of(filename: str):
    """The layer owning a source file, or None outside program/benchmark."""
    if filename.startswith(_BENCH):
        return "bench"
    if not filename.startswith(_PROGRAM):
        return None
    module = filename[len(_PROGRAM):].replace(os.sep, "/")
    for prefix, layer in LAYER_OF_MODULE:
        if module.startswith(prefix):
            return layer
    return "other"


def attribute(profile: dict) -> dict:
    """Self seconds per layer from ``pstats.Stats(...).stats``."""
    memo = {}

    def mix(func, visiting):
        """Layer weights of the code on whose behalf ``func`` ran."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting or func not in profile:
            return {"other": 1.0}
        visiting = visiting | {func}
        callers = profile[func][4]
        total = sum(edge[3] for edge in callers.values())
        weights = defaultdict(float)
        for caller, edge in callers.items():
            share = edge[3] / total if total else 1.0 / len(callers)
            for layer, weight in mix(caller, visiting).items():
                weights[layer] += share * weight
        result = dict(weights) or {"other": 1.0}
        memo[func] = result
        return result

    self_s = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, callers) in profile.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tottime
            continue
        if not callers:
            self_s["other"] += tottime
            continue
        for caller, edge in callers.items():
            for owner, weight in mix(caller, {func}).items():
                self_s[owner] += edge[2] * weight
    return dict(self_s)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(untraced, traced) -> dict:
    """Every per-layer metric, from untraced reps and one traced rep."""
    rep = untraced[0]
    c = rep.counters
    ops = rep.ops
    run_s = statistics.median(r.run_s for r in untraced)
    host_us_per_op = run_s / ops * 1e6
    self_s = attribute(traced.profile)
    total = sum(self_s.values())
    out = {}
    for layer in HOST_LAYERS:
        share = _ratio(self_s.get(layer, 0.0), total)
        out[f"{layer}.host_us_per_op"] = (share * host_us_per_op, "us")
    out["trace.overhead"] = (traced.run_s / run_s, "ratio")

    events = c["sim.events"]
    out["sim.events_per_op"] = (events / ops, "count")
    out["sim.host_ns_per_event"] = (run_s / events * 1e9, "ns")

    commits = c["fp.commits"] + c["fp.vec_commits"] + c["fp.chain_commits"]
    attempts = (c["fp.attempts"] + c["fp.vec_attempts"]
                + c["fp.chain_attempts"])
    out["fastpath.commit_ratio"] = (_ratio(commits, attempts), "ratio")
    out["fastpath.plan_hit_ratio"] = (
        _ratio(c["fp.plan_hits"], c["fp.plan_hits"] + c["fp.plan_builds"]),
        "ratio")
    out["fastpath.mismodels"] = (c["fp.mismodels"], "count")

    out["verbs.wqes_per_op"] = (c["rnic.wqes"] / ops, "count")
    out["rnic.qp_miss_ratio"] = (
        _ratio(c["rnic.qp_misses"], c["rnic.qp_misses"] + c["rnic.qp_hits"]),
        "ratio")
    out["fabric.bytes_per_op"] = (c["fabric.bytes"] / ops, "B")
    out["fabric.max_port_util"] = (c["port.max_util"], "ratio")
    for tag in CPU_TAGS:
        out[f"cpu.busy_us_per_op.{tag}"] = (c["cpu." + tag] / ops, "us")

    out["rpc.calls_per_op"] = (c["rpc.calls"] / ops, "count")
    out["rpc.calls_retried"] = (c["rpc.retried"], "count")
    out["rpc.replies_dropped"] = (c["rpc.dropped"], "count")
    out["kernel.ctrl_retries"] = (traced.counters["kernel.ctrl_retries"],
                                  "count")

    gets = c.get("kv.gets", 0)
    out["kv.onesided_ratio"] = (_ratio(c.get("kv.onesided", 0), gets),
                                "ratio")
    out["kv.lookups_per_get"] = (_ratio(c.get("kv.lookups", 0), gets),
                                 "count")
    out["kv.validation_retries_per_get"] = (
        _ratio(c.get("kv.validation_retries", 0), gets), "count")

    out["qp_pool.hit_ratio"] = (
        _ratio(c.get("qp_pool.hits", 0),
               c.get("qp_pool.hits", 0) + c.get("qp_pool.misses", 0)),
        "ratio")
    out["qp_pool.fenced_discards"] = (c.get("qp_pool.fenced_discards", 0),
                                      "count")
    out["qp_pool.expiries"] = (c.get("qp_pool.expiries", 0), "count")

    out["recovery.promotions"] = (c.get("recovery.promotions", 0), "count")
    out["recovery.rejoins"] = (c.get("recovery.rejoins", 0), "count")
    extra = rep.extra
    out["recovery.promotion_p50_us"] = (
        percentile(extra.get("promotion", []), 50), "us")
    out["fault.crashes"] = (c.get("fault.crashes", 0), "count")

    out["ttfo_p50_us"] = (percentile(extra.get("ttfo", []), 50), "us")
    out["ttfo_p99_us"] = (percentile(extra.get("ttfo", []), 99), "us")
    out["unavail_p50_us"] = (percentile(extra.get("unavail", []), 50), "us")
    out["fail_ratio"] = (_ratio(rep.failed, rep.attempted), "ratio")
    return out
