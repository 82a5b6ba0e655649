"""The benchmark's three workloads, each one repetition at a time.

A workload turns a seed into inputs once (``make_inputs``), before any
timing, and then runs repetitions (``run_rep``).  A repetition builds a
fresh cluster from rewound id counters, so every repetition of one seed
in one process replays the same simulation.  Each returns a
:class:`Rep`: host set-up and run time, the simulated per-op latencies,
counter deltas over the measured phase, and every output-check failure.

The program only ever sees the generated inputs; all checks compare its
outputs with a shadow copy kept by the benchmark.
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats
import random
import time
from collections import defaultdict

from repro.apps.kvstore import LiteKVClient, LiteKVServer
from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, lite_boot
from repro.core.api import ClientSession
from repro.core.lmr import ChunkInfo, MappedLmr
from repro.core.protocol import MsgType
from repro.determinism import reset_global_counters
from repro.fault import FaultInjector, FaultPlan
from repro.hw.fabric import TransferDropped
from repro.recovery import RecoveryManager
from repro.verbs.fastpath import fp_stats
from repro.workloads import FacebookKV, ZipfSampler

KB = 1024
MB = 1024 * KB

# CPU ledger tags reported one by one; every other tag is summed into
# "other".  Per-principal "lite-user:<name>" tags fold into "lite-user".
CPU_TAGS = ("lite-user", "lite-poll", "lite-post", "lite-meta",
            "lite-rpc-recv", "lite-rpc-reply", "qp-bringup", "qp-pool",
            "other")

_FP_FIELDS = ("attempts", "commits", "vec_attempts", "vec_commits",
              "chain_attempts", "chain_commits", "plan_builds",
              "plan_hits", "mismodels")


class Rep:
    """Outcome of one repetition of a workload."""

    def __init__(self):
        self.setup_s = 0.0
        self.run_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies = []          # simulated µs per completed op
        self.sim_us = 0.0            # simulated length of the run phase
        self.counters = {}           # counter deltas over the run phase
        self.extra = {}              # workload-specific samples
        self.errors = []             # output-check failures
        self.digest = ""
        self.profile = None          # cProfile stats of a traced run

    @property
    def ops(self) -> int:
        return len(self.latencies)


def percentile(samples, p):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, -(-len(ordered) * p // 100)) - 1]


def _cpu_tag(tag: str) -> str:
    if tag.startswith("lite-user"):
        return "lite-user"
    return tag if tag in CPU_TAGS else "other"


def counter_snapshot(cluster, kernels) -> dict:
    """Every program counter the per-layer metrics read, as one flat dict."""
    snap = {"sim.events": cluster.sim._seq, "sim.now": cluster.sim.now}
    for field in _FP_FIELDS:
        snap["fp." + field] = getattr(fp_stats, field)
    fabric = cluster.fabric
    snap["fabric.bytes"] = fabric.total_bytes
    cpu = defaultdict(float)
    for node in cluster.nodes:
        rnic = node.rnic
        snap[f"rnic.wqes.{node.node_id}"] = rnic.wqe_count
        snap[f"rnic.qp_hits.{node.node_id}"] = rnic.qp_cache.stats.hits
        snap[f"rnic.qp_misses.{node.node_id}"] = rnic.qp_cache.stats.misses
        port = fabric.ports[node.node_id]
        snap[f"port.tx.{node.node_id}"] = port.tx_bytes
        snap[f"port.rx.{node.node_id}"] = port.rx_bytes
        for tag, busy in node.cpu.busy_time.items():
            cpu[_cpu_tag(tag)] += busy
    for tag in CPU_TAGS:
        snap["cpu." + tag] = cpu[tag]
    for kernel in kernels:
        rpc = kernel.rpc
        lid = kernel.lite_id
        snap[f"rpc.calls.{lid}"] = rpc.calls_sent
        snap[f"rpc.retried.{lid}"] = rpc.calls_retried
        snap[f"rpc.dropped.{lid}"] = rpc.replies_dropped
    return snap


def counter_delta(before: dict, after: dict) -> dict:
    """Per-layer counter totals over a phase (sums over nodes)."""
    diff = {key: after[key] - before.get(key, 0) for key in after}
    out = defaultdict(float)
    for key, value in diff.items():
        parts = key.split(".")
        if parts[0] in ("rnic", "port", "rpc"):
            out[".".join(parts[:2])] += value
            if parts[0] == "port":
                out["port.max"] = max(out["port.max"], value)
        else:
            out[key] = value
    return dict(out)


def _digest(cluster, latencies) -> str:
    """Deterministic fingerprint: final sim time, event seq, latencies."""
    sha = hashlib.sha256()
    sha.update(repr((cluster.sim.now, cluster.sim._seq)).encode())
    sha.update(repr(latencies).encode())
    return sha.hexdigest()[:16]


def _begin(n_nodes):
    """Fresh cluster from rewound global ids and zeroed fast-path stats."""
    reset_global_counters()
    fp_stats.reset()
    cluster = Cluster(n_nodes)
    kernels = lite_boot(cluster)
    return cluster, kernels


def _count_ctrl_resends(kernels) -> list:
    """Wrap each kernel's ctrl_send to count same-token request resends.

    The kernel keeps no such counter (``LiteKernel.ctrl_retries`` is the
    retry budget), so the traced run counts them at the call boundary.
    """
    seen = set()
    resends = [0]
    for kernel in kernels:
        def counted(dst, msg, *args, _send=kernel.ctrl_send, **kwargs):
            if msg.get("type") != MsgType.REPLY and "tok" in msg:
                key = (msg.get("src"), msg["tok"])
                if key in seen:
                    resends[0] += 1
                seen.add(key)
            return _send(dst, msg, *args, **kwargs)
        kernel.ctrl_send = counted
    return resends


def _measure(rep, cluster, kernels, driver, trace):
    """Run ``driver`` as the measured phase, recording host/sim deltas.

    With ``trace`` the phase runs under cProfile (kept as ``rep.profile``)
    and control-request resends are counted; neither touches simulated
    state, so the digest must match the untraced run's.
    """
    resends = _count_ctrl_resends(kernels) if trace else None
    profiler = cProfile.Profile() if trace else None
    before = counter_snapshot(cluster, kernels)
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        cluster.run_process(driver)
    finally:
        if profiler is not None:
            profiler.disable()
    rep.run_s = time.perf_counter() - start
    rep.counters = counter_delta(before, counter_snapshot(cluster, kernels))
    rep.sim_us = rep.counters["sim.now"]
    capacity = cluster.params.link_bandwidth_bytes_per_us * rep.sim_us
    rep.counters["port.max_util"] = rep.counters["port.max"] / capacity
    if trace:
        rep.profile = pstats.Stats(profiler).stats
        rep.counters["kernel.ctrl_retries"] = resends[0]


# ---------------------------------------------------------------------------
# kv_etc: the paper's motivating KV store under the Facebook ETC pool
# ---------------------------------------------------------------------------

class KvEtc:
    """Two LiteKVServer shards, eight closed-loop LiteKVClient coroutines.

    PUTs are LT_RPCs, GETs one-sided LT_reads after a location lookup;
    Zipf(0.99) keys make clients race on hot keys.  Every GET result is
    checked against the shadow history of PUTs (see ``_ShadowKv``).
    """

    name = "kv_etc"
    n_keys = 2000
    n_clients = 8
    ops_per_client = 1500
    get_ratio = 0.9

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        sizes = FacebookKV(seed=rng.randrange(1 << 30))
        keys = []
        for index in range(self.n_keys):
            stem = f"user:{index}:".encode()
            keys.append(stem.ljust(sizes.key_size(), b"k"))
        preload = [rng.randbytes(sizes.value_size()) for _ in keys]
        zipf = ZipfSampler(self.n_keys, s=0.99,
                           rng=random.Random(rng.randrange(1 << 30)))
        # Exactly get_ratio GETs per client, in seeded order: the mix
        # itself does not vary between seeds, only which ops are PUTs.
        n_puts = round(self.ops_per_client * (1 - self.get_ratio))
        streams = []
        for _ in range(self.n_clients):
            puts = set(rng.sample(range(self.ops_per_client), n_puts))
            ops = []
            for index in range(self.ops_per_client):
                key = zipf.sample()
                if index in puts:
                    ops.append((key, rng.randbytes(sizes.value_size())))
                else:
                    ops.append((key, None))
            streams.append(ops)
        return {"keys": keys, "preload": preload, "streams": streams}

    def run_rep(self, inputs: dict, trace: bool = False) -> Rep:
        rep = Rep()
        keys = inputs["keys"]
        t0 = time.perf_counter()
        cluster, kernels = _begin(4)
        sim = cluster.sim
        servers = [LiteKVServer(kernels[2], 0), LiteKVServer(kernels[3], 1)]
        clients = [LiteKVClient(kernels[index % 2], servers,
                                principal=f"kv{index}")
                   for index in range(self.n_clients)]
        shadow = _ShadowKv(sim)

        def preload(client, indices):
            for index in indices:
                yield from client.put(keys[index], inputs["preload"][index])
                shadow.preloaded(index, inputs["preload"][index])

        def setup():
            for server in servers:
                yield from server.start()
            procs = [sim.process(preload(client, range(i, self.n_keys,
                                                       self.n_clients)))
                     for i, client in enumerate(clients)]
            yield sim.all_of(procs)

        cluster.run_process(setup())
        rep.setup_s = time.perf_counter() - t0

        latencies = rep.latencies
        gets = [0]
        fallbacks = [0]

        def client_loop(client, stream):
            for index, value in stream:
                key = keys[index]
                due = sim.now
                rep.attempted += 1
                if value is None:
                    gets[0] += 1
                    reader = shadow.start_get()
                    got = yield from client.get(key)
                    if got is None:
                        fallbacks[0] += 1
                    elif not shadow.check_get(index, reader, got):
                        rep.errors.append(
                            f"GET {key!r} returned {len(got)} bytes matching "
                            f"no acknowledged or in-flight PUT")
                else:
                    entry = shadow.start_put(index, value)
                    yield from client.put(key, value)
                    shadow.acked(index, entry)
                latencies.append(sim.now - due)

        def driver():
            procs = [sim.process(client_loop(client, stream))
                     for client, stream in zip(clients, inputs["streams"])]
            yield sim.all_of(procs)

        _measure(rep, cluster, kernels, driver(), trace)
        rep.counters["kv.gets"] = gets[0]
        rep.counters["kv.onesided"] = sum(c.onesided_gets for c in clients)
        rep.counters["kv.lookups"] = sum(c.rpc_lookups for c in clients)
        rep.counters["kv.validation_retries"] = sum(
            c.validation_retries for c in clients)
        rep.counters["kv.fallbacks"] = fallbacks[0]
        rep.digest = _digest(cluster, latencies)
        return rep


class _ShadowKv:
    """Which values a GET may legally return, from the PUT history.

    A PUT P is superseded at time t once some PUT Q to the same key was
    issued after P was acknowledged and Q itself was acknowledged before
    t.  A GET that started at t may return the value of any PUT to its
    key not superseded at t, so either side of a PUT/GET race passes,
    but bytes no PUT wrote, or a value overwritten before the GET
    began, fail the check.
    """

    def __init__(self, sim):
        self.sim = sim
        self._history = defaultdict(list)   # key -> [[issued, acked, value]]
        self._open_gets = {}                # reader id -> start time
        self._readers = 0

    @staticmethod
    def _superseded(entry, history, at) -> bool:
        return entry[1] is not None and any(
            other[1] is not None and other[1] < at and other[0] > entry[1]
            for other in history)

    def preloaded(self, key, value):
        self._history[key] = [[-1.0, -1.0, value]]

    def start_put(self, key, value):
        entry = [self.sim.now, None, value]
        self._history[key].append(entry)
        return entry

    def acked(self, key, entry):
        entry[1] = self.sim.now
        # Forget entries that no open or later GET may still return.
        horizon = min(self._open_gets.values(), default=self.sim.now)
        history = self._history[key]
        self._history[key] = [old for old in history
                              if not self._superseded(old, history, horizon)]

    def start_get(self):
        self._readers += 1
        self._open_gets[self._readers] = self.sim.now
        return self._readers

    def check_get(self, key, reader, got) -> bool:
        start = self._open_gets.pop(reader)
        history = self._history[key]
        return any(entry[2] == got
                   and not self._superseded(entry, history, start)
                   for entry in history)


# ---------------------------------------------------------------------------
# lmr_stream: one client streaming mixed-size ops over a striped LMR
# ---------------------------------------------------------------------------

class LmrStream:
    """50/50 lt_write/lt_read, 64 B..1 MB, random offsets in 32 MB.

    The LMR is striped over two remote nodes in 4 MB chunks, so larger
    ops cross chunk (and node) boundaries.  Payloads are random bytes;
    every read is compared with a shadow copy of the LMR.
    """

    name = "lmr_stream"
    lmr_bytes = 32 * MB
    sizes = (64, 512, 4 * KB, 64 * KB, 1 * MB)
    n_ops = 6000
    pool_bytes = 4 * MB

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        pool = rng.randbytes(self.pool_bytes)
        # Equal counts of every (kind, size class), shuffled, so runs
        # differ in order and offsets but not in the mix.  Each size is
        # its class size less up to an eighth: with one closed-loop
        # client every op of one exact size and kind takes the same
        # simulated time, so exact sizes would pin the tail percentiles
        # to one constant.
        deck = [(write, size) for write in (False, True)
                for size in self.sizes] * (self.n_ops // 10)
        rng.shuffle(deck)
        ops = []
        for write, size in deck:
            size -= rng.randrange(size // 8)
            offset = rng.randrange(self.lmr_bytes - size + 1)
            src = rng.randrange(self.pool_bytes - size + 1) if write else None
            ops.append((offset, size, src))
        return {"pool": pool, "ops": ops}

    def run_rep(self, inputs: dict, trace: bool = False) -> Rep:
        rep = Rep()
        shadow = bytearray(self.lmr_bytes)
        t0 = time.perf_counter()
        cluster, kernels = _begin(3)
        sim = cluster.sim
        ctx = LiteContext(kernels[0], "stream")
        holder = {}

        def setup():
            holder["lh"] = yield from ctx.lt_malloc(
                self.lmr_bytes, nodes=[2, 3])

        cluster.run_process(setup())
        rep.setup_s = time.perf_counter() - t0
        lh = holder["lh"]
        pool = memoryview(inputs["pool"])
        latencies = rep.latencies

        def driver():
            for offset, size, src in inputs["ops"]:
                due = sim.now
                rep.attempted += 1
                if src is None:
                    got = yield from ctx.lt_read(lh, offset, size)
                    if got != shadow[offset:offset + size]:
                        rep.errors.append(
                            f"read of {size} B at {offset} differs from "
                            f"the shadow buffer")
                else:
                    payload = pool[src:src + size]
                    yield from ctx.lt_write(lh, offset, payload)
                    shadow[offset:offset + size] = payload
                latencies.append(sim.now - due)

        _measure(rep, cluster, kernels, driver(), trace)
        rep.digest = _digest(cluster, latencies)
        return rep


# ---------------------------------------------------------------------------
# elastic_recovery: session churn and a replicated writer through crashes
# ---------------------------------------------------------------------------

# Lease / keep-alive timings (simulated µs), the recovery storm's values.
_LEASE_TTL = 1500.0
_RENEW = 400.0
_SWEEP = 300.0
_KEEPALIVE = 500.0


class ElasticRecovery:
    """Open-loop ClientSession arrivals plus a replicated-LMR writer,
    while the sessions' peer (also the LMR's first primary) crashes and
    restarts on a seeded schedule.

    LITE 1 runs the clients, LITE 2 is the peer, LITE 3 holds the LMR's
    backup copy.  Sessions attach to a reserve-2 QPPool, make four
    writes and detach; a failed op re-attaches and retries with backoff
    until it lands.  The writer issues 64 B writes on a fixed schedule
    to distinct offsets and retries each until acknowledged.  After the
    run the benchmark checks every acknowledged write on the primary
    and on every backup copy.
    """

    name = "elastic_recovery"
    replicated_writer = True
    n_sessions = 2400
    mean_gap_us = 25.0
    writes_per_session = 4
    writer_period_us = 50.0
    lmr_bytes = 256 * KB
    n_crashes = 9
    crash_cycle_us = 6000.0
    max_attempts = 12
    session_bytes = 1024

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        arrivals = []
        now = 200.0
        for _ in range(self.n_sessions):
            now += rng.uniform(0.2, 1.8) * self.mean_gap_us
            arrivals.append(now)
        # One crash per cycle at a seeded instant, each down ~2 ms:
        # long enough for the lease to expire and the backup to be
        # promoted, short of the next cycle so rejoin + resync finish.
        crashes = []
        for cycle in range(self.n_crashes):
            at = 1500.0 + cycle * self.crash_cycle_us + rng.uniform(0, 1500)
            crashes.append((at, at + rng.uniform(2000.0, 2050.0)))
        payloads = []
        if self.replicated_writer:
            n_writes = int(arrivals[-1] / self.writer_period_us)
            if n_writes * 64 > self.lmr_bytes:
                raise ValueError("the writer would reuse LMR offsets")
            payloads = [rng.randbytes(64) for _ in range(n_writes)]
        limit = 64 * KB - self.session_bytes   # the pool's scratch window
        sessions = []
        for _ in range(self.n_sessions):
            data = rng.randbytes(self.session_bytes)
            writes = [(rng.randrange(limit), rng.randint(64, len(data)))
                      for _ in range(self.writes_per_session)]
            # Linear backoff with seeded jitter: exact steps put the
            # retried ops on a few constants, and p99 jumped between them.
            backoff = [100.0 * (attempt + 1) * rng.uniform(0.5, 1.5)
                       for attempt in range(self.max_attempts)]
            sessions.append((data, writes, backoff))
        return {"arrivals": arrivals, "crashes": crashes,
                "payloads": payloads, "sessions": sessions}

    def run_rep(self, inputs: dict, trace: bool = False) -> Rep:
        rep = Rep()
        t0 = time.perf_counter()
        cluster, kernels = _begin(3)
        sim = cluster.sim
        src, peer = kernels[0], kernels[1]
        plan = FaultPlan()
        for at, restart in inputs["crashes"]:
            plan.crash(peer.node.node_id, at, restart_at_us=restart)
        injector = FaultInjector(cluster, plan).install()
        injector.arm_lite(kernels, keepalive_interval_us=_KEEPALIVE,
                          miss_limit=2)
        recovery = RecoveryManager(
            cluster, kernels, lease_ttl_us=_LEASE_TTL,
            renew_interval_us=_RENEW, sweep_interval_us=_SWEEP,
        ).arm()
        pool = src.qp_pool(peer.lite_id, reserve=2)
        writer_ctx = LiteContext(src, "writer", kernel_level=True)
        holder = {}

        def setup():
            if self.replicated_writer:
                holder["lh"] = yield from writer_ctx.lt_malloc(
                    self.lmr_bytes, name="elastic", nodes=2, replicas=1)
            pool.arm()
            yield from pool.prebuild()

        cluster.run_process(setup())
        rep.setup_s = time.perf_counter() - t0
        lh = holder.get("lh")
        t_start = sim.now
        latencies = rep.latencies
        ttfo = []
        committed = {}

        def drop(sess):
            if sess is None or sess.conn is None:
                return
            try:
                yield from sess.detach()
            except (LiteError, TransferDropped):
                pass

        def session(index, due):
            ctx = LiteContext(src, f"s{index}")
            data, writes, backoff = inputs["sessions"][index]
            sess = None
            first = True
            for offset, size in writes:
                rep.attempted += 1
                done = False
                for attempt in range(self.max_attempts):
                    try:
                        if sess is None:
                            sess = ClientSession(
                                ctx, peer.lite_id,
                                buffer_bytes=self.session_bytes)
                            yield from sess.attach()
                        status = yield from sess.write(data[:size], offset)
                        done = status.name == "SUCCESS"
                    except (LiteError, TransferDropped):
                        done = False
                    if done:
                        break
                    yield from drop(sess)
                    sess = None
                    yield sim.timeout(backoff[attempt])
                if not done:
                    rep.failed += 1
                    continue
                latencies.append(sim.now - due)
                if first:
                    ttfo.append(sim.now - due)
                    first = False
                due = sim.now
            yield from drop(sess)

        def writer(n_writes):
            for index in range(n_writes):
                due = index * self.writer_period_us + t_start
                if sim.now < due:
                    yield sim.timeout(due - sim.now)
                offset = index * 64
                value = inputs["payloads"][index]
                rep.attempted += 1
                for attempt in range(self.max_attempts):
                    try:
                        yield from writer_ctx.lt_write(lh, offset, value)
                    except LiteError:
                        yield sim.timeout(300.0 * (attempt + 1))
                        continue
                    committed[offset] = value
                    latencies.append(sim.now - due)
                    break
                else:
                    rep.failed += 1

        def driver():
            procs = []
            if self.replicated_writer:
                procs.append(sim.process(writer(len(inputs["payloads"]))))
            for index, arrival in enumerate(inputs["arrivals"]):
                at = t_start + arrival
                if sim.now < at:
                    yield sim.timeout(at - sim.now)
                procs.append(sim.process(session(index, at)))
            yield sim.all_of(procs)

        _measure(rep, cluster, kernels, driver(), trace)
        rep.digest = _digest(cluster, latencies)
        if self.replicated_writer:
            # Settle past the last restart so rejoin + resync complete,
            # then check every acknowledged write on the primary and on
            # each backup.
            last_restart = t_start + max(r for _, r in inputs["crashes"])
            rep.errors.extend(self._check(cluster, kernels, writer_ctx, lh,
                                          committed, last_restart))
        recovery.stop()
        pool.stop()
        if injector.crashes == 0:
            rep.errors.append("the fault plan never crashed the peer")
        # Each crash outlasts the lease, so each must end in a failover
        # and, after the restart, a rejoin.
        for what, count in (("failovers", recovery.promotions),
                            ("rejoins", recovery.rejoins)):
            if count != injector.crashes:
                rep.errors.append(f"{injector.crashes} crashes but "
                                  f"{count} {what}")
        rep.extra["ttfo"] = ttfo
        rep.extra["unavail"] = list(recovery.unavailability_samples)
        rep.extra["promotion"] = list(recovery.promotion_samples)
        rep.counters.update({
            "qp_pool.hits": pool.hits,
            "qp_pool.misses": pool.misses,
            "qp_pool.fenced_discards": pool.fenced_discards,
            "qp_pool.expiries": pool.expiries,
            "recovery.promotions": recovery.promotions,
            "recovery.rejoins": recovery.rejoins,
            "fault.crashes": injector.crashes,
        })
        return rep

    def _check(self, cluster, kernels, ctx, lh, committed, settle_at):
        sim = cluster.sim
        errors = []
        lmr_id = lh.mapping.lmr_id

        def check():
            wait = settle_at + 4 * _LEASE_TTL - sim.now
            if wait > 0:
                yield sim.timeout(wait)
            entry = cluster.manager.replicas[lmr_id]
            if entry["failed"] or entry["lost"]:
                errors.append(f"replica set did not heal: {entry['lost']}")
            image = yield from ctx.lt_read(lh, 0, self.lmr_bytes)
            copies = [("primary", image)]
            master = kernels[entry["master"] - 1]
            for backup_id in sorted(entry["backups"]):
                backup = MappedLmr(
                    0, "", entry["size"],
                    [ChunkInfo.from_wire(w)
                     for w in entry["backups"][backup_id]], 0)
                data = yield from master.onesided.read(
                    backup, 0, self.lmr_bytes)
                copies.append((f"backup {backup_id}", data))
            for where, data in copies:
                lost = sum(1 for offset, value in committed.items()
                           if data[offset:offset + len(value)] != value)
                if lost:
                    errors.append(f"{where} lost {lost} committed writes")

        cluster.run_process(check())
        return errors


class ElasticSessions(ElasticRecovery):
    """``elastic_recovery`` without the replicated-LMR writer: the same
    session arrivals, crash schedule, keep-alive and RecoveryManager.

    BENCHMARK.json lists this workload, not ``elastic_recovery``: the
    program fails the latter's committed-write check on most seeds (see
    NOTES.md), so its figures cannot serve as a yardstick until that is
    fixed.  ``elastic_recovery`` stays runnable with its full check.
    """

    name = "elastic_sessions"
    replicated_writer = False


WORKLOADS = {cls.name: cls for cls in (KvEtc, LmrStream, ElasticRecovery,
                                       ElasticSessions)}
