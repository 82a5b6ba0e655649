"""Run-to-completion fast paths for uncontended one- and two-sided ops.

The generator datapath walks ~10 frames per op (`api` → `kernel` → `qp`
→ `rnic` → `fabric`), each suspension costing a scheduler round trip —
even when nothing can actually block.  This module detects that
uncontended case at post time and executes the whole op as arithmetic:
the timeline every layer *would* produce is computed from a per-QP cost
table, the synchronous state transitions are applied immediately, and
the handful of transitions that land later (resource releases, the
responder-order event, CQE delivery) are scheduled as *batch dispatches*
on the engine's fast-path queue (`Simulator.fp_schedule`) — one callable
per distinct instant instead of one event per transition.

Two interpreters replay that timeline.  ``_commit_piece`` is the only
code that commits a single piece — signaled WRITE or READ, unsignaled
WRITE, unsignaled WRITE_IMM with or without fused delivery — and three
thin entries feed it: :func:`try_fast_post` (one LT_read/LT_write piece),
:func:`try_fast_chain` (one raw write of the RPC tri-post chain) and the
single-piece case of :func:`try_fast_post_vec`.  Multi-piece fan-outs
go through the vec entry's closed-form FIFO solver.  Admission is
shared as well: ``_admit`` holds the per-QP checks every entry runs, and
``_resolve_span`` the remote-span resolution.

Two-sided traffic fuses one step further: when a write-imm lands on a
LITE kernel whose batch==1 poller is parked on the destination CQ, the
receiver's poll iteration itself joins the chain.  The CQE bypasses the
CQ store (its delivery counters are replayed), the parked poller is
never resumed, and a final dispatch at the exact instant the poller's
discovery delay would have elapsed replays the iteration's CPU charges
and hands the CQE to the *real* ``kernel._dispatch_wc`` — from which
point request parsing, the ring-head advance, handler wakeup, and the
reply write all run the ordinary code (and the reply's own write-imm
can fuse again on the way back).  The cross-node cost chain is stamped
by both ends: the ``CostTable`` folds in both nodes' SimParams/RNIC
versions, and ``kernel.fp_rpc_gate`` checks the live server-ring
geometry (bound ring, in-bounds non-wrapping offset, live peer) per
commit.

Soundness rests on two pillars:

1. **Real holds.**  Every resource the op would occupy (SQ slot, QP
   window, both RNIC pipelines, the four port channels) is acquired with
   a real ``in_use`` increment at commit and released by a real
   ``release()`` at the exact instant the slow path would release it.
   A concurrent op that falls back to the generator path therefore
   queues and wakes exactly as it would against a slow holder.

2. **The horizon check.**  An op commits only when the now-queue is
   empty and no ordinary event is scheduled before the op's completion
   time (`Simulator.fp_horizon`).  Until the op finishes, the only
   actors in the simulation are this op's own batch dispatches and those
   of previously committed fast ops — so no third party can observe the
   (slightly widened) hold windows or the eagerly-applied counters.
   Every entry asks the engine's commit gate first,
   ``Simulator.fp_clear_after(now + doorbell)``: every completion lies
   at or after the doorbell instant, so a horizon at or before it
   dooms the op before any table, plan or timeline work, and the
   horizon the gate returns is reused for the final check.  Each
   fallback is counted by reason in ``fp_stats.declines``.

What still deviates, by design (all counter/LRU-state end-equivalent,
none timing-visible under the horizon check; see INTERNALS §13):
cache recency is replayed at commit time rather than at the lookup
instants, and byte counters (fabric/RNIC/port) are applied at commit.
Residual mismodels (a resource found full at an acquire instant, an SRQ
drained by a foreign consumer mid-flight) are counted in ``fp_stats``.
One known source: a fire-and-forget chain leg's caller keeps running
at the commit instant, and a generator-path op it starts toward the
same peer can take the leg's return-leg channels first.

Sequence-counter padding: ``Simulator._seq`` doubles as the benchmark
event counter, and every grant/timeout the slow path would have enqueued
bumps it.  A fast commit bumps ``_seq`` by the number of enqueues it
*avoided* so the final count — and the absolute (time, seq) order of all
surviving events — is identical with the fast path on or off.  One
ledger (``_SLOW_ENQUEUES`` plus each entry's layer pad) gives the
budget; a commit spends one bump per dispatch it pushes and pads the
rest.  The equivalence tests assert final ``_seq`` equality against
``REPRO_NO_FASTPATH=1``.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .wr import (ACK_BYTES, Access, Opcode, SendWR, WcStatus, WorkCompletion,
                 wire_bytes)

__all__ = ["try_fast_post", "try_fast_post_vec", "try_fast_chain",
           "prime_qp", "fp_stats", "FastPathStats", "DECLINE_REASONS"]

_NEED_REMOTE_WRITE = Access.REMOTE_WRITE.value
_NEED_REMOTE_READ = Access.REMOTE_READ.value
_WIRE0 = wire_bytes(0)

# Size-class memo bound per cost table: distinct payload sizes seen on
# one QP.  Benchmarks use a handful of sizes; a pathological size sweep
# clears and rebuilds rather than growing without bound.
_MEMO_MAX = 512

# The _seq ledger: enqueues the generator path performs per piece from
# post_send() onward, unsignaled.
#
#   Common prefix (11): exec-process boot, SQ-slot grant, doorbell
#   timeout, local-pipeline grant, local-RNIC timeout, src-TX grant,
#   dst-RX grant, serialization timeout, propagation timeout,
#   remote-pipeline grant, remote-RNIC timeout.  Plus per opcode:
#     WRITE:     order-done, ACK leg (tx, rx, ser, prop, rnic-ack) = 6,
#                exec-process succeed                     → 18 total
#     WRITE_IMM: recv-queue grant, recv-completion timeout, order-done,
#                ACK leg = 8, exec-process succeed        → 20 total
#     READ:      order-done, response leg (tx, rx, ser, prop) = 5,
#                2nd local pipeline grant + timeout = 2,
#                exec-process succeed                     → 19 total
#   A signaled op adds its completion timeout.
#
# Each entry adds the enqueues its LITE layer avoids per piece (the
# *_LAYER_PAD constants).  A commit performs one order-done succeed per
# piece for real and bumps _seq once per dispatch it pushes; it pads
# the rest of the budget (_seq_budget) at commit.  A fused WRITE_IMM
# pushes one dispatch more (the deferred kernel dispatch), so its pad
# is one less; the two receiver-side enqueues it avoids at t_rc (the
# CQ-getter succeed and the poller's discovery timeout) are padded by
# the at_rc dispatch itself, only if the receiver is still parked then.
_SLOW_ENQUEUES = {Opcode.WRITE: 18, Opcode.WRITE_IMM: 20, Opcode.READ: 19}


def _seq_budget(opcode, signaled, layer_pad, k=1):
    """``_seq`` bumps a commit of ``k`` pieces owes (ledger above)."""
    return k * (_SLOW_ENQUEUES[opcode] + signaled + layer_pad - 1)


# Why an attempt fell back to the generator path (INTERNALS §13).  Every
# entry call counts one attempt and every ``None`` return one decline,
# so the counts partition ``attempts - commits`` over all three entries.
DECLINE_REASONS = (
    "tracer",      # tracer installed or REPRO_NO_FASTPATH kill switch
    "gate",        # now-queue busy or an ordinary event due by completion
    "contention",  # SQ/window/pipeline/port/recv-queue busy, order barrier
    "sram",        # an RNIC SRAM lookup (QP, key, PTE) would miss
    "loopback",    # source and destination are the same node
    "fault",       # a fault hook is installed on the fabric
    "peer",        # dead, crashed or fenced remote end (QP, port, MR)
    "shape",       # op outside the model (SGL, opcode, bounds, QP type)
)


class FastPathStats:
    """Module-wide fast-path telemetry (host-side only, not sim state)."""

    __slots__ = ("attempts", "commits", "mismodels", "table_builds",
                 "vec_attempts", "vec_commits", "plan_builds", "plan_hits",
                 "chain_attempts", "chain_commits", "declines",
                 "ring_refusals")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.attempts = 0
        self.commits = 0
        self.mismodels = 0
        self.table_builds = 0
        self.vec_attempts = 0
        self.vec_commits = 0
        self.plan_builds = 0
        self.plan_hits = 0
        self.chain_attempts = 0
        self.chain_commits = 0
        self.declines = dict.fromkeys(DECLINE_REASONS, 0)
        # fp_rpc_gate refusals (ring wrap, unbound ring, dead client):
        # the write-imm loses fused delivery but may still commit
        # one-sided, so these are not declines.
        self.ring_refusals = 0

    def __repr__(self) -> str:
        return (f"FastPathStats(attempts={self.attempts}, "
                f"commits={self.commits}, mismodels={self.mismodels}, "
                f"vec_commits={self.vec_commits})")


fp_stats = FastPathStats()


def _decline(reason):
    """Count one decline; returns None for ``return _decline(...)``."""
    fp_stats.declines[reason] += 1


class CostTable:
    """Per-(QP, op-kind, size-class) precomputed cost constants.

    Built lazily at first fast post (or eagerly via :func:`prime_qp`),
    keyed by the versions of every input it folds in: the local, remote,
    and fabric ``SimParams`` mutation counters plus both RNICs'
    ``cost_version`` (bumped on MR invalidation and cache resize, which
    also rotate the cache objects referenced here).  Per-size costs are
    memoised in ``_sizes``: size → (local RNIC occupancy, remote RNIC
    occupancy, wire serialization), each the bit-exact float expression
    the generator path computes per WQE.
    """

    __slots__ = (
        "qp", "remote", "stamp", "fabric", "rdev", "rqp",
        "lrnic", "rrnic", "lpipe", "rpipe", "src_port", "dst_port",
        "src_tx", "src_rx", "dst_tx", "dst_rx",
        "src_node", "dst_node", "dst_qpn",
        "doorbell", "wqe_l", "ser0", "prop", "ack_ser", "rnic_ack",
        "completion_l", "completion_r", "srq_source", "srq_items",
        "_lparams", "_rparams", "_fparams", "_link_bw", "_sizes",
        "_spans", "_phys", "_pregions", "_mem",
        "_rel_t2", "_rel_t3", "_rel_back", "_acq_back", "_unsig_end",
    )

    def __init__(self, qp):
        device = qp.device
        node = device.node
        fabric = node.fabric
        dst_node, dst_qpn = qp.remote
        rnode = fabric.nodes.get(dst_node)
        if rnode is None:
            raise KeyError(dst_node)
        rdev = rnode.device
        lparams = device.params
        rparams = rdev.params
        fparams = fabric.params
        lrnic = device.rnic
        rrnic = rdev.rnic

        self.qp = qp
        self.remote = qp.remote
        self.fabric = fabric
        self.rdev = rdev
        self.rqp = rdev.qps.get(dst_qpn)
        self.lrnic = lrnic
        self.rrnic = rrnic
        self.lpipe = lrnic._pipeline
        self.rpipe = rrnic._pipeline
        self.src_node = node.node_id
        self.dst_node = dst_node
        self.dst_qpn = dst_qpn
        src_port = fabric.ports.get(node.node_id)
        dst_port = fabric.ports.get(dst_node)
        if src_port is None or dst_port is None:
            raise KeyError(dst_node)
        self.src_port = src_port
        self.dst_port = dst_port
        self.src_tx = src_port.tx
        self.src_rx = src_port.rx
        self.dst_tx = dst_port.tx
        self.dst_rx = dst_port.rx

        self.doorbell = lparams.rnic_doorbell_us
        self.wqe_l = lparams.rnic_wqe_process_us
        link_bw = fparams.link_bandwidth_bytes_per_us
        self._link_bw = link_bw
        self.ser0 = _WIRE0 / link_bw
        # Same expression shape as fabric._transfer_impl's inlined
        # one_way_fabric_us (bit-exact float parity).
        self.prop = (2 * fparams.link_propagation_us
                     + fparams.switch_latency_us)
        self.ack_ser = ACK_BYTES / link_bw
        self.rnic_ack = lparams.rnic_ack_us
        self.completion_l = lparams.rnic_completion_us
        self.completion_r = rparams.rnic_completion_us

        self._lparams = lparams
        self._rparams = rparams
        self._fparams = fparams
        self._sizes = {}
        # (rkey, addr, nbytes, need) → (span, allocator version) for
        # virtual MRs.  MR identity, bounds, access bits, and the page
        # list are immutable for a live registration (deregistration
        # bumps the remote RNIC's cost_version, stamped below,
        # invalidating the whole table); the backing resolution carries
        # the host allocator's free epoch and is revalidated with one
        # compare per hit.
        self._spans = {}
        # rkey → (mr, base_addr, end_addr) for *physical* MRs (the LITE
        # global MR): identity and bounds are immutable for a live
        # registration and every address is in-reach, so only the
        # backing resolution (allocator-epoch dependent) runs per
        # attempt.  Deregistration bumps cost_version → whole table
        # (and this cache) is dropped.
        self._phys = {}
        # rkey → (region, lo, hi): last backing region hit for a
        # *physical* MR.  The global MR spans the whole remote heap, so
        # ``mr._backing`` bisects the allocator's live list per attempt;
        # ring/head slots hit the same region every op, so one cached
        # (region, bounds) triple — validated by ``region.freed`` plus
        # containment — replaces the bisect.  A freed-then-reused range
        # can never serve stale: free() flips the flag on the old object.
        self._pregions = {}
        self._mem = rnode.memory
        # Receive-queue source for inbound WRITE_IMM, resolved lazily
        # and revalidated by identity per attempt.
        self.srq_source = None
        self.srq_items = None
        # Shared dispatch callables: the t2/t3/return-leg bodies are
        # identical for every commit on this table, so one instance
        # each replaces a per-commit closure build.
        self._rel_t2 = self.lpipe.release

        def _rel_t3(rx=self.dst_rx.release, tx=self.src_tx.release):
            rx()
            tx()

        self._rel_t3 = _rel_t3

        def _rel_back(rx=self.src_rx.release, tx=self.dst_tx.release):
            rx()
            tx()

        self._rel_back = _rel_back

        def _acq_back(tx=self.dst_tx, rx=self.src_rx):
            # The return leg (ACK or READ response) takes the peer's
            # egress and the home ingress at the responder-done instant.
            if tx.in_use >= tx.capacity:
                fp_stats.mismodels += 1
            if rx.in_use >= rx.capacity:
                fp_stats.mismodels += 1
            tx.in_use += 1
            rx.in_use += 1

        self._acq_back = _acq_back
        # (window, completion callable) of the last unsignaled commit.
        self._unsig_end = None
        self.stamp = self._current_stamp()
        fp_stats.table_builds += 1

    def _current_stamp(self):
        return (
            self._lparams._version,
            self._rparams._version,
            self._fparams._version,
            self.lrnic.cost_version,
            self.rrnic.cost_version,
        )

    def valid(self) -> bool:
        """True while every folded-in input is unchanged."""
        return (self.remote == self.qp.remote
                and self.stamp == self._current_stamp())

    def size_costs(self, nbytes: int):
        """(local occupancy, remote occupancy, serialization, wire bytes).

        Bit-exact to the slow path: occupancy is
        ``rnic_wqe_process_us + dma_time(nbytes)`` (the all-hit lookup
        cost is exactly ``0.0``, and ``x + 0.0 == x``), serialization is
        ``wire_bytes(nbytes) / link_bandwidth`` in one division, as in
        ``fabric._transfer_impl``.
        """
        entry = self._sizes.get(nbytes)
        if entry is None:
            if len(self._sizes) >= _MEMO_MAX:
                self._sizes.clear()
            lp = self._lparams
            rp = self._rparams
            wire = wire_bytes(nbytes)
            entry = self._sizes[nbytes] = (
                lp.rnic_wqe_process_us + lp.dma_time(nbytes),
                rp.rnic_wqe_process_us + rp.dma_time(nbytes),
                wire / self._link_bw,
                wire,
            )
        return entry


def _path_reason(fabric, src_port, dst_port):
    """The decline reason behind a failed ``fabric.fp_path_clear``."""
    if fabric.fault is not None:
        return "fault"
    if not (src_port.up and dst_port.up):
        return "peer"
    return "contention"


def _table_for(qp):
    table = qp._fp_table
    if table is not None and table.valid():
        return table
    try:
        table = CostTable(qp)
    except KeyError:
        return None
    qp._fp_table = table
    return table


def prime_qp(qp) -> bool:
    """Build (or revalidate) a QP's cost table eagerly.

    Called at connection setup, and again each time a pooled QP is
    leased to a session (cluster/qp_pool.py): a conn that sat parked
    across a fence — peer crash, MR dereg, cache resize — re-primes
    here instead of paying the table-build stall on the new holder's
    first op.  A still-valid table is kept as-is.  Returns True when a
    valid table is in place afterwards.  Host-side only: priming never
    advances simulated time, so fast and slow runs stay bit-identical.
    """
    if qp._is_rc and qp.remote is not None:
        return _table_for(qp) is not None
    return False


# ---------------------------------------------------------------------------
# Admission (shared by every entry)
# ---------------------------------------------------------------------------
def _admit(qp, window):
    """Per-QP admission: the QP's valid CostTable, or None (declined).

    Checks what every entry needs of the (qp, window) pair it would
    post on: a connected RC QP in RTS with no same-QP predecessor still
    in flight, a free SQ slot and window slot, and a cost table toward a
    live remote node.
    """
    if not qp._is_rc or qp.remote is None:
        return _decline("shape")
    if qp.state != "RTS":
        return _decline("peer")
    pred = qp._last_remote_done
    if pred is not None and pred.callbacks is not None:
        return _decline("contention")
    sq = qp._sq_slots
    if sq.in_use >= sq.capacity or window.in_use >= window.capacity:
        return _decline("contention")
    table = _table_for(qp)
    if table is None:
        return _decline("peer")
    if table.src_node == table.dst_node:
        # loopback short-circuits the wire; keep it slow
        return _decline("loopback")
    # Belt and suspenders against a dead/remapped peer: a crash downs
    # the link (fp_path_clear) and fences every table (cost_version),
    # but a *rebuilt* table toward a crashed-flag node must still
    # decline.
    if table.rdev.node.crashed:
        return _decline("peer")
    return table


def _resolve_span(mrs_by_rkey, rkey, addr, nbytes, need):
    """Replay ``rdev._resolve_remote``: (mr, span) or None (declined).

    ``span`` is ``(pages, backing, reg_off)``: the PTE keys the remote
    RNIC looks up (none for a physical MR), the backing region and the
    offset into it.
    """
    mr = mrs_by_rkey.get(rkey)
    if mr is None or mr.deregistered:
        return _decline("peer")
    base = mr.base_addr
    if not (base <= addr and addr + nbytes <= base + mr.size):
        return _decline("shape")
    if not (mr._access_bits & need):
        return _decline("shape")
    offset = addr - base
    try:
        backing, reg_off = mr._backing(offset, nbytes)
    except ValueError:
        return _decline("shape")
    pages = () if mr.physical else tuple(mr.page_ids(offset, nbytes))
    return mr, (pages, backing, reg_off)


def _span_for(table, rkey, addr, nbytes, need):
    """``_resolve_span`` through the table's memos: span or None.

    Physical MRs (the LITE global MR — every RPC/ring address) see a
    fresh address on most posts, so a per-span memo would miss and
    churn; their immutable identity/bounds are cached per rkey instead
    and only the backing resolution (allocator-epoch dependent) runs
    per attempt.
    """
    phys = table._phys.get(rkey)
    if phys is not None:
        mr, base, end = phys
        if mr.deregistered:
            return _decline("peer")
        if not (base <= addr and addr + nbytes <= end):
            return _decline("shape")
        if not (mr._access_bits & need):
            return _decline("shape")
        preg = table._pregions.get(rkey)
        if (preg is not None and not preg[0].freed
                and preg[1] <= addr and addr + nbytes <= preg[2]):
            return (), preg[0], addr - preg[1]
        try:
            backing, reg_off = mr._backing(addr - base, nbytes)
        except ValueError:
            return _decline("shape")
        table._pregions[rkey] = (
            backing, backing.addr, backing.addr + backing.size)
        return (), backing, reg_off
    key = (rkey, addr, nbytes, need)
    memo = table._spans.get(key)
    if memo is not None and memo[1] == table._mem.version:
        return memo[0]
    resolved = _resolve_span(table.rdev.mrs_by_rkey, rkey, addr, nbytes, need)
    if resolved is None:
        return None
    mr, span = resolved
    if mr.physical:
        table._phys[rkey] = (mr, mr.base_addr, mr.base_addr + mr.size)
    else:
        spans = table._spans
        if len(spans) >= _MEMO_MAX:
            spans.clear()
        spans[key] = (span, table._mem.version)
    return span


def _admit_piece(qp, window, rkey, addr, nbytes, need):
    """Scalar admission: (table, span), or None (declined).

    ``_admit`` plus the path and both RNIC pipelines, every SRAM lookup
    (all must hit, so every lookup cost is exactly 0.0 and the table's
    occupancies apply; probes are non-mutating and the hits are
    replayed at commit), and the remote span.
    """
    table = _admit(qp, window)
    if table is None:
        return None
    fabric = table.fabric
    src_port = table.src_port
    dst_port = table.dst_port
    if not fabric.fp_path_clear(src_port, dst_port):
        return _decline(_path_reason(fabric, src_port, dst_port))
    lpipe = table.lpipe
    rpipe = table.rpipe
    if lpipe.in_use >= lpipe.capacity or rpipe.in_use >= rpipe.capacity:
        return _decline("contention")
    rrnic = table.rrnic
    if (not table.lrnic.qp_cache.contains(qp.qpn)
            or not rrnic.qp_cache.contains(table.dst_qpn)
            or not rrnic.key_cache.contains(rkey)):
        return _decline("sram")
    span = _span_for(table, rkey, addr, nbytes, need)
    if span is None:
        return None
    if span[0] and not rrnic.pte_cache.contains_all(span[0]):
        return _decline("sram")
    return table, span


# ---------------------------------------------------------------------------
# The scalar commit
# ---------------------------------------------------------------------------
def _commit_piece(table, window, opcode, rkey, span, nbytes, payload, imm,
                  addr, wr, wr_id, horizon, layer_pad):
    """Commit one admitted piece on ``table.qp``: RNIC → fabric → RNIC.

    The only code that computes a single piece's timeline, replays its
    counters and holds, and pushes its dispatches.  Signaled ops pass
    the CQE's ``wr_id`` and get a handle that succeeds at completion
    with WcStatus.SUCCESS — or, for a READ with no ``wr``, with the
    bytes read (a given ``wr`` receives them in ``return_data``).
    ``wr_id=None`` commits fire-and-forget and returns True.  A
    WRITE_IMM (``imm``, into remote ``addr``) claims a receive and,
    when eligible, fuses the receiver's poll iteration.  ``layer_pad``
    is the entry's avoided LITE-layer enqueues (the _seq ledger).
    Returns None, with nothing touched, when the receive side refuses
    or an ordinary event is due by the op's tail.
    """
    qp = table.qp
    sim = qp.sim
    signaled = wr_id is not None
    read_op = opcode is Opcode.READ
    imm_op = opcode is Opcode.WRITE_IMM
    dst_qpn = table.dst_qpn
    srq_source = fused_kernel = fcq = None
    if imm_op:
        rdev = table.rdev
        rqp = table.rqp
        if rqp is None or rqp is not rdev.qps.get(dst_qpn):
            rqp = rdev.qps.get(dst_qpn)
            table.rqp = rqp
            if rqp is None:
                return _decline("peer")
        srq_source = rqp.srq if rqp.srq is not None else rqp._own_rq
        if srq_source is not table.srq_source:
            try:
                srq_source._fp_claims
            except AttributeError:
                srq_source._fp_claims = 0
            table.srq_source = srq_source
            store = getattr(srq_source, "_store", srq_source)
            table.srq_items = store.items
        srq_items = table.srq_items
        if len(srq_source) <= srq_source._fp_claims:
            return _decline("contention")
        # Fused two-sided delivery: eligible when the destination is a
        # LITE kernel whose batch==1 poll loop is the sole parked getter
        # on this recv CQ, no earlier fused delivery is outstanding, and
        # the kernel's RPC gate accepts the immediate (bound ring,
        # in-bounds non-wrapping offset, live peer — the server-ring
        # geometry half of the cross-node stamp, checked live).  When
        # ineligible the op still commits in the one-sided shape: the
        # CQE push wakes the poller for real.
        lite = rdev.node.lite
        if (lite is not None and lite._poller is not None
                and lite.params.cq_poll_batch <= 1):
            fcq = rqp.recv_cq
            if fcq is not lite.recv_cq or fcq.fp_pending:
                fcq = None
            else:
                cq_store = fcq._store
                if cq_store.items or len(cq_store._getters) != 1:
                    fcq = None
                elif lite.fp_rpc_gate(imm, table.src_node, addr):
                    fused_kernel = lite
                else:
                    fp_stats.ring_refusals += 1
                    fcq = None

    # ---- timeline (floats accumulated in the slow path's add order) ----
    dur_l, dur_r, ser, wire_n = table.size_costs(nbytes)
    t1 = sim.now + table.doorbell       # doorbell MMIO
    if read_op:
        t2 = t1 + table.wqe_l           # request WQE carries no payload
        t3 = t2 + table.ser0
    else:
        t2 = t1 + dur_l                 # local lookups + payload DMA
        t3 = t2 + ser                   # serialization out
    t4 = t3 + table.prop                # propagation + switch
    t5 = t4 + dur_r                     # remote lookups + DMA + memory op
    if read_op:
        r1 = t5 + ser                   # response serialization
        t6 = r1 + table.prop
        t7 = t6 + dur_l                 # local scatter pass
    else:
        # A WRITE_IMM's ACK leaves after the responder's CQE write-back.
        t_rc = t5 + table.completion_r if imm_op else t5
        a1 = t_rc + table.ack_ser
        t7 = (a1 + table.prop) + table.rnic_ack
    t_end = t7 + table.completion_l if signaled else t7

    # Nothing ordinary may be scheduled at or before completion: any
    # such event could observe (or perturb) the op mid-flight.  A fused
    # chain's horizon spans both hosts — it must also cover the remote
    # dispatch instant, the exact instant the poller's discovery delay
    # would have elapsed after the CQE landed (fp_horizon is already
    # cluster-global: there is one engine).
    t_guard = t_end
    if fused_kernel is not None:
        t_disp = t_rc + fused_kernel.params.poll_loop_us / 2
        if t_disp > t_guard:
            t_guard = t_disp
    if horizon <= t_guard:
        return _decline("gate")

    # ---- commit ------------------------------------------------------
    qp.posted_sends += 1
    done = sim.event()
    qp._last_remote_done = done

    # Cache-hit replay, in slow-path lookup order (LRU recency + stats).
    lrnic = table.lrnic
    rrnic = table.rrnic
    pages, backing, reg_off = span
    lrnic.qp_cache.access(qp.qpn)
    rrnic.qp_cache.access(dst_qpn)
    rrnic.key_cache.access(rkey)
    if pages:
        rrnic.pte_cache.access_many(pages)

    # Counter replay (end-state equivalent; see module docstring).
    if read_op:
        lrnic.qp_cache.access(qp.qpn)   # response scatter pass
        lrnic.wqe_count += 2
        out_bytes = _WIRE0
        back_bytes = wire_n
    else:
        lrnic.wqe_count += 1
        out_bytes = wire_n
        back_bytes = ACK_BYTES
    lrnic.bytes_dma += nbytes
    rrnic.wqe_count += 1
    rrnic.bytes_dma += nbytes
    table.fabric.total_bytes += out_bytes + back_bytes
    table.fabric.transfer_count += 2
    src_port = table.src_port
    dst_port = table.dst_port
    src_port.tx_bytes += out_bytes
    dst_port.rx_bytes += out_bytes
    dst_port.tx_bytes += back_bytes
    src_port.rx_bytes += back_bytes

    # Real holds for the op's first phase (released at exact times by
    # the dispatches below; the return-leg channels are acquired at the
    # instant the slow path would request them).
    sq = qp._sq_slots
    lpipe = table.lpipe
    rpipe = table.rpipe
    sq.in_use += 1
    window.in_use += 1
    lpipe.in_use += 1
    rpipe.in_use += 1
    table.src_tx.in_use += 1
    table.dst_rx.in_use += 1
    if imm_op:
        srq_source._fp_claims += 1
    if fused_kernel is not None:
        # One outstanding fused delivery per CQ: cleared by the at_disp
        # dispatch; new fused commits decline while it is set.
        fcq.fp_pending += 1

    # ---- dispatches --------------------------------------------------
    acq_back = table._acq_back
    box = []

    if imm_op:
        src_node = table.src_node

        def at_mid():
            rpipe.release()
            try:
                backing.write(reg_off, payload)
            except ValueError:
                fp_stats.mismodels += 1
            if srq_items:
                box.append(srq_items.popleft())
            else:
                fp_stats.mismodels += 1
            srq_source._fp_claims -= 1

        # A fused CQE bypasses the CQ store (the parked poller must not
        # wake); its delivery counters are replayed at the push instant
        # and at_disp hands it to the real kernel dispatch.  The bypass
        # is re-validated at t_rc: an interloping CQE (e.g. a small op
        # overtaking this one on the second RNIC pipeline unit) may have
        # woken the poller mid-chain, in which case the slow path would
        # have *appended* this CQE behind it — at_rc then reverts to a
        # real push and every receiver event happens for real.
        wcbox = []

        def at_rc():
            if box:
                wc = WorkCompletion(
                    wr_id=box[0].wr_id, status=WcStatus.SUCCESS,
                    opcode=Opcode.RECV_IMM, byte_len=nbytes, imm=imm,
                    qp_num=dst_qpn, src_node=src_node, src_qpn=qp.qpn,
                )
                if fcq is None:
                    recv_cq = rqp.recv_cq
                    if recv_cq is not None:
                        recv_cq.push(wc)
                elif len(fcq._store._getters) == 1 and not fcq._store.items:
                    # Receiver still (or again) cleanly parked: the slow
                    # path would consume the getter right now.  Replay
                    # the delivery counters, arm the bypass window, and
                    # pad the two enqueues the slow path performs at
                    # this instant (getter succeed + the poller's
                    # discovery timeout).
                    wc.completed_at = t_rc
                    fcq.pushed += 1
                    fcq.polled += 1
                    fcq.fp_bypass = True
                    sim._seq += 2
                    wcbox.append(wc)
                else:
                    # Poller is awake (or has a backlog): land in the
                    # store exactly as the slow path would.
                    fcq.push(wc)
            done.succeed()
            acq_back()

        def at_disp():
            if wcbox:
                # t_rc is passed through verbatim: the wait charge must
                # be computed as (t_rc - park), never via sim.now -
                # discover (float addition is not associative; the slow
                # path charges at t_rc).
                fused_kernel._fp_deliver(wcbox[0], t_rc)
            else:
                # Reverted (or SRQ mismodel): the real machinery owns
                # delivery; just retire the commit claim.
                fcq.fp_pending -= 1

    else:

        def at_mid():
            rpipe.release()
            try:
                if read_op:
                    box.append(backing.read(reg_off, nbytes))
                else:
                    backing.write(reg_off, payload)
            except ValueError:
                fp_stats.mismodels += 1
            done.succeed()
            acq_back()

    if signaled:
        handle = sim.event()
        value_is_data = read_op and wr is None

        def at_end():
            send_cq = qp.send_cq
            if send_cq is not None:
                send_cq.push(WorkCompletion(
                    wr_id=wr_id, status=WcStatus.SUCCESS, opcode=opcode,
                    byte_len=nbytes, imm=imm, qp_num=qp.qpn,
                ))
            sq.release()
            window.release()
            if value_is_data:
                handle.succeed(box[0] if box else b"")
            else:
                handle.succeed(WcStatus.SUCCESS)
    else:
        # The unsignaled completion only releases the SQ and window
        # slots: one callable per (QP, window), rebuilt on a change.
        ue = table._unsig_end
        if ue is None or ue[0] is not window:
            def _end(sqr=sq.release, wrel=window.release):
                sqr()
                wrel()
            table._unsig_end = ue = (window, _end)
        at_end = ue[1]

    acts = [(t2, table._rel_t2), (t3, table._rel_t3), (t5, at_mid)]
    if read_op:

        def at_t6():
            if lpipe.in_use >= lpipe.capacity:
                fp_stats.mismodels += 1
            lpipe.in_use += 1

        def at_t7():
            lpipe.release()
            if wr is not None:
                wr.return_data = box[0] if box else b""

        acts += ((r1, table._rel_back), (t6, at_t6), (t7, at_t7))
    else:
        if imm_op:
            acts.append((t_rc, at_rc))
        acts.append((a1, table._rel_back))
        if fused_kernel is not None:
            acts.append((t_disp, at_disp))
    acts.append((t_end, at_end))

    # fp_schedule inlined (this is the hottest dispatch source): the pad
    # is applied first, then each push takes the next seq, exactly as a
    # sim._seq bump followed by fp_schedule calls in program order.
    seq = sim._seq + _seq_budget(opcode, signaled, layer_pad) - len(acts)
    fpq = sim._fpq
    for t, fn in acts:
        seq += 1
        heappush(fpq, (t, seq, fn))
    sim._seq = seq
    return handle if signaled else True


# ---------------------------------------------------------------------------
# Scalar entries
# ---------------------------------------------------------------------------
# Avoided LITE-layer enqueues per piece, by entry (the _seq ledger):
# the per-piece path's _post runner boot + window grant (its handle
# stands in for the runner's completion) ...
_PIECE_LAYER_PAD = 2
# ... raw_write_async's runner boot + window grant + runner completion ...
_CHAIN_LAYER_PAD = 3
# ... and the vec path's runner boot + window grant + runner completion
# per piece (its handle stands in for the all_of barrier's succeed).
_VEC_LAYER_PAD = 3


def try_fast_post(qp, wr, window):
    """Attempt run-to-completion execution of one LT_read/LT_write piece.

    ``wr`` is a signaled inline WRITE or a signaled READ; ``window`` is
    the LITE per-QP window resource held for the op's lifetime.
    Returns the completion event — it succeeds with WcStatus.SUCCESS at
    the op's completion instant, a READ's bytes already in
    ``wr.return_data`` — or None when any entry condition fails, in
    which case *no state has been touched* and the caller must take the
    generator path.
    """
    sim = qp.sim
    fp_stats.attempts += 1
    if not sim.fastpath_enabled or sim.tracer is not None:
        return _decline("tracer")
    # The commit gate: every completion is >= now + doorbell, so a
    # horizon at or before that instant dooms the op before any table
    # or timeline work.  The horizon is reused for the final check.
    horizon = sim.fp_clear_after(sim.now + qp.device.params.rnic_doorbell_us)
    if horizon is None:
        return _decline("gate")

    opcode = wr.opcode
    if opcode is Opcode.WRITE:
        payload = wr.inline_data
        if payload is None:
            return _decline("shape")
        nbytes = len(payload)
        need = _NEED_REMOTE_WRITE
    elif opcode is Opcode.READ:
        if wr.inline_data is not None:
            return _decline("shape")
        payload = None
        nbytes = wr.read_length
        need = _NEED_REMOTE_READ
    else:
        return _decline("shape")
    if (nbytes <= 0 or wr.sgl or not wr.signaled
            or wr.delivered is not None):
        return _decline("shape")

    rkey = wr.rkey
    admitted = _admit_piece(qp, window, rkey, wr.remote_addr, nbytes, need)
    if admitted is None:
        return None
    table, span = admitted
    handle = _commit_piece(table, window, opcode, rkey, span, nbytes,
                           payload, None, None, wr, wr.wr_id, horizon,
                           _PIECE_LAYER_PAD)
    if handle is not None:
        fp_stats.commits += 1
    return handle


def try_fast_chain(engine, peer, addr, data, imm, priority):
    """Commit one leg of the RPC tri-post chain (raw unsignaled write).

    Every RPC op issues three fire-and-forget posts through
    ``raw_write_async``: the request append (WRITE_IMM into the server
    ring), the server's head-pointer update (WRITE), and the reply
    (WRITE_IMM into the caller's reply buffer).  This entry commits a
    leg with no WR object at all: it peeks the (qp, window) pair the
    slow path would round-robin onto and targets the peer's physical
    global MR, whose statics come from the cost table's memos.  Returns
    True on commit; None leaves no state touched — the caller then
    builds the WR and takes the generator path, consuming the same
    wr_id the chain would have.
    """
    sim = engine.sim
    fp_stats.chain_attempts += 1
    if not sim.fastpath_enabled or sim.tracer is not None:
        return _decline("tracer")
    horizon = sim.fp_clear_after(sim.now + engine.params.rnic_doorbell_us)
    if horizon is None:
        return _decline("gate")
    nbytes = len(data)
    if nbytes == 0:
        return _decline("shape")

    kernel = engine.kernel
    pairs = kernel.qos.eligible_qps(peer, priority)
    qp, window = pairs[peer._rr % len(pairs)]
    rkey = peer.global_rkey
    admitted = _admit_piece(qp, window, rkey, addr, nbytes,
                            _NEED_REMOTE_WRITE)
    if admitted is None:
        return None
    table, span = admitted
    opcode = Opcode.WRITE if imm is None else Opcode.WRITE_IMM
    if _commit_piece(table, window, opcode, rkey, span, nbytes, data, imm,
                     addr, None, None, horizon, _CHAIN_LAYER_PAD) is None:
        return None
    fp_stats.chain_commits += 1
    # The slow path allocates a SendWR before the attempt; keep the
    # process-global id counter aligned (its CQE never exists: every
    # chain leg is unsignaled).
    SendWR._next_id += 1
    peer._rr += 1
    kernel.node.cpu.charge("lite-post", engine.params.rnic_doorbell_us)
    return True


# ---------------------------------------------------------------------------
# Vectorized multi-chunk commits (LT_write/LT_read fan-out in one pass)
# ---------------------------------------------------------------------------
#
# A multi-chunk LMR op fans out into one RDMA op per touched chunk.  The
# per-piece entry above already collapses each piece, but the caller
# still pays one attempt (entry checks, span resolution, WR allocation)
# per piece per op plus an all_of barrier.  ``try_fast_post_vec``
# commits the *entire* ``MappedLmr.plan()`` fan-out as one arithmetic
# pass: the piece geometry and backing resolution are memoised per
# (offset, len, kind) on the mapping (``mapping._fp_plans``).  A
# single-piece plan commits through ``_commit_piece``; for k > 1 the
# timeline — local-pipeline FIFO, the shared egress-link serialization
# chain, per-peer ingress/ACK chains, the global return-link chain — is
# solved closed-form in the slow path's float-add order.
#
# Entry is deliberately narrow so the closed form is exact:
#   * every piece remote (a local memcpy piece interleaves CPU yields);
#   * no replicas (the backup fan-out is its own barrier);
#   * per peer, at most as many pieces as eligible QPs — each piece
#     rides its own QP ((rr+j) mod K, exactly what the slow loop's
#     round-robin would pick), so no same-QP predecessor chains;
#   * every touched pipeline/port channel idle, all caches hot, no
#     fault hook, horizon past the op's tail.
# Any miss falls back to the per-piece path above, bit-exact by
# construction.
#
# Invalidation: plans revalidate per attempt through
# ``mapping.plan_version`` (bumped by ``retarget()`` on failover
# promotion / chunk migration), each piece's ``mr.deregistered`` +
# ``backing.freed`` flags, and the per-QP CostTable stamps (params,
# RNIC cost_version).  ``Node.fastpath_fence`` additionally clears all
# plan memos cluster-wide.


class _VecPiece:
    """One remote piece of a memoised multi-chunk plan."""

    __slots__ = ("dst_node", "remote_addr", "rkey", "nbytes", "buf_off",
                 "mr", "pages", "backing", "reg_off")


class VecPlan:
    """Memoised fan-out geometry for one (offset, len, kind) access.

    ``ok=False`` marks a structurally unvectorizable access (a local
    piece in the plan): the negative entry makes repeat attempts O(1)
    instead of re-planning every op.  Structure is keyed to
    ``plan_version``; dynamic state (QP choice, backing liveness,
    caches, contention) is validated per attempt.
    """

    __slots__ = ("plan_version", "ok", "pieces", "per_peer")

    def __init__(self, plan_version, ok, pieces=(), per_peer=()):
        self.plan_version = plan_version
        self.ok = ok
        self.pieces = pieces
        # ((peer_lite_id, (piece_index, ...)), ...) in first-touch order.
        self.per_peer = per_peer


def _build_vec_plan(kernel, mapping, offset, nbytes, opcode):
    """Resolve a plan's geometry, or None when it must stay slow.

    Returns a VecPlan (possibly ok=False, which *is* memoised), or
    None for conditions the slow path must surface itself (unknown or
    dead peer, failed remote resolution) — those are not memoised, and
    their decline is counted here.
    """
    lite_id = kernel.lite_id
    need = _NEED_REMOTE_READ if opcode is Opcode.READ else _NEED_REMOTE_WRITE
    fabric = kernel.node.fabric
    pieces = []
    per_peer = {}
    for chunk, chunk_off, piece_len, buf_off in mapping.plan(offset, nbytes):
        if chunk.node_id == lite_id:
            return VecPlan(mapping.plan_version, False)
        peer = kernel.peers.get(chunk.node_id)
        if peer is None or not peer.alive:
            return _decline("peer")
        # chunk.node_id is a LITE id; the fabric is keyed by node id.
        rnode = fabric.nodes.get(peer.node_id)
        if rnode is None or rnode._verbs_device is None:
            return _decline("peer")
        if chunk.rkey is not None:
            remote_addr, rkey = chunk.va + chunk_off, chunk.rkey
        else:
            remote_addr, rkey = chunk.addr + chunk_off, peer.global_rkey
        resolved = _resolve_span(rnode.device.mrs_by_rkey, rkey,
                                 remote_addr, piece_len, need)
        if resolved is None:
            return None
        mr, (pages, backing, reg_off) = resolved
        piece = _VecPiece()
        piece.dst_node = chunk.node_id
        piece.remote_addr = remote_addr
        piece.rkey = rkey
        piece.nbytes = piece_len
        piece.buf_off = buf_off
        piece.mr = mr
        piece.pages = pages
        piece.backing = backing
        piece.reg_off = reg_off
        per_peer.setdefault(chunk.node_id, []).append(len(pieces))
        pieces.append(piece)
    if not pieces:
        return VecPlan(mapping.plan_version, False)
    fp_stats.plan_builds += 1
    return VecPlan(
        mapping.plan_version, True, tuple(pieces),
        tuple((pid, tuple(idxs)) for pid, idxs in per_peer.items()),
    )


def _vec_return_chain(k, groups, t_req, dur):
    """Solve the return-leg contention chain (ACK or READ response).

    Each piece requests its peer's egress link (``tx_of[i]``) at
    ``t_req[i]`` (FIFO per peer), then the shared home ingress link
    (FIFO globally, by grant order), then serializes for ``dur[i]``.
    Returns per-piece (tx grant, rx grant, serialization end) plus the
    acquire/release shape: which acquires fold into the t5 dispatch,
    which need an extra dispatch at the tx-grant instant, and which
    releases are skipped because the successor was granted by them
    (a handoff keeps ``in_use`` flat, so a foreign FIFO waiter queued
    behind our pieces is never woken early).
    """
    d = [0.0] * k
    u = [0.0] * k
    end = [0.0] * k
    tx_acq_now = [False] * k    # acquire peer-TX inside the t5 dispatch
    rx_acq_now = [False] * k    # acquire home-RX inside the t5 dispatch
    rx_acq_at_d = [False] * k   # extra dispatch at d[i] acquiring home-RX
    tx_rel = [True] * k         # release peer-TX at end[i]
    rx_rel = [True] * k         # release home-RX at end[i]
    heap = []
    queues = {}
    for gi, (pid, idxs) in enumerate(groups):
        q = sorted(idxs, key=lambda i: (t_req[i], i))
        queues[gi] = (q, 0)
        i = q[0]
        heappush(heap, (t_req[i], t_req[i], i, gi))
    tx_state = {}               # gi -> (free_at, last_piece)
    rx_free = None
    rx_last = -1
    while heap:
        _cd, _tr, i, gi = heappop(heap)
        st = tx_state.get(gi)
        if st is not None and t_req[i] < st[0]:
            d[i] = st[0]
            tx_rel[st[1]] = False           # handoff: holder never lets go
        else:
            d[i] = t_req[i]
            tx_acq_now[i] = True
        if rx_free is not None and d[i] < rx_free:
            u[i] = rx_free
            rx_rel[rx_last] = False         # handoff
        else:
            u[i] = d[i]
            if d[i] == t_req[i]:
                rx_acq_now[i] = True
            else:
                rx_acq_at_d[i] = True
        end[i] = u[i] + dur[i]
        tx_state[gi] = (end[i], i)
        rx_free = end[i]
        rx_last = i
        q, pos = queues[gi]
        pos += 1
        queues[gi] = (q, pos)
        if pos < len(q):
            j = q[pos]
            cand = end[i] if t_req[j] < end[i] else t_req[j]
            heappush(heap, (cand, t_req[j], j, gi))
    return d, u, end, tx_acq_now, rx_acq_now, rx_acq_at_d, tx_rel, rx_rel


def _vec_pipe_pass(order, t_req, dur, cap):
    """Solve one FIFO pass of a capacity-``cap`` RNIC pipeline.

    ``order`` is the request order (piece order for the post pass, t6
    order for the READ scatter pass).  Returns per-index (grant, end,
    fresh, rel_real): ``fresh`` grants acquire a free slot at the grant
    instant; non-fresh grants inherit the slot from the release whose
    instant they got (that release is marked not-real).
    """
    grant = {}
    end = {}
    fresh = {}
    rel_real = {}
    active = []
    for i in order:
        r = t_req[i]
        while active and active[0][0] <= r:
            heappop(active)
        if len(active) < cap:
            g = r
            fresh[i] = True
        else:
            rel_t, rel_i = heappop(active)
            g = rel_t
            fresh[i] = False
            rel_real[rel_i] = False
        grant[i] = g
        e = g + dur[i]
        end[i] = e
        rel_real.setdefault(i, True)
        heappush(active, (e, i))
    return grant, end, fresh, rel_real


def try_fast_post_vec(engine, mapping, offset, nbytes, payload, opcode,
                      priority):
    """Commit a whole multi-chunk fan-out as one arithmetic pass.

    ``engine`` is the OneSidedEngine; ``payload`` is the caller's
    buffer for WRITE (None for READ).  Returns the completion handle —
    an event succeeding at the op's last piece's completion instant
    with WcStatus.SUCCESS (WRITE) or the assembled bytes (READ) — or
    None, in which case nothing was touched and the caller must walk
    the per-piece path.
    """
    sim = engine.sim
    fp_stats.vec_attempts += 1
    if not sim.fastpath_enabled or sim.tracer is not None:
        return _decline("tracer")
    horizon = sim.fp_clear_after(sim.now + engine.params.rnic_doorbell_us)
    if horizon is None:
        return _decline("gate")
    if mapping.replica_chunks or nbytes <= 0:
        return _decline("shape")
    kernel = engine.kernel

    # ---- plan memo ---------------------------------------------------
    key = (offset, nbytes, opcode is Opcode.READ)
    plans = mapping._fp_plans
    plan = plans.get(key)
    if plan is not None and plan.plan_version != mapping.plan_version:
        plan = None
    if plan is None:
        plan = _build_vec_plan(kernel, mapping, offset, nbytes, opcode)
        if plan is None:
            return None  # decline counted by _build_vec_plan
        if len(plans) >= _MEMO_MAX:
            plans.clear()
        plans[key] = plan
    else:
        fp_stats.plan_hits += 1
    if not plan.ok:
        return _decline("loopback")

    # ---- dynamic validation (QPs, endpoints, contention, caches) -----
    pieces = plan.pieces
    k = len(pieces)
    qos = kernel.qos
    qps = [None] * k
    windows = [None] * k
    tables = [None] * k
    groups = plan.per_peer
    peer_objs = []
    lpipe = None
    for pid, idxs in groups:
        peer = kernel.peers.get(pid)
        if peer is None or not peer.alive:
            return _decline("peer")
        pairs = qos.eligible_qps(peer, priority)
        npairs = len(pairs)
        if len(idxs) > npairs:
            return _decline("shape")
        peer_objs.append(peer)
        rr = peer._rr
        first_table = None
        for j, i in enumerate(idxs):
            qp, window = pairs[(rr + j) % npairs]
            table = _admit(qp, window)
            if table is None:
                return None
            if table.dst_node != peer.node_id:
                return _decline("peer")
            qps[i] = qp
            windows[i] = window
            tables[i] = table
            if first_table is None:
                first_table = table
        # Per-peer path and responder pipeline, once per peer.
        fabric = first_table.fabric
        src_port = first_table.src_port
        dst_port = first_table.dst_port
        if not fabric.fp_path_clear(src_port, dst_port):
            return _decline(_path_reason(fabric, src_port, dst_port))
        rpipe = first_table.rpipe
        if rpipe.in_use or len(idxs) > rpipe.capacity:
            return _decline("contention")
        if lpipe is None:
            lpipe = first_table.lpipe
    if lpipe.in_use:
        return _decline("contention")

    lrnic = tables[0].lrnic
    need = _NEED_REMOTE_READ if opcode is Opcode.READ else _NEED_REMOTE_WRITE
    for i in range(k):
        p = pieces[i]
        table = tables[i]
        if not lrnic.qp_cache.contains(qps[i].qpn):
            return _decline("sram")
        rrnic = table.rrnic
        if not rrnic.qp_cache.contains(table.dst_qpn):
            return _decline("sram")
        if not rrnic.key_cache.contains(p.rkey):
            return _decline("sram")
        if p.pages and not rrnic.pte_cache.contains_all(p.pages):
            return _decline("sram")
        if p.mr.deregistered:
            return _decline("peer")
        if p.backing.freed:
            try:
                p.backing, p.reg_off = p.mr._backing(
                    p.remote_addr - p.mr.base_addr, p.nbytes)
            except ValueError:
                return _decline("shape")

    if k == 1:
        # Single-piece plan: the chains are trivial, so the piece takes
        # the scalar commit — the win over the per-piece path is the
        # memoised plan (no WR allocation, no span re-resolution, no
        # all_of barrier).
        p = pieces[0]
        wr_id = SendWR._next_id + 1
        handle = _commit_piece(
            tables[0], windows[0], opcode, p.rkey,
            (p.pages, p.backing, p.reg_off), p.nbytes, payload, None, None,
            None, wr_id, horizon, _VEC_LAYER_PAD)
        if handle is not None:
            fp_stats.vec_commits += 1
            SendWR._next_id = wr_id
            peer_objs[0]._rr += 1
            kernel.node.cpu.charge("lite-post", engine.params.rnic_doorbell_us)
        return handle

    # ---- timeline (slow path's float-add order throughout) -----------
    t0 = sim.now
    table0 = tables[0]
    doorbell = table0.doorbell
    prop = table0.prop
    t1 = t0 + doorbell
    read_op = opcode is Opcode.READ
    dur_l = [0.0] * k
    dur_r = [0.0] * k
    ser = [0.0] * k
    wire = [0] * k
    for i in range(k):
        dur_l[i], dur_r[i], ser[i], wire[i] = tables[i].size_costs(
            pieces[i].nbytes)
    # Post pass through the local RNIC pipeline (READ WQEs carry no
    # payload: occupancy is the bare WQE cost).
    out_dur = [table0.wqe_l] * k if read_op else dur_l
    piece_order = list(range(k))
    t1_req = [t1] * k
    _g1, t2, _fresh1, lrel1 = _vec_pipe_pass(
        piece_order, t1_req, out_dur, lpipe.capacity)
    t2 = [t2[i] for i in range(k)]

    # Shared egress-link chain (FIFO by request = pipeline-exit order).
    out_ser = [table0.ser0] * k if read_op else ser
    order_out = sorted(piece_order, key=lambda i: (t2[i], i))
    s = [0.0] * k
    ser_end = [0.0] * k
    stx_acq = [False] * k       # fresh src-TX acquire at s[i]
    stx_rel = [True] * k        # real src-TX release at ser_end[i]
    tx_free = None
    tx_last = -1
    for i in order_out:
        if tx_free is not None and t2[i] < tx_free:
            s[i] = tx_free
            stx_rel[tx_last] = False        # handoff
        else:
            s[i] = t2[i]
            stx_acq[i] = tx_last >= 0       # first piece: commit acquire
        ser_end[i] = s[i] + out_ser[i]
        tx_free = ser_end[i]
        tx_last = i
    # Peer ingress windows never overlap (the shared egress serializes
    # same-peer pieces): granted at s[i], released at ser_end[i]; the
    # first piece per peer is commit-acquired, later ones acquire at s.
    drx_acq = [False] * k
    seen_peer = set()
    for i in order_out:
        pid = pieces[i].dst_node
        if pid in seen_peer:
            drx_acq[i] = True
        else:
            seen_peer.add(pid)

    t4 = [0.0] * k
    t5 = [0.0] * k
    for i in range(k):
        t4[i] = ser_end[i] + prop
        t5[i] = t4[i] + dur_r[i]

    # Return leg: WRITE acks / READ responses share the same channel
    # structure (peer egress FIFO per peer, home ingress FIFO global).
    back_dur = ser if read_op else [table0.ack_ser] * k
    (d_grant, _u, back_end, btx_acq_now, brx_acq_now, brx_acq_at_d,
     btx_rel, brx_rel) = _vec_return_chain(k, groups, t5, back_dur)

    parts = [b""] * k if read_op else None
    if read_op:
        t6 = [back_end[i] + prop for i in range(k)]
        order_t6 = sorted(piece_order, key=lambda i: (t6[i], i))
        g2, t7, fresh2, lrel2 = _vec_pipe_pass(
            order_t6, t6, dur_l, lpipe.capacity)
        t_end = [t7[i] + table0.completion_l for i in range(k)]
    else:
        rnic_ack = table0.rnic_ack
        completion_l = table0.completion_l
        t_end = [(back_end[i] + prop) + rnic_ack + completion_l
                 for i in range(k)]

    last = max(piece_order, key=lambda i: (t_end[i], i))
    if horizon <= t_end[last]:
        return _decline("gate")

    # ---- commit ------------------------------------------------------
    fp_stats.vec_commits += 1
    params = engine.params
    cpu = kernel.node.cpu
    fabric = table0.fabric
    src_port = table0.src_port
    base_id = SendWR._next_id
    SendWR._next_id = base_id + k
    dones = [None] * k
    for i in range(k):
        qp = qps[i]
        qp.posted_sends += 1
        done = sim.event()
        qp._last_remote_done = done
        dones[i] = done
        cpu.charge("lite-post", params.rnic_doorbell_us)
    for gi, (pid, idxs) in enumerate(groups):
        peer_objs[gi]._rr += len(idxs)

    # Cache-hit replay in slow-path lookup order: the post pass touches
    # the local QP cache in piece order; each responder's caches are
    # touched at its arrival instants (t4 order per RNIC); the READ
    # scatter pass touches the local QP cache again in grant order.
    for i in piece_order:
        lrnic.qp_cache.access(qps[i].qpn)
    for i in sorted(piece_order, key=lambda i: (t4[i], i)):
        table = tables[i]
        rrnic = table.rrnic
        rrnic.qp_cache.access(table.dst_qpn)
        rrnic.key_cache.access(pieces[i].rkey)
        if pieces[i].pages:
            rrnic.pte_cache.access_many(pieces[i].pages)
    if read_op:
        for i in order_t6:
            lrnic.qp_cache.access(qps[i].qpn)

    # Counter replay (end-state equivalent).
    for i in range(k):
        nb = pieces[i].nbytes
        table = tables[i]
        rrnic = table.rrnic
        if read_op:
            lrnic.wqe_count += 2
            out_b, back_b = _WIRE0, wire[i]
        else:
            lrnic.wqe_count += 1
            out_b, back_b = wire[i], ACK_BYTES
        lrnic.bytes_dma += nb
        rrnic.wqe_count += 1
        rrnic.bytes_dma += nb
        fabric.total_bytes += out_b + back_b
        fabric.transfer_count += 2
        src_port.tx_bytes += out_b
        src_port.rx_bytes += back_b
        dst_port = table.dst_port
        dst_port.rx_bytes += out_b
        dst_port.tx_bytes += back_b

    # Real holds (widened to commit time, per the module doctrine).
    n_fresh1 = min(k, lpipe.capacity)
    lpipe.in_use += n_fresh1
    src_tx = table0.src_tx
    src_rx = table0.src_rx
    src_tx.in_use += 1
    for gi, (pid, idxs) in enumerate(groups):
        table = tables[idxs[0]]
        table.dst_rx.in_use += 1
        table.rpipe.in_use += len(idxs)
    for i in range(k):
        qps[i]._sq_slots.in_use += 1
        windows[i].in_use += 1

    if not read_op:
        view = payload if type(payload) is memoryview else memoryview(payload)

    # ---- dispatches --------------------------------------------------
    # Generated phase-major (releases before the acquires that can tie
    # with them), stable-sorted by time; pushed in that order so
    # same-instant dispatches run in slow-path order.
    actions = []
    add = actions.append
    handle = sim.event()
    guard = fp_stats

    for i in piece_order:                       # phase 0: post-pass exits
        if lrel1.get(i, True):
            add((t2[i], lambda lp=lpipe: lp.release()))
    for i in piece_order:                       # phase 1: wire-out ends
        def _serend(rx=tables[i].dst_rx, tx_real=stx_rel[i]):
            rx.release()
            if tx_real:
                src_tx.release()
        add((ser_end[i], _serend))
    for i in piece_order:                       # phase 2: egress grants
        # After the release phase: a fresh grant landing exactly at a
        # predecessor's release instant must observe the release first
        # (the slow path's release event carries the earlier seq).
        acq = []
        if stx_acq[i]:
            acq.append(src_tx)
        if drx_acq[i]:
            acq.append(tables[i].dst_rx)
        if acq:
            def _acq(res_list=tuple(acq)):
                for res in res_list:
                    if res.in_use >= res.capacity:
                        guard.mismodels += 1
                    res.in_use += 1
            add((s[i], _acq))
    for i in piece_order:                       # phase 3: return-ser ends
        def _backend(i=i, rx_real=brx_rel[i], tx_real=btx_rel[i]):
            if rx_real:
                src_rx.release()
            if tx_real:
                tables[i].dst_tx.release()
        add((back_end[i], _backend))
    for i in piece_order:                       # phase 4: responder done
        p = pieces[i]
        if read_op:
            def _mid(i=i, p=p, rp=tables[i].rpipe,
                     tx=tables[i].dst_tx, tx_now=btx_acq_now[i],
                     rx_now=brx_acq_now[i], done=dones[i]):
                rp.release()
                try:
                    parts[i] = p.backing.read(p.reg_off, p.nbytes)
                except ValueError:
                    guard.mismodels += 1
                done.succeed()
                if tx_now:
                    if tx.in_use >= tx.capacity:
                        guard.mismodels += 1
                    tx.in_use += 1
                if rx_now:
                    if src_rx.in_use >= src_rx.capacity:
                        guard.mismodels += 1
                    src_rx.in_use += 1
        else:
            piece_payload = view[p.buf_off:p.buf_off + p.nbytes]

            def _mid(p=p, data=piece_payload, rp=tables[i].rpipe,
                     tx=tables[i].dst_tx, tx_now=btx_acq_now[i],
                     rx_now=brx_acq_now[i], done=dones[i]):
                rp.release()
                try:
                    p.backing.write(p.reg_off, data)
                except ValueError:
                    guard.mismodels += 1
                done.succeed()
                if tx_now:
                    if tx.in_use >= tx.capacity:
                        guard.mismodels += 1
                    tx.in_use += 1
                if rx_now:
                    if src_rx.in_use >= src_rx.capacity:
                        guard.mismodels += 1
                    src_rx.in_use += 1
        add((t5[i], _mid))
    for i in piece_order:                       # phase 5: deferred RX grab
        if brx_acq_at_d[i]:
            def _rxacq():
                if src_rx.in_use >= src_rx.capacity:
                    guard.mismodels += 1
                src_rx.in_use += 1
            add((d_grant[i], _rxacq))
    if read_op:
        for i in order_t6:                      # phase 6: scatter exits
            if lrel2.get(i, True):
                add((t7[i], lambda lp=lpipe: lp.release()))
        for i in order_t6:                      # phase 7: scatter grants
            if fresh2[i]:
                def _lacq():
                    if lpipe.in_use >= lpipe.capacity:
                        guard.mismodels += 1
                    lpipe.in_use += 1
                add((g2[i], _lacq))
    for i in piece_order:                       # phase 8: completions
        def _end(i=i, qp=qps[i], window=windows[i],
                 wr_id=base_id + 1 + i, is_last=(i == last)):
            send_cq = qp.send_cq
            if send_cq is not None:
                send_cq.push(WorkCompletion(
                    wr_id=wr_id, status=WcStatus.SUCCESS, opcode=opcode,
                    byte_len=pieces[i].nbytes, imm=None, qp_num=qp.qpn,
                ))
            qp._sq_slots.release()
            window.release()
            if is_last:
                if read_op:
                    handle.succeed(b"".join(parts))
                else:
                    handle.succeed(WcStatus.SUCCESS)
        add((t_end[i], _end))

    actions.sort(key=lambda a: a[0])
    seq = (sim._seq + _seq_budget(opcode, True, _VEC_LAYER_PAD, k)
           - len(actions))
    fpq = sim._fpq
    for t, fn in actions:
        seq += 1
        heappush(fpq, (t, seq, fn))
    sim._seq = seq
    return handle
