"""LITE-Graph-DSM: the user-space graph engine over LITE-DSM (§8.4).

Same GAS structure as LITE-Graph, but vertex data lives in the shared
DSM space and moves via native-looking loads/stores: gathers read
neighbour ranks through the DSM page cache, scatters acquire/write/
release the partition's own rank region.  The extra DSM layer (page
granularity, fault handling, invalidations) is exactly why Figure 19
shows it trailing LITE-Graph while still beating PowerGraph.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from ..graph.common import GraphCosts, PartitionedGraph, RANK_BYTES
from .litedsm import LiteDsm

__all__ = ["LiteGraphDsm"]


class LiteGraphDsm:
    """PageRank with vertex data in distributed shared memory."""

    _job_counter = 0

    def __init__(self, kernels, graph: PartitionedGraph,
                 threads_per_node: int = 4, costs: Optional[GraphCosts] = None):
        if len(kernels) < graph.n_partitions:
            raise ValueError("need one LITE node per partition")
        LiteGraphDsm._job_counter += 1
        self.graph = graph
        self.costs = costs if costs is not None else GraphCosts()
        self.threads_per_node = threads_per_node
        # Contiguous per-partition regions: partition p's vertex k lives
        # at (region_base[p] + k) * 8.
        self.region_base: List[int] = []
        base = 0
        for part in range(graph.n_partitions):
            self.region_base.append(base)
            base += len(graph.owned[part])
        self.dsm = LiteDsm(
            kernels[: graph.n_partitions],
            f"gdsm{LiteGraphDsm._job_counter}",
            base * RANK_BYTES,
        )
        self.elapsed_us = 0.0

    def _write_own(self, part: int, values: List[float]):
        """Acquire + store + release this partition's region (generator)."""
        node = self.dsm.nodes[part]
        addr = self.region_base[part] * RANK_BYTES
        blob = struct.pack(f"<{len(values)}d", *values)
        yield from node.acquire(addr, len(blob))
        yield from node.write(addr, blob)
        yield from node.release()

    def _superstep(self, part: int, damping: float, iteration: int):
        graph, costs = self.graph, self.costs
        node = self.dsm.nodes[part]
        cpu = node.ctx.kernel.node.cpu
        # Gather: DSM loads; remote values arrive page-by-page through
        # the cache, refreshed by the producers' release invalidations.
        remote: Dict[int, float] = {}
        for producer, needed in graph.pull_sets[part].items():
            base = self.region_base[producer] * RANK_BYTES
            span = len(graph.owned[producer]) * RANK_BYTES
            blob = yield from node.read(base, span)
            values = struct.unpack(f"<{span // 8}d", blob)
            for vertex in needed:
                remote[vertex] = values[graph.local_index(vertex)]
        own_values = {}
        own_addr = self.region_base[part] * RANK_BYTES
        own_span = len(graph.owned[part]) * RANK_BYTES
        blob = yield from node.read(own_addr, own_span)
        unpacked = struct.unpack(f"<{own_span // 8}d", blob)
        for vertex in graph.owned[part]:
            own_values[vertex] = unpacked[graph.local_index(vertex)]

        edges = 0
        new_values: List[float] = []
        for vertex in graph.owned[part]:
            acc = 0.0
            for src in graph.in_neighbors.get(vertex, ()):
                value = own_values.get(src)
                if value is None:
                    value = remote[src]
                acc += value / max(1, graph.out_degree[src])
                edges += 1
            new_values.append(
                (1.0 - damping) / graph.n_vertices + damping * acc
            )
        compute = edges * costs.gather_us_per_edge
        compute += len(new_values) * costs.apply_us_per_vertex
        procs = [
            node.sim.process(
                cpu.execute(compute / self.threads_per_node, tag="gdsm-compute")
            )
            for _ in range(self.threads_per_node)
        ]
        yield node.sim.all_of(procs)
        yield from self._write_own(part, new_values)
        yield from node.barrier(f"step{iteration}")

    def run(self, iterations: int, damping: float = 0.85):
        """Run PageRank (generator; returns the global rank list)."""
        graph = self.graph
        sim = self.dsm.nodes[0].sim
        yield from self.dsm.build()
        # Initialize every partition's region.
        init = [
            sim.process(
                self._write_own(
                    part,
                    [1.0 / graph.n_vertices] * len(graph.owned[part]),
                )
            )
            for part in range(graph.n_partitions)
        ]
        yield sim.all_of(init)
        barriers = [
            sim.process(self.dsm.nodes[part].barrier("init"))
            for part in range(graph.n_partitions)
        ]
        yield sim.all_of(barriers)
        start = sim.now
        for iteration in range(iterations):
            steps = [
                sim.process(self._superstep(part, damping, iteration))
                for part in range(graph.n_partitions)
            ]
            yield sim.all_of(steps)
        self.elapsed_us = sim.now - start
        # Collect the final ranks through the DSM itself.
        collector = self.dsm.nodes[0]
        ranks = [0.0] * graph.n_vertices
        for part in range(graph.n_partitions):
            base = self.region_base[part] * RANK_BYTES
            span = len(graph.owned[part]) * RANK_BYTES
            blob = yield from collector.read(base, span)
            values = struct.unpack(f"<{span // 8}d", blob)
            for vertex in graph.owned[part]:
                ranks[vertex] = values[graph.local_index(vertex)]
        return ranks
