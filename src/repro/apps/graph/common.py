"""Shared graph-engine machinery: partitioning, GAS costs, PageRank math.

All engines (LITE-Graph, LITE-Graph-DSM, PowerGraph-sim, Grappa-sim)
run the same vertex-centric gather-apply-scatter computation on the
same partitioned graph with the same per-edge/per-vertex compute costs;
they differ only in how vertex data crosses the network.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["GraphCosts", "PartitionedGraph", "pagerank_reference",
           "encode_ranks", "decode_ranks", "RANK_BYTES"]

RANK_BYTES = 8  # one float64 per vertex


@dataclass
class GraphCosts:
    """Per-element compute costs (µs), identical across engines."""

    gather_us_per_edge: float = 0.030
    apply_us_per_vertex: float = 0.050
    scatter_us_per_edge: float = 0.010
    # PowerGraph's higher software overhead per exchanged vertex value
    # (GraphLab serialization + RPC dispatch + scheduler), paid on top
    # of TCP.  Calibrated so PowerGraph lands 3.5-5.6x behind
    # LITE-Graph, the paper's measured envelope.
    powergraph_us_per_value: float = 0.25
    # Grappa aggregates messages; cheap per element but adds a flush
    # latency per aggregation buffer.
    grappa_us_per_value: float = 0.035
    grappa_flush_us: float = 25.0
    grappa_buffer_values: int = 1024


class PartitionedGraph:
    """A directed graph hash-partitioned over P machines.

    Vertex ``v`` is owned by partition ``v % P``.  For PageRank each
    partition needs, per superstep, the ranks of every *remote* vertex
    with an edge into one of its owned vertices — precomputed here as
    the partition's *pull set*.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Tuple[int, int]],
                 n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_vertices = n_vertices
        self.n_partitions = n_partitions
        self.edges = list(edges)
        # in_neighbors[v] = vertices with an edge into v.
        self.in_neighbors: Dict[int, List[int]] = {}
        self.out_degree = [0] * n_vertices
        for src, dst in self.edges:
            self.in_neighbors.setdefault(dst, []).append(src)
            self.out_degree[src] += 1
        self.owned: List[List[int]] = [[] for _ in range(n_partitions)]
        for vertex in range(n_vertices):
            self.owned[vertex % n_partitions].append(vertex)
        # pull_sets[p][q] = sorted vertices owned by q that p must read.
        self.pull_sets: List[Dict[int, List[int]]] = []
        for part in range(n_partitions):
            needed: Dict[int, set] = {}
            for vertex in self.owned[part]:
                for src in self.in_neighbors.get(vertex, ()):
                    owner = src % n_partitions
                    if owner != part:
                        needed.setdefault(owner, set()).add(src)
            self.pull_sets.append(
                {owner: sorted(vertices) for owner, vertices in needed.items()}
            )

    def owner_of(self, vertex: int) -> int:
        """Partition owning ``vertex``."""
        return vertex % self.n_partitions

    def local_index(self, vertex: int) -> int:
        """Position of ``vertex`` in its owner's dense array."""
        return vertex // self.n_partitions


def pagerank_reference(graph: PartitionedGraph, iterations: int,
                       damping: float = 0.85) -> List[float]:
    """Ground-truth PageRank for correctness checks."""
    n = graph.n_vertices
    ranks = [1.0 / n] * n
    for _ in range(iterations):
        new_ranks = [(1.0 - damping) / n] * n
        for vertex in range(n):
            acc = 0.0
            for src in graph.in_neighbors.get(vertex, ()):
                acc += ranks[src] / max(1, graph.out_degree[src])
            new_ranks[vertex] += damping * acc
        ranks = new_ranks
    return ranks


def encode_ranks(values: Sequence[float]) -> bytes:
    """Pack vertex values as little-endian float64s."""
    return struct.pack(f"<{len(values)}d", *values)


def decode_ranks(blob: bytes) -> List[float]:
    """Inverse of :func:`encode_ranks`."""
    count = len(blob) // RANK_BYTES
    return list(struct.unpack(f"<{count}d", blob))
