"""The five GraphBIG kernels as instrumented memory-reference generators.

Each kernel runs the real algorithm over a CSR graph and yields one
``(pc, addr, is_write)`` tuple per data-structure touch: CSR offset/edge
reads (sequential), per-node property reads/writes (random for BFS/CC,
streamed for PR), etc.  :meth:`WorkloadSpec.refs` collects them into a
:class:`RefStream`, the flat-column form both Fig. 11 replay paths read.
Per-node record sizes follow each workload's property struct so the
working sets reproduce the paper's LLC MPKI ordering
(BC 0.57 < PR 1.86 < TC 5.08 < BFS 38.59 < CC 45.2) at simulation scale.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.workloads.graphs import CSRGraph, generate_graph

#: One memory touch as a kernel yields it: ``(pc, addr, is_write)``.
Ref = Tuple[int, int, bool]

#: Compute gaps stay below this so every replay clock fits 64 bits.
MAX_COMPUTE = 1 << 32


@dataclass(frozen=True)
class RefStream:
    """A reference stream as flat columns.

    Reference ``i`` touches ``addr[i]`` from instruction ``pc[i]`` (a
    write when ``is_write[i]``) after ``compute`` cycles of non-memory
    work; every reference of a stream has the same gap.  ``addr`` and
    ``pc`` are ``array('q')`` and ``is_write`` is ``array('B')``, so a
    value that does not fit the replay kernel's integers is rejected when
    the stream is built, and the kernel reads the buffers in place.
    """

    addr: array
    pc: array
    is_write: array
    compute: int

    def __post_init__(self) -> None:
        if not len(self.addr) == len(self.pc) == len(self.is_write):
            raise ValueError("RefStream columns differ in length")
        if not 0 <= self.compute < MAX_COMPUTE:
            raise ValueError(f"compute gap {self.compute} outside "
                             f"[0, {MAX_COMPUTE})")

    def __len__(self) -> int:
        return len(self.addr)

    @classmethod
    def from_refs(cls, refs: Iterable[Ref], compute: int) -> "RefStream":
        """Collect ``(pc, addr, is_write)`` tuples into columns."""
        addr, pc, is_write = array("q"), array("q"), array("B")
        add_addr, add_pc, add_write = addr.append, pc.append, is_write.append
        for ref_pc, ref_addr, ref_write in refs:
            add_pc(ref_pc)
            add_addr(ref_addr)
            add_write(ref_write)
        return cls(addr, pc, is_write, compute)


@dataclass(frozen=True)
class Layout:
    """Address-space placement of a kernel's data structures."""

    offsets_base: int = 0x0400_0000
    edges_base: int = 0x0800_0000
    data_base: int = 0x1000_0000
    data2_base: int = 0x1800_0000
    offset_bytes: int = 8
    edge_bytes: int = 8
    node_bytes: int = 64

    def offset_addr(self, u: int) -> int:
        return self.offsets_base + u * self.offset_bytes

    def edge_addr(self, i: int) -> int:
        return self.edges_base + i * self.edge_bytes

    def data_addr(self, u: int) -> int:
        return self.data_base + u * self.node_bytes

    def data2_addr(self, u: int) -> int:
        return self.data2_base + u * self.node_bytes


# PC labels, one per access site, so the prefetchers see stable streams.
OFFSET, EDGE, NODE_R, NODE_W, AUX_R, AUX_W = (0x400000 + i * 16
                                              for i in range(6))

KernelFn = Callable[..., Iterator[Ref]]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def bfs_kernel(graph: CSRGraph, layout: Layout,
               source: int = 0) -> Iterator[Ref]:
    """Breadth-first search: sequential CSR scans + random visited checks."""
    visited = [False] * graph.num_nodes
    visited[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        yield OFFSET, layout.offset_addr(u), False
        yield OFFSET, layout.offset_addr(u + 1), False
        for i in range(graph.offsets[u], graph.offsets[u + 1]):
            yield EDGE, layout.edge_addr(i), False
            v = graph.edges[i]
            yield NODE_R, layout.data_addr(v), False
            if not visited[v]:
                visited[v] = True
                yield NODE_W, layout.data_addr(v), True
                queue.append(v)


def pagerank_kernel(graph: CSRGraph, layout: Layout, iterations: int = 1,
                    damping: float = 0.85) -> Iterator[Ref]:
    """PageRank: streaming CSR traversal + rank gathers + rank writes."""
    rank = [1.0 / graph.num_nodes] * graph.num_nodes
    for _ in range(iterations):
        new_rank = [0.0] * graph.num_nodes
        for u in range(graph.num_nodes):
            yield OFFSET, layout.offset_addr(u), False
            total = 0.0
            for i in range(graph.offsets[u], graph.offsets[u + 1]):
                yield EDGE, layout.edge_addr(i), False
                v = graph.edges[i]
                yield NODE_R, layout.data_addr(v), False
                degree = max(1, graph.degree(v))
                total += rank[v] / degree
            new_rank[u] = (1 - damping) / graph.num_nodes + damping * total
            yield AUX_W, layout.data2_addr(u), True
        rank = new_rank


def cc_kernel(graph: CSRGraph, layout: Layout) -> Iterator[Ref]:
    """Connected components via union-find: random parent-chain walks."""
    parent = list(range(graph.num_nodes))

    def find(x: int):
        # Path halving: every hop is a random-looking parent read.
        while parent[x] != x:
            yield NODE_R, layout.data_addr(parent[x]), False
            parent[x] = parent[parent[x]]
            yield NODE_W, layout.data_addr(x), True
            x = parent[x]
        return x

    for u in range(graph.num_nodes):
        for i in range(graph.offsets[u], graph.offsets[u + 1]):
            yield EDGE, layout.edge_addr(i), False
            v = graph.edges[i]
            if v < u:
                continue
            root_u = yield from find(u)
            root_v = yield from find(v)
            if root_u != root_v:
                parent[root_v] = root_u
                yield NODE_W, layout.data_addr(root_v), True


def tc_kernel(graph: CSRGraph, layout: Layout) -> Iterator[Ref]:
    """Triangle counting: sorted-adjacency intersections (merge scans)."""
    triangles = 0
    for u in range(graph.num_nodes):
        yield OFFSET, layout.offset_addr(u), False
        for i in range(graph.offsets[u], graph.offsets[u + 1]):
            yield EDGE, layout.edge_addr(i), False
            v = graph.edges[i]
            if v <= u:
                continue
            # Merge-intersect adj(u) and adj(v): two sequential scans.
            pi, pj = graph.offsets[u], graph.offsets[v]
            end_i, end_j = graph.offsets[u + 1], graph.offsets[v + 1]
            while pi < end_i and pj < end_j:
                yield EDGE, layout.edge_addr(pi), False
                yield EDGE, layout.edge_addr(pj), False
                a, b = graph.edges[pi], graph.edges[pj]
                if a == b:
                    if a > v:
                        triangles += 1
                    pi += 1
                    pj += 1
                elif a < b:
                    pi += 1
                else:
                    pj += 1


def bc_kernel(graph: CSRGraph, layout: Layout,
              num_sources: int = 2) -> Iterator[Ref]:
    """Betweenness centrality (Brandes): BFS + dependency accumulation
    from a few sources over a small, cache-resident working set."""
    for source in range(num_sources):
        sigma = [0] * graph.num_nodes
        dist = [-1] * graph.num_nodes
        sigma[source] = 1
        dist[source] = 0
        order: List[int] = []
        queue = deque([source])
        while queue:
            u = queue.popleft()
            order.append(u)
            yield OFFSET, layout.offset_addr(u), False
            for i in range(graph.offsets[u], graph.offsets[u + 1]):
                yield EDGE, layout.edge_addr(i), False
                v = graph.edges[i]
                yield NODE_R, layout.data_addr(v), False
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    yield NODE_W, layout.data_addr(v), True
        delta = [0.0] * graph.num_nodes
        for u in reversed(order):
            yield AUX_R, layout.data2_addr(u), False
            for i in range(graph.offsets[u], graph.offsets[u + 1]):
                v = graph.edges[i]
                if dist[v] == dist[u] + 1 and sigma[v]:
                    delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
            yield AUX_W, layout.data2_addr(u), True


# ---------------------------------------------------------------------------
# Workload specifications (Fig. 11's five applications)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """One Fig. 11 workload: kernel + scaled input + memory layout.

    ``node_bytes``/``edge_bytes`` pad the per-element records so the
    random (node-property) and streaming (CSR-edge) footprints scale
    against the Fig. 11 experiment's cache hierarchy the way the paper's
    multi-GB inputs scale against Table 2's — the working-set-to-LLC
    ratios, not the absolute sizes, drive the defense overheads.
    """

    name: str
    kernel: KernelFn
    num_nodes: int
    avg_degree: int
    node_bytes: int
    edge_bytes: int
    compute_cycles: int
    paper_mpki: float
    seed: int = 0

    def build_graph(self) -> CSRGraph:
        return generate_graph(self.num_nodes, self.avg_degree, seed=self.seed)

    def layout(self) -> Layout:
        return Layout(node_bytes=self.node_bytes, edge_bytes=self.edge_bytes)

    def refs(self, graph: Optional[CSRGraph] = None,
             max_refs: Optional[int] = None) -> RefStream:
        """Materialize the reference stream (optionally truncated)."""
        g = graph if graph is not None else self.build_graph()
        return RefStream.from_refs(
            islice(self.kernel(g, self.layout()), max_refs),
            self.compute_cycles)


KERNELS: Dict[str, WorkloadSpec] = {
    # BC: tiny working set, compute-heavy -> cache-resident (MPKI 0.57).
    "BC": WorkloadSpec(name="BC", kernel=bc_kernel, num_nodes=1200,
                       avg_degree=8, node_bytes=32, edge_bytes=8,
                       compute_cycles=16, paper_mpki=0.57),
    # BFS: fat visited records + streamed CSR, little compute (38.59).
    "BFS": WorkloadSpec(name="BFS", kernel=bfs_kernel, num_nodes=4000,
                        avg_degree=8, node_bytes=320, edge_bytes=48,
                        compute_cycles=2, paper_mpki=38.59),
    # CC: union-find chains over fat parent records + edge stream (45.2).
    "CC": WorkloadSpec(name="CC", kernel=cc_kernel, num_nodes=4000,
                       avg_degree=8, node_bytes=1024, edge_bytes=64,
                       compute_cycles=2, paper_mpki=45.2),
    # TC: sequential intersections over a streamed edge array (5.08).
    "TC": WorkloadSpec(name="TC", kernel=tc_kernel, num_nodes=4000,
                       avg_degree=8, node_bytes=64, edge_bytes=96,
                       compute_cycles=6, paper_mpki=5.08),
    # PR: streaming edge array with cache-resident ranks (1.86).
    "PR": WorkloadSpec(name="PR", kernel=pagerank_kernel, num_nodes=3000,
                       avg_degree=10, node_bytes=32, edge_bytes=64,
                       compute_cycles=6, paper_mpki=1.86),
}


def workload_spec(name: str) -> WorkloadSpec:
    """Spec by name (``BC``/``BFS``/``CC``/``TC``/``PR``)."""
    try:
        return KERNELS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(KERNELS)}"
        ) from None
