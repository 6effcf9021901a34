"""Unit and integration tests for graph workloads and the Fig. 11 runner."""

import hashlib
from array import array

import pytest

from repro import System, SystemConfig
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry
from repro.workloads import (
    KERNELS,
    CSRGraph,
    bc_kernel,
    bfs_kernel,
    cc_kernel,
    evaluate_defenses,
    generate_graph,
    pagerank_kernel,
    run_multiprogrammed,
    tc_kernel,
    workload_spec,
)
from repro.workloads.kernels import MAX_COMPUTE, Layout, RefStream


def tiny_graph():
    return generate_graph(num_nodes=60, avg_degree=4, seed=1)


def tiny_system():
    return System(SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0),
        num_cores=2))


# ---------------------------------------------------------------------------
# Graph generation
# ---------------------------------------------------------------------------

def test_graph_is_symmetric_and_sorted():
    g = tiny_graph()
    for u in range(g.num_nodes):
        neighbors = g.neighbors(u)
        assert list(neighbors) == sorted(neighbors)
        for v in neighbors:
            assert u in g.neighbors(v)


def test_graph_deterministic():
    a = generate_graph(100, 6, seed=3)
    b = generate_graph(100, 6, seed=3)
    assert a.edges == b.edges
    assert generate_graph(100, 6, seed=4).edges != a.edges


def test_graph_degree_near_target():
    g = generate_graph(400, avg_degree=8, seed=0)
    avg = g.num_edges / g.num_nodes
    assert 4 <= avg <= 10


def test_graph_validation():
    with pytest.raises(ValueError):
        generate_graph(1)
    with pytest.raises(ValueError):
        generate_graph(10, avg_degree=0)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [bfs_kernel, pagerank_kernel, cc_kernel,
                                    tc_kernel, bc_kernel])
def test_kernels_emit_valid_refs(kernel):
    layout = Layout()
    refs = list(kernel(tiny_graph(), layout))
    assert refs
    for pc, addr, is_write in refs:
        assert pc >= 0
        assert addr >= layout.offsets_base
        assert isinstance(is_write, bool)


def test_bfs_visits_whole_connected_graph():
    g = tiny_graph()
    refs = list(bfs_kernel(g, Layout()))
    # Ring seeding makes the graph connected: every node's record is read.
    data_addrs = {addr for _, addr, _ in refs if addr >= Layout().data_base}
    assert len(data_addrs) >= g.num_nodes - 1


def test_cc_terminates_with_writes():
    refs = list(cc_kernel(tiny_graph(), Layout()))
    assert any(is_write for _, _, is_write in refs)


def test_pagerank_streams_edges_in_order():
    layout = Layout()
    addrs = [addr for _, addr, _ in pagerank_kernel(tiny_graph(), layout)
             if layout.edges_base <= addr < layout.data_base]
    assert addrs == sorted(addrs)


def test_specs_cover_paper_workloads():
    assert set(KERNELS) == {"BC", "BFS", "CC", "TC", "PR"}
    assert workload_spec("bfs").name == "BFS"
    with pytest.raises(ValueError):
        workload_spec("SSSP")


def test_spec_refs_truncation():
    spec = workload_spec("PR")
    refs = spec.refs(max_refs=100)
    assert len(refs) == 100
    assert refs.compute == spec.compute_cycles
    full = spec.refs()
    assert full.addr[:100] == refs.addr and full.pc[:100] == refs.pc


#: sha256 of each Fig. 11 stream at ``max_refs=60_000`` (addr, pc, is_write
#: columns, then the compute gap once per reference), first 16 hex digits.
STREAM_DIGESTS = {
    "BC": (50_900, "74c435a5f29a08f4"),
    "BFS": (60_000, "180f999a8c5d1e05"),
    "CC": (60_000, "9fe59e4c34ce5d79"),
    "PR": (60_000, "901429fe8c449dac"),
    "TC": (60_000, "012e03a013a9f295"),
}


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_fig11_streams_are_pinned(name):
    """Every Fig. 11 number is a function of these streams: a kernel
    change that moves one reference changes the digest."""
    refs = workload_spec(name).refs(max_refs=60_000)
    n = len(refs)
    digest = hashlib.sha256(
        refs.addr.tobytes() + refs.pc.tobytes() + bytes(refs.is_write)
        + array("q", [refs.compute] * n).tobytes()).hexdigest()[:16]
    assert (n, digest) == STREAM_DIGESTS[name]


def test_ref_stream_columns():
    refs = RefStream.from_refs([(0x40, 64, False), (0x50, 128, True)], 3)
    assert len(refs) == 2
    assert list(refs.addr) == [64, 128] and list(refs.pc) == [0x40, 0x50]
    assert list(refs.is_write) == [0, 1] and refs.compute == 3
    assert not RefStream.from_refs([], 0)


def test_ref_stream_validation():
    with pytest.raises(ValueError):
        RefStream(array("q", [0]), array("q"), array("B", [0]), 1)
    for compute in (-1, MAX_COMPUTE):
        with pytest.raises(ValueError):
            RefStream.from_refs([(0x40, 0, False)], compute)
    with pytest.raises(OverflowError):
        RefStream.from_refs([(0x40, 1 << 63, False)], 1)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_runner_replays_all_refs():
    system = tiny_system()
    stream = workload_spec("BC").refs(graph=tiny_graph(), max_refs=500)
    result = run_multiprogrammed(system, [stream, stream], warmup=False)
    assert result.refs == 1000
    assert result.cycles > 0
    assert result.instructions > result.refs


def test_runner_warmup_reduces_misses():
    stream = workload_spec("BC").refs(graph=tiny_graph(), max_refs=500)
    cold = run_multiprogrammed(tiny_system(), [stream, stream], warmup=False)
    warm = run_multiprogrammed(tiny_system(), [stream, stream], warmup=True)
    assert warm.llc_misses <= cold.llc_misses


def test_runner_rejects_too_many_streams():
    system = tiny_system()
    with pytest.raises(ValueError):
        run_multiprogrammed(system, [[], [], []])


def test_evaluate_defenses_fig11_shape():
    """CTD slows things at least as much as CRP; both >= ~0 (small graphs
    here; the bench reproduces the full figure)."""
    ev = evaluate_defenses("PR", max_refs=4000)
    assert set(ev.results) == {"open", "crp", "ctd"}
    crp, ctd = ev.overhead("crp"), ev.overhead("ctd")
    assert ctd >= crp - 0.02
    assert ev.results["open"].cycles > 0
    row = ev.row()
    assert row["workload"] == "PR"


def test_mpki_metric():
    from repro.workloads import RunResult
    r = RunResult(cycles=1000, instructions=10_000, refs=1000, llc_misses=50)
    assert r.mpki == 5.0
    assert r.ipc == 10.0
