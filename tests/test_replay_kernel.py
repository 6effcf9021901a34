"""The compiled replay kernel against the Python reference loop.

:func:`repro.workloads.native.replay` must leave a System in exactly the
state :func:`repro.workloads.runner._replay_python` leaves its twin in:
the same :class:`RunResult`, the same ``System.snapshot()`` payload, and
the same dict *order* in the prefetcher tables, the in-flight fills and
the requestor-stats dicts (order drives LRU/FIFO trimming there).  When
the kernel declines a run, :func:`runner._replay` must take the Python
path and give the same answer.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cache import HierarchyConfig
from repro.config import SystemConfig
from repro.dram.address import DRAMGeometry
from repro.dram.timings import DRAMTimings
from repro.obs import Observer
from repro.system import System
from repro.workloads import evaluate_defenses, native, runner
from repro.workloads.kernels import RefStream

# Skip only without a compiler: a kernel that fails to build must fail
# these tests, not skip them.
needs_kernel = pytest.mark.skipif(native._compiler() is None,
                                  reason="no C compiler (cc) on PATH")

#: 4 banks x 64 rows x 1 KiB rows: small enough that streams reach both
#: ends of memory, and (with the tiny caches below) every level evicts.
GEOMETRY = DRAMGeometry(ranks=1, banks_per_rank=4, rows_per_bank=64,
                        row_bytes=1024, subarrays_per_bank=4)
CAPACITY = GEOMETRY.capacity_bytes
PCS = (0x40, 0x50, 0x60, 0x70)


def make_config(policy: str = "open", timeout_ns: float = 0.0,
                mapping: str = "row",
                replacement=("lru", "srrip", "srrip"),
                prefetch: bool = True, cores: int = 2,
                refresh: bool = False) -> SystemConfig:
    hierarchy = HierarchyConfig(
        num_cores=cores, l1_size_kb=1, l1_ways=2,
        l1_replacement=replacement[0], l2_size_kb=2, l2_ways=4,
        l2_replacement=replacement[1], llc_size_mb=8 / 1024, llc_ways=4,
        llc_latency=20, llc_replacement=replacement[2],
        prefetchers_enabled=prefetch)
    base = SystemConfig(num_cores=cores, geometry=GEOMETRY,
                        timings=DRAMTimings(row_timeout_ns=timeout_ns),
                        mapping=mapping, hierarchy=hierarchy,
                        refresh_enabled=refresh)
    return base.with_defense(policy)


def fresh(config: SystemConfig, **kwargs) -> System:
    # sanitize=False: the kernel declines sanitized systems, and these
    # tests must exercise it even in a REPRO_SANITIZE=1 run.
    return System(config, sanitize=False, **kwargs)


def stream(addrs, writes=None) -> RefStream:
    """Reads (or ``writes``) of ``addrs`` from PC 0x40, one cycle apart."""
    return RefStream(array("q", addrs), array("q", [0x40] * len(addrs)),
                     array("B", writes or [0] * len(addrs)), 1)


def reversed_stream(refs: RefStream) -> RefStream:
    return RefStream(refs.addr[::-1], refs.pc[::-1], refs.is_write[::-1],
                     refs.compute)


def random_stream(rng: random.Random, length: int) -> RefStream:
    """Random touches of a small working set, strided runs (prefetcher
    fodder) and runs that walk off either end of memory."""
    refs = []
    while len(refs) < length:
        kind = rng.random()
        pc = rng.choice(PCS)
        if kind < 0.5:
            addr = rng.randrange(0, 48 * 1024)
            refs.append((pc, addr, rng.random() < 0.3))
            continue
        stride = rng.choice((64, -64, 128, 8, 4096, -192))
        if kind < 0.65:
            start = CAPACITY - 1 - rng.randrange(0, 400)
        elif kind < 0.8:
            start = rng.randrange(0, 400)
        else:
            start = rng.randrange(0, 64 * 1024)
        for i in range(rng.randrange(3, 9)):
            addr = start + i * stride
            if 0 <= addr < CAPACITY:
                refs.append((pc, addr, rng.random() < 0.2))
    return RefStream.from_refs(refs[:length], rng.randrange(0, 6))


def assert_same_state(got: System, want: System) -> None:
    assert got.snapshot().payload == want.snapshot().payload
    hg, hw = got.hierarchy, want.hierarchy
    for pg, pw in zip(hg._l1_prefetchers, hw._l1_prefetchers):
        assert list(pg._table.items()) == list(pw._table.items())
    for pg, pw in zip(hg._l2_prefetchers, hw._l2_prefetchers):
        assert list(pg._regions.items()) == list(pw._regions.items())
    assert (list(hg._inflight_fills.items())
            == list(hw._inflight_fills.items()))
    assert list(hg.stats.by_requestor) == list(hw.stats.by_requestor)
    assert (list(got.controller.requestor_stats)
            == list(want.controller.requestor_stats))


def check_equivalent(config: SystemConfig, streams, *, warm: bool = False,
                     rounds: int = 1) -> None:
    """Replay ``streams`` through the kernel and through the Python loop
    on twin Systems; results and state must match after every round."""
    got, want = fresh(config), fresh(config)
    if warm:
        with mock.patch.object(runner, "_replay_python",
                               side_effect=AssertionError("kernel declined")):
            runner._warm(got, streams)
        with mock.patch.object(native, "replay", return_value=None):
            runner._warm(want, streams)
        assert_same_state(got, want)
    for _ in range(rounds):
        result = native.replay(got, streams)
        assert result is not None, "kernel declined the run"
        assert result == runner._replay_python(want, streams)
        assert_same_state(got, want)


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


@needs_kernel
@pytest.mark.parametrize("timeout_ns", [0.0, 20.0])
@pytest.mark.parametrize("mapping", ["row", "line", "xor"])
@pytest.mark.parametrize("policy", ["open", "crp", "ctd"])
def test_row_policies_and_mappings(policy, mapping, timeout_ns):
    rng = random.Random(f"{policy}-{mapping}-{timeout_ns}")
    streams = [random_stream(rng, 300), random_stream(rng, 220)]
    check_equivalent(make_config(policy, timeout_ns, mapping), streams,
                     rounds=2)


@needs_kernel
@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("replacement", [
    ("lru", "lru", "lru"), ("srrip", "srrip", "srrip"),
    ("lru", "srrip", "srrip"), ("srrip", "lru", "lru")])
def test_replacement_and_prefetchers(replacement, prefetch):
    rng = random.Random(f"{replacement}-{prefetch}")
    streams = [random_stream(rng, 400), random_stream(rng, 400)]
    check_equivalent(make_config(replacement=replacement,
                                 prefetch=prefetch), streams, rounds=2)


@needs_kernel
@pytest.mark.parametrize("lengths", [(0, 0), (0, 50), (50, 0), (1, 200),
                                     (200, 3)])
def test_uneven_and_empty_streams(lengths):
    rng = random.Random(str(lengths))
    streams = [random_stream(rng, n) for n in lengths]
    check_equivalent(make_config(), streams)


@needs_kernel
@pytest.mark.parametrize("cores,nstreams", [(1, 1), (1, 0), (2, 1)])
def test_fewer_streams_than_cores(cores, nstreams):
    rng = random.Random(cores * 10 + nstreams)
    streams = [random_stream(rng, 250) for _ in range(nstreams)]
    check_equivalent(make_config(cores=cores), streams, rounds=2)


@needs_kernel
def test_warm_then_measure():
    rng = random.Random(7)
    streams = [random_stream(rng, 300), random_stream(rng, 300)]
    check_equivalent(make_config("ctd", 20.0), streams, warm=True)


@needs_kernel
@pytest.mark.parametrize("start,stride", [
    (CAPACITY - 64 * 6, 64), (64 * 5, -64),
    (CAPACITY - 4096 * 3 + 8, 4096), (4096 * 2 + 8, -4096)])
def test_prefetches_at_capacity_edges(start, stride):
    """IP-stride and streamer candidates past either end of memory are
    skipped, not issued."""
    refs = stream([start + i * stride for i in range(8)
                   if 0 <= start + i * stride < CAPACITY])
    check_equivalent(make_config(), [refs, reversed_stream(refs)])


@needs_kernel
def test_inflight_fifo_trims_and_wraps():
    """Short strided bursts scattered over memory leave most prefetches
    unconsumed: the in-flight FIFO fills past its 512-entry limit and is
    trimmed oldest-first thousands of times in one replay."""
    bases = [burst * 7919 * 64 % (CAPACITY - 4096) for burst in range(1500)]
    refs = stream([base + i * 64 for base in bases for i in range(3)],
                  writes=[i == 1 for _ in bases for i in range(3)])
    config = make_config()
    check_equivalent(config, [refs, reversed_stream(refs)])
    system = fresh(config)
    native.replay(system, [refs, reversed_stream(refs)])
    assert len(system.hierarchy._inflight_fills) == 512
    assert system.hierarchy.stats.prefetches_issued > 4 * 512
    assert system.hierarchy.stats.late_prefetch_stalls > 0


@needs_kernel
def test_fig11_workload_matches_reference():
    """A real Fig. 11 stream under all three policies, warm-up included."""
    with mock.patch.object(native, "replay", return_value=None):
        want = evaluate_defenses("BFS", max_refs=1500)
    got = evaluate_defenses("BFS", max_refs=1500)
    assert got.results == want.results


@st.composite
def replay_cases(draw):
    config = make_config(
        policy=draw(st.sampled_from(["open", "crp", "ctd"])),
        timeout_ns=draw(st.sampled_from([0.0, 10.0, 40.0])),
        mapping=draw(st.sampled_from(["row", "line", "xor"])),
        replacement=tuple(draw(st.sampled_from(["lru", "srrip"]))
                          for _ in range(3)),
        prefetch=draw(st.booleans()),
        cores=draw(st.integers(1, 2)))
    nstreams = draw(st.integers(0, config.hierarchy.num_cores))
    addr = st.one_of(st.integers(0, 24 * 1024 - 1),
                     st.integers(CAPACITY - 1024, CAPACITY - 1),
                     st.integers(0, CAPACITY - 1))
    ref = st.tuples(st.sampled_from(PCS), addr, st.booleans())
    streams = [RefStream.from_refs(draw(st.lists(ref, max_size=120)),
                                   draw(st.integers(0, 12)))
               for _ in range(nstreams)]
    return config, streams, draw(st.booleans())


@needs_kernel
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(replay_cases())
def test_random_streams_match_reference(case):
    config, streams, warm = case
    check_equivalent(config, streams, warm=warm)


# ----------------------------------------------------------------------
# Fallback to the Python path
# ----------------------------------------------------------------------


def replay_with_spy(system: System, streams):
    """``runner._replay`` with a counter on the Python path."""
    with mock.patch.object(runner, "_replay_python",
                           wraps=runner._replay_python) as spy:
        result = runner._replay(system, streams)
    return result, spy.call_count


def two_streams(seed: int = 3):
    rng = random.Random(seed)
    return [random_stream(rng, 200), random_stream(rng, 200)]


@pytest.mark.parametrize("setup", ["observer", "random", "refresh",
                                   "partition"])
def test_declined_runs_take_the_python_path(setup):
    streams = two_streams()
    config = make_config()
    kwargs = {}
    if setup == "observer":
        kwargs["observer"] = Observer()
    elif setup == "random":
        config = make_config(replacement=("lru", "random", "srrip"))
    elif setup == "refresh":
        config = make_config(refresh=True)
    elif setup == "partition":
        # One core owning every bank; no prefetches (their "-pf"
        # requestor would not own any).
        config = make_config(prefetch=False)
        streams = streams[:1]
    system = fresh(config, **kwargs)
    twin = fresh(config)
    if setup == "partition":
        for machine in (system, twin):
            machine.controller.partition_banks("core0", range(4))
    assert native.replay(system, streams) is None
    result, python_calls = replay_with_spy(system, streams)
    assert python_calls == 1
    # Observers do not change the simulation: the kernel (or, for the
    # configurations it does not model, the reference loop) on an
    # unobserved twin gives the same answer.
    assert result == runner._replay(twin, streams)
    assert_same_state(system, twin)


@needs_kernel
def test_supported_runs_skip_the_python_path():
    result, python_calls = replay_with_spy(fresh(make_config()),
                                           two_streams())
    assert python_calls == 0
    assert result.refs == 400


def test_missing_compiler_falls_back(tmp_path, monkeypatch):
    streams = two_streams(5)
    want = runner._replay_python(fresh(make_config()), streams)
    monkeypatch.setattr(native, "_KERNEL", None)
    monkeypatch.setattr(native, "_BUILD_DIR", tmp_path / "build")
    monkeypatch.setattr(native, "_compiler", lambda: None)
    ok, reason = native.available()
    assert not ok and "compiler" in reason
    result, python_calls = replay_with_spy(fresh(make_config()), streams)
    assert python_calls == 1
    assert result == want


def test_world_writable_build_dir_is_refused(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    fn, reason = native._load(shared)
    assert fn is None and "world-writable" in reason
    assert list(shared.iterdir()) == []


def test_out_of_range_address_raises_like_the_reference():
    streams = two_streams(9)
    streams[1].addr[150] = CAPACITY + 64
    system, twin = fresh(make_config()), fresh(make_config())
    before = system.snapshot().payload
    assert native.replay(system, streams) is None
    assert system.snapshot().payload == before
    with pytest.raises(ValueError) as got:
        runner._replay(system, streams)
    with pytest.raises(ValueError) as want:
        runner._replay_python(twin, streams)
    assert str(got.value) == str(want.value)
    assert_same_state(system, twin)


_BUILD_CHILD = r"""
import sys
from pathlib import Path
from repro.system import System
from repro.workloads import native
from repro.workloads.kernels import RefStream
native._BUILD_DIR = Path(sys.argv[1])
ok, reason = native.available()
assert ok, reason
refs = RefStream.from_refs([(0x40, 64 * i, False) for i in range(100)], 1)
result = native.replay(System(sanitize=False), [refs])
assert result is not None and result.refs == 100
print("ok")
"""


@needs_kernel
def test_concurrent_first_builds_both_load(tmp_path):
    build = tmp_path / "build"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    procs = [subprocess.Popen([sys.executable, "-c", _BUILD_CHILD,
                               str(build)], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.strip() == "ok"
    assert [p.name for p in Path(build).iterdir()] == [
        f"replay-{native._digest()}.so"]


# ----------------------------------------------------------------------
# A known modelling gap, pinned
# ----------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="a dirty L2 victim of an L1 "
                   "write-back fill is dropped without a write-back "
                   "(ROADMAP item 4)")
def test_every_written_line_reaches_memory():
    """Write N distinct lines, then clflush each: every line was dirty
    exactly once, so memory must see exactly N write-backs.  L1 victims
    land in L2 (``_fill_l1``), and the dirty L2 line that fill evicts is
    discarded -- L2 does not include L1 -- so some writes never arrive."""
    config = make_config(prefetch=False, cores=1)
    config = replace(config, hierarchy=replace(
        config.hierarchy, llc_size_mb=64 / 1024, llc_ways=16))
    system = fresh(config)
    hierarchy = system.hierarchy
    lines = 256
    now = 0
    for i in range(lines):
        now = hierarchy.access(0, i * 64, now, is_write=True,
                               requestor="cpu").finish
    for i in range(lines):
        now = hierarchy.clflush(0, i * 64, now, requestor="cpu").finish
    writes = sum(s.writes for s in system.controller.requestor_stats.values())
    assert writes == lines
