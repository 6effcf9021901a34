"""Warm-state snapshot/restore: round trips, aliasing, and reuse."""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.config import SystemConfig
from repro.dram.bank import Bank
from repro.dram.timings import DRAMTimings
from repro.sim.snapshot import SystemSnapshot, restore_rows
from repro.system import System
from repro.workloads.kernels import workload_spec
from repro.workloads.runner import (
    WarmupCache,
    fig11_config,
    run_multiprogrammed,
)


def _drive(system, count, seed_stride=7, start=0):
    """Deterministic access stream; returns (latency, hit_level) trace."""
    now = start
    trace = []
    for i in range(count):
        result = system.hierarchy.access(
            i % system.config.num_cores, (i * 64 * seed_stride) % (1 << 22),
            now, pc=i % 53)
        trace.append((result.latency, result.hit_level))
        now = result.finish
    return trace, now


def test_restore_rows_length_mismatch_raises():
    dst = [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        restore_rows(dst, [[1, 1]])


def test_system_snapshot_component_missing_raises():
    snap = SystemSnapshot(config=None, payload={"a": 1})
    assert snap.component("a") == 1
    with pytest.raises(KeyError):
        snap.component("missing")


def test_cache_snapshot_round_trip_is_independent_copy():
    cache = Cache(CacheConfig(name="t", size_bytes=4096, ways=4,
                              latency_cycles=1, replacement="srrip"))
    for i in range(64):
        cache.fill(i * 64)
        cache.access(i * 64, is_write=(i % 3 == 0))
    state = cache.snapshot_state()
    before = [cache.resident_lines(s) for s in range(cache.config.num_sets)]
    # Mutate heavily after the snapshot, then restore.
    for i in range(64, 160):
        cache.fill(i * 64, dirty=True)
    cache.restore_state(state)
    after = [cache.resident_lines(s) for s in range(cache.config.num_sets)]
    assert before == after
    assert cache._dirty == state["dirty"]
    assert any(True in row for row in state["dirty"])
    # The snapshot payload is not aliased by the live cache: mutating the
    # restored cache must not corrupt the saved state.
    cache.fill(999 * 64)
    assert state["tags"] != [[999]]  # payload untouched (sanity)


def test_srrip_restore_preserves_cache_policy_alias():
    cache = Cache(CacheConfig(name="t", size_bytes=4096, ways=4,
                              latency_cycles=1, replacement="srrip"))
    for i in range(80):
        cache.fill(i * 64)
    state = cache.snapshot_state()
    for i in range(80, 200):
        cache.fill(i * 64)
    cache.restore_state(state)
    # Cache._rrpv aliases SRRIPPolicy._rrpv row lists; an in-place restore
    # must keep both views identical (a rebinding restore would split them).
    assert cache._rrpv is cache._policy._rrpv
    for cache_row, policy_row in zip(cache._rrpv, cache._policy._rrpv):
        assert cache_row is policy_row


def test_bank_snapshot_round_trip():
    bank = Bank(index=0, timings=DRAMTimings())
    bank.access(row=5, issued=100)
    bank.access(row=9, issued=500)
    state = bank.snapshot_state()
    bank.access(row=1, issued=900)
    bank.precharge(1500)
    bank.restore_state(state)
    assert bank.open_row == 9
    assert bank.stats.conflicts == 1


def test_system_snapshot_restore_replays_identically():
    system = System(SystemConfig.paper_default())
    _, now = _drive(system, 3000)
    snap = system.snapshot()
    tail_a, _ = _drive(system, 1500, seed_stride=13, start=now)
    system.restore(snap)
    tail_b, _ = _drive(system, 1500, seed_stride=13, start=now)
    assert tail_a == tail_b


def test_snapshot_restores_into_fresh_system():
    warm = System(SystemConfig.paper_default())
    _, now = _drive(warm, 3000)
    snap = warm.snapshot()
    tail_warm, _ = _drive(warm, 1500, seed_stride=13, start=now)

    fresh = System(SystemConfig.paper_default())
    fresh.restore(snap)
    tail_fresh, _ = _drive(fresh, 1500, seed_stride=13, start=now)
    assert tail_warm == tail_fresh


def test_snapshot_config_mismatch_raises():
    snap = System(SystemConfig.paper_default()).snapshot()
    other = System(fig11_config())
    with pytest.raises(ValueError):
        other.restore(snap)


def test_snapshot_predictor_presence_mismatch_raises():
    with_predictor = System(SystemConfig.paper_default())
    with_predictor.enable_offchip_predictor()
    snap = with_predictor.snapshot()
    without = System(SystemConfig.paper_default())
    with pytest.raises(ValueError):
        without.restore(snap)


def test_snapshot_covers_predictor_and_tlbs():
    system = System(SystemConfig.paper_default())
    predictor = system.enable_offchip_predictor()
    for i in range(200):
        predictor.predict_offchip(i * 64)
        predictor.train(i * 64, i % 2 == 0)
    system.mmus[0].warm_up([i * 4096 for i in range(32)])
    snap = system.snapshot()
    predictions_at_snap = predictor.predictions
    tlb_before = system.mmus[0].l2.snapshot_state()
    # Diverge, then restore.
    for i in range(200, 300):
        predictor.predict_offchip(i * 64)
    system.mmus[0].l2.flush()
    system.restore(snap)
    assert predictor.predictions == predictions_at_snap
    assert system.mmus[0].l2.snapshot_state() == tlb_before


def test_warmup_cache_matches_uncached_run():
    spec = workload_spec("bfs")
    stream = spec.refs(graph=spec.build_graph(), max_refs=2500)
    config = fig11_config()
    baseline = run_multiprogrammed(System(config), [stream, stream])
    cache = WarmupCache()
    first = run_multiprogrammed(System(config), [stream, stream],
                                warm_cache=cache)
    second = run_multiprogrammed(System(config), [stream, stream],
                                 warm_cache=cache)
    assert len(cache) == 1  # second run restored instead of re-warming
    for run in (first, second):
        assert run.cycles == baseline.cycles
        assert run.llc_misses == baseline.llc_misses
        assert run.instructions == baseline.instructions


def test_warmup_cache_keys_on_config():
    spec = workload_spec("bfs")
    stream = spec.refs(graph=spec.build_graph(), max_refs=1000)
    cache = WarmupCache()
    base = fig11_config()
    run_multiprogrammed(System(base), [stream, stream], warm_cache=cache)
    run_multiprogrammed(System(base.with_defense("crp")), [stream, stream],
                        warm_cache=cache)
    assert len(cache) == 2  # different row policy => different warm state


# ---------------------------------------------------------------------------
# Versioned byte serialization (the warm store's wire format)
# ---------------------------------------------------------------------------

def test_snapshot_bytes_round_trip():
    from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION, SnapshotFormatError

    system = System(fig11_config())
    _drive(system, 500)
    snap = system.snapshot()
    data = snap.to_bytes()
    assert data[:8] == b"RPRSNAP1"
    loaded = SystemSnapshot.from_bytes(data)
    assert loaded.config == snap.config
    restored = System(fig11_config())
    restored.restore(loaded)
    tail_restored, _ = _drive(restored, 300, seed_stride=13, start=50_000)
    tail_original, _ = _drive(system, 300, seed_stride=13, start=50_000)
    assert tail_restored == tail_original
    assert SNAPSHOT_FORMAT_VERSION == 1
    with pytest.raises(SnapshotFormatError):
        SystemSnapshot.from_bytes(b"definitely not a snapshot")
    with pytest.raises(SnapshotFormatError):
        # Same magic, unknown format version.
        SystemSnapshot.from_bytes(data[:8] + b"\xff\xff" + data[10:])


def test_snapshot_bytes_cross_process_round_trip(tmp_path):
    """A snapshot serialized by another process restores here and replays
    bit-identically to warm state produced in-process."""
    import json
    import os
    import subprocess
    import sys

    import repro

    child = r"""
import json, sys
from repro.system import System
from repro.workloads.runner import fig11_config

system = System(fig11_config())
now = 0
for i in range(2000):
    result = system.hierarchy.access(
        i % system.config.num_cores, (i * 64 * 7) % (1 << 22), now, pc=i % 53)
    now = result.finish
with open(sys.argv[1], "wb") as handle:
    handle.write(system.snapshot().to_bytes())
print(json.dumps({"now": now}))
"""
    path = tmp_path / "warm.snap"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", child, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    now = json.loads(proc.stdout)["now"]

    snap = SystemSnapshot.from_bytes(path.read_bytes())
    restored = System(fig11_config())
    restored.restore(snap)
    tail_restored, _ = _drive(restored, 800, seed_stride=13, start=now)

    reference = System(fig11_config())
    _, reference_now = _drive(reference, 2000)
    assert reference_now == now
    tail_reference, _ = _drive(reference, 800, seed_stride=13, start=now)
    assert tail_restored == tail_reference
