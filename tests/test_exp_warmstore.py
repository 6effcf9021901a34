"""Tests for the persistent warm-state store (:mod:`repro.exp.warmstore`).

The load-bearing property is the PR's hard invariant: a point served from
warm state — memory memo, pristine pool, or on-disk snapshot — must be
**bit-identical** to the same point rebuilt from scratch
(``REPRO_NO_WARMSTORE=1``).
"""

import random

import pytest

from repro.config import SystemConfig
from repro.exp import warmstore
from repro.exp.warmstore import (
    WarmStore,
    clear_pristine_pool,
    pristine_system,
    reset_active_store,
)
from repro.system import System
from repro.workloads.kernels import workload_spec
from repro.workloads.runner import WarmupCache, fig11_config, run_multiprogrammed


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


def _clear_memos():
    """Reset every in-process warm memo, so later reuse must come from the
    on-disk store (what a fresh worker process would see)."""
    from repro.exp import figures

    figures._FIG10_SCHEDULES.clear()
    figures._FIG11_WARM = None
    clear_pristine_pool()
    reset_active_store()


@pytest.fixture(autouse=True)
def _isolated_store_state():
    """Each test resolves the store from its own environment and leaves no
    pooled systems behind."""
    reset_active_store()
    clear_pristine_pool()
    yield
    reset_active_store()
    clear_pristine_pool()


# ---------------------------------------------------------------------------
# WarmStore entries
# ---------------------------------------------------------------------------

class TestWarmStore:
    def test_artifact_roundtrip(self, tmp_path):
        store = WarmStore(tmp_path, version="v1")
        recipe = ("order", 128, 7)
        assert store.is_missing(store.load_artifact(recipe))
        store.store_artifact(recipe, [3, 1, 2])
        assert store.load_artifact(recipe) == [3, 1, 2]
        assert store.hits == 1 and store.misses == 1

    def test_artifact_disk_roundtrip_without_memory(self, tmp_path):
        writer = WarmStore(tmp_path, version="v1")
        writer.store_artifact(("r",), {"a": 1})
        reader = WarmStore(tmp_path, version="v1")  # fresh LRU
        assert reader.load_artifact(("r",)) == {"a": 1}
        assert reader.disk_hits == 1

    def test_snapshot_roundtrip_validates_config(self, tmp_path):
        config = fig11_config()
        system = System(config)
        _drive(system, 500)
        snap = system.snapshot()
        store = WarmStore(tmp_path, version="v1")
        store.store_snapshot(snap, recipe=("warmup", "x"))
        loaded = WarmStore(tmp_path, version="v1").load_snapshot(
            config, ("warmup", "x"))
        assert loaded is not None and loaded.config == config
        restored = System(config)
        restored.restore(loaded)
        tail_restored, _ = _drive(restored, 300, seed_stride=13, start=10_000)
        tail_original, _ = _drive(system, 300, seed_stride=13, start=10_000)
        assert tail_restored == tail_original

    def test_snapshot_other_config_is_miss(self, tmp_path):
        config = fig11_config()
        store = WarmStore(tmp_path, version="v1")
        store.store_snapshot(System(config).snapshot(), recipe=("w",))
        other = config.with_defense("crp")
        assert store.load_snapshot(other, ("w",)) is None

    def test_version_change_invalidates_and_prune_removes(self, tmp_path):
        old = WarmStore(tmp_path, version="v1")
        old.store_artifact(("r",), [1])
        new = WarmStore(tmp_path, version="v2")
        assert new.is_missing(new.load_artifact(("r",)))
        assert new.stats()["stale_entries"] == 1
        assert new.prune() == 1
        assert new.stats()["entries"] == 0
        # Same-version entries survive a prune.
        new.store_artifact(("r",), [2])
        assert new.prune() == 0
        assert new.load_artifact(("r",)) == [2]

    def test_corrupt_snapshot_file_is_clean_miss(self, tmp_path):
        config = fig11_config()
        store = WarmStore(tmp_path, version="v1")
        path = store.store_snapshot(System(config).snapshot(), recipe=("w",))
        reset = WarmStore(tmp_path, version="v1")
        with open(path, "wb") as handle:
            handle.write(b"not a snapshot")
        assert reset.load_snapshot(config, ("w",)) is None

    def test_memory_lru_is_bounded(self, tmp_path):
        store = WarmStore(tmp_path, version="v1", memory_entries=2)
        for i in range(5):
            store.store_artifact(("r", i), [i])
        assert len(store._memory) == 2
        # Evicted entries still load from disk.
        assert store.load_artifact(("r", 0)) == [0]

    def test_clear_removes_everything(self, tmp_path):
        store = WarmStore(tmp_path, version="v1")
        store.store_artifact(("a",), 1)
        store.store_artifact(("b",), 2)
        assert store.clear() == 2
        assert store.is_missing(store.load_artifact(("a",)))


# ---------------------------------------------------------------------------
# Process-global discovery and the kill switch
# ---------------------------------------------------------------------------

class TestDiscovery:
    def test_current_resolves_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_WARMSTORE_DIR", raising=False)
        assert warmstore.current() is None
        monkeypatch.setenv("REPRO_WARMSTORE_DIR", str(tmp_path))
        store = warmstore.current()
        assert store is not None and store.directory == str(tmp_path)
        assert warmstore.current() is store  # memoized instance

    def test_kill_switch_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WARMSTORE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_WARMSTORE", "1")
        assert not warmstore.enabled()
        assert warmstore.current() is None

    def test_record_event_mirrors_into_metrics(self):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            before = warmstore.counters()
            warmstore.record_event("hits", 2)
            warmstore.record_event("misses")
            after = warmstore.counters()
            assert after["hits"] - before["hits"] == 2
            assert after["misses"] - before["misses"] == 1
            assert registry.counter("warmstore.hits").value == 2
            assert registry.counter("warmstore.misses").value == 1
        finally:
            obs_metrics.uninstall()


# ---------------------------------------------------------------------------
# Pristine-system pool
# ---------------------------------------------------------------------------

class TestPristineSystem:
    def test_matches_fresh_construction(self):
        config = fig11_config()
        baseline, _ = _drive(System(config), 600)
        first, _ = _drive(pristine_system(config), 600)
        second, _ = _drive(pristine_system(config), 600)
        assert first == baseline
        assert second == baseline

    def test_pool_reuses_one_instance(self):
        from repro import obs

        if obs.sanitize_requested():
            pytest.skip("pool self-bypasses under the sanitizer")
        config = fig11_config()
        assert pristine_system(config) is pristine_system(config)

    def test_kill_switch_forces_fresh_systems(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_WARMSTORE", "1")
        config = fig11_config()
        assert pristine_system(config) is not pristine_system(config)

    def test_pool_bypassed_under_metrics_registry(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            config = fig11_config()
            assert pristine_system(config) is not pristine_system(config)
        finally:
            obs_metrics.uninstall()

    def test_predictor_lease_does_not_poison_pool(self):
        from repro import obs

        if obs.sanitize_requested():
            pytest.skip("pool self-bypasses under the sanitizer")
        config = fig11_config()
        leased = pristine_system(config)
        leased.enable_offchip_predictor()  # what PnM-OffChip does
        again = pristine_system(config)
        assert again.offchip_predictor is None


# ---------------------------------------------------------------------------
# WarmupCache disk layer
# ---------------------------------------------------------------------------

class TestWarmupCacheDiskLayer:
    def test_explicit_keys_persist_across_cache_instances(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_WARMSTORE_DIR", str(tmp_path))
        reset_active_store()
        spec = workload_spec("bfs")
        stream = spec.refs(graph=spec.build_graph(), max_refs=1500)
        config = fig11_config()
        baseline = run_multiprogrammed(System(config), [stream, stream])
        first = run_multiprogrammed(System(config), [stream, stream],
                                    warm_cache=WarmupCache(),
                                    warm_key=("bfs", 1500))
        # A brand-new WarmupCache (a fresh process, in effect) restores
        # the warm state from disk instead of replaying the warm-up.
        reset_active_store()
        before = warmstore.counters()["hits"]
        second = run_multiprogrammed(System(config), [stream, stream],
                                     warm_cache=WarmupCache(),
                                     warm_key=("bfs", 1500))
        assert warmstore.counters()["hits"] > before
        for run in (first, second):
            assert run.cycles == baseline.cycles
            assert run.llc_misses == baseline.llc_misses
            assert run.instructions == baseline.instructions

    def test_identity_keys_stay_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WARMSTORE_DIR", str(tmp_path))
        reset_active_store()
        spec = workload_spec("bfs")
        stream = spec.refs(graph=spec.build_graph(), max_refs=800)
        run_multiprogrammed(System(fig11_config()), [stream, stream],
                            warm_cache=WarmupCache())
        store = warmstore.current()
        assert store is not None
        assert store.stats()["entries"] == 0  # id()-keys never hit disk


# ---------------------------------------------------------------------------
# The hard invariant: store-served == from-scratch, bit for bit
# ---------------------------------------------------------------------------

class TestWarmEquivalence:
    def test_randomized_figure_points_bit_identical(self, tmp_path,
                                                    monkeypatch):
        """fig8/fig10/fig11 points with randomized parameters, three ways:
        from scratch (kill switch), populating a cold store, and replayed
        from the populated store with every in-process memo cleared."""
        from repro.exp.figures import (
            fig8_quality_point,
            fig10_point,
            fig11_point,
        )

        seed = random.randrange(1 << 30)
        rng = random.Random(seed)
        llc_mb = rng.choice([4.0, 8.0])
        banks = rng.choice([512, 1024])
        rounds = rng.randrange(6, 14)
        max_refs = rng.randrange(2000, 4000)
        workload = rng.choice(["BC", "PR"])

        def run_points():
            return {
                "fig8": fig8_quality_point(llc_mb, bits=32,
                                           attacks=["streamline"]),
                "fig10": fig10_point(banks, rounds=rounds),
                "fig11": fig11_point(workload, max_refs=max_refs),
            }

        monkeypatch.setenv("REPRO_NO_WARMSTORE", "1")
        _clear_memos()
        scratch = run_points()

        monkeypatch.delenv("REPRO_NO_WARMSTORE")
        monkeypatch.setenv("REPRO_WARMSTORE_DIR", str(tmp_path))
        _clear_memos()
        cold = run_points()
        assert cold == scratch, f"cold pass diverged (seed={seed})"

        _clear_memos()  # force reuse through the on-disk store
        before = warmstore.counters()["hits"]
        warm = run_points()
        assert warmstore.counters()["hits"] > before
        assert warm == scratch, f"warm pass diverged (seed={seed})"
        _clear_memos()
