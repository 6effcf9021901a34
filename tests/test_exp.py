"""Tests for the parallel sweep-execution subsystem (:mod:`repro.exp`)."""

import json
import multiprocessing
import os
import select
import signal
import threading
import traceback
from pathlib import Path

import pytest

from repro.exp import (
    ResultCache,
    SweepPoint,
    WorkerPool,
    code_version,
    default_jobs,
    metrics_path,
    point_slug,
    run_sweep,
    shutdown_pool,
    sweep_points,
)
from repro.exp.figures import fig8_sweep

CALLS = {"n": 0}


def counting_point(value):
    """Module-level (picklable) point that records how often it runs."""
    CALLS["n"] += 1
    return {"value": value, "double": value * 2}


def failing_point():
    raise RuntimeError("boom")


def pid_point(value):
    """Reports which process ran the point (pool-reuse assertions)."""
    import os

    return {"value": value, "pid": os.getpid()}


def warm_point(value):
    """Touches the warm store through a direct artifact round trip: a miss
    stores the value, a later run of the same point loads it."""
    from repro.exp import warmstore

    store = warmstore.current()
    recipe = ("test-warm-point", value)
    loaded = store.load_artifact(recipe)
    if store.is_missing(loaded):
        loaded = {"double": value * 2}
        store.store_artifact(recipe, loaded)
    return {"value": value, **loaded}


# ---------------------------------------------------------------------------
# Sweep points
# ---------------------------------------------------------------------------

class TestSweepPoint:
    def test_builder_varies_axis_and_fixes_common(self):
        points = sweep_points("exp", counting_point, "value", [1, 2, 3])
        assert [p.params["value"] for p in points] == [1, 2, 3]
        assert all(p.experiment == "exp" for p in points)
        assert points[0].label == "exp[value=1]"

    def test_run_invokes_fn_with_params(self):
        point = SweepPoint("exp", counting_point, params={"value": 21})
        assert point.run() == {"value": 21, "double": 42}

    def test_rejects_closures_and_lambdas(self):
        with pytest.raises(ValueError, match="module-level"):
            SweepPoint("exp", lambda: None)

        def local_fn():
            return None

        with pytest.raises(ValueError, match="module-level"):
            SweepPoint("exp", local_fn)

    def test_describe_without_label(self):
        point = SweepPoint("exp", counting_point, params={"value": 5})
        assert point.describe() == "exp(value=5)"


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        assert ResultCache.is_missing(cache.get("exp", {"a": 1}))
        cache.put("exp", {"a": 1}, {"answer": 42})
        assert cache.get("exp", {"a": 1}) == {"answer": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_params_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"answer": 42})
        assert ResultCache.is_missing(cache.get("exp", {"a": 2}))
        assert ResultCache.is_missing(cache.get("other", {"a": 1}))

    def test_code_version_change_invalidates(self, tmp_path):
        """A different code version is a different key: editing the
        simulator must never serve stale figures."""
        ResultCache(tmp_path, version="v1").put("exp", {"a": 1}, {"r": 1})
        newer = ResultCache(tmp_path, version="v2")
        assert ResultCache.is_missing(newer.get("exp", {"a": 1}))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"r": 1})
        Path(cache.path_for("exp", {"a": 1})).write_text("not json{")
        assert ResultCache.is_missing(cache.get("exp", {"a": 1}))

    def test_entries_record_provenance(self, tmp_path):
        cache = ResultCache(tmp_path, version="v7")
        cache.put("exp", {"a": 1}, {"r": 1})
        raw = json.loads(Path(cache.path_for("exp", {"a": 1})).read_text())
        assert raw["experiment"] == "exp"
        assert raw["code_version"] == "v7"
        assert raw["params"] == {"a": 1}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"r": 1})
        cache.clear()
        assert ResultCache.is_missing(cache.get("exp", {"a": 1}))

    def test_default_version_is_code_hash(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.version == code_version()
        assert len(code_version()) == 16
        int(code_version(), 16)  # hex digest prefix

    def test_eviction_caps_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1", max_entries=2)
        for i in range(5):
            cache.put("exp", {"a": i}, {"r": i})
        assert cache.entry_count() <= 2
        assert cache.evictions >= 3

    def test_eviction_prefers_stale_code_versions(self, tmp_path):
        """Entries from old code versions can never match a lookup again,
        so the LRU bound removes them before any live entry."""
        old = ResultCache(tmp_path, version="v1", max_entries=None)
        for i in range(3):
            old.put("exp", {"a": i}, {"r": i})
        new = ResultCache(tmp_path, version="v2", max_entries=4)
        for i in range(3):
            new.put("exp", {"b": i}, {"r": i})
        assert new.entry_count() == 4
        for i in range(3):  # every live entry survived the eviction
            assert new.get("exp", {"b": i}) == {"r": i}
        assert new.stats()["stale_entries"] == 1

    def test_prune_drops_only_stale_versions(self, tmp_path):
        ResultCache(tmp_path, version="v1",
                    max_entries=None).put("exp", {"a": 1}, {"r": 1})
        cache = ResultCache(tmp_path, version="v2", max_entries=None)
        cache.put("exp", {"b": 1}, {"r": 2})
        assert cache.prune() == 1
        assert cache.get("exp", {"b": 1}) == {"r": 2}
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["stale_entries"] == 0


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class TestRunSweep:
    def test_serial_jobs_1(self):
        points = sweep_points("exp", counting_point, "value", [1, 2, 3])
        outcome = run_sweep(points, jobs=1)
        assert outcome.results == [{"value": v, "double": 2 * v}
                                   for v in (1, 2, 3)]
        assert outcome.jobs == 1
        assert not outcome.parallel

    def test_outcome_is_sequence_like(self):
        points = sweep_points("exp", counting_point, "value", [4, 5])
        outcome = run_sweep(points, jobs=1)
        assert len(outcome) == 2
        assert outcome[1]["value"] == 5
        assert [p["value"] for p in outcome] == [4, 5]

    def test_cache_second_run_runs_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        points = sweep_points("exp", counting_point, "value", [1, 2])
        before = CALLS["n"]
        first = run_sweep(points, jobs=1, cache=cache)
        assert CALLS["n"] == before + 2
        assert first.cache_misses == 2 and first.cache_hits == 0
        second = run_sweep(points, jobs=1, cache=cache)
        assert CALLS["n"] == before + 2  # every point served from disk
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert second.results == first.results

    def test_cache_respects_param_changes(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        run_sweep(sweep_points("exp", counting_point, "value", [1]),
                  jobs=1, cache=cache)
        before = CALLS["n"]
        outcome = run_sweep(sweep_points("exp", counting_point, "value", [9]),
                            jobs=1, cache=cache)
        assert CALLS["n"] == before + 1
        assert outcome.cache_misses == 1

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_default_jobs_honors_cpu_affinity(self, monkeypatch):
        """On interpreters without os.process_cpu_count, the affinity mask
        (cgroup/taskset-restricted CI) wins over the raw CPU count."""
        import os

        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_jobs() == 3

    def test_default_jobs_survives_affinity_failure(self, monkeypatch):
        import os

        def broken(pid):
            raise OSError("no affinity")

        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        assert default_jobs() >= 1

    def test_failing_point_propagates_serially(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep([SweepPoint("exp", failing_point)], jobs=1)

    def test_warm_counts_reported_in_outcome(self, tmp_path):
        from repro.exp import warmstore

        if not warmstore.enabled():
            pytest.skip("warm store disabled via REPRO_NO_WARMSTORE")
        points = sweep_points("exp", warm_point, "value", [11, 12])
        first = run_sweep(points, jobs=1, warm_dir=str(tmp_path))
        assert first.warm_misses > 0
        second = run_sweep(points, jobs=1, warm_dir=str(tmp_path))
        assert second.warm_hits > 0 and second.warm_misses == 0
        assert second.results == first.results

    def test_warm_dir_env_is_restored(self, tmp_path):
        import os

        assert "REPRO_WARMSTORE_DIR" not in os.environ
        run_sweep(sweep_points("exp", counting_point, "value", [1]),
                  jobs=1, warm_dir=str(tmp_path))
        assert "REPRO_WARMSTORE_DIR" not in os.environ


class TestMetricsDir:
    def test_point_slug_is_filesystem_safe(self):
        point = SweepPoint("exp", counting_point,
                           params={"value": 1}, label="fig8[llc_mb=8.0]")
        slug = point_slug(point)
        assert "/" not in slug and " " not in slug
        assert metrics_path("m", point).endswith(f"{slug}.metrics.json")

    def test_run_sweep_writes_per_point_metrics(self, tmp_path):
        points = sweep_points("exp", counting_point, "value", [1, 2])
        outcome = run_sweep(points, jobs=1, metrics_dir=str(tmp_path))
        assert len(outcome) == 2
        for point in points:
            data = json.loads(Path(metrics_path(str(tmp_path),
                                                point)).read_text())
            assert data["label"] == point.describe()
            # Every executed point is profiled, even a trivial one.
            assert data["phases"]["point"]["calls"] == 1

    def test_metrics_env_is_restored(self, tmp_path):
        import os
        assert "REPRO_METRICS_DIR" not in os.environ
        run_sweep(sweep_points("exp", counting_point, "value", [1]),
                  jobs=1, metrics_dir=str(tmp_path))
        assert "REPRO_METRICS_DIR" not in os.environ


class TestParallelEqualsSerial:
    """The acceptance criterion: fanning a sweep out across processes
    changes wall-clock time only, never the numbers."""

    def test_fig8_slice_parallel_equals_serial(self):
        points = fig8_sweep((8, 16))
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        # Bit-identical floats, not approximate equality.
        assert parallel.results == serial.results
        # Either real worker processes ran, or the environment forced the
        # (result-identical) serial fallback and said why.
        assert parallel.parallel or parallel.fallback_reason

    def test_parallel_results_preserve_point_order(self):
        points = sweep_points("exp", counting_point, "value",
                              [7, 3, 5, 1])
        outcome = run_sweep(points, jobs=4)
        assert [p["value"] for p in outcome] == [7, 3, 5, 1]


# ---------------------------------------------------------------------------
# Fork-server worker pool
# ---------------------------------------------------------------------------

def _pool_or_skip():
    pool = WorkerPool()
    try:
        pool.ensure(1)
    except (OSError, PermissionError, RuntimeError, ImportError) as exc:
        pool.shutdown()
        pytest.skip(f"worker processes unavailable: {exc}")
    return pool


class TestWorkerPool:
    def test_workers_persist_across_runs(self):
        """The fork-server property: a second sweep reuses the same
        worker processes (and therefore their in-memory warm state)."""
        pool = _pool_or_skip()
        try:
            first = pool.run(sweep_points("exp", pid_point, "value",
                                          [1, 2, 3]), jobs=2)
            second = pool.run(sweep_points("exp", pid_point, "value",
                                           [4, 5, 6]), jobs=2)
            first_pids = {payload["pid"] for payload, _delta in first}
            second_pids = {payload["pid"] for payload, _delta in second}
            assert second_pids <= first_pids
            assert len(pool) == 2
        finally:
            pool.shutdown()

    def test_run_returns_payloads_with_warm_deltas(self):
        pool = _pool_or_skip()
        try:
            pairs = pool.run(sweep_points("exp", counting_point, "value",
                                          [9, 10]), jobs=2)
            assert [payload["value"] for payload, _delta in pairs] == [9, 10]
            for _payload, delta in pairs:
                assert set(delta) == {"hits", "misses"}
        finally:
            pool.shutdown()

    def test_pool_stays_usable_after_point_failure(self):
        pool = _pool_or_skip()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run([SweepPoint("exp", failing_point),
                          SweepPoint("exp", counting_point,
                                     params={"value": 1})], jobs=2)
            pairs = pool.run(sweep_points("exp", counting_point, "value",
                                          [2]), jobs=2)
            assert pairs[0][0] == {"value": 2, "double": 4}
        finally:
            pool.shutdown()

    def test_shutdown_pool_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()

# ---------------------------------------------------------------------------
# Commit-as-you-go: completed results survive a failing sibling point
# ---------------------------------------------------------------------------

def logged_point(value, log):
    """Appends its value to ``log`` — counts executions across processes."""
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    return {"value": value}


def logged_fail_on_two(value, log):
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    if value == 2:
        raise RuntimeError("point two failed")
    return {"value": value}


def _log_counts(log):
    text = Path(log).read_text() if Path(log).exists() else ""
    counts = {}
    for line in text.splitlines():
        counts[line] = counts.get(line, 0) + 1
    return counts


class TestCommitOnFailure:
    """A failing point must not discard its siblings' finished work: every
    completed payload is committed to the result cache before the sweep
    re-raises, so a retry never redoes completed points."""

    def test_serial_failure_commits_completed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="v1")
        log = str(tmp_path / "runs.log")
        points = [SweepPoint("exp", logged_fail_on_two,
                             {"value": v, "log": log}) for v in (1, 2)]
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=1, cache=cache)
        assert cache.get("exp", {"value": 1, "log": log}) == {"value": 1}
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=1, cache=cache)
        # The completed point ran exactly once across both attempts.
        assert _log_counts(log)["1"] == 1

    def test_parallel_failure_commits_completed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="v1")
        log = str(tmp_path / "runs.log")
        points = [SweepPoint("exp", logged_fail_on_two,
                             {"value": v, "log": log}) for v in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=2, cache=cache)
        # Whatever completed before the failure propagated is cached ...
        committed = [v for v in (1, 3) if not ResultCache.is_missing(
            cache.get("exp", {"value": v, "log": log}))]
        assert committed, "no completed sibling was committed"
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=2, cache=cache)
        counts = _log_counts(log)
        # ... and never re-executed on the retry.
        for value in committed:
            assert counts[str(value)] == 1

    def test_pool_run_on_result_fires_before_raise(self):
        pool = _pool_or_skip()
        seen = []
        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run([SweepPoint("exp", counting_point,
                                     params={"value": 7}),
                          SweepPoint("exp", failing_point)], jobs=2,
                         on_result=lambda i, payload, delta:
                             seen.append((i, payload)))
            assert (0, {"value": 7, "double": 14}) in seen
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Result cache crash consistency and concurrent writers
# ---------------------------------------------------------------------------

def _fork_context():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    return multiprocessing.get_context("fork")


def _put_then_hang(directory, ready_fd):
    """Child body: start a put, write half the entry, report, and block
    inside ``json.dump`` until the parent SIGKILLs this process."""
    def torn_dump(entry, handle, **kwargs):
        text = json.dumps(entry, **kwargs)
        handle.write(text[:len(text) // 2])
        handle.flush()
        os.write(ready_fd, b"x")
        threading.Event().wait()

    json.dump = torn_dump  # this forked child's json module only
    ResultCache(directory, version="v1").put("exp", {"a": 1},
                                             {"blob": "y" * 4096})


def _hammer_put(directory, start, rounds, worker):
    """Child body: put one shared key ``rounds`` times; exit 1 on any
    exception (the parent asserts every writer exited 0)."""
    cache = ResultCache(directory, version="v1")
    start.wait(timeout=30)
    try:
        for i in range(rounds):
            cache.put("exp", {"a": 1}, {"worker": worker, "round": i,
                                        "blob": "z" * 2048})
    except BaseException:
        traceback.print_exc()
        os._exit(1)
    os._exit(0)


class TestResultCacheConcurrency:
    def _killed_mid_put(self, directory):
        ctx = _fork_context()
        read_fd, write_fd = os.pipe()
        child = ctx.Process(target=_put_then_hang,
                            args=(str(directory), write_fd))
        child.start()
        try:
            ready, _, _ = select.select([read_fd], [], [], 30)
            assert ready, "child never reached the middle of put"
            os.read(read_fd, 1)
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=30)
            os.close(read_fd)
            os.close(write_fd)
        assert child.exitcode == -signal.SIGKILL

    def test_sigkill_mid_put_leaves_a_clean_miss(self, tmp_path):
        self._killed_mid_put(tmp_path)
        cache = ResultCache(tmp_path, version="v1")
        assert ResultCache.is_missing(cache.get("exp", {"a": 1}))
        assert cache.entry_count() == 0  # the torn temp file is no entry
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        cache.prune()  # the dead writer's temp file goes
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_prune_spares_live_writers_and_clear_drops_every_temp(
            self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"v": 1})
        live = [f"exp-x.json.{os.getpid()}.ab12cd34.tmp",
                f"_lru.idx.tmp.{os.getpid()}"]
        for name in live + ["exp-y.json.notapid.ab12cd34.tmp"]:
            (tmp_path / name).write_text("{")
        assert cache.prune() == 0
        assert all((tmp_path / name).exists() for name in live)
        assert cache.clear() == 1
        assert os.listdir(tmp_path) == []

    def test_sigkill_mid_put_keeps_the_previous_entry(self, tmp_path):
        ResultCache(tmp_path, version="v1").put("exp", {"a": 1}, {"old": 1})
        self._killed_mid_put(tmp_path)
        cache = ResultCache(tmp_path, version="v1")
        assert cache.get("exp", {"a": 1}) == {"old": 1}  # never torn

    def test_concurrent_puts_of_one_key_never_raise(self, tmp_path):
        ctx = _fork_context()
        start = ctx.Event()
        rounds = 200
        writers = [ctx.Process(target=_hammer_put,
                               args=(str(tmp_path), start, rounds, worker))
                   for worker in range(2)]
        for writer in writers:
            writer.start()
        start.set()
        for writer in writers:
            writer.join(timeout=120)
        assert [w.exitcode for w in writers] == [0, 0]
        cache = ResultCache(tmp_path, version="v1")
        payload = cache.get("exp", {"a": 1})
        assert payload["worker"] in (0, 1)
        assert payload["round"] == rounds - 1  # some writer's last put
        assert cache.entry_count() == 1


# ---------------------------------------------------------------------------
# Pool shrink / lease lifecycle
# ---------------------------------------------------------------------------

class TestPoolShrink:
    def test_shrink_retires_idle_workers(self):
        pool = _pool_or_skip()
        try:
            pool.ensure(3)
            assert len(pool) == 3
            assert pool.shrink(1) == 2
            assert len(pool) == 1
            # The survivor still works.
            pairs = pool.run([SweepPoint("exp", counting_point,
                                         params={"value": 5})], jobs=1)
            assert pairs[0][0] == {"value": 5, "double": 10}
        finally:
            pool.shutdown()

    def test_shrink_spares_leased_workers(self):
        pool = _pool_or_skip()
        try:
            pool.ensure(2)
            handle = pool.checkout()
            assert pool.shrink(0) == 1  # only the idle worker goes
            assert len(pool) == 1 and handle.leased
            pool.checkin(handle)
            assert pool.shrink(0) == 1
            assert len(pool) == 0
        finally:
            pool.shutdown()

    def test_run_trims_pool_to_requested_jobs(self):
        """`ensure` used to only grow; a narrow sweep after a wide one now
        releases the extra workers instead of pinning the high-water mark."""
        pool = _pool_or_skip()
        try:
            pool.ensure(3)
            pool.run([SweepPoint("exp", counting_point,
                                 params={"value": 1})], jobs=1)
            assert len(pool) == 1
        finally:
            pool.shutdown()

    def test_checkout_checkin_cycle(self):
        pool = _pool_or_skip()
        try:
            first = pool.checkout()
            assert first.leased
            second = pool.checkout()  # all busy: a new worker is spawned
            assert second is not first and len(pool) == 2
            pool.checkin(first)
            assert pool.checkout() is first  # reused, not respawned
            assert len(pool) == 2
            pool.retire(first)
            pool.retire(second)
            assert len(pool) == 0
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Monotonic LRU (clock-step immunity)
# ---------------------------------------------------------------------------

class TestResultCacheMonotonicLRU:
    def test_eviction_ignores_wall_clock(self, tmp_path):
        """A clock step (NTP, VM resume) must not reorder eviction: the
        entry touched most recently by *operation order* survives even
        when a stale entry's mtime claims it is from the far future."""
        cache = ResultCache(tmp_path, version="v1", max_entries=None)
        cache.put("exp", {"a": 1}, {"r": 1})
        cache.put("exp", {"a": 2}, {"r": 2})
        assert cache.get("exp", {"a": 1}) == {"r": 1}  # a=1 is now MRU
        # Forge a future mtime on the LRU entry: under mtime recency it
        # would wrongly look freshest.
        import time as _time
        future = _time.time() + 1e6
        os_path = cache.path_for("exp", {"a": 2})
        import os as _os
        _os.utime(os_path, (future, future))
        bounded = ResultCache(tmp_path, version="v1", max_entries=2)
        bounded.put("exp", {"a": 3}, {"r": 3})
        assert bounded.get("exp", {"a": 1}) == {"r": 1}
        assert ResultCache.is_missing(bounded.get("exp", {"a": 2}))

    def test_index_sidecar_is_not_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"r": 1})
        assert cache.entry_count() == 1
        assert (Path(tmp_path) / ResultCache.INDEX_NAME).exists()

    def test_corrupt_index_degrades_gracefully(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1", max_entries=2)
        cache.put("exp", {"a": 1}, {"r": 1})
        (Path(tmp_path) / ResultCache.INDEX_NAME).write_text("not json")
        assert cache.get("exp", {"a": 1}) == {"r": 1}
        for i in range(2, 5):
            cache.put("exp", {"a": i}, {"r": i})
        assert cache.entry_count() <= 2

    def test_clear_removes_index(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"r": 1})
        cache.clear()
        assert not (Path(tmp_path) / ResultCache.INDEX_NAME).exists()
        assert cache.entry_count() == 0
