"""Tests for the simulation-as-a-service daemon (:mod:`repro.serve`).

Scheduler semantics (dedup, fair share, priorities, cancellation,
worker-death resilience) run in-process with ``use_pool=False`` for
determinism; the end-to-end tests start a real asyncio TCP server in a
thread and drive it with the blocking :class:`repro.serve.ServeClient`.
"""

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.exp import ResultCache, WorkerPool
from repro.exp.runner import PoolUnavailableError
from repro.exp.sweep import SweepPoint
from repro.obs import metrics as obs_metrics
from repro.serve import (
    ProtocolError,
    ServeClient,
    ServeError,
    ServeScheduler,
    ServeServer,
    build_points,
    experiment_registry,
    point_key,
)
from repro.serve import protocol
from tests.gates import gate, gated_point

RUNS = {"n": 0}
ORDER = []


def quick_point(value):
    """Counts its executions — dedup assertions read the delta."""
    RUNS["n"] += 1
    ORDER.append(value)
    return {"value": value, "square": value * value}


def _wait_for(predicate, timeout=30.0):
    """Poll ``predicate`` until it holds, failing after ``timeout``."""
    deadline = time.monotonic() + timeout
    tick = threading.Event()
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        tick.wait(0.005)


def _counter(server, name):
    counter = server.scheduler.registry.counters.get(name)
    return counter.value if counter is not None else 0


def failing_point(value):
    raise ValueError(f"bad {value}")


def crash_worker_point(sentinel):
    """Kills its worker process on first run; succeeds on the retry.

    The sentinel file distinguishes the attempts — created just before
    the hard exit, so the fresh worker that retries sees it and returns.
    """
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return {"retried": True}


def _points(values, fn=quick_point, experiment="t"):
    return [SweepPoint(experiment, fn, {"value": v}) for v in values]


def _run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "points": [{"llc_mb": 8}], "priority": 2}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(ProtocolError):
            protocol.decode(b"[1, 2]\n")  # not an object

    def test_registry_names_figure_points(self):
        registry = experiment_registry()
        for name in ("fig8", "fig8-quality", "covert", "sidechannel"):
            assert callable(registry[name])

    def test_build_points_experiment(self):
        points = build_points("fig8", None, [{"llc_mb": 8}, {"llc_mb": 64}])
        assert [p.params["llc_mb"] for p in points] == [8, 64]
        assert all(p.experiment == "fig8" for p in points)

    def test_build_points_fn_escape_hatch(self):
        points = build_points(None, "tests.test_serve:quick_point",
                              [{"value": 3}])
        assert points[0].fn is quick_point

    def test_build_points_validation(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            build_points("fig8", "m:f", [{}])
        with pytest.raises(ProtocolError, match="exactly one"):
            build_points(None, None, [{}])
        with pytest.raises(ProtocolError, match="unknown experiment"):
            build_points("nope", None, [{}])
        with pytest.raises(ProtocolError, match="no points"):
            build_points("fig8", None, [])
        with pytest.raises(ProtocolError, match="JSON object"):
            build_points("fig8", None, [[1, 2]])
        with pytest.raises(ProtocolError, match="not 'module:attribute'"):
            build_points(None, "noattr", [{}])
        with pytest.raises(ProtocolError, match="cannot import"):
            build_points(None, "no.such.module:f", [{}])

    def test_point_key_separates_params_and_fns(self):
        a1 = point_key(SweepPoint("t", quick_point, {"value": 1}), "v")
        a1b = point_key(SweepPoint("t", quick_point, {"value": 1}), "v")
        a2 = point_key(SweepPoint("t", quick_point, {"value": 2}), "v")
        other_fn = point_key(SweepPoint("t", gated_point, {"value": 1}), "v")
        assert a1 == a1b
        assert len({a1, a2, other_fn}) == 3

    def test_point_key_tracks_code_version(self):
        point = SweepPoint("t", quick_point, {"value": 1})
        assert point_key(point, "v1") != point_key(point, "v2")


# ---------------------------------------------------------------------------
# Scheduler: dedup, caching, ordering
# ---------------------------------------------------------------------------

class TestSchedulerDedup:
    def test_duplicate_concurrent_submissions_execute_once(self):
        """The acceptance bar: N clients submitting the identical sweep
        while it is in flight perform zero extra point executions."""
        async def main():
            sched = ServeScheduler(jobs=2, use_pool=False)
            await sched.start()
            before = RUNS["n"]
            jobs = [await sched.submit(f"client-{i}", _points([10, 11]))
                    for i in range(3)]
            await asyncio.gather(*(j.done.wait() for j in jobs))
            await sched.stop()
            return sched, jobs, RUNS["n"] - before

        sched, jobs, executed = _run(main())
        assert executed == 2  # 6 requested points, 2 executions
        counters = sched.registry.counters
        assert counters["serve.points.executed"].value == 2
        assert counters["serve.points.deduped"].value == 4
        for job in jobs:
            assert job.ok
            assert [r["value"] for r in job.results] == [10, 11]

    def test_result_cache_answers_without_execution(self, tmp_path):
        cache = ResultCache(tmp_path, version="vT")
        cache.put("t", {"value": 5}, {"value": 5, "square": 25})

        async def main():
            sched = ServeScheduler(jobs=1, cache=cache, use_pool=False)
            await sched.start()
            before = RUNS["n"]
            job = await sched.submit("c", _points([5]))
            await job.done.wait()
            await sched.stop()
            return job, RUNS["n"] - before

        job, executed = _run(main())
        assert executed == 0
        assert job.sources == ["cache"]
        assert job.results == [{"value": 5, "square": 25}]

    def test_executions_populate_the_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path, version="vT")

        async def main():
            sched = ServeScheduler(jobs=1, cache=cache, use_pool=False)
            await sched.start()
            first = await sched.submit("c", _points([6]))
            await first.done.wait()
            second = await sched.submit("c", _points([6]))
            await second.done.wait()
            await sched.stop()
            return first, second

        first, second = _run(main())
        assert first.sources == ["inline"]
        assert second.sources == ["cache"]
        assert second.results == first.results

    def test_priority_within_client(self):
        """Higher-priority jobs of the same client run first."""
        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            low = await sched.submit("c", _points([100]), priority=0)
            high = await sched.submit("c", _points([200]), priority=5)
            marker = len(ORDER)
            await sched.start()
            await asyncio.gather(low.done.wait(), high.done.wait())
            await sched.stop()
            return ORDER[marker:]

        ran = _run(main())
        assert ran == [200, 100]

    def test_fair_share_interleaves_clients(self):
        """A bulk submitter does not starve a later small one: after A's
        first point, the least-recently-served client (B) goes next."""
        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            a = await sched.submit("a", _points([1, 2, 3]))
            b = await sched.submit("b", _points([99]))
            marker = len(ORDER)
            await sched.start()
            await asyncio.gather(a.done.wait(), b.done.wait())
            await sched.stop()
            return ORDER[marker:]

        ran = _run(main())
        assert ran.index(99) == 1  # b's point ran second, not last
        assert sorted(ran) == [1, 2, 3, 99]

    def test_point_failure_is_reported_not_fatal(self):
        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            await sched.start()
            points = [SweepPoint("t", failing_point, {"value": 1}),
                      SweepPoint("t", quick_point, {"value": 2})]
            job = await sched.submit("c", points)
            await job.done.wait()
            await sched.stop()
            return sched, job

        sched, job = _run(main())
        assert not job.ok
        assert "ValueError: bad 1" in job.errors[0]
        assert job.results[1] == {"value": 2, "square": 4}
        assert sched.registry.counters["serve.points.failed"].value == 1


# ---------------------------------------------------------------------------
# Scheduler: cancellation
# ---------------------------------------------------------------------------

class TestSchedulerCancellation:
    def test_cancel_client_drops_only_their_queued_points(self):
        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            # No dispatcher yet: everything stays queued.
            a = await sched.submit("a", _points([1, 2, 3]))
            b = await sched.submit("b", _points([7, 8]))
            dropped = sched.cancel_client("a")
            assert dropped == 3
            assert a.cancelled and a.done.is_set()
            await sched.start()
            await asyncio.wait_for(b.done.wait(), timeout=30)
            await sched.stop()
            return sched, b

        sched, b = _run(main())
        assert b.ok and [r["value"] for r in b.results] == [7, 8]
        assert sched.registry.counters["serve.points.cancelled"].value == 3

    def test_shared_point_survives_one_subscriber_cancelling(self):
        """A deduplicated point queued by client A and subscribed by
        client B keeps running for B when A disconnects."""
        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            a = await sched.submit("a", _points([42]))
            b = await sched.submit("b", _points([42]))  # dedup subscribe
            dropped = sched.cancel_client("a")
            assert dropped == 0  # b still wants it
            await sched.start()
            await asyncio.wait_for(b.done.wait(), timeout=30)
            await sched.stop()
            return a, b

        a, b = _run(main())
        assert a.cancelled and not a.ok
        assert b.ok and b.results[0]["value"] == 42

    def test_cancel_job_leaves_other_jobs_of_same_client(self):
        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            doomed = await sched.submit("c", _points([51]))
            kept = await sched.submit("c", _points([52]))
            assert sched.cancel_job(doomed.job_id)
            assert not sched.cancel_job(doomed.job_id)  # already done
            await sched.start()
            await asyncio.wait_for(kept.done.wait(), timeout=30)
            await sched.stop()
            return doomed, kept

        doomed, kept = _run(main())
        assert doomed.cancelled
        assert kept.ok and kept.results[0]["value"] == 52


# ---------------------------------------------------------------------------
# Scheduler: pool dispatch resilience
# ---------------------------------------------------------------------------

def _pool_or_skip():
    pool = WorkerPool()
    try:
        pool.ensure(1)
    except (OSError, PermissionError, RuntimeError, ImportError) as exc:
        pool.shutdown()
        pytest.skip(f"worker processes unavailable: {exc}")
    return pool


class TestSchedulerPool:
    def test_points_execute_on_pool_workers(self):
        pool = _pool_or_skip()

        async def main():
            sched = ServeScheduler(jobs=2, pool=pool, use_pool=True,
                                   idle_workers=0)
            await sched.start()
            job = await sched.submit("c", _points([3, 4]))
            await asyncio.wait_for(job.done.wait(), timeout=60)
            await sched.stop()
            return job

        try:
            job = _run(main())
            assert job.ok
            assert job.sources == ["executed", "executed"]
            assert [r["value"] for r in job.results] == [3, 4]
        finally:
            pool.shutdown()

    def test_worker_death_mid_request_completes_job(self, tmp_path):
        """A worker hard-dying mid-point is retired and the point retried
        on a fresh worker — the client still gets its result."""
        pool = _pool_or_skip()
        sentinel = str(tmp_path / "died-once")

        async def main():
            sched = ServeScheduler(jobs=1, pool=pool, use_pool=True,
                                   idle_workers=0)
            await sched.start()
            job = await sched.submit(
                "c", [SweepPoint("t", crash_worker_point,
                                 {"sentinel": sentinel})])
            await asyncio.wait_for(job.done.wait(), timeout=60)
            await sched.stop()
            return sched, job

        try:
            sched, job = _run(main())
            assert job.ok
            assert job.results == [{"retried": True}]
            assert sched.registry.counters["serve.workers.died"].value >= 1
        finally:
            pool.shutdown()

    def test_pool_unavailable_falls_back_inline(self, monkeypatch):
        pool = WorkerPool()
        monkeypatch.setattr(pool, "_spawn", lambda: (_ for _ in ()).throw(
            PoolUnavailableError("no processes here")))

        async def main():
            sched = ServeScheduler(jobs=1, pool=pool, use_pool=True,
                                   idle_workers=0)
            await sched.start()
            job = await sched.submit("c", _points([9]))
            await asyncio.wait_for(job.done.wait(), timeout=30)
            await sched.stop()
            return sched, job

        sched, job = _run(main())
        assert job.ok and job.sources == ["inline"]
        assert sched.registry.counters["serve.points.inline"].value == 1

    def test_idle_scheduler_shrinks_pool(self):
        pool = _pool_or_skip()

        async def main():
            sched = ServeScheduler(jobs=2, pool=pool, use_pool=True,
                                   idle_workers=0)
            await sched.start()
            job = await sched.submit("c", _points([13, 14]))
            await asyncio.wait_for(job.done.wait(), timeout=60)
            # Give the dispatch loop one more wake to observe idleness.
            await asyncio.sleep(0)
            await asyncio.sleep(0.05)
            size = len(pool)
            await sched.stop()
            return size

        try:
            assert _run(main()) == 0
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# End-to-end over sockets
# ---------------------------------------------------------------------------

class _ServerThread:
    """A real daemon on a real socket, driven from the test thread."""

    def __init__(self, **scheduler_kwargs):
        self.addr = None
        self.scheduler = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        args=(scheduler_kwargs,), daemon=True)

    def _main(self, scheduler_kwargs):
        async def run():
            self.scheduler = ServeScheduler(**scheduler_kwargs)
            server = ServeServer(self.scheduler, port=0)
            self.addr = await server.start()
            self._ready.set()
            await server.serve_until_shutdown()

        asyncio.run(run())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10), "server did not start"
        return self

    def __exit__(self, *exc):
        try:
            with ServeClient(*self.addr, timeout=10) as client:
                client.shutdown_server()
        except OSError:
            pass
        self._thread.join(timeout=10)


class TestEndToEnd:
    def test_submit_streams_progress_and_results(self):
        events = []
        with _ServerThread(jobs=2, use_pool=False) as server:
            with ServeClient(*server.addr, timeout=30) as client:
                job = client.submit(
                    fn="tests.test_serve:quick_point",
                    points=[{"value": 2}, {"value": 3}],
                    on_event=lambda e: events.append(e["event"]))
        assert job.ok
        assert [r["square"] for r in job.results] == [4, 9]
        assert events[0] == "accepted" and events[-1] == "done"
        assert events.count("point") == 2
        assert job.events == 4

    def test_metrics_and_status_endpoints(self):
        with _ServerThread(jobs=1, use_pool=False) as server:
            with ServeClient(*server.addr, timeout=30) as client:
                client.submit(fn="tests.test_serve:quick_point",
                              points=[{"value": 8}])
                metrics = client.metrics()
                status = client.status()
        assert metrics["counters"]["serve.points.executed"] == 1
        assert "serve.point_seconds" in metrics["histograms"]
        assert status["jobs_total"] == 1 and status["jobs_done"] == 1
        assert status["queued_points"] == 0

    def test_metrics_merge_installed_registry(self):
        """The endpoint folds a process-globally installed registry (e.g.
        a sweep running in the daemon process) into the snapshot."""
        registry = obs_metrics.install(obs_metrics.MetricsRegistry())
        registry.counter("dram.RD").inc(7)
        try:
            with _ServerThread(jobs=1, use_pool=False) as server:
                with ServeClient(*server.addr, timeout=30) as client:
                    metrics = client.metrics()
        finally:
            obs_metrics.uninstall()
        assert metrics["counters"]["dram.RD"] == 7

    def test_duplicate_submission_runs_points_once_over_sockets(self):
        release, _started = gate("dup-sockets")
        with _ServerThread(jobs=1, use_pool=False) as server:
            results = [None, None]

            def hammer(slot):
                with ServeClient(*server.addr, timeout=30) as client:
                    results[slot] = client.submit(
                        fn="tests.gates:gated_point",
                        points=[{"value": 70 + i, "gate_name": "dup-sockets"}
                                for i in range(3)])

            threads = [threading.Thread(target=hammer, args=(slot,))
                       for slot in range(2)]
            for t in threads:
                t.start()
            # The gate holds the first point in flight until the second
            # submission has deduplicated all three points onto the first.
            _wait_for(lambda: _counter(server, "serve.points.deduped") >= 3)
            release.set()
            for t in threads:
                t.join(timeout=30)
            with ServeClient(*server.addr, timeout=30) as client:
                executed = client.status()["counters"].get(
                    "serve.points.executed", 0)
        assert all(r is not None and r.ok for r in results)
        assert results[0].results == results[1].results
        assert executed == 3  # 6 submitted points, 3 executions

    def test_bad_submit_yields_error_event(self):
        with _ServerThread(jobs=1, use_pool=False) as server:
            with ServeClient(*server.addr, timeout=30) as client:
                with pytest.raises(ServeError, match="no points"):
                    client.submit("fig8", [])
                with pytest.raises(ServeError, match="unknown experiment"):
                    client.submit("not-a-figure", [{}])
                # The connection survives rejected submissions.
                job = client.submit(fn="tests.test_serve:quick_point",
                                    points=[{"value": 4}])
        assert job.ok

    def test_unknown_op_yields_error_event(self):
        with _ServerThread(jobs=1, use_pool=False) as server:
            with socket.create_connection(server.addr, timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(protocol.encode({"op": "frobnicate"}))
                fh.flush()
                event = json.loads(fh.readline())
        assert event["event"] == "error"
        assert "unknown op" in event["message"]

    def test_disconnect_cancels_only_that_clients_queue(self):
        """Dropping a connection mid-sweep cancels its queued points;
        other clients' work proceeds untouched."""
        release, started = gate("disconnect")
        with _ServerThread(jobs=1, use_pool=False) as server:
            # Client A floods the single slot with gated points, then
            # vanishes without reading a single event.
            raw = socket.create_connection(server.addr, timeout=10)
            raw.sendall(protocol.encode({
                "op": "submit", "fn": "tests.gates:gated_point",
                "points": [{"value": 900 + i, "gate_name": "disconnect"}
                           for i in range(5)]}))
            assert started.wait(timeout=30)  # queued; first point running
            raw.close()
            # The four still-queued points die with their client; the
            # running one finishes once the gate opens.
            _wait_for(lambda: _counter(server, "serve.points.cancelled") == 4)
            release.set()
            with ServeClient(*server.addr, timeout=30) as client:
                job = client.submit(fn="tests.test_serve:quick_point",
                                    points=[{"value": 6}])
                status = client.status()
        assert job.ok and job.results[0]["value"] == 6
        assert status["counters"].get("serve.points.cancelled", 0) == 4
        assert status["queued_points"] == 0


# ---------------------------------------------------------------------------
# Metrics snapshot (the serve endpoint's read side)
# ---------------------------------------------------------------------------

class TestMetricsSnapshot:
    def test_snapshot_empty_without_registry(self):
        obs_metrics.uninstall()
        assert obs_metrics.snapshot() == {}

    def test_snapshot_reflects_installed_registry(self):
        registry = obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            registry.counter("x").inc(3)
            snap = obs_metrics.snapshot()
        finally:
            obs_metrics.uninstall()
        assert snap["counters"] == {"x": 3}
        assert obs_metrics.snapshot() == {}
