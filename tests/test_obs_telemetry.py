"""Tests for the fleet telemetry stack (:mod:`repro.obs.telemetry`).

Unit coverage for the event sink, chain verification, and the
:class:`FleetHealth` model runs in-process with pinned clocks; the
integration tests drive real sweeps (pool, serial, and forced
serial-fallback) and the serve scheduler (dedup, worker death) with the
event log on, then assert every executed point left one complete causal
chain — no orphan spans, no duplicate span IDs, retries only behind
explicit markers.
"""

import asyncio
import json
import os

import pytest

from repro.exp import WorkerPool, run_sweep
from repro.exp.runner import (
    PoolUnavailableError,
    metrics_path,
    point_slug,
)
from repro.exp.sweep import SweepPoint
from repro.obs import telemetry
from repro.obs import top as obs_top
from repro.serve import ServeScheduler
from tests.gates import gate, gated_point


def tele_point(value=0):
    return {"value": value}


class FakeClock:
    """A hand-stepped clock for :class:`telemetry.FleetHealth`."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def failing_tele_point(value=0):
    raise ValueError(f"bad point {value}")


def crash_once_point(sentinel):
    """Kills its worker on first run; succeeds on the retry."""
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return {"retried": True}


def _points(values, fn=tele_point, **extra):
    return [SweepPoint("tele", fn, {"value": v, **extra}) for v in values]


@pytest.fixture
def tele_dir(tmp_path, monkeypatch):
    """Event log switched on for this test, sink state isolated."""
    directory = str(tmp_path / "events")
    monkeypatch.setenv(telemetry.ENV_TELEMETRY_DIR, directory)
    telemetry.reset_sink()
    yield directory
    telemetry.reset_sink()


# ---------------------------------------------------------------------------
# Event sink
# ---------------------------------------------------------------------------

class TestEventSink:
    def test_disabled_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv(telemetry.ENV_TELEMETRY_DIR, raising=False)
        telemetry.reset_sink()
        assert not telemetry.enabled()
        telemetry.emit("point_queued", span_id="span-x")  # must not raise
        assert list(tmp_path.iterdir()) == []

    def test_emit_roundtrip(self, tele_dir):
        assert telemetry.enabled()
        telemetry.emit("point_queued", run_id="run-a", span_id="span-a",
                       point_slug="p1")
        telemetry.emit("point_committed", run_id="run-a", span_id="span-a",
                       point_slug="p1", elapsed_s=0.5)
        events = telemetry.read_events(tele_dir)
        assert [e["event"] for e in events] == ["point_queued",
                                               "point_committed"]
        assert all(e["pid"] == os.getpid() for e in events)
        assert all(e["run_id"] == "run-a" for e in events)
        assert events[1]["elapsed_s"] == 0.5
        assert events[0]["ts"] <= events[1]["ts"]

    def test_ambient_ids_from_env(self, tele_dir, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_RUN_ID, "run-env")
        monkeypatch.setenv(telemetry.ENV_SPAN_ID, "span-env")
        assert telemetry.current_ids() == ("run-env", "span-env")
        telemetry.emit("point_start")
        (event,) = telemetry.read_events(tele_dir)
        assert event["run_id"] == "run-env"
        assert event["span_id"] == "span-env"

    def test_read_skips_torn_lines(self, tele_dir):
        telemetry.emit("point_queued", span_id="span-ok")
        path = os.path.join(tele_dir, "events-999999.ndjson")
        with open(path, "w") as handle:
            handle.write('{"event":"point_start","span_id":"s2","ts":1}\n')
            handle.write('{"event":"point_end","span_id"')  # torn mid-write
        events = telemetry.read_events(tele_dir)
        assert {e["event"] for e in events} == {"point_queued",
                                               "point_start"}

    def test_ids_are_unique(self):
        assert telemetry.new_run_id() != telemetry.new_run_id()
        assert telemetry.new_span_id().startswith("span-")
        assert telemetry.new_run_id().startswith("run-")


# ---------------------------------------------------------------------------
# Chain verification
# ---------------------------------------------------------------------------

def _chain(span, *names, slug="p"):
    return [{"event": name, "span_id": span, "point_slug": slug, "ts": i}
            for i, name in enumerate(names)]


class TestVerifyChains:
    def test_complete_chain_passes(self):
        events = _chain("s1", "point_queued", "point_dispatched",
                        "point_start", "point_end", "point_committed")
        assert telemetry.verify_chains(events) == []

    def test_orphan_span_flagged(self):
        events = _chain("s1", "point_start", "point_committed")
        assert any("orphan" in p for p in telemetry.verify_chains(events))

    def test_duplicate_queue_flagged(self):
        events = _chain("s1", "point_queued", "point_queued",
                        "point_committed")
        assert any("queued 2 times" in p
                   for p in telemetry.verify_chains(events))

    def test_missing_terminal_flagged(self):
        events = _chain("s1", "point_queued", "point_start")
        assert any("incomplete" in p
                   for p in telemetry.verify_chains(events))

    def test_double_commit_flagged(self):
        events = _chain("s1", "point_queued", "point_committed",
                        "point_committed")
        assert any("2 terminal" in p
                   for p in telemetry.verify_chains(events))

    def test_retry_marker_excuses_repeats(self):
        events = _chain("s1", "point_queued", "point_start",
                        "point_retried", "point_start", "point_committed")
        assert telemetry.verify_chains(events) == []
        # Without the marker, the same double execution is a problem.
        bad = [e for e in events if e["event"] != "point_retried"]
        assert any("without a point_retried" in p
                   for p in telemetry.verify_chains(bad))

    def test_mixed_slugs_flagged(self):
        events = (_chain("s1", "point_queued", slug="a")
                  + _chain("s1", "point_committed", slug="b"))
        assert any("multiple point slugs" in p
                   for p in telemetry.verify_chains(events))

    def test_causal_chains_groups_by_span(self):
        events = (_chain("s1", "point_queued", "point_committed")
                  + _chain("s2", "point_queued")
                  + [{"event": "run_start", "run_id": "r", "ts": 0}])
        chains = telemetry.causal_chains(events)
        assert set(chains) == {"s1", "s2"}
        assert len(chains["s1"]) == 2


# ---------------------------------------------------------------------------
# FleetHealth
# ---------------------------------------------------------------------------

class TestFleetHealth:
    def _warmed(self):
        """A health model with four 1s completions on worker 1, and the
        fake clock driving it."""
        clock = FakeClock()
        health = telemetry.FleetHealth(straggler_factor=2.0, min_samples=4,
                                       min_seconds=0.5, clock=clock)
        for i in range(4):
            clock.now = float(i)
            health.record_dispatch(1, f"s{i}", point_slug=f"p{i}")
            clock.now = float(i) + 1.0
            health.record_done(1, f"s{i}")
        return health, clock

    def test_median_warms_up(self):
        health = telemetry.FleetHealth(min_samples=4,
                                       clock=FakeClock(100.0))
        assert health.median() is None
        assert health.threshold() is None
        assert health.flag_stragglers() == []
        health, _clock = self._warmed()
        assert health.median() == pytest.approx(1.0)
        assert health.threshold() == pytest.approx(2.0)

    def test_in_flight_straggler_flagged_once(self):
        health, clock = self._warmed()
        clock.now = 10.0
        health.record_dispatch(2, "slow", point_slug="pslow",
                               run_id="run-x")
        clock.now = 10.5
        assert health.flag_stragglers() == []  # under threshold
        clock.now = 15.0
        (flagged,) = health.flag_stragglers()
        assert flagged["span_id"] == "slow"
        assert flagged["pid"] == 2
        assert flagged["run_id"] == "run-x"
        assert flagged["age_s"] == pytest.approx(5.0)
        clock.now = 20.0
        assert health.flag_stragglers() == []  # flag-once
        assert health.stragglers_total == 1
        # Completing an already-flagged point must not double-count.
        elapsed, newly = health.record_done(2, "slow")
        assert elapsed == pytest.approx(10.0)
        assert newly is False
        assert health.stragglers_total == 1

    def test_completion_straggler_counted(self):
        health, clock = self._warmed()
        clock.now = 10.0
        health.record_dispatch(2, "slow")
        clock.now = 17.0
        elapsed, newly = health.record_done(2, "slow")
        assert newly is True
        assert health.stragglers_total == 1

    def test_snapshot_shape(self):
        health, clock = self._warmed()
        clock.now = 10.0
        health.record_dispatch(2, "slow", point_slug="pslow")
        clock.now = 11.0
        snap = health.snapshot()
        assert snap["completed_points"] == 4
        assert snap["median_point_seconds"] == pytest.approx(1.0)
        worker = snap["workers"]["1"]
        assert worker["points"] == 4
        assert worker["points_per_sec"] == pytest.approx(1.0)
        assert worker["in_flight"] is None
        busy = snap["workers"]["2"]
        assert busy["in_flight"] == "pslow"
        assert busy["lease_age_s"] == pytest.approx(1.0)
        (flight,) = snap["in_flight"]
        assert flight["span_id"] == "slow"
        assert json.dumps(snap)  # JSON-able end to end

    def test_failures_tracked(self):
        clock = FakeClock()
        health = telemetry.FleetHealth(clock=clock)
        health.record_dispatch(1, "s")
        clock.now = 0.5
        health.record_done(1, "s", ok=False)
        clock.now = 1.0
        assert health.snapshot()["workers"]["1"]["failures"] == 1


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------

class TestStructuredLog:
    def test_off_by_default(self, monkeypatch, capsys):
        monkeypatch.delenv(telemetry.ENV_LOG, raising=False)
        telemetry.log("error", "test", "should not appear")
        assert capsys.readouterr().err == ""

    def test_threshold_filters(self, monkeypatch, capsys):
        monkeypatch.setenv(telemetry.ENV_LOG, "warning")
        telemetry.log("info", "test", "filtered")
        telemetry.log("error", "test", "kept", detail=7)
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["msg"] == "kept"
        assert record["detail"] == 7
        assert record["level"] == "error"

    def test_one_means_info(self, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_LOG, "1")
        assert telemetry.log_threshold() == 20
        monkeypatch.setenv(telemetry.ENV_LOG, "off")
        assert telemetry.log_threshold() is None

    def test_log_carries_ambient_ids(self, monkeypatch, capsys):
        monkeypatch.setenv(telemetry.ENV_LOG, "debug")
        monkeypatch.setenv(telemetry.ENV_RUN_ID, "run-log")
        telemetry.log("debug", "test", "hello")
        record = json.loads(capsys.readouterr().err)
        assert record["run_id"] == "run-log"


# ---------------------------------------------------------------------------
# Sweep integration: every executed point leaves one complete chain
# ---------------------------------------------------------------------------

def _assert_complete(events, points, outcome, expect_spans=None):
    assert telemetry.verify_chains(events) == []
    chains = telemetry.causal_chains(events)
    expected = len(points) if expect_spans is None else expect_spans
    assert len(chains) == expected  # one span per executed point, no dups
    committed = [e for e in events if e["event"] == "point_committed"]
    assert len(committed) == expected
    assert {e["run_id"] for e in committed} == {outcome.run_id}
    slugs = {e.get("point_slug") for e in committed}
    assert slugs == {point_slug(p) for p in points}


class TestSweepChains:
    def test_pool_sweep_complete_chains(self, tele_dir):
        points = _points(range(6))
        outcome = run_sweep(points, jobs=3)
        assert outcome.run_id
        assert [r["value"] for r in outcome.results] == list(range(6))
        events = telemetry.read_events(tele_dir)
        _assert_complete(events, points, outcome)
        names = {e["event"] for e in events}
        assert {"run_start", "run_end", "point_queued", "point_dispatched",
                "point_start", "point_end"} <= names
        if outcome.parallel:
            # Worker-side records really came from other processes.
            starts = [e for e in events if e["event"] == "point_start"]
            assert any(e["pid"] != os.getpid() for e in starts)

    def test_serial_sweep_complete_chains(self, tele_dir):
        points = _points(range(4))
        outcome = run_sweep(points, jobs=1)
        assert not outcome.parallel
        events = telemetry.read_events(tele_dir)
        _assert_complete(events, points, outcome)
        # Serial: every record from this process.
        assert {e["pid"] for e in events} == {os.getpid()}

    def test_pool_fallback_marks_retries(self, tele_dir, monkeypatch):
        from repro.exp import runner

        def refuse(*args, **kwargs):
            raise PoolUnavailableError("forced by test")

        monkeypatch.setattr(runner.WorkerPool, "run", refuse)
        points = _points(range(4))
        outcome = run_sweep(points, jobs=4)
        assert outcome.fallback_reason
        assert [r["value"] for r in outcome.results] == list(range(4))
        events = telemetry.read_events(tele_dir)
        _assert_complete(events, points, outcome)
        retried = [e for e in events if e["event"] == "point_retried"]
        assert len(retried) == len(points)
        assert all(e["reason"] == "pool_fallback" for e in retried)

    def test_failed_point_gets_failed_terminal(self, tele_dir):
        points = _points([7], fn=failing_tele_point)
        with pytest.raises(ValueError, match="bad point 7"):
            run_sweep(points, jobs=1)
        events = telemetry.read_events(tele_dir)
        assert telemetry.verify_chains(events) == []
        (failed,) = [e for e in events if e["event"] == "point_failed"]
        assert "ValueError" in failed["error"]

    def test_cached_points_skip_spans(self, tele_dir, tmp_path):
        from repro.exp import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        points = _points(range(3))
        first = run_sweep(points, jobs=1, cache=cache)
        second = run_sweep(points, jobs=1, cache=cache)
        assert second.cache_hits == 3
        events = telemetry.read_events(tele_dir)
        cached = [e for e in events if e["event"] == "point_cached"]
        assert len(cached) == 3
        assert {e["run_id"] for e in cached} == {second.run_id}
        # Only the first sweep's points have execution spans.
        _assert_complete(
            [e for e in events if e.get("run_id") != second.run_id],
            points, first)

    def test_run_id_minted_even_with_log_off(self, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_TELEMETRY_DIR, raising=False)
        telemetry.reset_sink()
        outcome = run_sweep(_points([1]), jobs=1)
        assert outcome.run_id and outcome.run_id.startswith("run-")
        assert os.environ.get(telemetry.ENV_RUN_ID) is None  # restored


# ---------------------------------------------------------------------------
# Artifact stamping: traces and metrics JSONs join the event log
# ---------------------------------------------------------------------------

class TestArtifactStamping:
    def test_metrics_and_trace_carry_provenance(self, tele_dir, tmp_path):
        from repro.obs import summarize_chrome_trace

        trace_dir = str(tmp_path / "traces")
        metrics_dir = str(tmp_path / "metrics")
        points = _points([5])
        outcome = run_sweep(points, jobs=1, trace_dir=trace_dir,
                            metrics_dir=metrics_dir)
        with open(metrics_path(metrics_dir, points[0])) as handle:
            metrics = json.load(handle)
        assert metrics["run_id"] == outcome.run_id
        assert metrics["pid"] == os.getpid()
        assert metrics["point_slug"] == point_slug(points[0])
        events = telemetry.read_events(tele_dir)
        (queued,) = [e for e in events if e["event"] == "point_queued"]
        assert metrics["span_id"] == queued["span_id"]
        trace_file = os.path.join(trace_dir,
                                  f"{point_slug(points[0])}.trace.json")
        with open(trace_file) as handle:
            other = json.load(handle)["otherData"]
        assert other["run_id"] == outcome.run_id
        assert other["span_id"] == queued["span_id"]
        summary = summarize_chrome_trace(trace_file)
        assert summary["provenance"]["run_id"] == outcome.run_id


# ---------------------------------------------------------------------------
# Serve scheduler: dedup chains, worker death, health endpoint
# ---------------------------------------------------------------------------

def _run(coro):
    return asyncio.run(coro)


def _pool_or_skip():
    pool = WorkerPool()
    try:
        pool.ensure(1)
    except (OSError, PermissionError, RuntimeError, ImportError) as exc:
        pool.shutdown()
        pytest.skip(f"worker processes unavailable: {exc}")
    return pool


class TestSchedulerChains:
    def test_dedup_chains_into_owner_span(self, tele_dir):
        """Two clients submitting the same point while it is in flight
        share one execution span; the duplicate's run chains in through a
        point_deduped record naming the owner."""

        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            await sched.start()
            # submit() never yields, so bob's duplicate is queued while
            # alice's point is still queued: dedup, not a re-execution.
            job_a = await sched.submit("alice", _points([3]))
            job_b = await sched.submit("bob", _points([3]))
            await asyncio.wait_for(job_a.done.wait(), timeout=30)
            await asyncio.wait_for(job_b.done.wait(), timeout=30)
            await sched.stop()
            return job_a, job_b

        job_a, job_b = _run(main())
        assert job_a.ok and job_b.ok
        assert job_a.run_id != job_b.run_id
        events = telemetry.read_events(tele_dir)
        assert telemetry.verify_chains(events) == []
        chains = telemetry.causal_chains(events)
        assert len(chains) == 1  # one execution span for both jobs
        (deduped,) = [e for e in events if e["event"] == "point_deduped"]
        (span_id,) = chains
        assert deduped["span_id"] == span_id
        assert deduped["run_id"] == job_b.run_id
        assert deduped["owner_run_id"] == job_a.run_id
        committed = [e for e in events if e["event"] == "point_committed"]
        assert len(committed) == 1  # deduped, not re-executed

    def test_worker_death_retry_single_chain(self, tele_dir, tmp_path):
        pool = _pool_or_skip()
        sentinel = str(tmp_path / "died-once")

        async def main():
            sched = ServeScheduler(jobs=1, pool=pool, use_pool=True,
                                   idle_workers=0)
            await sched.start()
            job = await sched.submit(
                "c", [SweepPoint("tele", crash_once_point,
                                 {"sentinel": sentinel})])
            await asyncio.wait_for(job.done.wait(), timeout=60)
            await sched.stop()
            return job

        try:
            job = _run(main())
        finally:
            pool.shutdown()
        assert job.ok and job.results == [{"retried": True}]
        events = telemetry.read_events(tele_dir)
        assert telemetry.verify_chains(events) == []
        retried = [e for e in events if e["event"] == "point_retried"]
        assert retried and retried[0]["reason"] == "worker_died"
        dispatched = [e for e in events
                      if e["event"] == "point_dispatched"]
        assert len(dispatched) >= 2  # original dispatch + the retry
        assert len({e["worker_pid"] for e in dispatched}) == 2

    def test_cancelled_points_get_terminal(self, tele_dir):
        async def main():
            sched = ServeScheduler(jobs=1, use_pool=False)
            # No dispatcher yet: the point stays queued, then dies with
            # its client.
            doomed = await sched.submit("victim", _points([2]))
            assert sched.cancel_client("victim") == 1
            await sched.start()
            await sched.stop()
            return doomed

        doomed = _run(main())
        assert doomed.cancelled
        events = telemetry.read_events(tele_dir)
        cancelled = [e for e in events if e["event"] == "point_cancelled"]
        assert cancelled
        assert cancelled[0]["reason"] == "client_disconnected"
        assert telemetry.verify_chains(events) == []

    def test_stats_carry_health_snapshot(self, tele_dir):
        async def main():
            sched = ServeScheduler(jobs=2, use_pool=False)
            await sched.start()
            job = await sched.submit("c", _points([1, 2]))
            await asyncio.wait_for(job.done.wait(), timeout=30)
            stats = sched.stats()
            await sched.stop()
            return stats

        stats = _run(main())
        assert stats["clients_queued"] == {}
        health = stats["workers"]
        assert health["completed_points"] == 2
        assert health["stragglers_total"] == 0
        assert os.getpid() in {int(pid) for pid in health["workers"]}

    def test_straggler_flagged_in_log_and_stats(self, tele_dir):
        """A point held in flight past the threshold shows up both as a
        point_straggler event and in the metrics-endpoint health snapshot
        (polling triggers the in-flight scan).  A fake clock stands in
        for the wall clock; a gate holds the point."""
        clock = FakeClock()
        release, started = gate("straggler-stats")

        async def main():
            sched = ServeScheduler(
                jobs=1, use_pool=False,
                health=telemetry.FleetHealth(straggler_factor=1.5,
                                             min_seconds=0.05, clock=clock))
            await sched.start()
            warmup = await sched.submit("c", _points(range(4)))
            await asyncio.wait_for(warmup.done.wait(), timeout=30)
            slow = await sched.submit(
                "c", _points([9], fn=gated_point,
                             gate_name="straggler-stats"))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, started.wait, 30)
            before = sched.stats()["workers"]["stragglers_total"]
            clock.now += 1.0  # the held point is now 1 s old
            flagged = sched.stats()["workers"]
            release.set()
            await asyncio.wait_for(slow.done.wait(), timeout=30)
            await sched.stop()
            return before, flagged, sched.stats()["workers"]

        before, flagged, after = _run(main())
        assert before == 0
        assert flagged["stragglers_total"] == 1
        (flight,) = flagged["in_flight"]
        assert flight["straggler"] and flight["age_s"] == pytest.approx(1.0)
        assert after["stragglers_total"] == 1  # completion did not recount
        events = telemetry.read_events(tele_dir)
        straggler = [e for e in events if e["event"] == "point_straggler"]
        assert len(straggler) == 1 and straggler[0]["in_flight"] is True
        assert telemetry.verify_chains(events) == []


# ---------------------------------------------------------------------------
# repro top rendering
# ---------------------------------------------------------------------------

class TestTopRendering:
    def test_metrics_frame_renders_payload(self):
        payload = {"stats": {
            "max_jobs": 4, "queued_points": 1, "running_points": 2,
            "jobs_total": 3, "jobs_done": 1, "pool_workers": 2,
            "clients_running": {"alice": 2}, "clients_queued": {"bob": 1},
            "counters": {"serve.points.queued": 8,
                         "serve.points.deduped": 2,
                         "serve.points.cache_hits": 0},
            "workers": {
                "completed_points": 6, "median_point_seconds": 0.5,
                "straggler_threshold_seconds": 2.0, "stragglers_total": 1,
                "workers": {"41": {
                    "points": 6, "failures": 0, "busy_seconds": 3.0,
                    "points_per_sec": 2.0, "heartbeat_age_s": 0.1,
                    "in_flight": "slowpoint", "lease_age_s": 2.5,
                    "straggler": True}},
                "in_flight": [{"span_id": "s9", "worker_pid": 41,
                               "point_slug": "slowpoint", "age_s": 2.5,
                               "straggler": True}]}}}
        frame = obs_top.render_metrics_frame(payload, source="test")
        assert "alice" in frame and "bob" in frame
        assert "STRAGGLER" in frame
        assert "dedup 20.0%" in frame
        assert "slowpoint" in frame
        assert "41" in frame

    def test_dedup_ratio(self):
        assert obs_top.dedup_ratio({}) is None
        counters = {"serve.points.queued": 6, "serve.points.deduped": 2,
                    "serve.points.cache_hits": 2}
        assert obs_top.dedup_ratio(counters) == pytest.approx(0.2)

    def test_fleet_state_reconstruction(self):
        events = [
            {"event": "run_start", "run_id": "r1", "ts": 0.0},
            {"event": "point_queued", "run_id": "r1", "span_id": "s1",
             "point_slug": "a", "client": "alice", "ts": 0.1},
            {"event": "point_dispatched", "run_id": "r1", "span_id": "s1",
             "point_slug": "a", "worker_pid": 7, "ts": 0.2},
            {"event": "point_end", "span_id": "s1", "elapsed_s": 0.3,
             "ts": 0.5},
            {"event": "point_committed", "run_id": "r1", "span_id": "s1",
             "point_slug": "a", "ts": 0.6},
            {"event": "point_queued", "run_id": "r1", "span_id": "s2",
             "point_slug": "b", "client": "alice", "ts": 0.7},
            {"event": "point_dispatched", "run_id": "r1", "span_id": "s2",
             "point_slug": "b", "worker_pid": 8, "ts": 0.8},
            {"event": "point_deduped", "run_id": "r2", "span_id": "s1",
             "ts": 0.9},
        ]
        state = obs_top.fleet_state(events, now=1.8)
        assert state["runs"] == 2
        assert state["spans"] == 2
        assert state["done_spans"] == 1
        assert state["clients"]["alice"] == {"queued": 2, "done": 1}
        assert state["counters"]["serve.points.deduped"] == 1
        (flight,) = state["in_flight"]
        assert flight["span_id"] == "s2"
        assert flight["age_s"] == pytest.approx(1.0)
        assert state["workers"]["7"]["points"] == 1
        frame = obs_top.render_state_frame(state, source="unit")
        assert "alice" in frame and "in flight 1" in frame

    def test_frame_from_real_sweep(self, tele_dir):
        outcome = run_sweep(_points(range(3)), jobs=1)
        frame = obs_top.frame_from_dir(tele_dir)
        assert "points 3/3 done" in frame
        assert "runs 1" in frame
        assert outcome.run_id  # the sweep really ran under telemetry

    def test_frame_from_empty_dir(self, tmp_path):
        frame = obs_top.frame_from_dir(str(tmp_path))
        assert "points 0/0 done" in frame
