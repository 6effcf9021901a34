"""Parallel sweep runner.

Fans independent :class:`~repro.exp.sweep.SweepPoint`\\ s out across a
persistent fork-server :class:`WorkerPool`.  Each point constructs its
own ``System`` inside the worker, and every stochastic component of the
simulator is seeded from its config, so parallel results are
bit-identical to serial execution — the runner only changes wall-clock
time, never numbers.

Unlike the per-sweep ``ProcessPoolExecutor`` this replaced, the pool's
workers survive across sweeps: each worker keeps its
:mod:`repro.exp.warmstore` memory LRU of restored snapshots and its
artifact memos, so a worker that has
already warmed (or loaded) the 64 MB-LLC state serves every subsequent
point sharing that config without re-warming or re-unpickling.  Because
workers fork *before* later environment changes, every task carries a
``REPRO_*`` environment overlay captured in the parent at dispatch time —
trace/metrics/warm-store directories and sanitizer flags behave exactly
as if the worker had been forked fresh.

Degradation is graceful by design: ``jobs=1``, a single pending point, or
an environment where worker processes cannot be spawned (sandboxes without
semaphores, exotic interpreters) all fall back to in-process serial
execution of the exact same point functions; a broken pool is torn down
and the pending points re-run serially.

Observability survives the fan-out: when ``REPRO_TRACE_DIR`` /
``REPRO_METRICS_DIR`` are set (directly, or via
``run_sweep(trace_dir=..., metrics_dir=...)``, which exports them around
the sweep so forked workers inherit them), every point — serial or in a
worker process — runs under a fresh :class:`repro.obs.Tracer` and/or
:class:`repro.obs.MetricsRegistry` and writes its Chrome-trace / metrics
JSON into those directories, named after the point's label (see
:func:`point_slug`).  ``repro report`` joins these files with the sweep
payloads into one run report.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import re
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (Any, Callable, Dict, List, Iterator, Optional, Sequence,
                    Tuple, Union)

from repro import obs
from repro.exp import warmstore
from repro.exp.cache import ResultCache
from repro.exp.sweep import SweepPoint
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.obs.telemetry import FleetHealth


class PoolUnavailableError(RuntimeError):
    """Worker processes cannot be spawned or the pool's pipes broke.

    An *infrastructure* failure, distinct from a sweep point raising: the
    runner falls back to serial in-process execution on this error, while
    a point's own exception propagates to the caller (after completed
    in-flight results have been committed)."""


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: the CPUs available to
    *this process*.  ``os.process_cpu_count()`` (Python 3.13+) already
    honours CPU affinity; on older interpreters fall back to
    ``len(os.sched_getaffinity(0))`` so cgroup- or taskset-restricted CI
    boxes don't oversubscribe the pool, and only then to the raw
    ``os.cpu_count()`` (platforms without affinity, e.g. macOS)."""
    counter = getattr(os, "process_cpu_count", None)
    if counter is None:
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                return max(1, len(affinity(0)))
            except OSError:
                pass
        counter = os.cpu_count
    return max(1, counter() or 1)


@dataclass(frozen=True)
class StragglerPolicy:
    """When and how the pool re-dispatches flagged stragglers.

    A point in flight longer than ``max(factor × running-median,
    min_seconds)`` (after ``min_samples`` completions warmed the median)
    is speculatively re-dispatched to an idle worker; the first copy to
    finish wins and the losing copies are killed.  ``max_twins`` bounds
    speculative copies per point; the overall per-point retry budget
    (``run_sweep(max_point_retries=...)``) bounds re-dispatches *plus*
    serial-fallback retries together."""

    factor: float = 4.0
    min_seconds: float = 1.0
    min_samples: int = 4
    max_twins: int = 1
    enabled: bool = True

    def poll_seconds(self) -> float:
        """How often the blocking pool loop wakes to scan for stragglers
        (a fraction of ``min_seconds``, clamped to a sane band)."""
        return min(0.5, max(0.02, self.min_seconds / 4.0))

    def health(self) -> FleetHealth:
        return FleetHealth(straggler_factor=self.factor,
                           min_samples=self.min_samples,
                           min_seconds=self.min_seconds)


@dataclass
class SweepOutcome:
    """Results of one sweep, in point order, plus execution metadata."""

    results: List[Any]
    jobs: int
    parallel: bool
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    fallback_reason: Optional[str] = None
    #: Warm-state reuse during the executed (non-result-cached) points:
    #: snapshot and artifact loads served from the
    #: :mod:`repro.exp.warmstore` layers vs. paid from scratch.
    warm_hits: int = 0
    warm_misses: int = 0
    points: Sequence[SweepPoint] = field(default_factory=tuple)
    #: Causal run ID minted for this sweep — every telemetry record,
    #: stamped trace, and stamped metrics JSON the sweep produced carries
    #: it (see :mod:`repro.obs.telemetry`).
    run_id: Optional[str] = None
    #: Which :class:`ExecutionBackend` actually ran the pending points
    #: (``None`` when everything came from the result cache).
    backend: Optional[str] = None
    #: Speculative straggler re-dispatches the pool performed.
    redispatches: int = 0

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Any:
        return self.results[index]


def point_slug(point: SweepPoint) -> str:
    """Filesystem-safe name for a point's per-point artifacts (trace and
    metrics files share it, so reports can join them by label)."""
    slug = re.sub(r"[^A-Za-z0-9._=-]+", "_", point.describe()).strip("_")
    return slug[:120] or "point"


def _trace_path(trace_dir: str, point: SweepPoint) -> str:
    return os.path.join(trace_dir, f"{point_slug(point)}.trace.json")


def metrics_path(metrics_dir: str, point: SweepPoint) -> str:
    """Where a point's metrics JSON lands under ``metrics_dir``."""
    return os.path.join(metrics_dir, f"{point_slug(point)}.metrics.json")


def _run_point(point: SweepPoint, run_id: Optional[str] = None,
               span_id: Optional[str] = None) -> Any:
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    metrics_dir = os.environ.get("REPRO_METRICS_DIR")
    if not trace_dir and not metrics_dir and not telemetry.enabled():
        return point.run()
    # Causal IDs arrive explicitly (serial/inline paths) or through the
    # env overlay mirrored into forked workers (pool path).
    run_id = run_id or os.environ.get(telemetry.ENV_RUN_ID)
    span_id = span_id or os.environ.get(telemetry.ENV_SPAN_ID)
    slug = point_slug(point)
    # Provenance stamped into the trace/metrics artifacts: two sweeps
    # sharing a directory (or two pool workers racing on one) stay
    # distinguishable and joinable by run/span, not just filename.
    provenance: Dict[str, Any] = {"pid": os.getpid(), "point_slug": slug}
    if run_id:
        provenance["run_id"] = run_id
    if span_id:
        provenance["span_id"] = span_id
    telemetry.emit("point_start", run_id=run_id, span_id=span_id,
                   point_slug=slug, experiment=point.experiment)
    # Per-point tracer/metrics registry, installed process-globally so the
    # Systems and schedulers the point builds internally pick them up.
    # Works identically in the parent (serial path) and in forked workers,
    # which inherit the environment variables.
    tracer = None
    previous_observer = obs.current_observer()
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        tracer = obs.Tracer()
        obs.install(tracer)
    registry = None
    previous_registry = obs_metrics.current()
    if metrics_dir:
        os.makedirs(metrics_dir, exist_ok=True)
        registry = obs_metrics.install(obs_metrics.MetricsRegistry())
    started = time.perf_counter()
    warm_before = warmstore.counters()
    ok = True
    try:
        if registry is not None:
            with registry.profiler.phase("point"):
                return point.run()
        return point.run()
    except BaseException:
        ok = False
        raise
    finally:
        warm_after = warmstore.counters()
        telemetry.emit(
            "point_end", run_id=run_id, span_id=span_id, point_slug=slug,
            ok=ok, elapsed_s=round(time.perf_counter() - started, 6),
            warm_hits=warm_after["hits"] - warm_before["hits"],
            warm_misses=warm_after["misses"] - warm_before["misses"])
        if tracer is not None:
            if previous_observer is not None:
                obs.install(previous_observer)
            else:
                obs.uninstall()
            # Written even when the point raises — a partial trace is
            # exactly what debugging a failed point needs.
            tracer.write_chrome(_trace_path(trace_dir, point),
                                extra=provenance)
        if registry is not None:
            if previous_registry is not None:
                obs_metrics.install(previous_registry)
            else:
                obs_metrics.uninstall()
            registry.write_json(metrics_path(metrics_dir, point),
                                extra={"label": point.describe(),
                                       **provenance})


def _pool_worker_main(conn) -> None:
    """Loop of one persistent fork-server worker.

    Tasks arrive as ``(seq, point, env)`` where ``env`` is the parent's
    ``REPRO_*`` environment at dispatch time; the worker mirrors it
    exactly (removing stale keys) before running the point, so a worker
    forked long ago behaves like one forked for this sweep.  Replies are
    ``(seq, ok, payload, warm_delta)`` — ``payload`` is the point result
    or the raised exception, ``warm_delta`` the warm-store hit/miss
    counts this point generated.  ``None`` shuts the worker down.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        seq, point, env = task
        for key in [k for k in os.environ
                    if k.startswith("REPRO_") and k not in env]:
            del os.environ[key]
        os.environ.update(env)
        before = warmstore.counters()
        ok = True
        try:
            payload: Any = _run_point(point)
        except BaseException as exc:  # transported to the parent
            ok = False
            payload = exc
        after = warmstore.counters()
        warm_delta = {key: after[key] - before[key] for key in after}
        try:
            conn.send((seq, ok, payload, warm_delta))
        except Exception as exc:  # unpicklable payload/exception
            conn.send((seq, False,
                       RuntimeError(f"unpicklable point result: {exc}"),
                       warm_delta))
    conn.close()


def pool_task_env() -> Dict[str, str]:
    """The ``REPRO_*`` environment overlay sent with every pool task, so
    long-forked workers mirror the parent's current settings."""
    return {key: value for key, value in os.environ.items()
            if key.startswith("REPRO_")}


class WorkerHandle:
    """One persistent fork-server worker: process plus duplex pipe.

    Handles are *leased* for exactly one in-flight task at a time —
    :meth:`WorkerPool.checkout` marks the lease, :meth:`WorkerPool.checkin`
    releases it.  :meth:`fileno` exposes the reply pipe so an event loop
    can await the worker's answer without blocking (the ``repro serve``
    scheduler registers it with ``loop.add_reader``); the blocking
    :meth:`WorkerPool.run` path waits on the same pipe via
    ``multiprocessing.connection.wait``.
    """

    __slots__ = ("process", "conn", "leased")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.leased = False

    def fileno(self) -> int:
        return self.conn.fileno()

    def alive(self) -> bool:
        return self.process.is_alive()

    def send_task(self, seq: int, point: SweepPoint,
                  env: Optional[Dict[str, str]] = None) -> None:
        self.conn.send((seq, point, pool_task_env() if env is None else env))

    def recv(self) -> Tuple[int, bool, Any, Dict[str, int]]:
        """The worker's next ``(seq, ok, payload, warm_delta)`` reply.
        Raises ``EOFError``/``OSError`` when the worker died."""
        return self.conn.recv()


class WorkerPool:
    """Reusable fork-server pool of :func:`_pool_worker_main` processes.

    Workers persist across :func:`run_sweep` calls (that is the point:
    their in-memory warm-state LRUs keep paying off), grow on demand up
    to the ``jobs`` currently requested, and are torn down via
    :func:`shutdown_pool` (registered ``atexit``).  The pool no longer
    only grows: :meth:`run` trims back to the requested parallelism when
    it finishes and :meth:`shrink` retires idle workers on demand, so one
    wide sweep does not pin worker processes (and their warm memos) at
    the high-water mark forever.

    Two dispatch seams share the same workers: the blocking :meth:`run`
    loop used by :func:`run_sweep`, and the lease-based
    :meth:`checkout`/:meth:`checkin`/:meth:`retire` trio the async
    ``repro serve`` scheduler drives one task at a time.
    """

    def __init__(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        # fork: workers inherit the parent's imports and sys.path, so
        # even point functions defined in scripts resolve.
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._workers: List[WorkerHandle] = []

    def __len__(self) -> int:
        return len(self._workers)

    def _spawn(self) -> WorkerHandle:
        try:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(target=_pool_worker_main,
                                            args=(child_conn,), daemon=True)
            process.start()
        except (OSError, PermissionError, ImportError, RuntimeError) as exc:
            raise PoolUnavailableError(
                f"cannot spawn worker: {type(exc).__name__}: {exc}") from exc
        child_conn.close()
        return WorkerHandle(process, parent_conn)

    def ensure(self, count: int) -> None:
        """Grow the pool to at least ``count`` live workers."""
        self._reap_dead()
        while len(self._workers) < count:
            self._workers.append(self._spawn())

    def _reap_dead(self) -> None:
        for handle in [h for h in self._workers
                       if not h.leased and not h.alive()]:
            self._dismiss(handle)

    # -- lease-based dispatch (the async scheduler's seam) --------------

    def checkout(self, spawn: bool = True) -> Optional[WorkerHandle]:
        """Lease an idle worker (spawning one when ``spawn`` and none is
        free); ``None`` when every worker is busy and ``spawn`` is off."""
        self._reap_dead()
        for handle in self._workers:
            if not handle.leased:
                handle.leased = True
                return handle
        if not spawn:
            return None
        handle = self._spawn()
        handle.leased = True
        self._workers.append(handle)
        return handle

    def checkin(self, handle: WorkerHandle) -> None:
        """Release a leased worker back to the idle set."""
        handle.leased = False

    def retire(self, handle: WorkerHandle) -> None:
        """Remove a (possibly dead) worker from the pool and reap its
        process; the caller's lease, if any, is void afterwards."""
        self._dismiss(handle)

    def kill(self, handle: WorkerHandle) -> None:
        """Terminate a worker *immediately* (no graceful drain, no
        multi-second join) — used to cancel the losing copy of a
        speculatively re-dispatched point the moment its twin commits.
        The worker's warm memos die with it; that is the accepted price
        of not waiting out a straggler."""
        try:
            handle.process.terminate()
        except Exception:
            pass
        try:
            handle.conn.close()
        except Exception:
            pass
        handle.process.join(timeout=0.05)
        handle.leased = False
        try:
            self._workers.remove(handle)
        except ValueError:
            pass

    def _dismiss(self, handle: WorkerHandle) -> None:
        try:
            handle.conn.send(None)
        except Exception:
            pass
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2.0)
        try:
            handle.conn.close()
        except Exception:
            pass
        handle.leased = False
        try:
            self._workers.remove(handle)
        except ValueError:
            pass

    def shrink(self, target: int) -> int:
        """Retire idle workers until at most ``target`` remain (leased
        workers are never touched); returns how many were retired.
        Newest workers go first, so the longest-lived — warmest — memos
        survive."""
        target = max(0, int(target))
        removed = 0
        for handle in reversed(list(self._workers)):
            if len(self._workers) <= target:
                break
            if handle.leased:
                continue
            self._dismiss(handle)
            removed += 1
        return removed

    # -- blocking batch dispatch (run_sweep's seam) ---------------------

    def run(self, points: Sequence[SweepPoint], jobs: int,
            on_result: Optional[Callable[[int, Any, Dict[str, int]],
                                         None]] = None,
            span_ids: Optional[Sequence[Optional[str]]] = None,
            straggler: Optional[StragglerPolicy] = None,
            allow_retry: Optional[Callable[[int, str], bool]] = None,
            stats: Optional[Dict[str, int]] = None,
            ) -> List[Tuple[Any, Dict[str, int]]]:
        """Execute ``points``; returns ``(payload, warm_delta)`` pairs in
        point order.  Re-raises the first failing point's exception after
        draining in-flight tasks (the pool stays reusable) — but first
        every successfully completed payload is handed to ``on_result``
        (called as ``on_result(index, payload, warm_delta)`` as results
        arrive), so callers can commit finished work before the raise and
        a retried sweep never redoes completed points.

        ``span_ids`` aligns with ``points``: each task's env overlay
        carries its span so the worker's telemetry records chain with the
        parent's (see :mod:`repro.obs.telemetry`).

        With a :class:`StragglerPolicy`, the loop polls in-flight ages
        against the running-median threshold and speculatively
        re-dispatches flagged points to idle workers: first copy to
        finish wins, losing copies are killed (:meth:`kill`) the moment
        the winner's reply lands, so exactly one result per point ever
        reaches ``on_result``.  ``allow_retry(seq, reason)`` consults the
        caller's per-point retry budget before each re-dispatch; ``stats``
        (when given) receives a ``redispatches`` count."""
        count = min(jobs, len(points))
        env = pool_task_env()
        # A stale ambient span must never leak into workers; each task
        # gets its own (or none).
        env.pop(telemetry.ENV_SPAN_ID, None)
        spans: List[Optional[str]] = (list(span_ids) if span_ids is not None
                                      else [None] * len(points))
        tele = telemetry.enabled()
        policy = straggler if (straggler is not None
                               and straggler.enabled) else None
        health: Optional[FleetHealth]
        if policy is not None:
            health = policy.health()
        else:
            health = FleetHealth() if tele else None
        poll = policy.poll_seconds() if policy is not None else None
        out: List[Optional[Tuple[Any, Dict[str, int]]]] = [None] * len(points)
        failure: Optional[BaseException] = None
        next_index = 0
        redispatches = 0
        done: set = set()  # seqs whose winning result was delivered
        # conn -> (seq, flight_key, is_twin); flight keys ("<span>#rN" for
        # speculative copies) keep every live copy distinct in FleetHealth.
        flights: Dict[Any, Tuple[int, str, bool]] = {}
        active: Dict[int, List[Any]] = {}  # seq -> conns racing on it
        twins_sent: Dict[int, int] = {}
        key_seq: Dict[str, int] = {}
        overdue: List[int] = []  # flagged seqs awaiting an idle worker
        failed_once: Dict[int, BaseException] = {}
        # checkout (not a raw scan) so concurrent lease holders — e.g. the
        # serve scheduler sharing this pool — never starve a blocking run:
        # missing idle workers are spawned on demand.
        idle: List[WorkerHandle] = []
        busy: Dict[Any, WorkerHandle] = {}  # conn -> handle

        def _flight_key(seq: int, attempt: int) -> str:
            base = spans[seq] or f"seq-{seq}"
            return base if attempt == 0 else f"{base}#r{attempt}"

        def _dispatch(handle: WorkerHandle, seq: int,
                      twin: bool = False) -> None:
            nonlocal redispatches
            span = spans[seq]
            attempt = twins_sent.get(seq, 0) + 1 if twin else 0
            key = _flight_key(seq, attempt)
            handle.send_task(seq, points[seq],
                             env if span is None
                             else {**env, telemetry.ENV_SPAN_ID: span})
            slug = point_slug(points[seq])
            if health is not None:
                health.record_dispatch(
                    handle.process.pid, key, point_slug=slug,
                    redispatch_of=_flight_key(seq, 0) if twin else None)
            extra = {"redispatch": True} if twin else {}
            telemetry.emit("point_dispatched", span_id=span, point_slug=slug,
                           worker_pid=handle.process.pid, **extra)
            if twin:
                twins_sent[seq] = attempt
                redispatches += 1
            busy[handle.conn] = handle
            flights[handle.conn] = (seq, key, twin)
            key_seq[key] = seq
            active.setdefault(seq, []).append(handle.conn)

        def _cancel_losers(seq: int, winner_conn: Any) -> None:
            for conn in list(active.get(seq, [])):
                if conn is winner_conn:
                    continue
                loser = busy.pop(conn, None)
                info = flights.pop(conn, None)
                if loser is None:
                    continue
                if health is not None and info is not None:
                    health.record_cancelled(loser.process.pid, info[1])
                telemetry.log("info", "runner",
                              "killed losing straggler copy",
                              point_slug=point_slug(points[seq]),
                              worker_pid=loser.process.pid)
                self.kill(loser)
                if next_index < len(points) or overdue:
                    try:
                        idle.append(self.checkout())
                    except PoolUnavailableError:
                        pass
            active.pop(seq, None)

        try:
            while len(idle) < count:
                idle.append(self.checkout())
            while True:
                while idle and next_index < len(points) and failure is None:
                    _dispatch(idle.pop(), next_index)
                    next_index += 1
                if policy is not None and failure is None:
                    for entry in health.flag_stragglers():
                        seq = key_seq.get(entry["span_id"])
                        if seq is None or seq in done:
                            continue
                        telemetry.emit(
                            "point_straggler", span_id=spans[seq],
                            point_slug=point_slug(points[seq]),
                            worker_pid=entry["pid"],
                            age_s=entry["age_s"],
                            threshold_s=entry["threshold_s"])
                        if (entry["span_id"] == _flight_key(seq, 0)
                                and seq not in overdue):
                            overdue.append(seq)
                    while idle and overdue and failure is None:
                        seq = overdue.pop(0)
                        if (seq in done
                                or twins_sent.get(seq, 0) >= policy.max_twins):
                            continue
                        if (allow_retry is not None
                                and not allow_retry(
                                    seq, "straggler_redispatch")):
                            continue
                        telemetry.emit("point_retried", span_id=spans[seq],
                                       point_slug=point_slug(points[seq]),
                                       reason="straggler_redispatch")
                        _dispatch(idle.pop(), seq, twin=True)
                if not busy:
                    break
                ready = mp_connection.wait(list(busy), timeout=poll)
                for conn in ready:
                    handle = busy.pop(conn, None)
                    if handle is None:
                        continue  # a loser killed earlier in this batch
                    seq, key, _is_twin = flights.pop(conn)
                    _reply_seq, ok, payload, warm_delta = conn.recv()
                    idle.append(handle)
                    racing = active.get(seq, [])
                    if conn in racing:
                        racing.remove(conn)
                    if seq in done:
                        # Late loser: its twin already won; the result is
                        # dropped unseen (first-commit-wins).
                        if health is not None:
                            health.record_cancelled(handle.process.pid, key)
                        continue
                    if health is not None:
                        elapsed, straggled = health.record_done(
                            handle.process.pid, key, ok=ok)
                        if straggled:
                            telemetry.emit(
                                "point_straggler", span_id=spans[seq],
                                point_slug=point_slug(points[seq]),
                                worker_pid=handle.process.pid,
                                age_s=round(elapsed, 6),
                                threshold_s=health.threshold())
                    if ok:
                        done.add(seq)
                        failed_once.pop(seq, None)
                        _cancel_losers(seq, conn)
                        out[seq] = (payload, warm_delta)
                        if on_result is not None:
                            on_result(seq, payload, warm_delta)
                    elif racing:
                        # A speculative copy is still running this point;
                        # it may yet succeed, so hold the failure.
                        failed_once[seq] = payload
                    else:
                        telemetry.emit(
                            "point_failed", span_id=spans[seq],
                            point_slug=point_slug(points[seq]),
                            error=f"{type(payload).__name__}: {payload}")
                        if failure is None:
                            failure = payload
        except (OSError, EOFError, BrokenPipeError) as exc:
            # A worker or pipe died: the pool is unusable.  Tear it down
            # so the next sweep starts fresh, and let run_sweep fall back
            # to serial execution of the points still missing.
            telemetry.log("warning", "runner",
                          "worker pool failed; tearing it down",
                          error=f"{type(exc).__name__}: {exc}")
            self.shutdown()
            raise PoolUnavailableError(f"worker pool failed: {exc}") from exc
        finally:
            if stats is not None:
                stats["redispatches"] = redispatches
            for handle in idle + list(busy.values()):
                handle.leased = False
            # Resident footprint tracks the *current* request, not the
            # historical high-water mark: idle workers beyond the
            # parallelism just asked for are reaped.
            self.shrink(jobs)
        if failure is not None:
            raise failure
        return [pair for pair in out]  # type: ignore[misc]

    def shutdown(self) -> None:
        for handle in list(self._workers):
            self._dismiss(handle)
        self._workers = []


_POOL: Optional[WorkerPool] = None


def _get_pool() -> WorkerPool:
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool()
    return _POOL


def get_pool() -> WorkerPool:
    """The process-wide persistent :class:`WorkerPool`, created on first
    use.  ``run_sweep`` and the ``repro serve`` scheduler share it, so a
    daemon's workers keep serving ad-hoc sweeps' warm state and vice
    versa."""
    return _get_pool()


def shutdown_pool() -> None:
    """Terminate the persistent worker pool (no-op when none exists).
    A later parallel sweep transparently builds a fresh pool."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)


def _run_parallel(points: Sequence[SweepPoint], jobs: int,
                  on_result: Optional[Callable[[int, Any, Dict[str, int]],
                                               None]] = None,
                  span_ids: Optional[Sequence[Optional[str]]] = None,
                  straggler: Optional["StragglerPolicy"] = None,
                  allow_retry: Optional[Callable[[int, str], bool]] = None,
                  stats: Optional[Dict[str, int]] = None,
                  ) -> List[Tuple[Any, Dict[str, int]]]:
    """Execute ``points`` on the persistent pool; results in point order."""
    return _get_pool().run(points, jobs, on_result=on_result,
                           span_ids=span_ids, straggler=straggler,
                           allow_retry=allow_retry, stats=stats)


# ---------------------------------------------------------------------------
# Execution backends
# ---------------------------------------------------------------------------

@dataclass
class SweepContext:
    """Everything a backend needs to execute one sweep's pending points.

    ``commit(pos, payload)`` delivers one finished point (the runner
    caches it and emits ``point_committed``); ``add_warm`` accumulates
    warm-store deltas; ``allow_retry(pos, reason)`` consults and consumes
    the per-point retry budget; ``completed`` is a live view the fallback
    path uses to find what still needs running; ``stats`` carries backend
    counters (``redispatches``) back to the outcome."""

    todo: Sequence[SweepPoint]
    spans: Sequence[str]
    run_id: str
    jobs: int
    commit: Callable[[int, Any], None]
    add_warm: Callable[[int, int], None]
    allow_retry: Callable[[int, str], bool]
    completed: List[bool]
    stats: Dict[str, int] = field(default_factory=dict)

    def pending_positions(self) -> List[int]:
        return [pos for pos, done in enumerate(self.completed) if not done]


class ExecutionBackend:
    """How a sweep executes its non-cached points.

    One seam, three implementations — ``serial`` (in this process),
    ``pool`` (the persistent fork-server :class:`WorkerPool`), ``serve``
    (a running ``repro serve`` daemon via the blocking client) — so
    :func:`run_sweep` carries one code path instead of special-casing
    each mode.  A backend raising :class:`PoolUnavailableError` (or the
    OS-level spawn failures) signals *infrastructure* trouble: the runner
    falls back to serial execution of whatever has not completed,
    charging each re-run to the point's retry budget."""

    name = "backend"

    def execute(self, ctx: SweepContext) -> None:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process execution, one point at a time — also the fallback
    target when a parallel backend's infrastructure fails."""

    name = "serial"

    def execute(self, ctx: SweepContext) -> None:
        _serial_execute(ctx, ctx.pending_positions())


def _serial_execute(ctx: SweepContext, positions: Sequence[int]) -> None:
    for pos in positions:
        telemetry.emit("point_dispatched", run_id=ctx.run_id,
                       span_id=ctx.spans[pos],
                       point_slug=point_slug(ctx.todo[pos]),
                       worker_pid=os.getpid())
        before = warmstore.counters()
        try:
            payload = _run_point(ctx.todo[pos], run_id=ctx.run_id,
                                 span_id=ctx.spans[pos])
        except BaseException as exc:
            telemetry.emit(
                "point_failed", run_id=ctx.run_id, span_id=ctx.spans[pos],
                point_slug=point_slug(ctx.todo[pos]),
                error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            after = warmstore.counters()
            ctx.add_warm(after["hits"] - before["hits"],
                         after["misses"] - before["misses"])
        ctx.commit(pos, payload)


class PoolBackend(ExecutionBackend):
    """The persistent fork-server pool, with optional straggler
    re-dispatch driven by a :class:`StragglerPolicy`."""

    name = "pool"

    def __init__(self, straggler: Optional[StragglerPolicy] = None) -> None:
        self.straggler = straggler

    def execute(self, ctx: SweepContext) -> None:
        def _on_result(pos: int, payload: Any,
                       delta: Dict[str, int]) -> None:
            ctx.add_warm(delta["hits"], delta["misses"])
            ctx.commit(pos, payload)

        _run_parallel(ctx.todo, ctx.jobs, on_result=_on_result,
                      span_ids=ctx.spans, straggler=self.straggler,
                      allow_retry=ctx.allow_retry, stats=ctx.stats)


class ServeBackend(ExecutionBackend):
    """Submit the points to a running ``repro serve`` daemon.

    Points are grouped by function (the daemon resolves
    ``module:qualname`` through its registry escape hatch) and streamed
    back per point, so commits land as they finish, exactly like the
    other backends.  Connection failures raise
    :class:`PoolUnavailableError`, engaging the same serial fallback."""

    name = "serve"

    def __init__(self, host: str = "127.0.0.1", port: int = 9306,
                 timeout: float = 600.0, priority: int = 0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.priority = priority

    def execute(self, ctx: SweepContext) -> None:
        from repro.serve.client import ServeClient, ServeError
        try:
            client = ServeClient(self.host, self.port, timeout=self.timeout)
        except OSError as exc:
            raise PoolUnavailableError(
                f"serve daemon unreachable at {self.host}:{self.port}: "
                f"{exc}") from exc
        groups: Dict[Tuple[str, str], List[int]] = {}
        for pos in ctx.pending_positions():
            point = ctx.todo[pos]
            spec = f"{point.fn.__module__}:{point.fn.__qualname__}"
            groups.setdefault((point.experiment, spec), []).append(pos)
        errors: List[str] = []
        try:
            for (_experiment, spec), positions in groups.items():
                params = [dict(ctx.todo[pos].params) for pos in positions]

                def _on_event(event: Dict[str, Any],
                              positions: List[int] = positions) -> None:
                    if (event.get("event") == "point"
                            and event.get("error") is None
                            and "index" in event):
                        ctx.commit(positions[event["index"]],
                                   event["payload"])

                result = client.submit(points=params, fn=spec,
                                       priority=self.priority,
                                       on_event=_on_event)
                if not result.ok:
                    errors.extend(result.errors)
        except (OSError, ServeError) as exc:
            raise PoolUnavailableError(f"serve submission failed: "
                                       f"{exc}") from exc
        finally:
            try:
                client.close()
            except Exception:
                pass
        if errors:
            raise RuntimeError(f"serve backend: {errors[0]}")


def resolve_backend(backend: Union[str, ExecutionBackend, None], *,
                    jobs: int, pending: int,
                    straggler: Optional[StragglerPolicy] = None,
                    serve_addr: Optional[Tuple[str, int]] = None,
                    ) -> ExecutionBackend:
    """Map a backend spec to an instance.  ``"auto"`` (or ``None``) keeps
    the historical behaviour: the pool when it can actually help
    (``jobs > 1`` and more than one pending point), serial otherwise."""
    if isinstance(backend, ExecutionBackend):
        return backend
    spec = (backend or "auto").lower()
    if spec == "auto":
        spec = "pool" if jobs > 1 and pending > 1 else "serial"
    if spec == "serial":
        return SerialBackend()
    if spec == "pool":
        return PoolBackend(straggler)
    if spec == "serve":
        host, port = serve_addr if serve_addr else ("127.0.0.1", 9306)
        return ServeBackend(host, port)
    raise ValueError(f"unknown execution backend {backend!r} "
                     f"(expected serial/pool/serve/auto)")


def run_sweep(points: Sequence[SweepPoint], *, jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              trace_dir: Optional[str] = None,
              metrics_dir: Optional[str] = None,
              warm_dir: Optional[str] = None,
              telemetry_dir: Optional[str] = None,
              backend: Union[str, ExecutionBackend, None] = "auto",
              straggler: Optional[StragglerPolicy] = None,
              serve_addr: Optional[Tuple[str, int]] = None,
              max_point_retries: int = 3) -> SweepOutcome:
    """Run every point, in parallel when possible, and return a
    :class:`SweepOutcome` whose ``results`` align with ``points``.

    Args:
        points: the sweep; order is preserved in the outcome.
        jobs: worker processes (``None`` → :func:`default_jobs`;
            ``1`` → serial in-process execution).
        cache: optional result cache — cached points never reach a worker,
            and freshly computed payloads are stored back.
        trace_dir: when given, every executed point writes a Chrome-trace
            JSON into this directory (exported as ``REPRO_TRACE_DIR`` for
            the duration of the sweep so worker processes see it too).
            Cached points are not re-traced.
        metrics_dir: when given, every executed point runs under a fresh
            :class:`repro.obs.MetricsRegistry` and writes its metrics
            JSON (counters, histograms, phase profile) into this
            directory, keyed like the trace files (exported as
            ``REPRO_METRICS_DIR``).  Cached points are not re-measured.
        warm_dir: when given, points resolve a shared
            :class:`repro.exp.warmstore.WarmStore` rooted here (exported
            as ``REPRO_WARMSTORE_DIR``): warm-up snapshots and
            deterministic artifacts are loaded instead of recomputed, and
            the outcome's ``warm_hits``/``warm_misses`` report the reuse.
        telemetry_dir: when given, the sweep appends causal lifecycle
            records (queued/dispatched/executed/committed per point) to
            NDJSON files in this directory (exported as
            ``REPRO_TELEMETRY_DIR``); see :mod:`repro.obs.telemetry`.
        backend: ``"serial"`` / ``"pool"`` / ``"serve"`` /
            ``"auto"`` (default: pool when it helps), or an
            :class:`ExecutionBackend` instance.
        straggler: a :class:`StragglerPolicy` enabling speculative
            re-dispatch of flagged stragglers on the pool backend.
        serve_addr: ``(host, port)`` of the daemon for
            ``backend="serve"``.
        max_point_retries: per-point budget shared by every retry reason
            (``pool_fallback``, ``straggler_redispatch``) — re-execution
            of one point is bounded no matter how reasons combine.
    """
    started = time.perf_counter()
    overlay = {}
    if trace_dir is not None:
        overlay["REPRO_TRACE_DIR"] = trace_dir
    if metrics_dir is not None:
        overlay["REPRO_METRICS_DIR"] = metrics_dir
    if warm_dir is not None:
        overlay["REPRO_WARMSTORE_DIR"] = warm_dir
    if telemetry_dir is not None:
        overlay[telemetry.ENV_TELEMETRY_DIR] = telemetry_dir
    if overlay:
        saved = {key: os.environ.get(key) for key in overlay}
        os.environ.update(overlay)
        try:
            outcome = run_sweep(points, jobs=jobs, cache=cache,
                                backend=backend, straggler=straggler,
                                serve_addr=serve_addr,
                                max_point_retries=max_point_retries)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        outcome.elapsed_seconds = time.perf_counter() - started
        return outcome
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    # Every sweep gets a fresh causal run ID, exported so pool workers
    # (which mirror REPRO_* per task) stamp it into their records and
    # artifacts even when the event log itself is off.
    run_id = telemetry.new_run_id()
    saved_run = os.environ.get(telemetry.ENV_RUN_ID)
    os.environ[telemetry.ENV_RUN_ID] = run_id
    try:
        return _run_sweep_body(points, jobs, cache, run_id, started,
                               backend=backend, straggler=straggler,
                               serve_addr=serve_addr,
                               max_point_retries=max_point_retries)
    finally:
        if saved_run is None:
            os.environ.pop(telemetry.ENV_RUN_ID, None)
        else:
            os.environ[telemetry.ENV_RUN_ID] = saved_run


def _run_sweep_body(points: Sequence[SweepPoint], jobs: int,
                    cache: Optional[ResultCache], run_id: str,
                    started: float, *,
                    backend: Union[str, ExecutionBackend, None] = "auto",
                    straggler: Optional[StragglerPolicy] = None,
                    serve_addr: Optional[Tuple[str, int]] = None,
                    max_point_retries: int = 3) -> SweepOutcome:
    results: List[Any] = [None] * len(points)
    pending: List[int] = []
    cache_hits = 0
    for index, point in enumerate(points):
        if cache is not None:
            hit = cache.get(point.experiment, point.params)
            if not ResultCache.is_missing(hit):
                results[index] = hit
                cache_hits += 1
                telemetry.emit("point_cached", run_id=run_id,
                               point_slug=point_slug(point))
                continue
        pending.append(index)

    parallel = False
    fallback_reason: Optional[str] = None
    backend_name: Optional[str] = None
    warm_hits = 0
    warm_misses = 0
    stats: Dict[str, int] = {}
    telemetry.emit("run_start", run_id=run_id, points=len(points),
                   pending=len(pending), cache_hits=cache_hits, jobs=jobs)

    if pending:
        todo = [points[i] for i in pending]
        completed = [False] * len(todo)
        retries = [0] * len(todo)
        # One span per executed point: its whole lifecycle — here and in
        # whichever process runs it — chains under this ID.
        spans = [telemetry.new_span_id() for _ in todo]
        for pos, point in enumerate(todo):
            telemetry.emit("point_queued", run_id=run_id, span_id=spans[pos],
                           point_slug=point_slug(point),
                           experiment=point.experiment)

        def _commit(pos: int, payload: Any) -> None:
            # Results are committed (and cached) as they arrive, not after
            # the whole sweep: when one point fails, everything that
            # finished stays finished and a retried sweep never redoes it.
            if completed[pos]:
                return  # first commit wins; a racing twin's copy is dropped
            index = pending[pos]
            results[index] = payload
            completed[pos] = True
            if cache is not None:
                cache.put(points[index].experiment, points[index].params,
                          payload)
            telemetry.emit("point_committed", run_id=run_id,
                           span_id=spans[pos],
                           point_slug=point_slug(points[index]))

        def _add_warm(hits: int, misses: int) -> None:
            nonlocal warm_hits, warm_misses
            warm_hits += hits
            warm_misses += misses

        def _allow_retry(pos: int, reason: str) -> bool:
            # One budget across every retry reason: pool fallback after a
            # string of straggler re-dispatches (or vice versa) cannot
            # re-execute a point without bound.
            if retries[pos] >= max_point_retries:
                telemetry.log("warning", "runner",
                              "retry budget exhausted",
                              point_slug=point_slug(todo[pos]),
                              reason=reason, retries=retries[pos])
                return False
            retries[pos] += 1
            return True

        ctx = SweepContext(todo=todo, spans=spans, run_id=run_id, jobs=jobs,
                           commit=_commit, add_warm=_add_warm,
                           allow_retry=_allow_retry, completed=completed,
                           stats=stats)
        backend_obj = resolve_backend(backend, jobs=jobs, pending=len(todo),
                                      straggler=straggler,
                                      serve_addr=serve_addr)
        backend_name = backend_obj.name
        if backend_obj.name == "serial":
            backend_obj.execute(ctx)
        else:
            try:
                try:
                    backend_obj.execute(ctx)
                    parallel = True
                finally:
                    # Workers counted their warm events in their own
                    # metrics registries; mirror whatever completed into
                    # the parent's, like warmstore.record_event does on
                    # the serial path.
                    registry = obs_metrics.current()
                    if registry is not None:
                        if warm_hits:
                            registry.counter("warmstore.hits").inc(warm_hits)
                        if warm_misses:
                            registry.counter("warmstore.misses").inc(
                                warm_misses)
            except (OSError, PermissionError, PoolUnavailableError,
                    ImportError) as exc:
                # Worker processes unavailable (restricted sandbox, missing
                # semaphores, mid-sweep pool death, unreachable daemon...):
                # identical results, just serially — and only for the
                # points that did not already complete.  A *point* raising
                # is not an infrastructure failure and propagates instead.
                fallback_reason = f"{type(exc).__name__}: {exc}"
                telemetry.log("warning", "runner",
                              f"{backend_obj.name} backend unavailable; "
                              "falling back to serial execution",
                              reason=fallback_reason)
                remaining = ctx.pending_positions()
                for pos in remaining:
                    if not _allow_retry(pos, "pool_fallback"):
                        error = (f"retry budget exhausted for "
                                 f"{point_slug(todo[pos])} after "
                                 f"{retries[pos]} retries")
                        telemetry.emit("point_failed", run_id=run_id,
                                       span_id=spans[pos],
                                       point_slug=point_slug(todo[pos]),
                                       error=error)
                        raise RuntimeError(error) from exc
                    telemetry.emit("point_retried", run_id=run_id,
                                   span_id=spans[pos],
                                   point_slug=point_slug(todo[pos]),
                                   reason="pool_fallback")
                _serial_execute(ctx, remaining)

    elapsed = time.perf_counter() - started
    telemetry.emit("run_end", run_id=run_id, ok=True,
                   elapsed_s=round(elapsed, 6), parallel=parallel,
                   fallback_reason=fallback_reason,
                   warm_hits=warm_hits, warm_misses=warm_misses,
                   redispatches=stats.get("redispatches", 0))
    return SweepOutcome(
        results=results,
        jobs=jobs,
        parallel=parallel,
        cache_hits=cache_hits,
        cache_misses=len(pending),
        elapsed_seconds=elapsed,
        fallback_reason=fallback_reason,
        warm_hits=warm_hits,
        warm_misses=warm_misses,
        points=tuple(points),
        run_id=run_id,
        backend=backend_name,
        redispatches=stats.get("redispatches", 0),
    )
