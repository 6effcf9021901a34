#!/usr/bin/env python
"""Quick benchmark snapshot: figure sweeps + simulator ops/sec.

Runs a reduced slice of every figure sweep through :mod:`repro.exp`
(parallel + cached exactly like the benches), times raw simulator,
scheduler, and warm-up/snapshot microbenchmarks, measures the
warm-state store's cold-vs-warm figure passes, and writes the whole
record to ``BENCH_PR10.json`` at the repo root.  Intended for
``make bench-quick``::

    PYTHONPATH=src python scripts/bench_snapshot.py [--jobs N] [--no-cache]

The cache lives under ``benchmarks/results/.cache`` (shared with the
pytest benches), so a snapshot taken right after the benchmark suite is
nearly free, and a second snapshot of unchanged code replays entirely
from disk.

The warm-store section runs the fig8+fig10+fig11 sweeps in *fresh
subprocesses* with the result cache off: the first (cold) pass populates
``benchmarks/results/.warmstore``, later (warm) passes replay the same
points against the populated store, so the speedup isolates warm-state
reuse from result caching and in-process memos.  The warm passes run in
interleaved pairs, one with ``REPRO_TELEMETRY_DIR`` set and one without,
so the ``telemetry_overhead`` section prices the causal event log as the
median of per-pair time ratios (acceptance: < 5% wall clock).

The ``fig11_point`` row times one cold Fig. 11 point (BFS, default
``max_refs``) in a fresh interpreter, with the replay path that ran and
the replay kernel's build cost measured apart.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.exp import ResultCache, code_version, default_jobs, run_sweep  # noqa: E402
from repro.exp.figures import (  # noqa: E402
    fig2_sweep,
    fig3_sweep,
    fig8_sweep,
    fig10_sweep,
    fig11_sweep,
)

CACHE_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", ".cache")
WARM_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", ".warmstore")
TELEMETRY_DIR = os.path.join(REPO_ROOT, "benchmarks", "results",
                             ".telemetry-bench")
OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR10.json")
BASELINE = os.path.join(REPO_ROOT, "BENCH_PR7.json")
BASELINE_NAME = os.path.basename(BASELINE)
#: Interleaved (event log off, event log on) warm-pass pairs behind the
#: telemetry-overhead ratio.
TELEMETRY_PAIRS = 5

# Reduced axes: one quick pass over every figure, a couple of minutes
# serial and cold, seconds warm or parallel.
QUICK_SWEEPS = [
    ("fig2", lambda: fig2_sweep((2, 16, 64))),
    ("fig3", lambda: fig3_sweep((2, 16, 128))),
    ("fig8", lambda: fig8_sweep((8, 64))),
    ("fig10", lambda: fig10_sweep((1024, 8192))),
    ("fig11", lambda: fig11_sweep(("BC", "PR"), max_refs=20_000)),
]


#: The warm-store measurement: the three figure sweeps whose points route
#: through :mod:`repro.exp.warmstore` (fig2/fig3 points are stateless
#: one-shot builds and gain nothing from warm state).
WARM_SWEEPS = [
    ("fig8", lambda: fig8_sweep((8, 64))),
    ("fig10", lambda: fig10_sweep((1024, 8192))),
    ("fig11", lambda: fig11_sweep(("BC", "PR"), max_refs=20_000)),
]


def run_warm_sweeps(jobs: int) -> dict:
    """One pass over the warm sweeps, result cache off.  Runs inside the
    ``--warm-pass`` subprocess so every in-process memo starts cold and
    the only carried state is the on-disk warm store."""
    figures = {}
    total = 0.0
    for name, build in WARM_SWEEPS:
        points = build()
        outcome = run_sweep(points, jobs=jobs, cache=None)
        figures[name] = {
            "points": len(points),
            "seconds": round(outcome.elapsed_seconds, 3),
            "warm_hits": outcome.warm_hits,
            "warm_misses": outcome.warm_misses,
        }
        total += outcome.elapsed_seconds
    return {
        "figures": figures,
        "seconds": round(total, 3),
        "warm_hits": sum(f["warm_hits"] for f in figures.values()),
        "warm_misses": sum(f["warm_misses"] for f in figures.values()),
    }


def _warm_pass(jobs: int, env: dict, telemetry_dir=None) -> dict:
    """One ``--warm-pass`` subprocess; with ``telemetry_dir`` the causal
    event log is on and written there."""
    pass_env = dict(env)
    if telemetry_dir is not None:
        shutil.rmtree(telemetry_dir, ignore_errors=True)
        os.makedirs(telemetry_dir)
        pass_env["REPRO_TELEMETRY_DIR"] = telemetry_dir
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--warm-pass",
         "--jobs", str(jobs)],
        capture_output=True, text=True, env=pass_env)
    if proc.returncode != 0:
        raise RuntimeError(f"warm pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _log_dir(pair: int) -> str:
    return os.path.join(TELEMETRY_DIR, f"pair{pair}")


def warm_store_two_pass(jobs: int) -> dict:
    """A cold figure pass, then interleaved warm-pass pairs with the
    event log off and on (see module docstring); the first plain warm
    pass is the warm-store headline measurement."""
    shutil.rmtree(WARM_DIR, ignore_errors=True)
    shutil.rmtree(TELEMETRY_DIR, ignore_errors=True)
    record = {"directory": os.path.relpath(WARM_DIR, REPO_ROOT),
              "passes": {}}
    env = dict(os.environ, REPRO_WARMSTORE_DIR=WARM_DIR)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.pop("REPRO_TELEMETRY_DIR", None)
    record["passes"]["cold"] = _warm_pass(jobs, env)
    pairs = []
    for i in range(TELEMETRY_PAIRS):
        # Alternate which half of the pair runs first, so a steady drift
        # in host speed does not bias the ratio.
        if i % 2:
            logged = _warm_pass(jobs, env, _log_dir(i))
            plain = _warm_pass(jobs, env)
        else:
            plain = _warm_pass(jobs, env)
            logged = _warm_pass(jobs, env, _log_dir(i))
        if not pairs:
            record["passes"]["warm"] = plain
            record["passes"]["warm_telemetry"] = logged
        pairs.append({"plain_seconds": plain["seconds"],
                      "logged_seconds": logged["seconds"]})
    record["telemetry_pairs"] = pairs
    cold = record["passes"]["cold"]["seconds"]
    warm = record["passes"]["warm"]["seconds"]
    record["speedup_vs_cold"] = round(cold / max(warm, 1e-9), 2)
    if os.path.exists(BASELINE):
        try:
            with open(BASELINE) as handle:
                baseline = json.load(handle)
            # Prefer the baseline's own warm-store warm pass (same
            # measurement, fresh subprocess); its top-level figure
            # timings may be result-cache hits (~0s) and incomparable.
            try:
                baseline_seconds = (
                    baseline["warm_store"]["passes"]["warm"]["seconds"])
            except KeyError:
                baseline_seconds = sum(
                    baseline["figures"][name]["seconds"]
                    for name, _ in WARM_SWEEPS)
            if baseline_seconds > 0.0:
                record["baseline_seconds"] = round(baseline_seconds, 3)
                record["speedup_vs_baseline"] = round(
                    baseline_seconds / max(warm, 1e-9), 2)
        except (OSError, KeyError, ValueError):
            pass
    return record


def telemetry_overhead(warm_record: dict) -> dict:
    """Price of the causal event log: the median over interleaved pairs
    of (event log on) / (event log off) warm-pass time, plus a
    chain-integrity check over every log the pairs wrote (every span
    complete, none duplicated)."""
    from repro.obs import telemetry

    pairs = warm_record["telemetry_pairs"]
    ratios = [p["logged_seconds"] / max(p["plain_seconds"], 1e-9)
              for p in pairs]
    events, chain_errors = [], 0
    for i in range(len(pairs)):
        logged = telemetry.read_events(_log_dir(i))
        events += logged
        chain_errors += len(telemetry.verify_chains(logged))
    return {
        "warm_seconds": statistics.median(p["plain_seconds"] for p in pairs),
        "telemetry_seconds": statistics.median(
            p["logged_seconds"] for p in pairs),
        "pair_ratios": [round(r, 4) for r in ratios],
        "overhead_pct": round((statistics.median(ratios) - 1.0) * 100.0, 2),
        "events": len(events),
        "spans": len({e["span_id"] for e in events if "span_id" in e}),
        "chain_errors": chain_errors,
    }


def replay_path(fn):
    """``(fn(), path)``: ``path`` is ``"kernel"`` when every Fig. 11
    replay inside ``fn`` ran in the compiled kernel, ``"python"`` when
    any fell back to the reference loop."""
    from repro.workloads import runner

    with mock.patch.object(runner, "_replay_python",
                           wraps=runner._replay_python) as spy:
        result = fn()
    return result, "python" if spy.call_count else "kernel"


def _quiesce_heap() -> None:
    """Drop sweep leftovers and stop the GC from scanning what remains.

    The figure sweeps that run before the micro-benches leave large
    resident heaps (warm-state payloads, sweep results).  Generational GC
    then scans those heaps from inside the timed loops — measured at a
    ~13% ops/s penalty on the simulator hot path (the PR2->PR5
    "regression" was exactly this, not access-path code).  Dropping the
    warm store and worker pool and freezing survivors takes the heap out
    of collection entirely."""
    from repro.exp import shutdown_pool
    from repro.exp.warmstore import reset_active_store

    reset_active_store()
    shutdown_pool()
    gc.collect()
    gc.freeze()


def simulator_ops_per_sec() -> dict:
    """Raw hot-path rate: the 200k-access demand stream through the full
    hierarchy (cache lookups, replacement, prefetchers, DRAM timing).

    Driven through ``access_batch``, the batched loop that eviction walks
    and replays use.  This is a synthetic strided stream, not a figure
    workload: the figure sweeps spend most of their time in per-access
    ``access`` calls from the scheduler and workload replays, which this
    number does not measure.  Median of three runs on a quiesced heap
    (see :func:`_quiesce_heap`) so the number tracks access-path cost,
    not allocator history.
    """
    from repro.config import SystemConfig
    from repro.system import System

    _quiesce_heap()
    n = 200_000
    addrs = [(i * 64 * 7) % (1 << 24) for i in range(n)]
    runs = []
    try:
        for _ in range(3):
            system = System(SystemConfig.paper_default())
            started = time.perf_counter()
            system.hierarchy.access_batch(0, addrs, 0, pc=0)
            runs.append(time.perf_counter() - started)
    finally:
        gc.unfreeze()
    elapsed = statistics.median(runs)
    return {
        "accesses": n,
        "runs": len(runs),
        "seconds": round(elapsed, 3),
        "ops_per_sec": round(n / elapsed),
    }


def scheduler_checkpoints_per_sec() -> dict:
    """Scheduler micro-bench: checkpoint-dense threads through the heap."""
    from repro.sim import Scheduler

    def body(ctx, steps):
        for _ in range(steps):
            ctx.advance(3)
            yield None

    steps = 50_000
    threads = 4
    sched = Scheduler()
    for t in range(threads):
        # Staggered starts keep one thread globally minimal for long
        # stretches, the checkpoint pattern the attacks exhibit.
        sched.spawn(body, steps, name=f"t{t}", start_time=t * steps)
    started = time.perf_counter()
    sched.run()
    elapsed = time.perf_counter() - started
    return {
        "checkpoints": steps * threads,
        "seconds": round(elapsed, 3),
        "checkpoints_per_sec": round(steps * threads / elapsed),
    }


def snapshot_restore_speedup() -> dict:
    """Warm-up replay vs snapshot restore for one Fig. 11 workload."""
    from repro.system import System
    from repro.workloads.kernels import workload_spec
    from repro.workloads.runner import _warm, fig11_config

    spec = workload_spec("PR")
    stream = spec.refs(graph=spec.build_graph(), max_refs=20_000)
    config = fig11_config()

    system = System(config)
    started = time.perf_counter()
    _, path = replay_path(lambda: _warm(system, [stream, stream]))
    warm_seconds = time.perf_counter() - started
    snap = system.snapshot()

    fresh = System(config)
    started = time.perf_counter()
    fresh.restore(snap)
    restore_seconds = time.perf_counter() - started
    return {
        "warmup_seconds": round(warm_seconds, 4),
        "restore_seconds": round(restore_seconds, 4),
        "speedup": round(warm_seconds / max(restore_seconds, 1e-9), 1),
        # The compiled kernel makes the warm-up replay (the numerator)
        # ~20x cheaper than the Python loop, so the ratio depends on it.
        "replay_path": path,
    }


def fig11_point_cold() -> dict:
    """One cold Fig. 11 point in a fresh interpreter (``--fig11-point``),
    and the replay kernel's build cost into an empty directory."""
    from repro.workloads import native

    with tempfile.TemporaryDirectory() as build_dir:
        started = time.perf_counter()
        native._load(Path(build_dir))
        build_seconds = time.perf_counter() - started
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--fig11-point"],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"fig11 point failed:\n{proc.stderr}")
    record = json.loads(proc.stdout)
    record["kernel_build_seconds"] = round(build_seconds, 3)
    return record


def _run_fig11_point() -> dict:
    from repro.exp.figures import fig11_point
    from repro.workloads import native

    started = time.perf_counter()
    point, path = replay_path(lambda: fig11_point("BFS"))
    return {"workload": point["workload"],
            "seconds": round(time.perf_counter() - started, 3),
            "replay_path": path, "kernel": native.available()[1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all CPUs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--output", default=OUTPUT)
    parser.add_argument("--warm-pass", action="store_true",
                        help=argparse.SUPPRESS)  # internal: one warm pass,
    # JSON on stdout (spawned by warm_store_two_pass)
    parser.add_argument("--fig11-point", action="store_true",
                        help=argparse.SUPPRESS)  # internal: one cold
    # fig11 point, JSON on stdout (spawned by fig11_point_cold)
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    if args.warm_pass:
        json.dump(run_warm_sweeps(jobs), sys.stdout)
        return 0
    if args.fig11_point:
        json.dump(_run_fig11_point(), sys.stdout)
        return 0
    cache = None if args.no_cache else ResultCache(CACHE_DIR)

    record = {
        "code_version": code_version(),
        "jobs": jobs,
        "cache": not args.no_cache,
        "figures": {},
    }
    suite_started = time.perf_counter()
    for name, build in QUICK_SWEEPS:
        points = build()
        outcome = run_sweep(points, jobs=jobs, cache=cache)
        record["figures"][name] = {
            "points": len(points),
            "seconds": round(outcome.elapsed_seconds, 3),
            "parallel": outcome.parallel,
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
        }
        if outcome.fallback_reason:
            record["figures"][name]["fallback"] = outcome.fallback_reason
        print(f"{name}: {len(points)} points in "
              f"{outcome.elapsed_seconds:.2f}s "
              f"({outcome.cache_hits} cached, jobs={jobs})")
    record["suite_seconds"] = round(time.perf_counter() - suite_started, 3)

    print("timing simulator hot path...")
    record["simulator"] = simulator_ops_per_sec()
    print(f"simulator: {record['simulator']['ops_per_sec']:,} accesses/sec")

    print("timing scheduler checkpoints...")
    record["scheduler"] = scheduler_checkpoints_per_sec()
    rate = record["scheduler"]["checkpoints_per_sec"]
    print(f"scheduler: {rate:,} checkpoints/sec")

    print("timing warm-up vs snapshot restore...")
    record["snapshot"] = snapshot_restore_speedup()
    print(f"snapshot restore: {record['snapshot']['speedup']}x faster "
          f"than re-warming ({record['snapshot']['replay_path']} replay)")

    print("timing one cold fig11 point...")
    record["fig11_point"] = fig11_point_cold()
    point = record["fig11_point"]
    print(f"fig11 {point['workload']} point: {point['seconds']:.2f}s cold "
          f"({point['replay_path']} replay; kernel build "
          f"{point['kernel_build_seconds']:.2f}s)")

    print("measuring warm-state store (cold + warm passes)...")
    record["warm_store"] = warm_store_two_pass(jobs)
    warm = record["warm_store"]
    line = (f"warm store: cold {warm['passes']['cold']['seconds']:.2f}s -> "
            f"warm {warm['passes']['warm']['seconds']:.2f}s "
            f"({warm['speedup_vs_cold']}x, "
            f"{warm['passes']['warm']['warm_hits']} warm hits)")
    if "speedup_vs_baseline" in warm:
        line += f"; {warm['speedup_vs_baseline']}x vs {BASELINE_NAME}"
    print(line)

    record["telemetry_overhead"] = telemetry_overhead(warm)
    overhead = record["telemetry_overhead"]
    print(f"telemetry: warm {overhead['warm_seconds']:.2f}s -> "
          f"logged {overhead['telemetry_seconds']:.2f}s "
          f"({overhead['overhead_pct']:+.1f}% median of "
          f"{len(overhead['pair_ratios'])} pairs, {overhead['events']} events, "
          f"{overhead['spans']} spans, "
          f"{overhead['chain_errors']} chain errors)")

    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    # The sweep-engine section is produced by scripts/bench_sweep.py
    # (make bench-sweep) and merged into the same snapshot; a quick-bench
    # refresh must not silently drop it.
    try:
        with open(args.output) as handle:
            previous = json.load(handle)
        if "sweep_engine" in previous:
            record["sweep_engine"] = previous["sweep_engine"]
    except (OSError, ValueError):
        pass
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"suite: {record['suite_seconds']:.2f}s -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
