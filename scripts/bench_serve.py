#!/usr/bin/env python
"""Load generator for ``repro serve``: concurrency, dedup, and latency.

Starts a real daemon (asyncio TCP server on the persistent fork-server
pool) in a background thread and hammers it with thread-per-client
:class:`repro.serve.ServeClient` load, in three phases:

1. **solo** — one client runs several unique sweeps back-to-back: the
   baseline per-sweep latency with zero contention.
2. **duplicate storm** — ``--clients`` clients concurrently submit the
   *identical* sweep.  In-flight dedup must collapse the storm onto one
   execution per point (asserted via the daemon's ``serve.points.*``
   counters: zero extra executions), so every client's latency stays
   close to solo even though the offered load is N×.
3. **unique load** — every client submits its own sweep: aggregate
   requests/sec and points/sec under honest (non-dedupable) load.

Each sweep point does real simulator work — a fresh ``System`` driving a
few thousand accesses through the full hierarchy — so the numbers track
the hot path, not the transport.  Results land in ``BENCH_PR8.json``::

    PYTHONPATH=src python scripts/bench_serve.py [--clients 8] [--no-pool]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.stats import percentile  # noqa: E402
from repro.exp import code_version  # noqa: E402
from repro.serve import ServeClient, ServeScheduler, ServeServer  # noqa: E402

OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR8.json")


def bench_point(seed: int, accesses: int = 4000) -> dict:
    """One serveable unit of real simulator work.

    A fresh paper-default ``System`` runs ``accesses`` demand accesses
    (stride-seeded so different seeds touch different sets) through the
    full hierarchy — cache lookups, replacement, DRAM timing.  Seed
    participates in the content hash, so distinct seeds are distinct
    cache/dedup keys and identical seeds collapse.
    """
    from repro.config import SystemConfig
    from repro.system import System

    system = System(SystemConfig.paper_default())
    stride = 64 * (7 + (seed % 13))
    addrs = [(seed * 977 + i * stride) % (1 << 24) for i in range(accesses)]
    system.hierarchy.access_batch(0, addrs, 0, pc=0)
    return {"seed": seed, "accesses": accesses,
            "demand_accesses": system.hierarchy.stats.demand_accesses}


class _Daemon:
    """The daemon under test, in-process (its pool workers fork from us)."""

    def __init__(self, use_pool: bool, jobs: int | None) -> None:
        self.addr = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, args=(use_pool, jobs), daemon=True)

    def _main(self, use_pool: bool, jobs: int | None) -> None:
        async def run() -> None:
            scheduler = ServeScheduler(jobs=jobs, use_pool=use_pool)
            server = ServeServer(scheduler, port=0)
            self.addr = await server.start()
            self._ready.set()
            await server.serve_until_shutdown()

        asyncio.run(run())

    def start(self) -> "_Daemon":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("daemon did not start")
        return self

    def counters(self) -> dict:
        with ServeClient(*self.addr, timeout=30) as client:
            return client.status()["counters"]

    def stop(self) -> None:
        try:
            with ServeClient(*self.addr, timeout=30) as client:
                client.shutdown_server()
        except OSError:
            pass
        self._thread.join(timeout=30)


def _sweep_points(base_seed: int, count: int, accesses: int) -> list:
    return [{"seed": base_seed + i, "accesses": accesses}
            for i in range(count)]


def _submit(addr, points) -> float:
    started = time.perf_counter()
    with ServeClient(*addr, timeout=600) as client:
        job = client.submit(fn="__main__:bench_point", points=points)
    if not job.ok:
        raise RuntimeError(f"sweep failed: {job.errors}")
    return time.perf_counter() - started


def phase_solo(daemon, sweeps: int, points: int, accesses: int) -> dict:
    latencies = []
    for i in range(sweeps):
        latencies.append(_submit(
            daemon.addr, _sweep_points(1_000 + i * points, points, accesses)))
    return {
        "sweeps": sweeps,
        "points_per_sweep": points,
        "p50_s": round(percentile(latencies, 0.50), 4),
        "p99_s": round(percentile(latencies, 0.99), 4),
        "mean_s": round(sum(latencies) / len(latencies), 4),
    }


def phase_duplicate_storm(daemon, clients: int, points: int,
                          accesses: int) -> dict:
    """All clients submit the identical sweep at once; dedup must hold."""
    before = daemon.counters()
    shared = _sweep_points(5_000, points, accesses)
    latencies = [None] * clients
    errors: list = []

    def client_main(slot: int) -> None:
        try:
            latencies[slot] = _submit(daemon.addr, shared)
        except Exception as exc:  # surfaced below
            errors.append(f"client {slot}: {exc}")

    threads = [threading.Thread(target=client_main, args=(slot,))
               for slot in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    if errors:
        raise RuntimeError("; ".join(errors))
    after = daemon.counters()
    executed = (after.get("serve.points.executed", 0)
                - before.get("serve.points.executed", 0))
    deduped = (after.get("serve.points.deduped", 0)
               - before.get("serve.points.deduped", 0))
    cache_hits = (after.get("serve.points.cache_hits", 0)
                  - before.get("serve.points.cache_hits", 0))
    return {
        "clients": clients,
        "points_per_sweep": points,
        "submitted_points": clients * points,
        "executed_points": executed,
        "deduped_points": deduped,
        "cache_hit_points": cache_hits,
        "extra_executions": executed - points,
        "p50_s": round(percentile(latencies, 0.50), 4),
        "p99_s": round(percentile(latencies, 0.99), 4),
    }


def phase_unique_load(daemon, clients: int, points: int,
                      accesses: int) -> dict:
    """Every client brings its own work: aggregate service rate."""
    latencies = [None] * clients
    errors: list = []

    def client_main(slot: int) -> None:
        try:
            latencies[slot] = _submit(
                daemon.addr,
                _sweep_points(9_000 + slot * points, points, accesses))
        except Exception as exc:
            errors.append(f"client {slot}: {exc}")

    started = time.perf_counter()
    threads = [threading.Thread(target=client_main, args=(slot,))
               for slot in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    elapsed = time.perf_counter() - started
    if errors:
        raise RuntimeError("; ".join(errors))
    total_points = clients * points
    return {
        "clients": clients,
        "sweeps": clients,
        "total_points": total_points,
        "seconds": round(elapsed, 3),
        "requests_per_sec": round(clients / elapsed, 3),
        "points_per_sec": round(total_points / elapsed, 3),
        "p50_sweep_s": round(percentile(latencies, 0.50), 4),
        "p99_sweep_s": round(percentile(latencies, 0.99), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--points", type=int, default=3,
                        help="points per sweep (default 3)")
    parser.add_argument("--accesses", type=int, default=4000,
                        help="simulator accesses per point (default 4000)")
    parser.add_argument("--solo-sweeps", type=int, default=5)
    parser.add_argument("--no-pool", action="store_true",
                        help="run points inline in the daemon process")
    parser.add_argument("--output", default=OUTPUT)
    args = parser.parse_args(argv)

    daemon = _Daemon(use_pool=not args.no_pool, jobs=None).start()
    try:
        print(f"daemon at {daemon.addr[0]}:{daemon.addr[1]} "
              f"(pool={'off' if args.no_pool else 'on'})", flush=True)
        solo = phase_solo(daemon, args.solo_sweeps, args.points,
                          args.accesses)
        print(f"solo: p50={solo['p50_s']}s p99={solo['p99_s']}s", flush=True)
        storm = phase_duplicate_storm(daemon, args.clients, args.points,
                                      args.accesses)
        print(f"duplicate storm ({args.clients} clients): "
              f"p99={storm['p99_s']}s, {storm['executed_points']} executed "
              f"of {storm['submitted_points']} submitted "
              f"({storm['deduped_points']} deduped, "
              f"{storm['cache_hit_points']} cache hits)", flush=True)
        unique = phase_unique_load(daemon, args.clients, args.points,
                                   args.accesses)
        print(f"unique load: {unique['requests_per_sec']} req/s, "
              f"{unique['points_per_sec']} points/s", flush=True)
    finally:
        daemon.stop()

    ratio = round(storm["p99_s"] / solo["p50_s"], 3) if solo["p50_s"] else None
    record = {
        "code_version": code_version(),
        "config": {
            "clients": args.clients,
            "points_per_sweep": args.points,
            "accesses_per_point": args.accesses,
            "pool": not args.no_pool,
        },
        "solo": solo,
        "duplicate_storm": storm,
        "unique_load": unique,
        "acceptance": {
            "storm_p99_over_solo_p50": ratio,
            "p99_within_2x_solo": (ratio is not None and ratio <= 2.0),
            "zero_extra_executions": storm["extra_executions"] == 0,
        },
    }
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}", flush=True)
    ok = (record["acceptance"]["p99_within_2x_solo"]
          and record["acceptance"]["zero_extra_executions"])
    print("ACCEPTANCE", "PASS" if ok else "FAIL", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
