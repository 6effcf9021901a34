"""One pass of one workload, run in a fresh interpreter by ``run.py``.

Passes:

- ``timed``: the workload's points with nothing installed; the wall time,
  set-up time and peak memory the end-to-end metrics report.
- ``setup``: stops where ``timed`` would call its first point, for extra
  set-up samples.
- ``traced``: the points with every layer entry point wrapped in spans
  (``spans.py``); gives the per-layer self times.
- ``count``: the points under a public ``MetricsRegistry``; gives the
  simulator's own event counts.  Kept apart from ``traced`` because an
  installed registry bypasses the ``pristine_system`` pool.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
from typing import Any, Dict, List

import workloads

def digest(value: Any) -> str:
    from repro.exp.cache import canonical_json

    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:16]


def _run_points(points: List["workloads.Point"], inject_fail: str
                ) -> Dict[str, Any]:
    from repro.exp import figures

    outputs: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    wall = 0.0
    for point in points:
        fn = (workloads.injected_failure if point.label == inject_fail
              else getattr(figures, point.fn))
        start = time.perf_counter()
        try:
            outputs[point.label] = fn(**point.params)
        except Exception as exc:  # a failing point is counted, not fatal
            errors[point.label] = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
    return {"labels": [p.label for p in points], "outputs": outputs,
            "errors": errors, "wall_s": wall, "jobs": 1}


def _run_sweep(tiny: bool, mode: str, out_dir: str, inject_fail: str
               ) -> Dict[str, Any]:
    from repro.exp import SweepPoint, default_jobs, run_sweep, shutdown_pool

    points = workloads.sweep_points(tiny)
    points = [SweepPoint(p.experiment, workloads.injected_failure, p.params,
                         p.label) if p.describe() == inject_fail else p
              for p in points]
    labels = [p.describe() for p in points]
    warm_dir = os.path.join(out_dir, "warm")
    os.makedirs(warm_dir, exist_ok=True)
    if os.listdir(warm_dir):
        raise SystemExit(f"cold-start guard: {warm_dir} is not empty")
    kwargs: Dict[str, Any] = {"jobs": default_jobs(), "cache": None,
                              "warm_dir": warm_dir}
    if mode == "traced":
        kwargs["telemetry_dir"] = os.path.join(out_dir, "telemetry")
    if mode == "count":
        kwargs["metrics_dir"] = os.path.join(out_dir, "metrics")
    start = time.perf_counter()
    try:
        outcome = run_sweep(points, **kwargs)
    except Exception as exc:  # run_sweep re-raises a point's exception
        wall = time.perf_counter() - start
        shutdown_pool()
        return {"labels": labels, "outputs": {},
                "errors": {label: f"{type(exc).__name__}: {exc}"
                           for label in labels},
                "wall_s": wall, "jobs": kwargs["jobs"]}
    wall = time.perf_counter() - start
    workers_mb = _children_peak_mb()
    shutdown_pool()
    if outcome.cache_hits != 0:
        raise SystemExit("cold-start guard: the sweep hit a result cache")
    return {"labels": labels,
            "outputs": dict(zip(labels, outcome.results)), "errors": {},
            "wall_s": wall, "jobs": outcome.jobs, "outcome": outcome,
            "workers_mb": workers_mb}


def _children_peak_mb() -> float:
    """Summed peak resident memory (``VmHWM``) of this process's live
    children: the sweep's pool workers."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path, encoding="utf-8") as fh:
            pids.update(fh.read().split())
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024
        except OSError:
            continue  # the worker ended while we looked
    return total


def _sweep_layers(run: Dict[str, Any], out_dir: str) -> Dict[str, float]:
    """Executor metrics of a traced sweep pass, from the public
    ``SweepOutcome`` and telemetry event log."""
    from repro.obs.telemetry import read_events

    outcome = run.get("outcome")
    if outcome is None:
        return {}
    events = read_events(os.path.join(out_dir, "telemetry"))
    busy = sum(e.get("elapsed_s", 0.0) for e in events
               if e.get("event") == "point_end")
    warm = outcome.warm_hits + outcome.warm_misses
    return {
        "exp.point_busy_s": busy,
        "exp.overhead_frac": 1.0 - busy / (run["jobs"] * run["wall_s"]),
        "exp.warm_hits": outcome.warm_hits,
        "exp.warm_misses": outcome.warm_misses,
        "exp.warm_hit_ratio": outcome.warm_hits / warm if warm else 0.0,
        "exp.retries": sum(e.get("event") == "point_retried"
                           for e in events),
        "exp.stragglers": sum(e.get("event") == "point_straggler"
                              for e in events),
    }


def _traced_layers(analysis: Dict[str, Any]) -> Dict[str, float]:
    import spans

    own, calls, counts = (analysis["self_s"], analysis["calls"],
                          analysis["counts"])
    # "system.build" -> system.build_s; a bare "dram" -> dram.self_s.
    layers = {(f"{name}_s" if "." in name else f"{name}.self_s"):
              own.get(name, 0.0) for name in spans.LAYERS}
    pristine = counts.get("system.pristine_calls", 0)
    layers.update({
        "system.builds": calls.get("system.build", 0),
        "system.pristine_hit_ratio": (
            counts.get("system.pristine_hits", 0) / pristine
            if pristine else 0.0),
        "cache.access_calls": calls.get("cache.access", 0),
        "attacks.bits": counts.get("attacks.bits", 0),
        "attacks.bit_errors": counts.get("attacks.bit_errors", 0),
        "workloads.refs": counts.get("workloads.refs", 0),
    })
    return layers


def _counted_layers(counters: Dict[str, int]) -> Dict[str, float]:
    outcomes = {k: v for k, v in counters.items()
                if k.startswith("dram.outcome.")}
    row_accesses = sum(outcomes.values())
    return {
        "sim.resumes": counters.get("sched.resume", 0),
        "sim.blocks": counters.get("sched.block", 0),
        "cache.miss": counters.get("cache.miss", 0),
        "cache.writeback": counters.get("cache.writeback", 0),
        "dram.ops": sum(v for k, v in counters.items()
                        if k.startswith("dram.ops.")),
        "dram.row_hit_ratio": (outcomes.get("dram.outcome.hit", 0)
                               / row_accesses if row_accesses else 0.0),
        "pim.pei_ops": sum(v for k, v in counters.items()
                           if k.startswith("pei.")),
        "pim.rowclone_ops": counters.get("dram.RowClone", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "setup", "traced", "count"))
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.perf_counter() when the parent spawned "
                             "this interpreter (CLOCK_MONOTONIC, shared "
                             "by all processes)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    parser.add_argument("--inject-fail", default="",
                        help="label of a point replaced by one that raises "
                             "(tests)")
    args = parser.parse_args(argv)
    t0 = time.perf_counter() if args.t0 is None else args.t0

    # Cold-start guard: any REPRO_* switch (warm-store, telemetry, trace or
    # metrics directories, NO_WARMSTORE, NO_VECTOR, SANITIZE, JOBS) would
    # make the pass warm or change its path.
    inherited = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if inherited:
        raise SystemExit(f"cold-start guard: inherited {inherited}")
    import importlib

    for package in workloads.IMPORTS:
        importlib.import_module(package)
    from repro.exp import code_version

    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.mode == "traced":
        import spans

        recorder = spans.SpanRecorder(os.path.join(args.out_dir, "spans"))
        spans.install(recorder)
    registry = None
    if args.mode == "count" and not workload.sweep:
        from repro import obs

        registry = obs.install_metrics(obs.MetricsRegistry())
    points = workload.points(args.seed, args.tiny)
    setup_s = time.perf_counter() - t0
    result: Dict[str, Any] = {
        "workload": args.workload, "mode": args.mode, "setup_s": setup_s,
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "code_version": code_version()}}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if workload.sweep:
        run = _run_sweep(args.tiny, args.mode, args.out_dir, args.inject_fail)
    else:
        run = _run_points(points, args.inject_fail)
    outputs = run["outputs"]
    failures = dict(run["errors"])
    for label, out in outputs.items():
        violated = workload.check(label, out, outputs)
        if violated:
            failures[label] = "; ".join(violated)
    cells = workload.cells(outputs)
    result.update({
        "wall_s": run["wall_s"],
        # Each process's own peak, summed over the process tree.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024 + run.get("workers_mb", 0.0)),
        "points": [{"label": label,
                    "digest": (digest(outputs[label])
                               if label in outputs else None),
                    "failure": failures.get(label)}
                   for label in run["labels"]],
        "cells": cells,
        "fidelity_err": workloads.fidelity_err(cells),
    })
    if recorder is not None:
        recorder.write()
        analysis = spans.analyse(recorder.out_dir)
        result["layers"] = _traced_layers(analysis)
        result["layers"].update(_sweep_layers(run, args.out_dir))
        result["self_sum_s"] = sum(analysis["self_s"].values())
    if args.mode == "count":
        if workload.sweep:
            from repro.obs import MetricsRegistry

            payloads = []
            for path in glob.glob(os.path.join(args.out_dir, "metrics",
                                               "*.metrics.json")):
                with open(path, encoding="utf-8") as fh:
                    payloads.append(json.load(fh))
            counters = MetricsRegistry.merge_dicts(payloads)["counters"]
        else:
            counters = registry.to_dict()["counters"]
        result["layers"] = _counted_layers(counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
