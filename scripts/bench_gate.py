#!/usr/bin/env python
"""CI ops/s regression gate for the simulator hot path.

Measures the raw demand-access rate (the ``simulator`` section of the
bench-quick record) fresh, compares it against the newest committed
``BENCH_PR*.json`` at the repo root, and fails when the fresh number
drops more than ``--threshold`` (default 15%) below the committed one.
The gate baselines against the newest committed record that carries
its metric (snapshots grow sections over time), so a record missing
the section skips the gate rather than erroring.  The committed
``sweep_engine`` section, where present, is additionally held to
absolute acceptance floors:
adaptive rep savings >=2x, straggler-re-dispatch p99 improvement >=1.5x,
zero duplicate commits and zero event-chain errors.
Intended as a cheap CI step — it runs only the simulator micro-bench
(median of ``--runs`` samples on a quiesced heap, seconds not minutes),
not the figure sweeps::

    PYTHONPATH=src python scripts/bench_gate.py [--threshold 0.15] [--runs 5]

The gate exists because the hot path regressed silently across PRs 2-5
(43.8k -> 35.6k ops/s in the committed records) with every functional
test green; nothing in CI watched throughput.  Shared-runner noise is
absorbed three ways: a small-N median rather than a single sample, the
heap quiesce (GC pauses were the bulk of the historical regression),
and the threshold margin.  ``--measure-only`` prints the fresh number
without judging it (used to seed a baseline on new machines).

On failure the gate prints the metric's full committed trajectory
(``repro.analysis.benchhistory``), so "dropped 18%" comes with the
history needed to tell a real regression from a noisy baseline.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def load_records(root: str) -> "list":
    """Every readable BENCH_PR*.json under ``root`` as ``(rank, path,
    record)``, newest PR first."""
    records = []
    for path in glob.glob(os.path.join(root, "BENCH_PR*.json")):
        match = re.search(r"BENCH_PR(\d+)\.json$", path)
        if not match:
            continue
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(record, dict):
            records.append((int(match.group(1)), path, record))
    records.sort(key=lambda item: -item[0])
    return records


def dig(record: dict, dotted: str):
    """Numeric value at a dotted path, or ``None`` when absent."""
    node = record
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def newest_with(records: "list", dotted: str) -> "tuple":
    """``(path, value)`` from the newest record carrying ``dotted``.

    Snapshots grow sections over time; each gate baselines against the
    newest record that *has* its metric, so a snapshot missing one
    section skips that gate instead of silencing (or breaking) all of
    them."""
    for _rank, path, record in records:
        value = dig(record, dotted)
        if value is not None:
            return path, value
    return None, None


def measure(runs: int) -> dict:
    """Fresh simulator ops/s: same workload and hygiene as bench-quick's
    ``simulator`` section (see ``scripts/bench_snapshot.py``)."""
    import gc

    from repro.config import SystemConfig
    from repro.system import System

    gc.collect()
    gc.freeze()
    n = 200_000
    addrs = [(i * 64 * 7) % (1 << 24) for i in range(n)]
    samples = []
    try:
        for _ in range(runs):
            system = System(SystemConfig.paper_default())
            started = time.perf_counter()
            system.hierarchy.access_batch(0, addrs, 0, pc=0)
            samples.append(n / (time.perf_counter() - started))
    finally:
        gc.unfreeze()
    return {
        "accesses": n,
        "runs": runs,
        "samples": [round(s) for s in samples],
        "ops_per_sec": round(statistics.median(samples)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed fractional drop vs the committed "
                             "baseline (default 0.15)")
    parser.add_argument("--runs", type=int, default=5,
                        help="samples for the median (default 5)")
    parser.add_argument("--baseline", default=None,
                        help="explicit baseline JSON (default: newest "
                             "committed BENCH_PR*.json)")
    parser.add_argument("--measure-only", action="store_true",
                        help="print the fresh number and exit 0")
    args = parser.parse_args(argv)

    fresh = measure(args.runs)
    print(f"fresh simulator rate: {fresh['ops_per_sec']:,} ops/s "
          f"(median of {fresh['runs']}; samples "
          f"{', '.join(f'{s:,}' for s in fresh['samples'])})")
    if args.measure_only:
        return 0

    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"bench gate: cannot read baseline {args.baseline}: {exc}")
            return 2
        records = [(0, args.baseline, baseline)]
    else:
        records = load_records(REPO_ROOT)
        if not records:
            print("bench gate: no committed BENCH_PR*.json baseline; "
                  "nothing to gate against")
            return 0

    failed = False
    path, baseline_ops = newest_with(records, "simulator.ops_per_sec")
    if path is None:
        print("bench gate: no committed record carries "
              "simulator.ops_per_sec; skipping the hot-path gate")
    else:
        floor = baseline_ops * (1.0 - args.threshold)
        verdict = "OK" if fresh["ops_per_sec"] >= floor else "FAIL"
        print(f"baseline {os.path.basename(path)}: {baseline_ops:,.0f} "
              f"ops/s; floor at -{args.threshold:.0%}: {floor:,.0f} ops/s "
              f"-> {verdict}")
        if verdict == "FAIL":
            failed = True
            drop = 1.0 - fresh["ops_per_sec"] / baseline_ops
            print(f"bench gate: simulator hot path dropped {drop:.1%} vs "
                  f"{os.path.basename(path)} (limit {args.threshold:.0%}). "
                  f"If the change intentionally trades speed, refresh the "
                  f"committed record via `make bench-quick`.")
            print(_trajectory("simulator.ops_per_sec", fresh["ops_per_sec"]))

    if not gate_sweep_engine(records):
        failed = True
    return 1 if failed else 0


#: Absolute acceptance floors for the committed sweep-engine bench (the
#: PR 10 headline claims): adaptive early-stop must save >=2x the reps of
#: the fixed grid at equal CI targets, straggler re-dispatch must improve
#: sweep p99 by >=1.5x under an injected slow worker, and both runs must
#: be causally clean — no duplicate cache commits, no event-chain errors.
SWEEP_ENGINE_FLOORS = [
    ("sweep_engine.adaptive.rep_savings_ratio", ">=", 2.0),
    ("sweep_engine.straggler_redispatch.p99_improvement", ">=", 1.5),
    ("sweep_engine.adaptive.duplicate_commits", "==", 0.0),
    ("sweep_engine.adaptive.chain_errors", "==", 0.0),
    ("sweep_engine.straggler_redispatch.duplicate_commits", "==", 0.0),
    ("sweep_engine.straggler_redispatch.chain_errors", "==", 0.0),
]


def gate_sweep_engine(records: "list") -> bool:
    """Validate the committed ``sweep_engine`` section against absolute
    floors.  Unlike the hot-path gate this does not re-measure — the
    numbers come from ``make bench-sweep`` (and the adaptive-smoke CI job
    re-proves the behaviour live); the gate keeps a committed snapshot
    from ever claiming less than the acceptance bars."""
    path, _value = newest_with(records, SWEEP_ENGINE_FLOORS[0][0])
    if path is None:
        print("bench gate: no committed record carries the sweep_engine "
              "section (pre-PR 10); skipping the sweep-engine gate")
        return True
    record = next(rec for _rank, rec_path, rec in records
                  if rec_path == path)
    ok = True
    for dotted, op, floor in SWEEP_ENGINE_FLOORS:
        value = dig(record, dotted)
        if value is None:
            print(f"bench gate: {os.path.basename(path)} lacks {dotted}; "
                  f"skipping that floor")
            continue
        passed = value >= floor if op == ">=" else value == floor
        print(f"sweep-engine {os.path.basename(path)}: {dotted} = "
              f"{value:g} (floor {op} {floor:g}) -> "
              f"{'OK' if passed else 'FAIL'}")
        if not passed:
            ok = False
            print(f"bench gate: committed sweep-engine metric {dotted} "
                  f"misses its acceptance floor; re-run `make bench-sweep` "
                  f"or fix the regression before refreshing the record.")
    return ok


def _trajectory(metric: str, fresh_value: float) -> str:
    """The metric's committed history as one diagnostic line (never lets
    a diagnostics import break the gate verdict itself)."""
    try:
        from repro.analysis.benchhistory import format_trajectory

        return "trajectory: " + format_trajectory(REPO_ROOT, metric,
                                                  fresh=fresh_value)
    except Exception as exc:  # pragma: no cover - diagnostics only
        return f"trajectory unavailable: {exc}"


if __name__ == "__main__":
    sys.exit(main())
