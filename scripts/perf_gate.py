#!/usr/bin/env python3
"""Paired wall-clock gate: this checkout against a base checkout.

For every workload in ``BENCHMARK.json`` the gate runs ``PAIRS`` pairs of
cold perfbench passes, one in the base checkout and one in this one, with
seeds 1..PAIRS and the side that runs first alternating between pairs so
a steady drift in host speed cancels::

    python3 scripts/perf_gate.py --base ../base

Each side is ``python3 <side>/perfbench/run.py --workload W --seed S
--seconds 0 --trace 0``.  A workload fails when the median over pairs of
the HEAD/base ``wall_s`` ratio exceeds ``1 + bound`` (``bound`` is the
``wall_s`` bound in ``BENCHMARK.json``), or when any HEAD run reports
``"correct": false``.  Exit status 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Interleaved (base, HEAD) pairs per workload.
PAIRS = 5

Pair = Tuple[Dict, Dict]


def parse_result(stdout: str) -> Dict:
    """The JSON object ``run.py`` prints as its last line of output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed no result")
    return json.loads(lines[-1])


def wall_s(result: Dict) -> float:
    return float(result["metrics"]["wall_s"]["value"])


def verdict(pairs: Sequence[Pair], bound: float) -> Tuple[bool, float, List[str]]:
    """``(ok, median_ratio, problems)`` for one workload's
    ``(base, head)`` result pairs.

    The ratio is taken within each pair and the median over pairs, so a
    host that is slow for one pair moves one ratio, not both medians."""
    ratios = [wall_s(head) / wall_s(base) for base, head in pairs]
    median = statistics.median(ratios)
    problems = []
    if median > 1.0 + bound:
        problems.append(f"median wall_s ratio {median:.3f} exceeds "
                        f"1 + {bound:g}")
    wrong = sum(1 for _base, head in pairs if head.get("correct") is not True)
    if wrong:
        problems.append(f"{wrong} of {len(pairs)} HEAD runs report "
                        f"correct: false")
    return not problems, median, problems


def run_side(root: str, workload: str, seed: int) -> Dict:
    """One cold perfbench pass of ``workload`` in the checkout at
    ``root``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {root} "
                           f"exited {proc.returncode}:\n{proc.stderr}")
    return parse_result(proc.stdout)


def measure(base: str, workload: str) -> List[Pair]:
    pairs = []
    for seed in range(1, PAIRS + 1):
        if seed % 2:
            base_result = run_side(base, workload, seed)
            head_result = run_side(ROOT, workload, seed)
        else:
            head_result = run_side(ROOT, workload, seed)
            base_result = run_side(base, workload, seed)
        pairs.append((base_result, head_result))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="path of the base checkout to compare against")
    args = parser.parse_args(argv)
    base = os.path.abspath(args.base)
    if not os.path.isfile(os.path.join(base, "perfbench", "run.py")):
        print(f"perf gate: no perfbench/run.py under {base}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bound = next(metric["bound"] for metric in spec["end_to_end"]
                 if metric["name"] == "wall_s")
    failed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        pairs = measure(base, workload)
        ok, median, problems = verdict(pairs, bound)
        walls = ", ".join(f"{wall_s(b):.3f}/{wall_s(h):.3f}" for b, h in pairs)
        print(f"{workload}: median HEAD/base wall_s ratio {median:.3f} "
              f"(bound 1 + {bound:g}; base/HEAD pairs {walls}) -> "
              f"{'OK' if ok else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
