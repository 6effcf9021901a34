"""Record the reference output digests ``run.py`` compares against.

Run from the repository root::

    python3 perfbench/record_reference.py

Runs one cold pass of every workload (``covert-stream`` once per benchmark
seed in :data:`SEEDS`, since its messages derive from the seed) and writes
every point's output digest to ``perfbench/reference_digests.json``.  A
later run reports ``check.outputs_changed``: the points whose output no
longer matches.  Re-record only in a change that says why its figure
numbers moved.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads

#: Benchmark seeds whose covert-stream messages get reference digests.
SEEDS = range(32)


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        seeds = SEEDS if name == "covert-stream" else [0]
        digests = {}
        for seed in seeds:
            result = run.spawn("timed", name, seed, run.OUT / name / "record",
                               deadline=time.perf_counter() + run.RUN_LIMIT_S)
            failed = [p["label"] for p in result["points"] if p["failure"]]
            if failed:
                print(f"not recording: {failed} failed", file=sys.stderr)
                return 1
            digests.update({p["label"]: p["digest"]
                            for p in result["points"]})
        reference[name] = dict(sorted(digests.items()))
    with open(run.HERE / "reference_digests.json", "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
