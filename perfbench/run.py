"""Cold figure-point benchmark of the IMPACT reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 28 --trace 0

Every timed pass is a fresh interpreter (``worker.py``) with ``REPRO_*``
scrubbed from its environment, no result cache and no pre-existing warm
store.  ``--trace 0`` repeats cold passes for ``--seconds`` and reports the
end-to-end metrics (medians); ``--trace 1`` runs one untraced, one traced
and one counting pass and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it give each metric
with its unit, the output digest and the run's environment.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path above)

#: Set-up samples per ``--trace 0`` run; passes that do not reach this
#: many are topped up with set-up-only interpreters.
SETUP_SAMPLES = 5
#: Every run, trace passes included, must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "fidelity_err": "ratio"}

LAYER_UNITS: Dict[str, str] = {
    "trace.wall_s": "s", "trace.overhead_s": "s", "point.self_s": "s",
    "system.build_s": "s", "system.builds": "count",
    "system.pristine_s": "s", "system.pristine_hit_ratio": "ratio",
    "attacks.order_s": "s", "attacks.transmit_s": "s",
    "attacks.bits": "count", "attacks.bit_errors": "count",
    "sim.run_s": "s", "sim.resumes": "count", "sim.blocks": "count",
    "cache.access_s": "s", "cache.access_calls": "count",
    "cache.batch_s": "s", "cache.clflush_s": "s", "cache.miss": "count",
    "cache.writeback": "count",
    "dram.self_s": "s", "dram.ops": "count", "dram.row_hit_ratio": "ratio",
    "pim.pei_s": "s", "pim.pei_ops": "count", "pim.rowclone_s": "s",
    "pim.rowclone_ops": "count",
    "workloads.stream_s": "s", "workloads.warm_s": "s",
    "workloads.replay_s": "s", "workloads.refs": "count",
    "genomics.schedule_s": "s",
    "exp.sweep_s": "s", "exp.point_busy_s": "s", "exp.overhead_frac": "ratio",
    "exp.warm_hits": "count", "exp.warm_misses": "count",
    "exp.warm_hit_ratio": "ratio", "exp.retries": "count",
    "exp.stragglers": "count",
    "check.fail_frac": "ratio", "check.outputs_changed": "count",
}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def child_env() -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` switch, with the
    checkout's sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(mode: str, workload: str, seed: int, out_dir: Path, deadline: float,
          tiny: bool = False, inject_fail: str = "") -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns its JSON result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass of {workload}")
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out-dir", str(out_dir),
           "--t0", repr(t0)]
    if tiny:
        cmd.append("--tiny")
    if inject_fail:
        cmd += ["--inject-fail", inject_fail]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} timed out") from None
    finally:
        # The pass runs in its own session: take down anything it left
        # behind (pool workers) and wait for the pass itself.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for scratch in ("warm", "telemetry", "metrics"):
            shutil.rmtree(out_dir / scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with "
                         f"{proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} pass of {workload} printed no result")
    return json.loads(lines[-1])


def account(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Attempted and failed points over ``passes``.  A point fails when it
    raised or broke a paper check in any pass, or when its output digest
    differs from the first pass's."""
    attempted = failed = 0
    first = {p["label"]: p["digest"] for p in passes[0]["points"]}
    reasons: Dict[str, str] = {}
    for result in passes:
        for point in result["points"]:
            attempted += 1
            reason = point["failure"]
            if reason is None and point["digest"] != first[point["label"]]:
                reason = f"output differs between {passes[0]['mode']} " \
                         f"and {result['mode']} passes"
            if reason is not None:
                failed += 1
                reasons.setdefault(point["label"], reason)
    return {"attempted": attempted, "failed": failed, "reasons": reasons}


def reference_changes(workload: str, result: Dict[str, Any],
                      tiny: bool) -> Dict[str, int]:
    """Points whose output digest differs from the one recorded in
    ``reference_digests.json`` (a diagnostic, never a failure)."""
    if tiny:
        return {"compared": 0, "changed": 0}
    with open(HERE / "reference_digests.json", encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {})
    compared = changed = 0
    for point in result["points"]:
        expected = reference.get(point["label"])
        if expected is None:
            continue
        compared += 1
        changed += point["digest"] != expected
    return {"compared": compared, "changed": changed}


def workload_digest(result: Dict[str, Any]) -> str:
    text = "\n".join(f"{p['label']}={p['digest']}" for p in result["points"])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float, tiny: bool = False,
            inject_fail: str = "") -> Dict[str, Any]:
    """Run one workload; returns its metrics, counts and run record."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    args = dict(workload=workload, seed=seed, deadline=deadline, tiny=tiny,
                inject_fail=inject_fail)
    if trace:
        passes = [spawn(mode, out_dir=out / mode, **args)
                  for mode in ("timed", "traced", "count")]
        timed, traced, counted = passes
    else:
        started = time.perf_counter()
        passes = []
        while True:
            passes.append(spawn("timed", out_dir=out / "timed", **args))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn("setup", out_dir=out / "setup",
                                **args)["setup_s"])
    tally = account(passes)
    first = passes[0]
    fidelity = first["fidelity_err"]
    # No cell measured at all (every point failed) reads as fully off.
    fidelity = 1.0 if fidelity is None else fidelity
    changes = reference_changes(workload, first, tiny)
    if trace:
        layers = {name: 0 for name in LAYER_UNITS}
        layers.update(traced["layers"])
        layers.update(counted["layers"])
        layers.update({
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - timed["wall_s"],
            "check.fail_frac": tally["failed"] / tally["attempted"],
            "check.outputs_changed": changes["changed"],
        })
        metrics = {name: (layers[name], unit)
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
            "fidelity_err": fidelity,
        }
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    return {"workload": workload, "seed": seed, "trace": trace,
            "env": first["env"], "digest": workload_digest(first),
            "points": len(first["points"]), "changes": changes,
            "cells": first["cells"], "tally": tally, "metrics": metrics,
            "walls": [p["wall_s"] for p in passes]}


def report(record: Dict[str, Any]) -> None:
    """Human-readable lines for one workload (everything but the JSON)."""
    name, env, tally = record["workload"], record["env"], record["tally"]
    print(f"# {name} seed={record['seed']} trace={int(record['trace'])} "
          f"nproc={env['nproc']} python={env['python']} "
          f"code_version={env['code_version']}")
    print(f"# {name} digest {record['digest']} ({record['points']} points; "
          f"{record['changes']['changed']} of {record['changes']['compared']}"
          f" differ from reference_digests.json)")
    for metric, (value, unit) in record["metrics"].items():
        print(f"{name} {metric} {value:.6g} {unit}")
    if not record["trace"]:
        walls = ", ".join(f"{w:.3f}" for w in record["walls"])
        print(f"# {name} wall_s is the median of {len(record['walls'])} "
              f"cold passes: {walls}")
    print(f"{name} fail_frac {tally['failed'] / tally['attempted']:.6g} "
          f"ratio ({tally['failed']} failed of {tally['attempted']} "
          f"attempted)")
    for label, reason in tally["reasons"].items():
        print(f"# {name} FAILED {label}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (tests)")
    parser.add_argument("--inject-fail", default="",
                        help="label of a point made to raise (tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    started = time.perf_counter()
    records = []
    try:
        for i, name in enumerate(names):
            # Each workload gets its own share of the run limit.
            deadline = started + RUN_LIMIT_S * (i + 1)
            record = measure(name, args.seed, args.seconds, bool(args.trace),
                             deadline, args.tiny, args.inject_fail)
            report(record)
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / "last-run.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, default=str)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{m}" if prefix else m):
               {"value": value, "unit": unit}
               for r in records for m, (value, unit) in r["metrics"].items()}
    attempted = sum(r["tally"]["attempted"] for r in records)
    failed = sum(r["tally"]["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
