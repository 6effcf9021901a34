"""Tests of the benchmark itself, on smoke-test (``--tiny``) sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Do not run them while a benchmark run is in progress: both write under
``perfbench/out``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    """``run.py`` as the benchmark command is run; returns (code, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    return proc.returncode, proc.stdout


def result(*args):
    code, stdout = bench(*args)
    assert code == 0, stdout
    return json.loads(stdout.strip().splitlines()[-1])


def tiny(workload, trace, *extra):
    return result("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny", *extra)


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"]
                                    for m in SPEC["end_to_end"]}
    assert run.LAYER_UNITS == {m["name"]: m["unit"]
                               for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = tiny("fig8-cold", trace)
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float))
               for m in out["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke(workload):
    out = tiny(workload, 0)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_injected_failing_point_raises_fail_frac():
    clean = tiny("fig11-replay", 1)
    assert clean["metrics"]["check.fail_frac"]["value"] == 0
    out = tiny("fig11-replay", 1, "--inject-fail", "fig11[workload=BFS]")
    assert out["correct"] is False
    # The injected point fails in each of the three passes.
    assert out["failed"] == 3 and out["attempted"] == 6
    assert out["metrics"]["check.fail_frac"]["value"] == pytest.approx(0.5)


def test_injected_failure_fails_the_whole_sweep():
    out = tiny("sweep-fanout", 0, "--inject-fail", "fig3[ways=2]")
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] > 0


@pytest.mark.parametrize("workload", ["fig8-cold", "fig11-replay",
                                      "covert-stream"])
def test_traced_self_times_sum_to_traced_wall(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "3", "--mode", "traced", "--out-dir", str(tmp_path),
         "--tiny"],
        cwd=ROOT, env=run.child_env(), stdout=subprocess.PIPE, text=True,
        timeout=300, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list((tmp_path / "spans").glob("spans-*.npz"))
    assert out["self_sum_s"] == pytest.approx(out["wall_s"], rel=0.05)


def _write_spans(path, names, rows, main):
    """Spans as ``(index, name, parent, start, end)`` rows."""
    index, name, parent, start, end = (np.array(c) for c in zip(*rows))
    np.savez(path, names=np.array(names), index=index, name=name,
             parent=parent, start=start.astype(float),
             end=end.astype(float), main=np.array(main),
             count_keys=np.array(["attacks.bits"]),
             count_values=np.array([4]))


def test_self_time_subtracts_nested_children_and_overlapping_workers(
        tmp_path):
    names = ["exp.sweep", "point", "cache.access"]
    # Parent: a 10 s sweep span holding one in-process point span [1, 3].
    _write_spans(tmp_path / "spans-1-0.npz", names,
                 [(0, 0, -1, 0, 10), (1, 1, 0, 1, 3)], True)
    # Two workers overlap on [2, 6] and [4, 8]; each point has a 1 s
    # cache.access child.
    _write_spans(tmp_path / "spans-2-0.npz", names,
                 [(1, 2, 0, 2, 3), (0, 1, -1, 2, 6)], False)
    _write_spans(tmp_path / "spans-3-0.npz", names,
                 [(0, 1, -1, 4, 8), (1, 2, 0, 5, 6)], False)
    got = spans.analyse(str(tmp_path))
    # Children cover [1, 8] of the sweep's [0, 10].
    assert got["self_s"]["exp.sweep"] == pytest.approx(3.0)
    assert got["self_s"]["point"] == pytest.approx(2 + 3 + 3)
    assert got["self_s"]["cache.access"] == pytest.approx(2.0)
    assert got["calls"] == {"exp.sweep": 1, "point": 3, "cache.access": 2}
    assert got["counts"]["attacks.bits"] == 12


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(HERE / "reference_digests.json", tmp_path / "perfbench")
    code, stdout = bench("--workload", "fig8-cold", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in stdout


def test_message_seeds_follow_the_benchmark_seed():
    assert workloads.message_seeds(7) == workloads.message_seeds(7)
    assert workloads.message_seeds(7) != workloads.message_seeds(8)
    fixed = [p for p in workloads.WORKLOADS["covert-stream"].points(7, False)
             if p.fn == "fig10_point"]
    assert fixed == [p for p in workloads.WORKLOADS["covert-stream"]
                     .points(8, False) if p.fn == "fig10_point"]
