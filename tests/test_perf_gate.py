"""The paired wall-clock gate's verdict (``scripts/perf_gate.py``), judged
over fabricated ``perfbench/run.py`` result lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts", "perf_gate.py")
_SPEC = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

BOUND = 0.25


def result_line(wall, correct=True):
    """What ``run.py --trace 0`` prints last for one workload."""
    return json.dumps({
        "correct": correct, "attempted": 3, "failed": 0 if correct else 1,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "setup_s": {"value": 0.1, "unit": "s"}}})


def pairs_of(*walls, head_correct=True):
    """``(base, head)`` results parsed back from fabricated output."""
    return [(perf_gate.parse_result(f"# chatter\n{result_line(base)}\n"),
             perf_gate.parse_result(result_line(head, head_correct)))
            for base, head in walls]


def test_passes_at_ratio_1_2():
    ok, median, problems = perf_gate.verdict(
        pairs_of((1.0, 1.2), (2.0, 2.4), (0.5, 0.6)), BOUND)
    assert ok and not problems
    assert median == pytest.approx(1.2)


def test_fails_at_ratio_1_3():
    ok, median, problems = perf_gate.verdict(
        pairs_of((1.0, 1.3), (2.0, 2.6), (0.5, 0.65)), BOUND)
    assert not ok
    assert median == pytest.approx(1.3)
    assert "exceeds" in problems[0]


def test_fails_when_a_head_run_is_incorrect():
    pairs = pairs_of((1.0, 1.0), (1.0, 1.0))
    pairs += pairs_of((1.0, 1.0), head_correct=False)
    ok, median, problems = perf_gate.verdict(pairs, BOUND)
    assert not ok
    assert median == pytest.approx(1.0)
    assert problems == ["1 of 3 HEAD runs report correct: false"]


def test_median_is_over_pairs_not_pooled_runs():
    # Per-pair ratios 1.3, 1.3, 0.5: the paired median fails.  Pooled,
    # the medians would be base 2.0 and HEAD 1.5 (ratio 0.75), a pass.
    ok, median, _problems = perf_gate.verdict(
        pairs_of((1.0, 1.3), (2.0, 2.6), (3.0, 1.5)), BOUND)
    assert not ok
    assert median == pytest.approx(1.3)
    # And the reverse: pooled medians 1.0 vs 1.3 would fail, yet two of
    # three pairs ran at parity, so the paired median passes.
    ok, median, _problems = perf_gate.verdict(
        pairs_of((1.0, 1.0), (1.3, 1.3), (0.5, 2.0)), BOUND)
    assert ok
    assert median == pytest.approx(1.0)
