"""The package imports and runs figure points with numpy unavailable."""

import os
import subprocess
import sys

import repro

_CHILD = r"""
import builtins
import sys

sys.modules["numpy"] = None  # every import of numpy now fails
attempts = []
_import = builtins.__import__


def _recording_import(name, *args, **kwargs):
    if name == "numpy" or name.startswith("numpy."):
        attempts.append(name)
    return _import(name, *args, **kwargs)


builtins.__import__ = _recording_import

import repro.attacks
import repro.cli
import repro.exp
import repro.exp.figures
import repro.genomics
import repro.workloads

point = repro.exp.figures.sec33_point(2, bits=64)  # one Fig. 2 point
assert point, point
# One small Fig. 11 point: the replay kernel's loader and marshaling use
# only ctypes and array.
point = repro.exp.figures.fig11_point("BFS", max_refs=2000)
assert point["workload"] == "BFS", point
assert attempts == [], f"numpy import attempted: {attempts}"
assert sys.modules["numpy"] is None
assert not [name for name in sys.modules if name.startswith("numpy.")]
print("ok")
"""


def test_package_runs_a_figure_point_without_numpy():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", _CHILD],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
