"""Event gates that hold sweep points in flight without sleeping.

A test names a gate, submits :func:`gated_point` points carrying that
name, waits on the gate's ``started`` event to know a point is running,
and sets its ``release`` event to let the points finish.  Points run in
the test process (inline executors or a daemon thread), so the events
are shared; gate names must be unique per test.
"""

import threading

_RELEASE = {}
_STARTED = {}


def gate(name):
    """``(release, started)`` events of the gate called ``name``."""
    return (_RELEASE.setdefault(name, threading.Event()),
            _STARTED.setdefault(name, threading.Event()))


def gated_point(value=0, gate_name="default"):
    """Signals that it started, then holds its executor until the test
    opens the gate."""
    release, started = gate(gate_name)
    started.set()
    assert release.wait(timeout=30), f"gate {gate_name!r} never opened"
    return {"value": value}
