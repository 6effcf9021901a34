"""In-memory span recorder that wraps the simulator's public layer entry points.

The benchmark measures each layer from the outside: :func:`install` replaces
the public functions and methods named in :data:`LAYERS` with wrappers that
record one span per call (name, start, end, parent span).  Spans stay in
memory and are written out when the traced pass ends; a forked sweep-pool
worker writes its spans when each of its top-level point spans closes,
because pool workers leave through ``os._exit`` and never reach the end of
the run.

A layer's figure is its *self time*: the span's duration minus the time its
child spans cover (see :func:`analyse`).  Nothing here is imported by an
untimed or counting pass, so those passes run the unmodified program.
"""

from __future__ import annotations

import functools
import glob
import os
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span name -> the public entry points it wraps, as
#: ``(module, class or None, attribute names)``.  Methods are wrapped on the
#: named class and on every subclass that overrides them.  Module-level
#: functions are replaced in every ``repro`` module that imported them.
LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "point": [("repro.exp.figures", None,
               ("fig8_point", "fig10_point", "fig11_point", "covert_point",
                "sec33_point"))],
    "system.build": [("repro.system", "System", ("__init__",))],
    "system.pristine": [("repro.exp.warmstore", None, ("pristine_system",))],
    "attacks.order": [("repro.attacks.streamline", None, ("shared_order",))],
    "attacks.transmit": [
        ("repro.attacks.channel", "CovertChannel", ("transmit",)),
        ("repro.attacks.sidechannel", "ReadMappingSideChannel", ("run",))],
    "sim.run": [("repro.sim.scheduler", "Scheduler", ("run",))],
    "cache.access": [("repro.cache.hierarchy", "CacheHierarchy", ("access",))],
    "cache.batch": [("repro.cache.hierarchy", "CacheHierarchy",
                     ("access_batch", "probe_batch"))],
    "cache.clflush": [("repro.cache.hierarchy", "CacheHierarchy",
                       ("clflush",))],
    "dram": [("repro.dram.controller", "MemoryController",
              ("access", "access_location", "access_finish", "activate",
               "rowclone"))],
    "pim.pei": [("repro.pim.pei", "PEIEngine",
                 ("execute", "execute_parallel", "execute_parallel_raw"))],
    "pim.rowclone": [("repro.pim.rowclone", "RowCloneEngine",
                      ("clone", "clone_single_bank"))],
    "workloads.stream": [("repro.workloads.kernels", "WorkloadSpec",
                          ("build_graph", "refs"))],
    "workloads.warm": [("repro.workloads.runner", "WarmupCache", ("warm",))],
    "workloads.replay": [("repro.workloads.runner", None,
                          ("run_multiprogrammed",))],
    "genomics.schedule": [("repro.genomics.pim_mapper", "PimReadMapper",
                           ("trace_for_reads",))],
    "exp.sweep": [("repro.exp.runner", None, ("run_sweep",))],
}


class SpanRecorder:
    """Spans of one process, kept in flat arrays until written out."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._flushes = 0
        self._clear()

    def _clear(self) -> None:
        #: Counts taken from call results (bits sent, refs replayed, ...).
        self.counts: Counter = Counter()
        self.index = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.next_index = 0

    def after_fork(self) -> None:
        """A forked worker starts with no spans and no counts of its own."""
        self._clear()
        self._flushes = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable:
        """``fn`` recording one ``name`` span per call; ``on_result(result)``
        runs after each call that returns."""
        nid = self.name_id(name)
        perf = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack
            idx = rec.next_index
            rec.next_index = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                rec.index.append(idx)
                rec.name.append(nid)
                rec.parent.append(parent)
                rec.start.append(start)
                rec.end.append(end)
                if not stack and os.getpid() != rec.main_pid:
                    rec.write()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def write(self) -> str:
        """Write the recorded spans (and counts) to one ``.npz`` file and
        start a fresh buffer."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir,
                            f"spans-{os.getpid()}-{self._flushes}.npz")
        self._flushes += 1
        np.savez(path, names=np.array(self.names, dtype=str),
                 index=np.frombuffer(self.index, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 main=np.array(os.getpid() == self.main_pid),
                 count_keys=np.array(sorted(self.counts), dtype=str),
                 count_values=np.array([self.counts[k]
                                        for k in sorted(self.counts)],
                                       dtype=np.int64))
        self._clear()
        return path


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (covers ``from x import f`` re-exports)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _count_transmit(rec: SpanRecorder):
    def on_result(result):
        if hasattr(result, "sent"):
            rec.counts["attacks.bits"] += result.bits
            rec.counts["attacks.bit_errors"] += result.errors
        else:
            # Side channel: one decoded leak per round; a miss or a false
            # positive is a wrong leak.
            rec.counts["attacks.bits"] += result.rounds
            rec.counts["attacks.bit_errors"] += (result.missed
                                                 + result.false_positives)
    return on_result


def _count_refs(rec: SpanRecorder):
    def on_result(result):
        rec.counts["workloads.refs"] += result.refs
    return on_result


def _pristine_counting(rec: SpanRecorder, fn: Callable) -> Callable:
    from repro.exp import warmstore

    @functools.wraps(fn)
    def pristine_system(config):
        before = warmstore.counters()["hits"]
        system = fn(config)
        rec.counts["system.pristine_calls"] += 1
        rec.counts["system.pristine_hits"] += \
            warmstore.counters()["hits"] - before
        return system
    return pristine_system


def install(rec: SpanRecorder) -> None:
    """Wrap every entry point in :data:`LAYERS` to record into ``rec``."""
    import importlib

    from workloads import IMPORTS

    # Import every layer (and the packages that re-export from them)
    # first, so re-exported names are found and replaced too.
    for package in IMPORTS:
        importlib.import_module(package)
    hooks = {"attacks.transmit": _count_transmit(rec),
             "workloads.replay": _count_refs(rec)}
    for name, targets in LAYERS.items():
        for module_name, class_name, attrs in targets:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in attrs:
                    original = getattr(module, attr)
                    inner = (_pristine_counting(rec, original)
                             if name == "system.pristine" else original)
                    _replace_everywhere(original,
                                        rec.wrap(name, inner,
                                                 hooks.get(name)))
                continue
            for klass in _subclasses(getattr(module, class_name)):
                for attr in attrs:
                    if attr in vars(klass):
                        setattr(klass, attr,
                                rec.wrap(name, vars(klass)[attr],
                                         hooks.get(name)))
    os.register_at_fork(after_in_child=rec.after_fork)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def analyse(out_dir: str) -> Dict[str, Any]:
    """Self time and call count per span name over every span file in
    ``out_dir``, plus the merged result counts.

    In one process spans nest, so a span's children cover exactly the sum
    of their durations.  Top-level spans of sweep-pool workers run in other
    processes during the parent's ``exp.sweep`` span; that span's self time
    is its duration minus the *union* of the intervals its in-process and
    worker children cover, since two workers overlap in time.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    worker_roots: List[Tuple[float, float]] = []
    sweeps: List[Tuple[float, float, List[Tuple[float, float]]]] = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.npz"))):
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            order = np.argsort(data["index"], kind="stable")
            name = data["name"][order]
            parent = data["parent"][order]
            start = data["start"][order]
            end = data["end"][order]
            main = bool(data["main"])
            for key, value in zip(data["count_keys"], data["count_values"]):
                counts[str(key)] += int(value)
        if not len(name):
            continue
        # Indices restart at 0 in every file, so position == index.
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        if not main:
            roots = ~nested
            worker_roots.extend(zip(start[roots].tolist(),
                                    end[roots].tolist()))
        sweep_id = names.index("exp.sweep") if "exp.sweep" in names else -1
        for pos in np.flatnonzero(name == sweep_id).tolist():
            kids = np.flatnonzero(parent == pos)
            sweeps.append((float(start[pos]), float(end[pos]),
                           list(zip(start[kids].tolist(),
                                    end[kids].tolist()))))
            own[pos] = 0.0
        sums = np.bincount(name, weights=own, minlength=len(names))
        hits = np.bincount(name, minlength=len(names))
        for nid, label in enumerate(names):
            self_s[label] += float(sums[nid])
            calls[label] += int(hits[nid])
    for s_start, s_end, kids in sweeps:
        covered = kids + [(max(a, s_start), min(b, s_end))
                          for a, b in worker_roots
                          if a < s_end and b > s_start]
        self_s["exp.sweep"] += (s_end - s_start) - _union_length(covered)
    return {"self_s": dict(self_s), "calls": dict(calls),
            "counts": dict(counts)}
