"""Persistent warm-state store: content-addressed snapshots on disk.

The §5.1 methodology warms caches, TLBs, and row-buffer state before every
measurement, and PR 2 showed restoring a :class:`repro.sim.snapshot.
SystemSnapshot` is ~300x faster than replaying that warm-up — but those
snapshots lived inside one process for one point.  A :class:`WarmStore`
makes warm state a first-class cached artifact shared across points,
sweeps, and processes:

- **Snapshot entries** serialize a system's ``snapshot_state()`` payload
  (via :meth:`SystemSnapshot.to_bytes`, the versioned wire format) keyed
  by a content hash over (``SystemConfig``, warm-up recipe, code
  version).  Editing any simulator source changes the code version and
  silently invalidates every entry — warm state is never served across
  code changes, mirroring :class:`repro.exp.cache.ResultCache`.
- **Artifact entries** hold deterministic derived objects that are
  expensive to rebuild but independent of a live system — Fig. 10's
  victim probe schedule, Fig. 11 reference streams — keyed by (recipe,
  code version) alone.
- A bounded in-memory LRU fronts the disk files, so a persistent sweep
  worker that has already loaded the 64 MB-LLC warm state serves every
  later point sharing that config without re-unpickling.

Correctness invariant (PR 1): warm-up is deterministic, so a point served
from the store must be **bit-identical** to the same point re-warmed from
scratch.  Everything here is therefore *pure reuse*: the store never
changes what is computed, only whether a cached copy of the identical
bytes is used.  ``REPRO_NO_WARMSTORE=1`` disables every layer (the
randomized equivalence tests diff both modes).

Process-global discovery mirrors ``REPRO_TRACE_DIR``: when
``REPRO_WARMSTORE_DIR`` is set, :func:`current` returns a store rooted
there (one per process, re-resolved when the variable changes), so sweep
workers — forked before or after the variable was exported — all share
one on-disk store.  Without the variable there is no disk layer, but the
in-process memo layers still work.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.exp.cache import canonical_json, code_version
from repro.obs import metrics as obs_metrics
from repro.sim.snapshot import SnapshotFormatError, SystemSnapshot

_MISSING = object()

#: Deserialized entries kept per store instance (snapshots and artifacts
#: share one LRU).  Sized for one worker's working set: a handful of
#: figure configs plus their artifacts.
DEFAULT_MEMORY_ENTRIES = 32

#: Process-wide warm-reuse counters: every layer (disk store, memory LRU,
#: artifact memos) records here, and the sweep runner diffs them
#: around each point to fill ``SweepOutcome.warm_hits``/``warm_misses``.
_COUNTS = {"hits": 0, "misses": 0}


def record_event(kind: str, count: int = 1) -> None:
    """Count a warm-state hit or miss (``kind`` in {"hits", "misses"})
    and mirror it into the installed metrics registry, if any."""
    _COUNTS[kind] += count
    registry = obs_metrics.current()
    if registry is not None:
        registry.counter(f"warmstore.{kind}").inc(count)


def counters() -> Dict[str, int]:
    """Copy of the process-wide warm hit/miss counters."""
    return dict(_COUNTS)


def enabled() -> bool:
    """False when ``REPRO_NO_WARMSTORE`` is set: every warm-reuse layer
    (disk store, artifact memos) is bypassed, forcing the
    from-scratch execution path the equivalence tests compare against."""
    return os.environ.get("REPRO_NO_WARMSTORE", "") not in ("1", "true", "yes")


def config_digest(config: Any) -> str:
    """Stable content hash of a :class:`repro.config.SystemConfig`."""
    return hashlib.sha256(
        canonical_json(asdict(config)).encode()).hexdigest()[:24]


class WarmStore:
    """Content-addressed store of warm-state snapshots and artifacts.

    One file per entry under ``directory``; filenames embed the entry
    kind, the producing code version, and the content key
    (``{kind}-{version}-{key}.warm``), so :meth:`prune` can drop entries
    from other code versions without opening them and invalidation is
    ``rm -rf``.  A bounded in-memory LRU of deserialized entries fronts
    the files.
    """

    def __init__(self, directory: str, version: Optional[str] = None,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        self.directory = str(directory)
        self.version = version if version is not None else code_version()
        self.memory_entries = max(0, int(memory_entries))
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.puts = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    def key(self, recipe: Any, config: Any = None) -> str:
        """Content key over (recipe, code version[, config])."""
        material: Dict[str, Any] = {"recipe": recipe, "code": self.version}
        if config is not None:
            material["config"] = asdict(config)
        return hashlib.sha256(
            canonical_json(material).encode()).hexdigest()[:24]

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.directory,
                            f"{kind}-{self.version}-{key}.warm")

    # ------------------------------------------------------------------
    # Memory LRU
    # ------------------------------------------------------------------

    def _memory_get(self, path: str) -> Any:
        entry = self._memory.get(path, _MISSING)
        if entry is not _MISSING:
            self._memory.move_to_end(path)
        return entry

    def _memory_put(self, path: str, value: Any) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[path] = value
        self._memory.move_to_end(path)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # Snapshot entries
    # ------------------------------------------------------------------

    def load_snapshot(self, config: Any, recipe: Any) -> Optional[SystemSnapshot]:
        """The stored warm snapshot for (``config``, ``recipe``), or None.

        A hit still validates the deserialized snapshot's config against
        the requested one (truncated-hash paranoia); corrupt files and
        format-version mismatches are clean misses.
        """
        path = self._path("snap", self.key(recipe, config))
        cached = self._memory_get(path)
        if cached is not _MISSING:
            if cached.config == config:
                self.hits += 1
                self.memory_hits += 1
                record_event("hits")
                return cached
            cached = _MISSING
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            snapshot = SystemSnapshot.from_bytes(data)
        except (OSError, SnapshotFormatError):
            self.misses += 1
            record_event("misses")
            return None
        if snapshot.config != config:
            self.misses += 1
            record_event("misses")
            return None
        self._memory_put(path, snapshot)
        self.hits += 1
        self.disk_hits += 1
        record_event("hits")
        return snapshot

    def store_snapshot(self, snapshot: SystemSnapshot, recipe: Any) -> str:
        """Persist ``snapshot`` under its config + ``recipe``; returns the
        entry path."""
        path = self._path("snap", self.key(recipe, snapshot.config))
        self._write(path, snapshot.to_bytes())
        self._memory_put(path, snapshot)
        self.puts += 1
        return path

    # ------------------------------------------------------------------
    # Artifact entries (config-independent derived objects)
    # ------------------------------------------------------------------

    def load_artifact(self, recipe: Any) -> Any:
        """The stored artifact for ``recipe``, or :data:`MISSING`.

        Artifacts are treated as immutable by every consumer: the memory
        LRU hands the same object to all of them.
        """
        path = self._path("art", self.key(recipe))
        cached = self._memory_get(path)
        if cached is not _MISSING:
            self.hits += 1
            self.memory_hits += 1
            record_event("hits")
            return cached
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ValueError):
            self.misses += 1
            record_event("misses")
            return _MISSING
        self._memory_put(path, value)
        self.hits += 1
        self.disk_hits += 1
        record_event("hits")
        return value

    def store_artifact(self, recipe: Any, value: Any) -> str:
        path = self._path("art", self.key(recipe))
        self._write(path, pickle.dumps(value,
                                       protocol=pickle.HIGHEST_PROTOCOL))
        self._memory_put(path, value)
        self.puts += 1
        return path

    @staticmethod
    def is_missing(value: Any) -> bool:
        return value is _MISSING

    # ------------------------------------------------------------------
    # Maintenance (CLI: ``repro cache stats|prune``)
    # ------------------------------------------------------------------

    def _write(self, path: str, data: bytes) -> None:
        os.makedirs(self.directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)

    def entries(self) -> Iterator[Tuple[str, str, str, int]]:
        """Yield (path, kind, version, size_bytes) for every entry."""
        if not os.path.isdir(self.directory):
            return
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".warm"):
                continue
            parts = name[:-len(".warm")].split("-", 2)
            if len(parts) != 3:
                continue
            path = os.path.join(self.directory, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            yield path, parts[0], parts[1], size

    def stats(self) -> Dict[str, Any]:
        entry_count = 0
        stale = 0
        total_bytes = 0
        for _path, _kind, version, size in self.entries():
            entry_count += 1
            total_bytes += size
            if version != self.version:
                stale += 1
        return {
            "directory": self.directory,
            "code_version": self.version,
            "entries": entry_count,
            "stale_entries": stale,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
        }

    def prune(self) -> int:
        """Drop entries written by other code versions (their keys can
        never match again); returns how many were removed."""
        removed = 0
        for path, _kind, version, _size in list(self.entries()):
            if version != self.version:
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
                self._memory.pop(path, None)
        return removed

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        for path, _kind, _version, _size in list(self.entries()):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        self._memory.clear()
        return removed


# ---------------------------------------------------------------------------
# Process-global store (REPRO_WARMSTORE_DIR)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[WarmStore] = None
_ACTIVE_DIR: Optional[str] = None


def current() -> Optional[WarmStore]:
    """The process's warm store, rooted at ``$REPRO_WARMSTORE_DIR``;
    ``None`` when the variable is unset or the store is disabled.  The
    instance (and its memory LRU) persists across calls until the
    variable changes."""
    global _ACTIVE, _ACTIVE_DIR
    if not enabled():
        return None
    directory = os.environ.get("REPRO_WARMSTORE_DIR") or None
    if directory != _ACTIVE_DIR:
        _ACTIVE = WarmStore(directory) if directory else None
        _ACTIVE_DIR = directory
    return _ACTIVE


def reset_active_store() -> None:
    """Forget the process-global store (and its memory LRU), so the next
    :func:`current` call re-resolves from the environment.  Tests use this
    to force reuse through the on-disk layer."""
    global _ACTIVE, _ACTIVE_DIR
    _ACTIVE = None
    _ACTIVE_DIR = None


def pristine_system(config: Any) -> Any:
    """A freshly constructed ``System(config)``.

    Building a System is a handful of flat list allocations, so nothing is
    pooled.  The function stays because ``perfbench/spans.py`` wraps it by
    name (its ``system.pristine`` layer).
    """
    from repro.system import System

    return System(config)
