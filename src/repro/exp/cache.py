"""Deterministic on-disk result cache for sweep experiments.

Entries are keyed by a content hash over (experiment name, point
parameters, code version).  The code version is itself a content hash of
every ``repro`` source file, so editing the simulator invalidates every
cached result while leaving re-runs of unchanged experiments instant.

Payloads must be JSON-serializable — sweep point functions return plain
dicts of floats/ints/strings, which also keeps cached artifacts diffable
(`BENCH_*.json`-style snapshots fall out of the cache files for free).
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from typing import Any, Dict, Mapping, Optional

_MISSING = object()

_CODE_VERSION: Optional[str] = None


def canonical_json(value: Any) -> str:
    """Stable serialization used for hashing parameters."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def code_version() -> str:
    """Content hash of the installed ``repro`` package sources.

    Memoized per process; any change to any ``.py`` or ``.c`` file under
    the package (the compiled replay kernel's source included) produces a
    different version and therefore different cache keys.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for root, dirs, files in sorted(os.walk(package_dir)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if not name.endswith((".py", ".c")):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, package_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


#: Default entry cap.  Sweeps produce a handful of entries per figure per
#: code version, so thousands of files means many stale versions — bound
#: the growth instead of keeping every version forever.
DEFAULT_MAX_ENTRIES = 4096


def _pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 probes without sending)."""
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    return True


class ResultCache:
    """Content-addressed store of sweep-point results.

    One JSON file per entry under ``directory``; the filename is the cache
    key, so lookups are a single ``open`` and invalidation is ``rm -rf``.

    The store is LRU-bounded: every hit and put stamps its entry with the
    next value of a *monotonic* recency counter (persisted in a sidecar
    index file, shared by every process using the directory), and when a
    put pushes the entry count past ``max_entries`` the least-recently-
    used entries are evicted — preferring entries written by *other* code
    versions, whose keys can never be looked up again.  Recency used to
    ride on file mtimes (wall clock): an NTP step or VM resume could
    reorder eviction and, worse, make the ``repro serve`` dedup layer
    distrust what "most recent" means.  The counter only ever goes up.
    """

    #: Sidecar recency index (filename -> sequence number).  Deliberately
    #: not ``*.json`` so entry listing never mistakes it for an entry.
    INDEX_NAME = "_lru.idx"

    def __init__(self, directory: str,
                 version: Optional[str] = None,
                 max_entries: Optional[int] = DEFAULT_MAX_ENTRIES) -> None:
        self.directory = directory
        self.version = version if version is not None else code_version()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    def key(self, experiment: str, params: Mapping[str, Any]) -> str:
        material = canonical_json({
            "experiment": experiment,
            "params": dict(params),
            "code": self.version,
        })
        return hashlib.sha256(material.encode()).hexdigest()[:24]

    def path_for(self, experiment: str, params: Mapping[str, Any]) -> str:
        return os.path.join(self.directory,
                            f"{experiment}-{self.key(experiment, params)}.json")

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, experiment: str, params: Mapping[str, Any]) -> Any:
        """Cached payload, or :data:`MISSING` if absent/corrupt."""
        path = self.path_for(experiment, params)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return _MISSING
        self._touch(path)  # LRU recency: a hit keeps the entry young
        self.hits += 1
        return entry.get("payload")

    def put(self, experiment: str, params: Mapping[str, Any],
            payload: Any) -> str:
        """Persist ``payload``; returns the entry's path."""
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(experiment, params)
        entry: Dict[str, Any] = {
            "experiment": experiment,
            "params": dict(params),
            "code_version": self.version,
            "created": time.time(),
            "payload": payload,
        }
        # A temp file unique to this writer: two processes putting one key
        # at once each rename their own complete file into place (last
        # wins), and a writer killed mid-dump leaves only a stray temp
        # file that no lookup or listing ever reads (prune() deletes it
        # once the writer is dead).
        tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
        try:
            with open(tmp, "x") as handle:
                json.dump(entry, handle, default=str)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self._touch(path)
        if self.max_entries is not None:
            self._evict(self.max_entries)
        return path

    # ------------------------------------------------------------------
    # Monotonic recency index
    # ------------------------------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.directory, self.INDEX_NAME)

    def _load_index(self) -> Dict[str, int]:
        """Filename -> recency sequence; a corrupt or missing index is
        just an empty one (entries then sort as oldest, tie-broken by
        mtime, and get re-stamped on their next touch)."""
        try:
            with open(self._index_path()) as handle:
                raw = json.load(handle)
            return {str(name): int(seq)
                    for name, seq in raw.get("entries", {}).items()}
        except (OSError, ValueError, TypeError, AttributeError):
            return {}

    def _write_index(self, entries: Dict[str, int]) -> None:
        tmp = f"{self._index_path()}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as handle:
                json.dump({"entries": entries}, handle)
            os.replace(tmp, self._index_path())
        except OSError:
            pass

    def _touch(self, path: str) -> None:
        """Stamp ``path`` as most-recently-used: the next value of the
        store-wide monotonic counter, never the wall clock."""
        entries = self._load_index()
        entries[os.path.basename(path)] = max(entries.values(), default=0) + 1
        self._write_index(entries)

    # ------------------------------------------------------------------
    # Size bounding / maintenance
    # ------------------------------------------------------------------

    def _entry_paths(self) -> "list[str]":
        if not os.path.isdir(self.directory):
            return []
        return [os.path.join(self.directory, name)
                for name in os.listdir(self.directory)
                if name.endswith(".json")]

    def entry_count(self) -> int:
        return len(self._entry_paths())

    def _entry_version(self, path: str) -> Optional[str]:
        """The ``code_version`` recorded in an entry (None = unreadable)."""
        try:
            with open(path) as handle:
                return json.load(handle).get("code_version")
        except (OSError, ValueError):
            return None

    def _evict(self, max_entries: int) -> int:
        """Bring the store under ``max_entries``, least-recently-used
        first (by the monotonic index; mtime only tie-breaks entries the
        index has never seen), but preferring entries from other code
        versions (their keys can never match a lookup under this version
        again)."""
        paths = self._entry_paths()
        excess = len(paths) - max_entries
        if excess <= 0:
            return 0
        index = self._load_index()

        def recency(path: str) -> "tuple[int, float]":
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                mtime = 0.0
            return index.get(os.path.basename(path), 0), mtime

        removed = 0
        dropped: "list[str]" = []
        stale = sorted((p for p in paths
                        if self._entry_version(p) != self.version),
                       key=recency)
        fresh = sorted((p for p in paths if p not in set(stale)), key=recency)
        for path in stale + fresh:
            if removed >= excess:
                break
            try:
                os.remove(path)
                removed += 1
                dropped.append(os.path.basename(path))
            except OSError:
                pass
        if dropped:
            for name in dropped:
                index.pop(name, None)
            self._write_index(index)
        self.evictions += removed
        return removed

    def _temp_files(self) -> "list[tuple[str, Optional[int]]]":
        """Writer temp files with the pid embedded in their name:
        ``<entry>.<pid>.<rand>.tmp`` from :meth:`put` and
        ``_lru.idx.tmp.<pid>`` from the index (pid ``None`` when the
        name does not parse)."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):
                field = name.split(".")[-3:-2]
            elif name.startswith(f"{self.INDEX_NAME}.tmp."):
                field = name.split(".")[-1:]
            else:
                continue
            pid = int(field[0]) if field and field[0].isdigit() else None
            found.append((os.path.join(self.directory, name), pid))
        return found

    def prune(self) -> int:
        """Drop entries written by other code versions (stale keys);
        returns how many were removed.  Also deletes the temp files of
        writers that died mid-write (their pid is no longer alive)."""
        for path, pid in self._temp_files():
            if pid is not None and not _pid_alive(pid):
                try:
                    os.remove(path)
                except OSError:
                    pass
        removed = 0
        index = self._load_index()
        for path in self._entry_paths():
            if self._entry_version(path) != self.version:
                try:
                    os.remove(path)
                    removed += 1
                    index.pop(os.path.basename(path), None)
                except OSError:
                    pass
        if removed:
            self._write_index(index)
        return removed

    def stats(self) -> Dict[str, Any]:
        """Summary for ``repro cache stats``."""
        paths = self._entry_paths()
        stale = sum(1 for p in paths if self._entry_version(p) != self.version)
        total_bytes = 0
        for path in paths:
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "directory": self.directory,
            "code_version": self.version,
            "entries": len(paths),
            "stale_entries": stale,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "max_entries": self.max_entries,
        }

    def clear(self) -> int:
        """Drop every entry, the index and every temp file; returns how
        many entries were removed."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                os.remove(os.path.join(self.directory, name))
                removed += 1
        for path in [self._index_path()] + [p for p, _ in self._temp_files()]:
            try:
                os.remove(path)
            except OSError:
                pass
        return removed

    @staticmethod
    def is_missing(value: Any) -> bool:
        return value is _MISSING


MISSING = _MISSING
