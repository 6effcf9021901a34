"""Compiled replay kernel for the Fig. 11 runner (``replay.c``).

:func:`replay` runs :func:`repro.workloads.runner._replay_python`'s loop in
C: it copies the System's cache, prefetcher, controller and bank state
into flat arrays, runs the kernel, and copies the state back, so the
System ends exactly as the Python loop would leave it.  It returns
``None`` -- before touching any state -- whenever the kernel does not
model the run; the caller then runs the Python loop, which stays the
reference.  The kernel declines when:

- an Observer (tracer, sanitizer, metrics registry) is attached to the
  hierarchy or the controller, since the kernel has no hook sites;
- a cache uses ``random`` replacement, refresh is enabled, or bank
  partitioning is active;
- a stream address lies outside ``[0, capacity)`` (the Python path then
  raises its ``ValueError`` at the same reference);
- no C compiler is on ``PATH`` or the build fails.

The kernel reads each :class:`~repro.workloads.kernels.RefStream`'s
``array`` columns in place, so a stream is never copied to be replayed.

The kernel is built on first use with ``cc -O2 -shared -fPIC`` into
``__pycache__/replay-<hash>.so`` beside the source (the hash covers the
source and the flags), via a temporary file and an atomic rename, so
concurrent first builds are safe.  A library is only loaded from a
directory owned by the current user and not world-writable.
:func:`available` reports whether the kernel can run and why not.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy, RequestorCacheStats
from repro.cache.prefetcher import IPStridePrefetcher, StreamerPrefetcher
from repro.cache.replacement import LRUPolicy, SRRIPPolicy
from repro.dram.address import (LineInterleavedMapping, RowInterleavedMapping,
                                XorBankMapping)
from repro.dram.controller import MemoryController, RequestorStats
from repro.workloads.kernels import RefStream

_SOURCE = Path(__file__).with_name("replay.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
#: Where the built library lives: beside the source, like bytecode.
_BUILD_DIR = _SOURCE.parent / "__pycache__"

#: Mapping classes the kernel decodes, by its MAP_* code.
_MAPPINGS = {RowInterleavedMapping: 0, LineInterleavedMapping: 1,
             XorBankMapping: 2}
#: replay.c's order fields: the dict entry existed / is absent.
_EXISTED, _ABSENT = -1, -2

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


class _Cache(ctypes.Structure):
    _fields_ = [("sets", _I64), ("ways", _I64), ("line_bytes", _I64),
                ("lru", _I64), ("max_rrpv", _I64), ("insert_rrpv", _I64),
                ("stamp", _I64), ("stats", _I64 * 6),
                ("tags", _PTR), ("dirty", _PTR), ("repl", _PTR)]


class _Table(ctypes.Structure):
    _fields_ = [("n", _I64), ("capacity", _I64), ("degree", _I64),
                ("line_bytes", _I64), ("region_bytes", _I64),
                ("rows", _PTR)]


class _Stream(ctypes.Structure):
    _fields_ = [("n", _I64), ("compute", _I64), ("addr", _PTR),
                ("pc", _PTR), ("writes", _PTR)]


class _Machine(ctypes.Structure):
    _fields_ = [("ncores", _I64), ("nstreams", _I64),
                ("l1", _PTR), ("l2", _PTR), ("llc", _PTR),
                ("l1_latency", _I64), ("l2_latency", _I64),
                ("llc_latency", _I64), ("line_bytes", _I64),
                ("capacity", _I64), ("hstats", _I64 * 7), ("hreq", _PTR),
                ("prefetch", _I64), ("ip", _PTR), ("streamer", _PTR),
                ("inflight_n", _I64),
                ("inflight_keys", _PTR), ("inflight_vals", _PTR),
                ("queue_cycles", _I64), ("locked_until", _I64),
                ("close_after", _I64), ("constant_time", _I64),
                ("mapping", _I64), ("row_bytes", _I64), ("num_banks", _I64),
                ("dram_line_bytes", _I64), ("lines_per_row", _I64),
                ("hit_cycles", _I64), ("empty_cycles", _I64),
                ("conflict_cycles", _I64), ("rp_cycles", _I64),
                ("timeout_cycles", _I64),
                ("banks", _PTR), ("creq", _PTR), ("streams", _PTR),
                ("cycles", _I64), ("instructions", _I64), ("refs", _I64),
                ("llc_misses", _I64)]


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------

#: ``(kernel function or None, reason)``, settled once per process.
_KERNEL: Optional[Tuple[Any, str]] = None


def available() -> Tuple[bool, str]:
    """``(True, library name)`` when the kernel is built and loaded,
    else ``(False, why not)``.  Builds it on first call."""
    fn, reason = _kernel()
    return fn is not None, reason


def _kernel() -> Tuple[Any, str]:
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _load(_BUILD_DIR)
    return _KERNEL


def _digest() -> str:
    """Hash of the kernel source and the build flags."""
    return hashlib.sha256(
        _SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()[:16]


def _compiler() -> Optional[str]:
    return shutil.which("cc")


def _private(path: Path) -> bool:
    """Owned by this user, not a symlink, not world-writable."""
    st = os.lstat(path)
    return (st.st_uid == os.geteuid() and not stat.S_ISLNK(st.st_mode)
            and not st.st_mode & stat.S_IWOTH)


def _load(directory: Path) -> Tuple[Any, str]:
    """Build (if needed) and load the kernel from ``directory``."""
    try:
        path = directory / f"replay-{_digest()}.so"
        directory.mkdir(mode=0o755, exist_ok=True)
        if not _private(directory):
            return None, (f"{directory} is not owned by this user or is "
                          "world-writable")
        if not path.exists():
            cc = _compiler()
            if cc is None:
                return None, "no C compiler (cc) on PATH"
            fd, tmp = tempfile.mkstemp(prefix=".replay-", suffix=".so",
                                       dir=directory)
            os.close(fd)
            try:
                proc = subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SOURCE)],
                                      capture_output=True, text=True)
                if proc.returncode != 0:
                    return None, f"cc failed: {proc.stderr.strip()[:500]}"
                os.chmod(tmp, 0o644)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        if not _private(path):
            return None, (f"{path} is not owned by this user or is "
                          "world-writable")
        fn = ctypes.CDLL(str(path)).replay
    except OSError as exc:
        return None, f"cannot build or load the replay kernel: {exc}"
    fn.argtypes = [ctypes.POINTER(_Machine)]
    fn.restype = ctypes.c_int
    return fn, path.name


# ----------------------------------------------------------------------
# Marshaling
# ----------------------------------------------------------------------


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


def _declines(system, streams: Sequence) -> bool:
    hierarchy, controller = system.hierarchy, system.controller
    if (type(hierarchy) is not CacheHierarchy
            or type(controller) is not MemoryController
            or hierarchy._obs is not None or controller._obs is not None
            or controller._refresh_enabled or controller._partition
            or type(controller.mapper) not in _MAPPINGS
            or len(streams) > hierarchy.config.num_cores):
        return True
    for cache in (*hierarchy.l1, *hierarchy.l2, hierarchy.llc):
        if (type(cache) is not Cache
                or type(cache._policy) not in (LRUPolicy, SRRIPPolicy)):
            return True
    return not all(type(pf) is IPStridePrefetcher
                   for pf in hierarchy._l1_prefetchers) or not all(
        type(pf) is StreamerPrefetcher for pf in hierarchy._l2_prefetchers)


class _CacheState:
    """One cache's state in kernel form, and the copy back."""

    def __init__(self, cache: Cache, struct: _Cache) -> None:
        policy = cache._policy
        self.cache = cache
        self.lru = type(policy) is LRUPolicy
        self.tags = array("q", cache._tags)
        self.dirty = array("q", cache._dirty)
        self.repl = array("q", policy._last_use if self.lru else policy._rrpv)
        s = cache.stats
        struct.sets, struct.ways = cache._num_sets, cache._ways
        struct.line_bytes = cache._line_bytes
        struct.lru = self.lru
        struct.max_rrpv = 0 if self.lru else policy.MAX_RRPV
        struct.insert_rrpv = cache._insert_rrpv
        struct.stamp = policy._stamp if self.lru else 0
        struct.stats[:] = (s.hits, s.misses, s.fills, s.evictions,
                           s.writebacks, s.invalidations)
        struct.tags, struct.dirty = _addr(self.tags), _addr(self.dirty)
        struct.repl = _addr(self.repl)
        self.struct = struct

    def restore(self) -> None:
        cache, struct = self.cache, self.struct
        tags = self.tags.tolist()
        cache._tags[:] = tags
        cache._dirty[:] = map(bool, self.dirty)
        # Replacement lists are aliased (Cache._rrpv): mutate in place.
        if self.lru:
            cache._policy._last_use[:] = self.repl
            cache._policy._stamp = struct.stamp
        else:
            cache._policy._rrpv[:] = self.repl
        where = cache._where
        where.clear()
        where.update(zip(tags, range(len(tags))))
        where.pop(-1, None)  # the invalid ways
        s = cache.stats
        (s.hits, s.misses, s.fills, s.evictions, s.writebacks,
         s.invalidations) = struct.stats


def _table_in(struct: _Table, table: dict, capacity: int, degree: int,
              line_bytes: int, region_bytes: int, width: int) -> array:
    """Fill ``struct`` from a prefetcher dict (key then entry fields per
    row, in dict order); returns the row buffer, sized for growth."""
    rows = array("q", [v for key, entry in table.items()
                       for v in (key, *entry)])
    rows.extend([0] * (width * (max(len(table), capacity) + 1)
                       - len(rows)))
    struct.n, struct.capacity, struct.degree = len(table), capacity, degree
    struct.line_bytes, struct.region_bytes = line_bytes, region_bytes
    struct.rows = _addr(rows)
    return rows


def _table_out(table: dict, struct: _Table, rows: array, width: int) -> None:
    flat = rows[:struct.n * width].tolist()
    table.clear()
    table.update((flat[i], tuple(flat[i + 1:i + width]))
                 for i in range(0, len(flat), width))


def _stats_rows(stats: dict, names: List[str], fields: Tuple[str, ...]
                ) -> array:
    """One row per name: the existing entry's counters then _EXISTED, or
    zeros then _ABSENT."""
    rows = array("q")
    for name in names:
        entry = stats.get(name)
        if entry is None:
            rows.extend([0] * len(fields) + [_ABSENT])
        else:
            rows.extend([getattr(entry, f) for f in fields] + [_EXISTED])
    return rows


def _stats_out(stats: dict, names: List[str], fields: Tuple[str, ...],
               rows: array, factory) -> None:
    """Write counters back; entries the kernel created are inserted in
    creation order, as the Python path's dict would hold them."""
    width = len(fields) + 1
    created = []
    for i, name in enumerate(names):
        row = rows[i * width:(i + 1) * width]
        order = row[-1]
        if order == _ABSENT:
            continue
        if order == _EXISTED:
            entry = stats[name]
        else:
            entry = factory()
            created.append((order, name, entry))
        for field_name, value in zip(fields, row):
            setattr(entry, field_name, value)
    for _order, name, entry in sorted(created):
        stats[name] = entry


_HSTATS = ("demand_accesses", "prefetches_issued", "clflushes",
           "nt_accesses", "nt_bypasses", "memory_writebacks",
           "late_prefetch_stalls")
_HREQ = ("accesses", "llc_misses", "clflushes", "nt_accesses",
         "first_seen_cycle", "last_seen_cycle")
_CREQ = ("reads", "writes", "activates", "rowclones", "hits", "conflicts")
#: replay.c's bank row: open_row (-1 = None), busy_until, last_activation,
#: row_opened_at, then the five BankStats counters.
_BANK_WIDTH = 9


def replay(system, streams: Sequence[RefStream]):
    """Run the replay in the compiled kernel; returns the
    :class:`~repro.workloads.runner.RunResult`, or ``None`` (with the
    System untouched) when the kernel declines the run."""
    from repro.workloads.runner import RunResult

    if _declines(system, streams):
        return None
    hierarchy, controller = system.hierarchy, system.controller
    mapper = controller.mapper
    fn = _kernel()[0]
    if fn is None:
        return None

    m = _Machine()
    ncores = hierarchy.config.num_cores
    m.ncores, m.nstreams = ncores, len(streams)
    # The structs point into the streams' own buffers, which the caller
    # keeps alive for the whole call.
    stream_structs = (_Stream * max(1, len(streams)))(
        *[_Stream(n=len(s), compute=s.compute, addr=_addr(s.addr),
                  pc=_addr(s.pc), writes=_addr(s.is_write))
          for s in streams])
    m.streams = ctypes.addressof(stream_structs)

    l1s = (_Cache * ncores)()
    l2s = (_Cache * ncores)()
    llc = _Cache()
    caches = ([_CacheState(c, s) for c, s in zip(hierarchy.l1, l1s)]
              + [_CacheState(c, s) for c, s in zip(hierarchy.l2, l2s)]
              + [_CacheState(hierarchy.llc, llc)])
    m.l1, m.l2 = ctypes.addressof(l1s), ctypes.addressof(l2s)
    m.llc = ctypes.addressof(llc)
    m.l1_latency = hierarchy._l1_latency
    m.l2_latency = hierarchy._l2_latency
    m.llc_latency = hierarchy._llc_latency
    m.line_bytes = hierarchy._line_bytes
    m.capacity = hierarchy._capacity
    hstats = hierarchy.stats
    m.hstats[:] = [getattr(hstats, f) for f in _HSTATS]
    core_names = [f"core{core}" for core in range(ncores)]
    hreq = _stats_rows(hstats.by_requestor, core_names, _HREQ)
    m.hreq = _addr(hreq)

    m.prefetch = bool(hierarchy._pf_observe)
    ips = (_Table * ncores)()
    streamers = (_Table * ncores)()
    tables = []
    if m.prefetch:
        for core in range(ncores):
            ip = hierarchy._l1_prefetchers[core]
            st = hierarchy._l2_prefetchers[core]
            tables.append((ip._table, ips[core], 4, _table_in(
                ips[core], ip._table, ip._capacity, ip.degree,
                ip.line_bytes, 1, 4)))
            tables.append((st._regions, streamers[core], 3, _table_in(
                streamers[core], st._regions, st._capacity, st.degree,
                st.line_bytes, st.REGION_BYTES, 3)))
    m.ip, m.streamer = ctypes.addressof(ips), ctypes.addressof(streamers)

    inflight = hierarchy._inflight_fills
    # The kernel trims to 512 fills after each insert, so the FIFO never
    # ends a run longer than this.
    room = max(len(inflight), 512) + 1
    inflight_keys = array("q", inflight.keys())
    inflight_vals = array("q", inflight.values())
    inflight_keys.extend([0] * (room - len(inflight)))
    inflight_vals.extend([0] * (room - len(inflight)))
    m.inflight_n = len(inflight)
    m.inflight_keys = _addr(inflight_keys)
    m.inflight_vals = _addr(inflight_vals)

    banks = controller.device.banks
    bank0 = banks[0]
    m.queue_cycles = controller._queue_cycles
    m.locked_until = controller._locked_until
    m.close_after = controller._close_after
    m.constant_time = controller._constant_time
    m.mapping = _MAPPINGS[type(mapper)]
    m.row_bytes, m.num_banks = mapper._row_bytes, mapper._num_banks
    m.dram_line_bytes = mapper.geometry.line_bytes
    m.lines_per_row = mapper.geometry.lines_per_row
    m.hit_cycles, m.empty_cycles = bank0._hit_cycles, bank0._empty_cycles
    m.conflict_cycles, m.rp_cycles = (bank0._conflict_cycles,
                                      bank0._rp_cycles)
    m.timeout_cycles = bank0._timeout_cycles
    bank_rows = array("q")
    for bank in banks:
        s = bank.stats
        bank_rows.extend((-1 if bank.open_row is None else bank.open_row,
                          bank.busy_until, bank.last_activation,
                          bank.row_opened_at, s.hits, s.empties,
                          s.conflicts, s.activations, s.rowclones))
    m.banks = _addr(bank_rows)
    creq_names = [name for core_name in core_names
                  for name in (core_name, f"{core_name}-pf")]
    creq = _stats_rows(controller.requestor_stats, creq_names, _CREQ)
    m.creq = _addr(creq)

    # Nonzero: the kernel declined (a stream value out of range) or ran
    # out of memory, in both cases before changing anything.
    if fn(ctypes.byref(m)) != 0:
        return None

    # Copy back: the System now holds what the Python loop would leave.
    for state in caches:
        state.restore()
    for field_name, value in zip(_HSTATS, m.hstats):
        setattr(hstats, field_name, value)
    _stats_out(hstats.by_requestor, core_names, _HREQ, hreq,
               RequestorCacheStats)
    for table, struct, width, rows in tables:
        _table_out(table, struct, rows, width)
    inflight.clear()
    inflight.update(zip(inflight_keys[:m.inflight_n].tolist(),
                        inflight_vals[:m.inflight_n].tolist()))
    for i, bank in enumerate(banks):
        row = bank_rows[i * _BANK_WIDTH:(i + 1) * _BANK_WIDTH]
        bank.open_row = None if row[0] < 0 else row[0]
        bank.busy_until, bank.last_activation, bank.row_opened_at = row[1:4]
        s = bank.stats
        (s.hits, s.empties, s.conflicts, s.activations,
         s.rowclones) = row[4:]
    _stats_out(controller.requestor_stats, creq_names, _CREQ, creq,
               RequestorStats)
    return RunResult(cycles=m.cycles, instructions=m.instructions,
                     refs=m.refs, llc_misses=m.llc_misses)
