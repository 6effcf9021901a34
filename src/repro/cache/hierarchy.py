"""Three-level cache hierarchy in front of the memory controller.

Implements the processor-side path of Table 2: per-core L1D and L2, a
shared inclusive LLC, prefetchers, and the cache-management operations the
attacks of §3.2/§5.1 rely on:

- demand loads/stores (the deep-lookup path that throttles DRAMA-style
  attacks),
- ``clflush`` (probes the LLC, write-back on the critical path),
- non-temporal accesses (bypass is *not* guaranteed — configurable
  probability, matching Table 1's "ISA guarantees: X"),
- inclusive back-invalidation (an LLC eviction removes the line from every
  upper level — this is what makes eviction sets work at all).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.cache import Cache, CacheConfig, EvictedLine
from repro.cache.cacti import llc_latency_cycles
from repro.cache.prefetcher import IPStridePrefetcher, StreamerPrefetcher
from repro.dram.controller import MemoryController, MemoryResult
from repro.obs import current_observer

@dataclass(frozen=True)
class HierarchyConfig:
    """Cache hierarchy parameters (defaults follow Table 2).

    The LLC lookup latency defaults to the CACTI model's value for
    (``llc_size_mb``, ``llc_ways``) so the Fig. 2/3 sweeps only need to vary
    the size/ways fields.
    """

    num_cores: int = 4
    line_bytes: int = 64
    l1_size_kb: int = 32
    l1_ways: int = 8
    l1_latency: int = 4
    l1_replacement: str = "lru"
    l2_size_kb: int = 1024
    l2_ways: int = 16
    l2_latency: int = 12
    l2_replacement: str = "srrip"
    llc_size_mb: float = 8.0  # Table 2: 2 MB/core x 4 cores
    llc_ways: int = 16
    llc_latency: Optional[int] = None  # None -> CACTI model
    llc_replacement: str = "srrip"
    prefetchers_enabled: bool = True
    nt_bypass_probability: float = 0.7
    nt_seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if not 0.0 <= self.nt_bypass_probability <= 1.0:
            raise ValueError("nt_bypass_probability must be within [0, 1]")

    @property
    def llc_latency_cycles(self) -> int:
        if self.llc_latency is not None:
            return self.llc_latency
        return llc_latency_cycles(self.llc_size_mb, self.llc_ways)


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of one access through the hierarchy.

    ``hit_level`` is 1/2/3 for a cache hit, 0 for a main-memory access.
    ``mem`` carries the DRAM result when the access reached memory.
    (A slotted, non-frozen dataclass: one of these is allocated per access,
    so construction cost sits on the simulator's critical path.)
    """

    latency: int
    issued: int
    hit_level: int
    mem: Optional[MemoryResult] = None
    writebacks: int = 0
    bypassed: bool = False

    @property
    def finish(self) -> int:
        return self.issued + self.latency


@dataclass(slots=True)
class RequestorCacheStats:
    """Per-requestor cache-event counters (what a hardware performance
    monitoring unit exposes — the §3 detection mechanisms' only input)."""

    accesses: int = 0
    llc_misses: int = 0
    clflushes: int = 0
    nt_accesses: int = 0
    first_seen_cycle: int = 0
    last_seen_cycle: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.llc_misses / self.accesses if self.accesses else 0.0

    @property
    def window_cycles(self) -> int:
        return max(1, self.last_seen_cycle - self.first_seen_cycle)


@dataclass
class HierarchyStats:
    demand_accesses: int = 0
    prefetches_issued: int = 0
    clflushes: int = 0
    nt_accesses: int = 0
    nt_bypasses: int = 0
    memory_writebacks: int = 0
    late_prefetch_stalls: int = 0
    by_requestor: dict = field(default_factory=dict)

    def requestor(self, name: str) -> RequestorCacheStats:
        stats = self.by_requestor.get(name)
        if stats is None:
            stats = RequestorCacheStats()
            self.by_requestor[name] = stats
        return stats

    def observe(self, requestor: str, time: int, *, miss: bool = False,
                clflush: bool = False, nt: bool = False) -> None:
        stats = self.by_requestor.get(requestor)
        if stats is None:
            stats = RequestorCacheStats()
            self.by_requestor[requestor] = stats
        if stats.accesses == 0 and stats.clflushes == 0:
            stats.first_seen_cycle = time
        if time > stats.last_seen_cycle:
            stats.last_seen_cycle = time
        if clflush:
            stats.clflushes += 1
        else:
            stats.accesses += 1
            if miss:
                stats.llc_misses += 1
            if nt:
                stats.nt_accesses += 1


class CacheHierarchy:
    """Per-core L1/L2 plus a shared inclusive LLC over a memory controller."""

    def __init__(self, config: HierarchyConfig,
                 controller: MemoryController) -> None:
        self.config = config
        self.controller = controller
        line = config.line_bytes
        self.l1: List[Cache] = [
            Cache(CacheConfig(name=f"L1-{core}", size_bytes=config.l1_size_kb * 1024,
                              ways=config.l1_ways, latency_cycles=config.l1_latency,
                              line_bytes=line, replacement=config.l1_replacement))
            for core in range(config.num_cores)
        ]
        self.l2: List[Cache] = [
            Cache(CacheConfig(name=f"L2-{core}", size_bytes=config.l2_size_kb * 1024,
                              ways=config.l2_ways, latency_cycles=config.l2_latency,
                              line_bytes=line, replacement=config.l2_replacement))
            for core in range(config.num_cores)
        ]
        self.llc = Cache(CacheConfig(
            name="LLC", size_bytes=int(config.llc_size_mb * 1024 * 1024),
            ways=config.llc_ways, latency_cycles=config.llc_latency_cycles,
            line_bytes=line, replacement=config.llc_replacement))
        if config.prefetchers_enabled:
            self._l1_prefetchers = [IPStridePrefetcher(line_bytes=line)
                                    for _ in range(config.num_cores)]
            self._l2_prefetchers = [StreamerPrefetcher(line_bytes=line)
                                    for _ in range(config.num_cores)]
        else:
            self._l1_prefetchers = []
            self._l2_prefetchers = []
        # Hot-path call tables: bound observe methods per core, and bound
        # invalidate methods over every upper-level cache (the inclusive
        # back-invalidation loop touches all of them per LLC eviction).
        self._pf_observe = [
            (l1pf.observe, l2pf.observe)
            for l1pf, l2pf in zip(self._l1_prefetchers, self._l2_prefetchers)
        ]
        self._upper_invalidates = [
            cache.invalidate for caches in (self.l1, self.l2)
            for cache in caches
        ]
        self._nt_rng = random.Random(config.nt_seed)
        # Prefetch requestor labels ("cpu" -> "cpu-pf"), cached so the
        # prefetch loop does not rebuild the f-string on every candidate.
        self._pf_names: Dict[str, str] = {}
        # Lines being filled by in-flight prefetches: line addr -> DRAM
        # completion time.  A demand access that hits such a line before
        # the fill lands stalls for the remainder (a "late prefetch") —
        # this is how row-policy latency reaches prefetch-covered streams.
        # Insertion-ordered dict; trimmed FIFO via next(iter(...)).
        self._inflight_fills: Dict[int, int] = {}
        # Per-access constants hoisted off the critical path.
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._llc_latency = self.llc.config.latency_cycles
        self._line_bytes = config.line_bytes
        self._capacity = controller.config.geometry.capacity_bytes
        self.stats = HierarchyStats()
        # Observability (repro.obs): None = off, one branch per hook site.
        self._obs = current_observer()

    def set_observer(self, observer) -> None:
        """Attach a :class:`repro.obs.Observer`; ``None`` detaches."""
        self._obs = observer

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(self, core: int, addr: int, issued: int, *,
               is_write: bool = False, pc: Optional[int] = None,
               requestor: str = "cpu") -> HierarchyResult:
        """A demand load/store by ``core`` at physical address ``addr``."""
        self.stats.demand_accesses += 1
        l1, l2 = self.l1[core], self.l2[core]
        stall = (self._late_prefetch_stall(addr, issued)
                 if self._inflight_fills else 0)
        latency = stall + self._l1_latency
        writebacks = 0
        if l1.access(addr, is_write=is_write):
            result = HierarchyResult(latency=latency, issued=issued, hit_level=1)
        else:
            latency += self._l2_latency
            if l2.access(addr):
                writebacks += self._fill_l1(core, addr, is_write)
                result = HierarchyResult(latency=latency, issued=issued,
                                         hit_level=2, writebacks=writebacks)
            else:
                latency += self._llc_latency
                if self.llc.access(addr):
                    writebacks += self._fill_upper(core, addr, is_write)
                    result = HierarchyResult(latency=latency, issued=issued,
                                             hit_level=3, writebacks=writebacks)
                else:
                    mem = self.controller.access(addr, issued + latency,
                                                 requestor=requestor,
                                                 is_write=is_write)
                    latency += mem.latency
                    writebacks += self._fill_all(core, addr, is_write,
                                                 time=issued + latency,
                                                 requestor=requestor)
                    result = HierarchyResult(latency=latency, issued=issued,
                                             hit_level=0, mem=mem,
                                             writebacks=writebacks)
                    if self._obs is not None:
                        self._obs.on_cache_miss(core, addr, issued,
                                                issued + latency, requestor)
        self.stats.observe(requestor, issued, miss=result.hit_level == 0)
        self._run_prefetchers(core, addr, pc, issued + result.latency, requestor)
        return result

    def access_batch(self, core: int, addrs, issued: int, *,
                     is_write: bool = False, pc: Optional[int] = None,
                     requestor: str = "cpu") -> int:
        """Sequential demand accesses, each issued at the previous finish.

        Equivalent to chaining :meth:`access` calls through
        ``result.finish`` (the equivalence is covered by tests), with the
        per-access attribute lookups and :class:`HierarchyResult`
        construction hoisted out of the loop.  Returns the finish time of
        the last access.

        Only safe when no other thread touches the memory system between
        the batched accesses — batching removes the scheduler checkpoints
        a hand-written probe loop would yield at, so any cross-thread
        interleaving inside the batch would be lost (see EXPERIMENTS.md).
        """
        stats = self.stats
        observe = stats.observe
        l1_access = self.l1[core].access
        l2_access = self.l2[core].access
        llc_access = self.llc.access
        controller_access = self.controller.access
        run_prefetchers = self._run_prefetchers
        late_stall = self._late_prefetch_stall
        fill_l1 = self._fill_l1
        fill_upper = self._fill_upper
        fill_all = self._fill_all
        inflight = self._inflight_fills
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        llc_latency = self._llc_latency
        now = issued
        for addr in addrs:
            stats.demand_accesses += 1
            latency = ((late_stall(addr, now) if inflight else 0)
                       + l1_latency)
            miss = False
            if l1_access(addr, is_write=is_write):
                pass
            else:
                latency += l2_latency
                if l2_access(addr):
                    fill_l1(core, addr, is_write)
                else:
                    latency += llc_latency
                    if llc_access(addr):
                        fill_upper(core, addr, is_write)
                    else:
                        mem = controller_access(addr, now + latency,
                                                requestor=requestor,
                                                is_write=is_write)
                        finish = mem.finish
                        latency = finish - now
                        fill_all(core, addr, is_write, time=finish,
                                 requestor=requestor)
                        miss = True
                        if self._obs is not None:
                            self._obs.on_cache_miss(core, addr, now, finish,
                                                    requestor)
            observe(requestor, now, miss=miss)
            finish = now + latency
            run_prefetchers(core, addr, pc, finish, requestor)
            now = finish
        return now

    def _fill_l1(self, core: int, addr: int, is_write: bool) -> int:
        evicted = self.l1[core].fill(addr, dirty=is_write)
        if evicted is not None and evicted.dirty:
            self.l2[core].fill(evicted.addr, dirty=True)
            return 1
        return 0

    def _fill_upper(self, core: int, addr: int, is_write: bool) -> int:
        writebacks = 0
        evicted = self.l2[core].fill(addr)
        if evicted is not None and evicted.dirty:
            self.llc.fill(evicted.addr, dirty=True)
            writebacks += 1
        writebacks += self._fill_l1(core, addr, is_write)
        return writebacks

    def _fill_all(self, core: int, addr: int, is_write: bool, *, time: int,
                  requestor: str) -> int:
        # _fill_upper/_fill_l1 inlined: this runs on every memory access
        # (the simulator's hottest fill sequence, three levels deep).
        writebacks = 0
        llc_fill = self.llc.fill
        evicted = llc_fill(addr)
        if evicted is not None:
            writebacks += self._handle_llc_eviction(evicted, time, requestor)
        l2_fill = self.l2[core].fill
        evicted = l2_fill(addr)
        if evicted is not None and evicted.dirty:
            llc_fill(evicted.addr, dirty=True)
            writebacks += 1
        evicted = self.l1[core].fill(addr, dirty=is_write)
        if evicted is not None and evicted.dirty:
            l2_fill(evicted.addr, dirty=True)
            writebacks += 1
        return writebacks

    def _handle_llc_eviction(self, evicted: EvictedLine, time: int,
                             requestor: str) -> int:
        """Inclusive LLC: back-invalidate every upper level; write back
        dirty data to DRAM off the critical path."""
        dirty = evicted.dirty
        addr = evicted.addr
        for invalidate in self._upper_invalidates:
            if invalidate(addr):
                dirty = True
        if dirty:
            # Finish-only path: write-backs are fire-and-forget, nobody
            # consumes the MemoryResult.
            self.controller.access_finish(evicted.addr, time,
                                          requestor=requestor, is_write=True)
            self.stats.memory_writebacks += 1
            if self._obs is not None:
                self._obs.on_cache_writeback(addr, time, requestor)
            return 1
        return 0

    def _late_prefetch_stall(self, addr: int, issued: int) -> int:
        """Cycles a demand access waits for an in-flight prefetch fill."""
        line = addr - addr % self._line_bytes
        completion = self._inflight_fills.pop(line, None)
        if completion is None:
            return 0
        self.stats.late_prefetch_stalls += 1
        return max(0, completion - issued)

    # ------------------------------------------------------------------
    # Prefetchers (noise sources)
    # ------------------------------------------------------------------

    def _run_prefetchers(self, core: int, addr: int, pc: Optional[int],
                         time: int, requestor: str) -> None:
        if not self._pf_observe:
            return
        l1_observe, l2_observe = self._pf_observe[core]
        candidates = l1_observe(pc, addr)
        l2_candidates = l2_observe(pc, addr)
        if l2_candidates:
            candidates = candidates + l2_candidates
        if not candidates:
            return
        capacity = self._capacity
        pf_name = self._pf_names.get(requestor)
        if pf_name is None:
            pf_name = f"{requestor}-pf"
            self._pf_names[requestor] = pf_name
        line_bytes = self._line_bytes
        llc_probe = self.llc.probe
        llc_fill = self.llc.fill
        l2_fill = self.l2[core].fill
        access_finish = self.controller.access_finish
        inflight = self._inflight_fills
        stats = self.stats
        for prefetch_addr in candidates:
            if not 0 <= prefetch_addr < capacity:
                continue
            line_addr = prefetch_addr - prefetch_addr % line_bytes
            if llc_probe(line_addr):
                continue
            # Prefetches run off the demand critical path but do touch DRAM
            # (and thus perturb row buffers — the noise the attacks battle).
            inflight[line_addr] = access_finish(line_addr, time,
                                                requestor=pf_name)
            while len(inflight) > 512:
                del inflight[next(iter(inflight))]
            evicted = llc_fill(line_addr)
            if evicted is not None:
                self._handle_llc_eviction(evicted, time, requestor)
            l2_fill(line_addr)
            stats.prefetches_issued += 1

    # ------------------------------------------------------------------
    # Cache management operations (attack primitives)
    # ------------------------------------------------------------------

    def clflush(self, core: int, addr: int, issued: int, *,
                requestor: str = "cpu") -> HierarchyResult:
        """Flush ``addr``'s line from the whole hierarchy.

        Latency model per §5.1's DRAMA-clflush: the flush probes the LLC;
        if any copy is dirty the write-back to DRAM lands on the critical
        path (§3.2: that write-back latency is clflush's key cost)."""
        self.stats.clflushes += 1
        self.stats.observe(requestor, issued, clflush=True)
        latency = self.llc.latency_cycles
        dirty = False
        for cache in (self.l1[core], self.l2[core], self.llc):
            line_dirty = cache.invalidate(addr)
            if line_dirty:
                dirty = True
        # Copies in other cores' private caches must go too (coherence).
        for other in range(self.config.num_cores):
            if other == core:
                continue
            for cache in (self.l1[other], self.l2[other]):
                if cache.invalidate(addr):
                    dirty = True
        mem: Optional[MemoryResult] = None
        writebacks = 0
        if dirty:
            mem = self.controller.access(addr, issued + latency,
                                         requestor=requestor, is_write=True)
            latency += mem.latency
            writebacks = 1
            self.stats.memory_writebacks += 1
        if self._obs is not None:
            self._obs.on_clflush(core, addr, issued, issued + latency,
                                 requestor, dirty)
        return HierarchyResult(latency=latency, issued=issued, hit_level=3,
                               mem=mem, writebacks=writebacks)

    def nt_access(self, core: int, addr: int, issued: int, *,
                  is_write: bool = False, requestor: str = "cpu") -> HierarchyResult:
        """Non-temporal access: bypasses the caches only probabilistically.

        The ISA does not guarantee NT hints bypass the hierarchy (§3.2);
        whether a given access bypasses is decided by a seeded RNG with
        probability ``nt_bypass_probability``."""
        self.stats.nt_accesses += 1
        if self._nt_rng.random() < self.config.nt_bypass_probability:
            self.stats.nt_bypasses += 1
            self.stats.observe(requestor, issued, miss=True, nt=True)
            mem = self.controller.access(addr, issued, requestor=requestor,
                                         is_write=is_write)
            return HierarchyResult(latency=mem.latency, issued=issued,
                                   hit_level=0, mem=mem, bypassed=True)
        return self.access(core, addr, issued, is_write=is_write,
                           requestor=requestor)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_cached(self, addr: int) -> bool:
        """Is ``addr``'s line resident anywhere on-chip?  Side-effect-free.

        The LLC is inclusive of every L1/L2, so one LLC probe answers for
        the whole hierarchy.  This is the ground truth an off-chip
        predictor trains against (Hermes [116]): data residency, not the
        path an operation happened to take.
        """
        return self.llc.probe(addr)

    def llc_set_stride(self) -> int:
        """Byte stride between addresses that map to the same LLC set."""
        return self.llc.config.num_sets * self.config.line_bytes

    def build_eviction_set(self, addr: int, size: Optional[int] = None) -> List[int]:
        """Construct an eviction set for ``addr``: ``size`` distinct lines
        mapping to the same LLC set (§3.2; default one per LLC way).

        Effectiveness is NOT guaranteed by construction — under SRRIP the
        target line may survive ``ways`` conflicting fills (Table 1's
        "ISA guarantees: X" for eviction sets)."""
        if size is None:
            size = self.config.llc_ways
        stride = self.llc_set_stride()
        base = self.llc.line_addr(addr)
        capacity = self.controller.config.geometry.capacity_bytes
        result: List[int] = []
        k = 1
        while len(result) < size:
            candidate = (base + k * stride) % capacity
            k += 1
            if candidate != base and candidate not in result:
                result.append(candidate)
        return result

    def snapshot_state(self) -> dict:
        """Copied state of every cache level, prefetcher table, in-flight
        fill, RNG, and counter (for warm-state snapshots)."""
        stats = self.stats
        return {
            "l1": [cache.snapshot_state() for cache in self.l1],
            "l2": [cache.snapshot_state() for cache in self.l2],
            "llc": self.llc.snapshot_state(),
            "l1_pf": [pf.snapshot_state() for pf in self._l1_prefetchers],
            "l2_pf": [pf.snapshot_state() for pf in self._l2_prefetchers],
            "nt_rng": self._nt_rng.getstate(),
            "inflight_fills": dict(self._inflight_fills),
            "stats": (stats.demand_accesses, stats.prefetches_issued,
                      stats.clflushes, stats.nt_accesses, stats.nt_bypasses,
                      stats.memory_writebacks, stats.late_prefetch_stalls),
            "by_requestor": {
                name: (s.accesses, s.llc_misses, s.clflushes, s.nt_accesses,
                       s.first_seen_cycle, s.last_seen_cycle)
                for name, s in stats.by_requestor.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        for cache, cache_state in zip(self.l1, state["l1"]):
            cache.restore_state(cache_state)
        for cache, cache_state in zip(self.l2, state["l2"]):
            cache.restore_state(cache_state)
        self.llc.restore_state(state["llc"])
        for pf, pf_state in zip(self._l1_prefetchers, state["l1_pf"]):
            pf.restore_state(pf_state)
        for pf, pf_state in zip(self._l2_prefetchers, state["l2_pf"]):
            pf.restore_state(pf_state)
        self._nt_rng.setstate(state["nt_rng"])
        self._inflight_fills.clear()
        self._inflight_fills.update(state["inflight_fills"])
        stats = HierarchyStats(*state["stats"])
        stats.by_requestor = {
            name: RequestorCacheStats(*vals)
            for name, vals in state["by_requestor"].items()
        }
        self.stats = stats

    def reset_stats(self) -> None:
        """Zero every counter — hierarchy-level, per-requestor, and each
        cache level's — while keeping cache contents.  Used between a
        warm-up replay and the measured replay (§5.1 methodology)."""
        self.stats = HierarchyStats()
        for cache in (*self.l1, *self.l2, self.llc):
            cache.reset_stats()

    def rebase_time(self) -> None:
        """Forget time-stamped transient state (in-flight prefetch fills)
        so a measured replay can restart the clock at zero after a warm-up
        pass; cache contents are kept."""
        self._inflight_fills.clear()

    def flush_all(self) -> None:
        """Drop all cached state (testing aid; not an ISA operation)."""
        config = self.config
        controller = self.controller
        obs = self._obs
        self.__init__(config, controller)
        self._obs = obs
