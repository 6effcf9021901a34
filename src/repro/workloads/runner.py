"""Two-core multiprogrammed workload runner and defense evaluation (Fig. 11).

The Fig. 11 setup (§6): a 2-core system where each core runs a different
instance of the *same* application on the *same* input (so they share
DRAM banks), evaluated under the open-row baseline, the closed-row policy
(CRP) and constant-time DRAM access (CTD).  The runner models simple
in-order cores: each memory reference stalls the issuing core for its
full hierarchy latency, with the kernel's compute cycles in between.

The replay loop runs in a compiled C kernel (:mod:`repro.workloads.native`)
whenever that kernel models the run; :func:`_replay_python` is the
reference it reproduces bit for bit, and runs otherwise (an attached
observer, ``random`` replacement, refresh, bank partitioning, or no C
compiler).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.sim.snapshot import SystemSnapshot
from repro.system import System
from repro.workloads.kernels import RefStream, workload_spec


@dataclass
class RunResult:
    """Timing and cache statistics of one multiprogrammed run."""

    cycles: int
    instructions: int
    refs: int
    llc_misses: int

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction (Fig. 11's characterization)."""
        if self.instructions == 0:
            return 0.0
        return self.llc_misses * 1000.0 / self.instructions

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _warm(system: System, streams: Sequence[RefStream]) -> None:
    """One warm-up replay, then rebase the clock and zero the counters so
    the measured replay starts from cycle 0 on a warm machine (§5.1)."""
    _replay(system, streams)
    system.controller.rebase_time()
    system.hierarchy.rebase_time()
    system.reset_stats()


class WarmupCache:
    """Reuses warm machine state across runs sharing a configuration.

    The warm-up replay dominates a multiprogrammed run's cost, and its end
    state depends only on (system configuration, reference streams).  The
    cache runs that replay once per distinct key, snapshots the warm
    machine (:meth:`repro.system.System.snapshot`), and restores the
    snapshot into every later system with an equal configuration.

    The default key is the streams' object identities, so it only matches
    when the caller replays the *same* stream objects; pass an explicit
    ``key`` (e.g. ``(workload_name, max_refs)``) to share warm state
    across runs that rebuild equal streams from scratch.  The system's
    ``SystemConfig`` is always part of the key — warm state captured under
    one row policy or geometry never leaks into another.

    Explicitly-keyed entries additionally persist through the process-wide
    :mod:`repro.exp.warmstore` (when one is active): the post-warm-up
    snapshot is written to disk under recipe ``("warmup", key)`` and later
    runs — including runs in other processes — restore it instead of
    replaying the warm-up.  Identity-keyed entries stay memory-only (an
    ``id()`` is meaningless across processes).  ``REPRO_NO_WARMSTORE=1``
    disables the disk layer.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[Tuple[SystemConfig, Hashable],
                              SystemSnapshot] = {}

    def __len__(self) -> int:
        return len(self._snapshots)

    def warm(self, system: System, streams: Sequence[RefStream],
             *, key: Optional[Hashable] = None) -> bool:
        """Bring ``system`` to its post-warm-up state; True on a cache hit
        (state restored from a snapshot instead of replayed)."""
        from repro.exp import warmstore

        stream_key = key if key is not None else tuple(id(s) for s in streams)
        cache_key = (system.config, stream_key)
        snap = self._snapshots.get(cache_key)
        if snap is not None:
            system.restore(snap)
            if warmstore.enabled():
                warmstore.record_event("hits")
            return True
        store = recipe = None
        if key is not None and warmstore.enabled():
            store = warmstore.current()
        if store is not None:
            recipe = ("warmup", key)
            snap = store.load_snapshot(system.config, recipe)
            if snap is not None:
                system.restore(snap)
                self._snapshots[cache_key] = snap
                return True
        _warm(system, streams)
        snap = system.snapshot()
        self._snapshots[cache_key] = snap
        if store is not None:
            store.store_snapshot(snap, recipe)
        elif warmstore.enabled():
            warmstore.record_event("misses")
        return False


def run_multiprogrammed(system: System,
                        streams: Sequence[RefStream],
                        warmup: bool = True,
                        warm_cache: Optional[WarmupCache] = None,
                        warm_key: Optional[Hashable] = None) -> RunResult:
    """Replay one reference stream per core; returns combined stats.

    Cores advance independently (event-driven, lowest-time-first), so
    their DRAM requests interleave in the shared banks — the interference
    that makes the open-row policy's behaviour policy-dependent.

    With ``warmup`` (the default, matching §5.1's warm-up methodology)
    the streams are replayed once beforehand to populate caches and TLBs;
    only the second, warm replay is measured.  Passing a
    :class:`WarmupCache` replaces repeated warm-up replays with
    snapshot restores for runs sharing a (config, ``warm_key``) pair.
    """
    if warmup:
        if warm_cache is not None:
            warm_cache.warm(system, streams, key=warm_key)
        else:
            _warm(system, streams)
    return _replay(system, streams)


def _replay(system: System,
            streams: Sequence[RefStream]) -> RunResult:
    """Replay ``streams`` in the compiled kernel
    (:mod:`repro.workloads.native`), or in :func:`_replay_python` when
    the kernel declines the run."""
    from repro.workloads import native

    result = native.replay(system, streams)
    if result is None:
        result = _replay_python(system, streams)
    return result


def _replay_python(system: System,
                   streams: Sequence[RefStream]) -> RunResult:
    """The reference replay loop; the kernel reproduces it bit for bit."""
    if len(streams) > system.config.hierarchy.num_cores:
        raise ValueError("more streams than cores")
    cursors = [0] * len(streams)
    times = [0] * len(streams)
    instructions = 0
    refs = 0
    llc_misses = 0
    access = system.hierarchy.access
    requestors = [f"core{core}" for core in range(len(streams))]
    active = [core for core, stream in enumerate(streams) if stream]
    key = times.__getitem__
    while len(active) > 1:
        core = min(active, key=key)
        stream = streams[core]
        i = cursors[core]
        result = access(core, stream.addr[i], times[core] + stream.compute,
                        is_write=bool(stream.is_write[i]), pc=stream.pc[i],
                        requestor=requestors[core])
        times[core] = result.finish
        instructions += 1 + stream.compute  # 1-IPC compute model
        refs += 1
        if result.hit_level == 0:
            llc_misses += 1
        cursors[core] += 1
        if cursors[core] >= len(stream):
            active.remove(core)
    if active:
        # One runnable core left: no interleaving decisions remain, so
        # drain its tail in a tight loop (single-stream runs take this
        # path for the whole replay).
        core = active[0]
        stream = streams[core]
        requestor = requestors[core]
        compute = stream.compute
        now = times[core]
        for i in range(cursors[core], len(stream)):
            result = access(core, stream.addr[i], now + compute,
                            is_write=bool(stream.is_write[i]),
                            pc=stream.pc[i], requestor=requestor)
            now = result.finish
            instructions += 1 + compute
            refs += 1
            if result.hit_level == 0:
                llc_misses += 1
        times[core] = now
    return RunResult(cycles=max(times) if times else 0,
                     instructions=instructions, refs=refs,
                     llc_misses=llc_misses)


@dataclass
class DefenseEvaluation:
    """Fig. 11 data for one workload: cycles per policy + overheads."""

    workload: str
    results: Dict[str, RunResult]
    paper_mpki: float = 0.0

    def overhead(self, defense: str) -> float:
        """Slowdown of ``defense`` relative to the open-row baseline."""
        base = self.results["open"].cycles
        if base == 0:
            return 0.0
        return self.results[defense].cycles / base - 1.0

    @property
    def measured_mpki(self) -> float:
        return self.results["open"].mpki

    def row(self) -> Dict[str, float]:
        return {
            "workload": self.workload,
            "mpki": round(self.measured_mpki, 2),
            "crp_overhead": round(self.overhead("crp"), 4),
            "ctd_overhead": round(self.overhead("ctd"), 4),
        }


def fig11_config() -> SystemConfig:
    """The scaled Fig. 11 system: a 2-core slice of Table 2.

    The cache hierarchy shrinks with the scaled-down graph inputs so the
    working-set-to-LLC ratios match the paper's multi-GB-inputs-vs-8MB-LLC
    regime (see :mod:`repro.workloads.kernels`)."""
    from dataclasses import replace

    from repro.cache import HierarchyConfig

    base = SystemConfig.paper_default()
    hierarchy = HierarchyConfig(num_cores=2, l2_size_kb=256,
                                llc_size_mb=1.0, llc_latency=32)
    return replace(base, num_cores=2, hierarchy=hierarchy)


def evaluate_defenses(name: str, base_config: Optional[SystemConfig] = None,
                      max_refs: int = 60_000,
                      policies: Sequence[str] = ("open", "crp", "ctd"),
                      warm_cache: Optional[WarmupCache] = None,
                      stream: Optional[RefStream] = None,
                      ) -> DefenseEvaluation:
    """Run one Fig. 11 workload under each row policy.

    Two instances of the same kernel on the same input share the memory
    system; ``max_refs`` bounds each instance's replayed stream so the
    sweep completes at simulation scale.  A shared :class:`WarmupCache`
    makes repeated evaluations of the same workload pay one warm-up per
    (policy, workload) instead of one per call.  ``stream`` lets callers
    supply the workload's prebuilt reference stream (e.g. restored from
    the warm store); it must equal ``spec.refs(...)`` for (``name``,
    ``max_refs``) or results will not match the from-scratch run.
    """
    spec = workload_spec(name)
    if stream is None:
        graph = spec.build_graph()
        stream = spec.refs(graph=graph, max_refs=max_refs)
    base = base_config or fig11_config()
    results: Dict[str, RunResult] = {}
    for policy in policies:
        system = System(base.with_defense(policy))
        results[policy] = run_multiprogrammed(
            system, [stream, stream], warm_cache=warm_cache,
            warm_key=(spec.name, max_refs))
    return DefenseEvaluation(workload=spec.name, results=results,
                             paper_mpki=spec.paper_mpki)
