"""Canonical sweep-point functions for the paper's figures and the CLI.

Every function here is module-level (picklable across process boundaries),
takes only JSON-able parameters, and returns a JSON-able dict — the
contract :mod:`repro.exp.runner` and :mod:`repro.exp.cache` build on.
The figure benchmarks and the CLI both express their sweeps through these
functions, so the parallel runner and result cache speed up every
consumer at once.

Results are bit-identical to the historical in-bench implementations:
each point builds its own :class:`repro.system.System` from a config and
all randomness is seeded per-config or per-call.

Warm-state reuse: the fig8/fig10/fig11 points route their deterministic,
expensive-to-rebuild pieces through :mod:`repro.exp.warmstore` — pristine
systems (fig8), the victim probe schedule (fig10), reference streams and
post-warm-up snapshots (fig11).
Reuse is pure: a point served from warm state is bit-identical to one
built from scratch (``REPRO_NO_WARMSTORE=1`` forces the scratch path; the
equivalence tests diff both).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Any, Dict, List, Optional

from repro.config import SystemConfig
from repro.exp import warmstore
from repro.exp.warmstore import pristine_system
from repro.system import System

# ---------------------------------------------------------------------------
# Figs. 2 and 3 — §3.3 direct-vs-baseline attacks across LLC geometry
# ---------------------------------------------------------------------------


def _sec33_system(llc_mb: float, ways: int) -> System:
    """LRU LLC, prefetchers off: the paper's idealized one-request-per-way
    eviction setting (§3.3)."""
    base = SystemConfig.paper_default()
    hierarchy = replace(base.hierarchy, llc_size_mb=float(llc_mb),
                        llc_ways=ways, llc_replacement="lru",
                        prefetchers_enabled=False)
    return System(replace(base, hierarchy=hierarchy))


def sec33_point(llc_mb: float, ways: int = 16, bits: int = 384) -> Dict[str, float]:
    """One Fig. 2/3 point: direct + baseline throughput, eviction latency."""
    from repro.attacks import run_sec33_point

    return run_sec33_point(_sec33_system(llc_mb, ways), bits=bits)


# ---------------------------------------------------------------------------
# Fig. 8 — covert-channel throughput across LLC sizes, all seven attacks
# ---------------------------------------------------------------------------


def fig8_point(llc_mb: float) -> Dict[str, float]:
    """All-attack throughputs (Mb/s) at one LLC size (§5.3)."""
    from repro.attacks import (
        DmaEngineChannel,
        DramaClflushChannel,
        DramaEvictionChannel,
        ImpactPnmChannel,
        ImpactPumChannel,
        PnmOffchipChannel,
        StreamlineChannel,
        streamline_upper_bound_mbps,
    )

    base = SystemConfig.paper_default().with_llc(float(llc_mb))
    xor_base = replace(base, mapping="xor")
    # pristine_system() reuses one pooled machine per config (restored to
    # construction-time state between channels); channels run strictly one
    # after another, so the aliasing is safe, and the pool self-bypasses
    # under observers/sanitizer/metrics.
    point: Dict[str, float] = {}
    point["DRAMA-eviction"] = DramaEvictionChannel(pristine_system(xor_base)) \
        .transmit_random(64, seed=1).throughput_mbps
    point["DRAMA-clflush"] = DramaClflushChannel(pristine_system(base)) \
        .transmit_random(192, seed=1).throughput_mbps
    streamline = StreamlineChannel(pristine_system(base))
    point["Streamline"] = streamline.transmit_random(
        192, seed=1).throughput_mbps
    # The bound reads only the config and clock, so the leased machine
    # serves as is: no second pristine restore.
    point["Streamline-bound"] = streamline_upper_bound_mbps(streamline.system)
    point["DMA-engine"] = DmaEngineChannel(pristine_system(base)) \
        .transmit_random(384, seed=1).throughput_mbps
    point["PnM-OffChip"] = PnmOffchipChannel(pristine_system(base)) \
        .transmit_random(512, seed=1).throughput_mbps
    point["IMPACT-PnM"] = ImpactPnmChannel(pristine_system(base)) \
        .transmit_random(512, seed=1).throughput_mbps
    point["IMPACT-PuM"] = ImpactPumChannel(pristine_system(base)) \
        .transmit_random(512, seed=1).throughput_mbps
    return point


#: Per-attack message lengths of the canonical Fig. 8 point; quality
#: points scale these down proportionally for quick report runs.
_FIG8_BITS = {
    "drama-eviction": 64,
    "drama-clflush": 192,
    "streamline": 192,
    "dma": 384,
    "pnm-offchip": 512,
    "impact-pnm": 512,
    "impact-pum": 512,
}

_FIG8_NAMES = {
    "drama-eviction": "DRAMA-eviction",
    "drama-clflush": "DRAMA-clflush",
    "streamline": "Streamline",
    "dma": "DMA-engine",
    "pnm-offchip": "PnM-OffChip",
    "impact-pnm": "IMPACT-PnM",
    "impact-pum": "IMPACT-PuM",
}


def fig8_quality_point(llc_mb: float, bits: int = 128,
                       attacks: Optional[List[str]] = None,
                       seed: int = 1) -> Dict[str, Any]:
    """One Fig. 8 point with full channel-quality analytics per attack.

    Runs the same seven channels as :func:`fig8_point` (or the subset
    named in ``attacks``, CLI keys like ``"impact-pnm"``), with message
    lengths scaled so ``bits`` plays the role the canonical point's 512
    does, and returns per-attack throughput *plus* BER with Wilson CI,
    mutual-information capacity, TVLA leakage t-score, and eye-diagram
    summaries — the payload ``repro report`` renders.

    ``seed`` varies the transmitted random message — the repetition axis
    adaptive sweeps resample to tighten the BER confidence interval
    (``seed=1`` reproduces the historical fixed point exactly).
    """
    from repro.attacks import streamline_upper_bound_mbps
    from repro.cli import ATTACKS

    names = list(_FIG8_BITS) if attacks is None else list(attacks)
    unknown = [n for n in names if n not in _FIG8_BITS]
    if unknown:
        raise ValueError(f"unknown attack(s): {unknown}")
    base = SystemConfig.paper_default().with_llc(float(llc_mb))
    out: Dict[str, Any] = {"llc_mb": float(llc_mb), "bits": int(bits),
                           "attacks": {}}
    for cli_name in names:
        config = (replace(base, mapping="xor")
                  if cli_name == "drama-eviction" else base)
        message_bits = max(16, _FIG8_BITS[cli_name] * int(bits) // 512)
        channel = ATTACKS[cli_name](pristine_system(config))
        result = channel.transmit_random(message_bits, seed=int(seed))
        quality = result.quality(channel.threshold_cycles)
        out["attacks"][_FIG8_NAMES[cli_name]] = {
            "throughput_mbps": result.throughput_mbps,
            "raw_throughput_mbps": result.raw_throughput_mbps,
            "cycles_per_bit": result.cycles_per_bit,
            **quality.to_dict(),
        }
        if cli_name == "streamline":
            streamline_system = channel.system
    if "streamline" in names:
        # The bound reads only the config and clock, so the Streamline
        # channel's leased machine serves as is: no extra pristine restore.
        out["attacks"]["Streamline-bound"] = {
            "throughput_mbps": streamline_upper_bound_mbps(
                streamline_system)}
    return out


def fig8_quality_sweep(sizes_mb=(8, 64), bits: int = 128,
                       attacks: Optional[List[str]] = None):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig8", fig8_quality_point, "llc_mb",
                        [float(s) for s in sizes_mb], bits=bits,
                        attacks=list(attacks) if attacks else None)


# ---------------------------------------------------------------------------
# Fig. 10 — read-mapping side channel vs bank count
# ---------------------------------------------------------------------------

FIG10_NOISE_RATE = 0.0105  # stray activations per kilocycle (§5.1)


@lru_cache(maxsize=1)
def _fig10_world():
    """The Fig. 10 victim pipeline: synthetic reference, mutated sample,
    sampled reads, and the 1024-bank base index (restriped per point).

    Built lazily once per process; all seeds are fixed, so every worker
    reconstructs the identical world.
    """
    from repro.genomics import (
        ReferenceIndex,
        generate_reference,
        mutate_genome,
        sample_reads,
    )

    reference = generate_reference(20_000, seed=31)
    sample = mutate_genome(reference, seed=32)
    reads = [r for r, _ in sample_reads(sample, num_reads=6, read_length=150,
                                        error_rate=0.002, seed=33)]
    base_index = ReferenceIndex(reference, num_banks=1024)
    return reference, reads, base_index


#: Per-process memo of victim probe schedules, keyed (num_banks, rounds).
_FIG10_SCHEDULES: dict = {}


def _fig10_schedule(num_banks: int, rounds: int):
    """The victim's probe schedule and index occupancy for one point.

    Building the schedule means restriping the 1024-bank base index and
    replaying the read mapper — pure in (num_banks, rounds) since every
    seed in :func:`_fig10_world` is fixed.  Memoized per process and
    persisted as a warm-store artifact; ``REPRO_NO_WARMSTORE=1`` forces
    the from-scratch build.  Returns ``(schedule, entries_per_bank)``.
    """
    def build():
        from repro.genomics import PimReadMapper

        reference, reads, base_index = _fig10_world()
        index = base_index.restripe(num_banks)
        # trace_for_reads only consults the software mapper and index, so
        # no System is needed to reconstruct the victim's schedule.
        mapper = PimReadMapper(None, reference, index)
        return (mapper.trace_for_reads(reads)[:rounds],
                index.entries_per_bank)

    if not warmstore.enabled():
        return build()
    key = (num_banks, rounds)
    value = _FIG10_SCHEDULES.get(key)
    if value is not None:
        warmstore.record_event("hits")
        return value
    store = warmstore.current()
    recipe = ("fig10-schedule", num_banks, rounds)
    if store is not None:
        loaded = store.load_artifact(recipe)
        if not store.is_missing(loaded):
            _FIG10_SCHEDULES[key] = loaded
            return loaded
    value = build()
    _FIG10_SCHEDULES[key] = value
    if store is not None:
        store.store_artifact(recipe, value)
    else:
        warmstore.record_event("misses")
    return value


def fig10_point(num_banks: int, rounds: int = 100) -> Dict[str, Any]:
    """One Fig. 10 point: side-channel leakage at ``num_banks`` banks."""
    from repro.attacks import ReadMappingSideChannel

    config = (SystemConfig.paper_default()
              .with_banks(num_banks)
              .with_noise(FIG10_NOISE_RATE))
    schedule, entries_per_bank = _fig10_schedule(num_banks, rounds)
    system = pristine_system(config)
    channel = ReadMappingSideChannel(system)
    result = channel.run(schedule, entries_per_bank=entries_per_bank)
    return side_channel_payload(result)


def side_channel_payload(result) -> Dict[str, Any]:
    """JSON-able raw fields + derived metrics of a SideChannelResult."""
    return {
        "num_banks": result.num_banks,
        "rounds": result.rounds,
        "correct": result.correct,
        "missed": result.missed,
        "false_positives": result.false_positives,
        "cycles": result.cycles,
        "cpu_hz": result.cpu_hz,
        "entries_per_bank": result.entries_per_bank,
        "leaked_bits": result.leaked_bits,
        "throughput_mbps": result.throughput_mbps,
        "error_rate": result.error_rate,
        "accuracy": result.accuracy,
        "summary": result.summary(),
    }


# ---------------------------------------------------------------------------
# Fig. 11 — defense overheads on multiprogrammed workloads
# ---------------------------------------------------------------------------


#: Per-process warm-up cache shared by every fig11 point (lazy; only used
#: when the warm store is enabled, so ``REPRO_NO_WARMSTORE=1`` still
#: exercises the full from-scratch warm-up path).
_FIG11_WARM = None


def _fig11_warm_cache():
    global _FIG11_WARM
    if _FIG11_WARM is None:
        from repro.workloads import WarmupCache

        _FIG11_WARM = WarmupCache()
    return _FIG11_WARM


def _fig11_stream(workload: str, max_refs: int):
    """The workload's reference stream, persisted as a warm-store artifact.

    Building a stream means constructing the scaled graph input and
    replaying the kernel — pure in (workload, max_refs).  Returns ``None``
    when no store is active (the caller lets
    :func:`repro.workloads.evaluate_defenses` build the stream itself).
    """
    store = warmstore.current()
    if store is None:
        return None
    recipe = ("fig11-stream", workload, max_refs)
    loaded = store.load_artifact(recipe)
    if not store.is_missing(loaded):
        return loaded
    from repro.workloads.kernels import workload_spec

    spec = workload_spec(workload)
    stream = spec.refs(graph=spec.build_graph(), max_refs=max_refs)
    store.store_artifact(recipe, stream)
    return stream


def fig11_point(workload: str, max_refs: int = 60_000) -> Dict[str, Any]:
    """One Fig. 11 workload under open/crp/ctd row policies."""
    from repro.workloads import evaluate_defenses

    warm_cache = stream = None
    if warmstore.enabled():
        warm_cache = _fig11_warm_cache()
        stream = _fig11_stream(workload, max_refs)
    evaluation = evaluate_defenses(workload, max_refs=max_refs,
                                   warm_cache=warm_cache, stream=stream)
    policies = {
        policy: {
            "cycles": run.cycles,
            "instructions": run.instructions,
            "refs": run.refs,
            "llc_misses": run.llc_misses,
            "mpki": run.mpki,
        }
        for policy, run in evaluation.results.items()
    }
    return {
        "workload": evaluation.workload,
        "paper_mpki": evaluation.paper_mpki,
        "mpki": evaluation.measured_mpki,
        "policies": policies,
        "crp_overhead": evaluation.overhead("crp"),
        "ctd_overhead": evaluation.overhead("ctd"),
    }


# ---------------------------------------------------------------------------
# CLI sweeps — covert channels, side channel, defense security
# ---------------------------------------------------------------------------


def _cli_config(llc_mb: Optional[float], noise: float,
                mapping: Optional[str]) -> SystemConfig:
    config = SystemConfig.paper_default()
    if llc_mb:
        config = config.with_llc(float(llc_mb))
    if noise:
        config = config.with_noise(noise)
    if mapping:
        config = replace(config, mapping=mapping)
    return config


def covert_point(attack: str, bits: int = 512, seed: int = 0,
                 llc_mb: Optional[float] = None, noise: float = 0.0,
                 mapping: Optional[str] = None) -> Dict[str, Any]:
    """One covert-channel transmission (a ``repro covert`` table row)."""
    from repro.cli import ATTACKS

    config = _cli_config(llc_mb, noise, mapping)
    if attack == "drama-eviction" and config.mapping != "xor":
        config = replace(config, mapping="xor")
    channel = ATTACKS[attack](System(config))
    result = channel.transmit_random(bits, seed=seed)
    return {
        "attack": attack,
        "throughput_mbps": result.throughput_mbps,
        "error_rate": result.error_rate,
        "cycles_per_bit": result.cycles_per_bit,
    }


def streamline_bound_point(llc_mb: Optional[float] = None, noise: float = 0.0,
                           mapping: Optional[str] = None) -> Dict[str, Any]:
    """The §5.1 analytical Streamline upper bound for one config."""
    from repro.attacks import streamline_upper_bound_mbps

    bound = streamline_upper_bound_mbps(System(_cli_config(llc_mb, noise,
                                                           mapping)))
    return {"attack": "streamline (bound)", "throughput_mbps": bound}


def sidechannel_point(num_banks: int, rounds: int = 100, seed: int = 0,
                      noise: float = 0.0) -> Dict[str, Any]:
    """One ``repro sidechannel`` run over a synthetic victim schedule."""
    from repro.attacks import ReadMappingSideChannel, fake_schedule

    config = (SystemConfig.paper_default().with_banks(num_banks)
              .with_noise(noise if noise else FIG10_NOISE_RATE))
    system = System(config)
    schedule = fake_schedule(num_banks, rounds, seed=seed)
    result = ReadMappingSideChannel(system).run(schedule)
    return side_channel_payload(result)


def defense_security_point(defense: str, bits: int = 192,
                           attack: str = "impact-pnm") -> Dict[str, Any]:
    """Security of one §6 defense against one covert channel."""
    from repro.cli import ATTACKS
    from repro.defenses import evaluate_channel_under_defense

    factory = ATTACKS[attack]
    report = evaluate_channel_under_defense(lambda s: factory(s), defense,
                                            bits=bits)
    return {
        "defense": defense,
        "attack": attack,
        "blocked": report.blocked,
        "error_rate": report.error_rate,
        "capacity_bits_per_symbol": report.capacity_bits_per_symbol,
        "eliminated": report.channel_eliminated,
    }


# ---------------------------------------------------------------------------
# Sweep builders (shared by benchmarks and the CLI)
# ---------------------------------------------------------------------------


def fig2_sweep(sizes_mb=(2, 4, 8, 16, 32, 64), bits: int = 384):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig2", sec33_point, "llc_mb", list(sizes_mb),
                        bits=bits)


def fig3_sweep(ways=(2, 4, 8, 16, 32, 64, 128), llc_mb: float = 16,
               bits: int = 256):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig3", sec33_point, "ways", list(ways),
                        llc_mb=llc_mb, bits=bits)


def fig8_sweep(sizes_mb=(8, 16, 32, 64)):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig8", fig8_point, "llc_mb", list(sizes_mb))


def fig10_sweep(bank_counts=(1024, 2048, 4096, 8192), rounds: int = 100):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig10", fig10_point, "num_banks", list(bank_counts),
                        rounds=rounds)


def fig11_sweep(workloads=("BC", "BFS", "CC", "TC", "PR"),
                max_refs: int = 60_000):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig11", fig11_point, "workload", list(workloads),
                        max_refs=max_refs)
