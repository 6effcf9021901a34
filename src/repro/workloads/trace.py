"""Memory-trace analysis: the locality metrics behind Fig. 11.

The §6 defense overheads are functions of each workload's *memory
behaviour*: how many accesses reach DRAM, how much row-buffer locality
they carry, and how they spread across banks.  This module computes those
characteristics directly from a reference stream, so workload scaling
decisions are auditable rather than folklore.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.stats import percentile as _percentile
from repro.dram.address import AddressMapping, DRAMGeometry, make_mapping
from repro.workloads.kernels import RefStream


@dataclass
class TraceProfile:
    """Locality characteristics of one reference stream."""

    refs: int
    writes: int
    distinct_lines: int
    footprint_bytes: int
    row_switches: int
    bank_histogram: Dict[int, int]
    total_banks: int
    reuse_distance_p50: Optional[float]
    reuse_distance_p90: Optional[float]

    @property
    def write_fraction(self) -> float:
        return self.writes / self.refs if self.refs else 0.0

    @property
    def row_locality(self) -> float:
        """Fraction of DRAM-visible line transitions that stay in the open
        row of their bank (the open-row policy's win; CRP forfeits it)."""
        if self.refs <= 1:
            return 0.0
        return 1.0 - self.row_switches / max(1, self.refs - 1)

    @property
    def bank_balance(self) -> float:
        """1.0 = perfectly even use of every bank; near 0 = pileup on a
        few banks (forfeits bank-level parallelism)."""
        counts = list(self.bank_histogram.values())
        if not counts:
            return 0.0
        peak = max(counts)
        ideal = sum(counts) / max(1, self.total_banks)
        return min(1.0, ideal / peak) if peak else 0.0

    def summary(self) -> str:
        return (f"{self.refs} refs ({self.write_fraction:.0%} writes), "
                f"{self.footprint_bytes / 1024:.0f} KiB footprint, "
                f"row locality {self.row_locality:.2f}, "
                f"bank balance {self.bank_balance:.2f}")


def profile_trace(refs: RefStream,
                  geometry: Optional[DRAMGeometry] = None,
                  mapping: str = "row",
                  line_bytes: int = 64,
                  reuse_window: int = 4096) -> TraceProfile:
    """Compute a :class:`TraceProfile` for a reference stream.

    Row-switch accounting tracks the per-bank open row over the stream
    (as an open-row DRAM would); reuse distances are per-line, counted in
    distinct intervening lines (LRU stack distance, windowed for cost).
    """
    geom = geometry or DRAMGeometry()
    mapper: AddressMapping = make_mapping(mapping, geom)
    capacity = geom.capacity_bytes
    open_rows: Dict[int, int] = {}
    bank_histogram: Counter = Counter()
    lines_seen: Dict[int, int] = {}
    reuse_distances: List[int] = []
    stack: "OrderedDict[int, None]" = OrderedDict()
    writes = 0
    row_switches = 0
    for addr, is_write in zip(refs.addr, refs.is_write):
        addr %= capacity
        writes += is_write
        loc = mapper.decode(addr)
        previous = open_rows.get(loc.bank)
        if previous is not None and previous != loc.row:
            row_switches += 1
        open_rows[loc.bank] = loc.row
        bank_histogram[loc.bank] += 1
        line = addr // line_bytes
        if line in stack:
            distance = 0
            for other in reversed(stack):
                if other == line:
                    break
                distance += 1
            reuse_distances.append(distance)
            del stack[line]
        stack[line] = None
        while len(stack) > reuse_window:
            stack.popitem(last=False)
        lines_seen[line] = lines_seen.get(line, 0) + 1
    def percentile(values: List[int], fraction: float) -> Optional[float]:
        # Shared interpolated percentile (repro.analysis.stats); empty
        # reuse-distance samples stay None rather than raising.
        return _percentile(values, fraction) if values else None
    return TraceProfile(
        refs=len(refs),
        writes=writes,
        distinct_lines=len(lines_seen),
        footprint_bytes=len(lines_seen) * line_bytes,
        row_switches=row_switches,
        bank_histogram=dict(bank_histogram),
        total_banks=geom.num_banks,
        reuse_distance_p50=percentile(reuse_distances, 0.5),
        reuse_distance_p90=percentile(reuse_distances, 0.9),
    )
