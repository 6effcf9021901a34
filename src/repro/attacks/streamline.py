"""Streamline: the flushless cache covert channel [115] (§5.1 iii).

Sender and receiver share a huge array (much larger than the LLC) and
walk it in a pre-agreed pseudorandom order with *no synchronization*:

- the sender encodes bit i by touching (1) or skipping (0) the i-th line
  group; the array's own traversal evicts old lines, so no flushes are
  needed;
- the receiver trails the sender by a fixed lag and times each probe:
  an LLC hit means the sender touched the group recently => 1.

Faithful protocol details carried over from the paper's description of
Streamline:

- **pseudorandom traversal** — a sequential walk would let the stream
  prefetchers fill lines ahead of the receiver and fake hits; a shared
  seeded permutation of the array defeats them (both sides draw only the
  prefix the message walks, see :func:`shared_order`);
- **redundancy** — each bit spans ``redundancy`` lines, majority-voted
  (Streamline's error-margin coding; also what the §5.1 analytical bound
  charges);
- **static rate-matching** — without synchronization both sides must pace
  at a worst-case line period so the receiver neither overruns the sender
  nor lags into eviction; that guard band is the channel's speed limit.

The §5.1 methodology models Streamline's *upper bound* analytically
(:func:`repro.attacks.analytical.streamline_upper_bound_mbps`); this
simulated implementation lands between the bound and the 1.8 Mb/s the
Streamline authors measured on hardware.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.attacks.channel import (
    DECODE_CYCLES,
    LOOP_OVERHEAD_CYCLES,
    ChannelResult,
    CovertChannel,
)
from repro.sim.scheduler import Barrier, Context, Scheduler
from repro.system import System

#: A probe faster than this hit the LLC (shared-array line present).
HIT_THRESHOLD_CYCLES = 100


def shared_order(total_lines: int, seed: int, length: int) -> List[int]:
    """The first ``length`` entries of the pre-agreed pseudorandom
    traversal order: a seeded permutation of ``range(total_lines)``.

    A forward Fisher–Yates over a dict of the swapped positions draws only
    the prefix the message walks, in O(``length``) time and memory however
    large the shared array is.  The draw is prefix-consistent: a longer
    ``length`` with the same seed starts with the shorter one, so sender
    and receiver agree whatever length either side asks for.
    """
    if not 0 <= length <= total_lines:
        raise ValueError("length must be within [0, total_lines]")
    rng = random.Random(seed)
    swaps: Dict[int, int] = {}
    prefix: List[int] = []
    for i in range(length):
        j = rng.randrange(i, total_lines)
        prefix.append(swaps.get(j, j))
        swaps[j] = swaps.get(i, i)
    return prefix


def line_period_cycles(system: System) -> int:
    """The static per-line cadence both sides pace against.

    Without synchronization the rate must assume the worst case every
    slot: the sender's store misses, its displaced dirty line writes
    back, and the receiver's probe misses — all potentially serialized in
    one DRAM bank.  This is the same per-line cost the §5.1 analytical
    bound charges, so the simulated channel sits just under the bound and
    tracks it across LLC sizes.
    """
    from repro.attacks.analytical import ChannelCostParameters
    p = ChannelCostParameters.from_system(system)
    writeback = p.llc_latency + p.queue_cycles + p.dram_avg_cycles
    return int(round(p.miss_path_cycles + writeback + p.miss_path_cycles))


class StreamlineChannel(CovertChannel):
    """A simulated Streamline channel over the shared cache hierarchy."""

    name = "Streamline"

    def __init__(self, system: System, redundancy: int = 3,
                 lag_line_slots: int = 48, array_mb: float = 0.0,
                 order_seed: int = 1337,
                 threshold_cycles: int = HIT_THRESHOLD_CYCLES) -> None:
        super().__init__(system, threshold_cycles)
        if redundancy < 1 or redundancy % 2 == 0:
            raise ValueError("redundancy must be odd and >= 1")
        if lag_line_slots < 1:
            raise ValueError("lag_line_slots must be >= 1")
        self.redundancy = redundancy
        self.lag_line_slots = lag_line_slots
        line = system.config.hierarchy.line_bytes
        if array_mb <= 0:
            # Default: comfortably out-size the LLC (the channel's premise).
            array_mb = max(64.0, 4.0 * system.config.hierarchy.llc_size_mb)
        total_lines = int(array_mb * 1024 * 1024) // line
        llc_lines = (int(system.config.hierarchy.llc_size_mb * 1024 * 1024)
                     // line)
        if total_lines <= 2 * llc_lines:
            raise ValueError("shared array must be much larger than the LLC")
        capacity = system.config.geometry.capacity_bytes
        self._base = capacity // 2  # far from other experiments' regions
        self._line = line
        self.total_lines = total_lines
        self.order_seed = order_seed
        self.line_period = line_period_cycles(system)

    def decode(self, latency: int) -> int:
        """Streamline inverts the usual convention: FAST (cache hit) = 1."""
        return 1 if latency < self.threshold_cycles else 0

    def transmit(self, bits: Sequence[int]) -> ChannelResult:
        message = self.check_bits(bits)
        system = self.system
        total_slots = len(message) * self.redundancy
        if total_slots + self.lag_line_slots > self.total_lines:
            raise ValueError("message too long for the shared array")
        addrs = [self._base + index * self._line for index in
                 shared_order(self.total_lines, self.order_seed, total_slots)]

        sched = Scheduler()
        start_barrier = Barrier(parties=2, name="start")
        received: List[int] = []
        probe_latencies: List[int] = []
        window = {"t0": 0, "t1": 0}

        def sender(ctx: Context, sys_: System):
            yield start_barrier.wait()
            origin = ctx.now
            for slot in range(total_slots):
                deadline = origin + slot * self.line_period
                ctx.advance_to(deadline)
                yield None  # checkpoint: keep shared state in time order
                bit = message[slot // self.redundancy]
                if bit:
                    sys_.load(ctx, core=0, addr=addrs[slot],
                              is_write=True, requestor="sender")
                ctx.advance(LOOP_OVERHEAD_CYCLES)
                yield None

        def receiver(ctx: Context, sys_: System):
            yield start_barrier.wait()
            origin = ctx.now
            window["t0"] = ctx.now
            timer = sys_.new_timer()
            votes = 0
            for slot in range(total_slots):
                deadline = (origin + (slot + self.lag_line_slots)
                            * self.line_period)
                ctx.advance_to(deadline)
                yield None  # checkpoint: keep shared state in time order
                timer.start(ctx)
                sys_.load(ctx, core=1, addr=addrs[slot],
                          requestor="receiver")
                latency = timer.stop(ctx)
                probe_latencies.append(latency)
                votes += self.decode(latency)
                if slot % self.redundancy == self.redundancy - 1:
                    received.append(1 if votes * 2 > self.redundancy else 0)
                    votes = 0
                ctx.advance(DECODE_CYCLES + LOOP_OVERHEAD_CYCLES)
                yield None
            window["t1"] = ctx.now

        sched.spawn(sender, system, name="sender")
        sched.spawn(receiver, system, name="receiver")
        sched.run()
        cycles = window["t1"] - window["t0"]
        return self.make_result(message, received, cycles, probe_latencies)
