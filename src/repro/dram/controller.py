"""Memory controller: request path, row policies, and the §6 defenses.

The controller is the single entry point for every DRAM request — demand
misses from the cache hierarchy, PEI operations dispatched to near-bank
compute units, RowClone bulk operations, DMA traffic, and page-table walks.
It implements:

- the **open-row** policy (baseline, with optional timeout — Table 2),
- the **closed-row policy** defense (CRP, §6),
- **constant-time DRAM access** defense (CTD, §6),
- **bank-level memory partitioning** defense (MPR, §6),
- the **atomic multi-bank RowClone** transaction the PuM threat model
  guarantees (§5.1: all bank-level RowClones complete before another DRAM
  operation is executed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dram.address import AddressMapping, DRAMGeometry, DRAMLocation, make_mapping
from repro.dram.bank import AccessKind, Bank, BankAccess
from repro.dram.device import DRAMDevice
from repro.dram.timings import DRAMTimings
from repro.obs import current_observer

class RowPolicy(enum.Enum):
    """Row-buffer management policy."""

    OPEN = "open"
    CLOSED = "closed"


class PartitionViolationError(PermissionError):
    """An access crossed a bank-partition boundary (MPR defense, §6)."""


@dataclass(frozen=True)
class MemoryControllerConfig:
    """Controller configuration.

    Attributes:
        geometry: DRAM shape (banks, rows, row size).
        timings: DDR timing parameters.
        mapping: address mapping scheme name (``row``/``line``/``xor``).
        row_policy: open-row baseline or closed-row defense (CRP).
        constant_time: constant-time DRAM access defense (CTD); every access
            returns after the worst-case latency.
        queue_cycles: fixed command/bus overhead added to each request
            (command queueing, off-chip link crossing).
        refresh_enabled: model periodic refresh as a noise source.
    """

    geometry: DRAMGeometry = field(default_factory=DRAMGeometry)
    timings: DRAMTimings = field(default_factory=DRAMTimings)
    mapping: str = "row"
    row_policy: RowPolicy = RowPolicy.OPEN
    constant_time: bool = False
    queue_cycles: int = 4
    refresh_enabled: bool = False

    def __post_init__(self) -> None:
        if self.queue_cycles < 0:
            raise ValueError("queue_cycles must be >= 0")


@dataclass(slots=True)
class MemoryResult:
    """Outcome of a controller-level memory operation.

    ``latency`` is from the requestor's issue time and includes queuing,
    command overhead, and (under CTD) the constant-time padding.
    (Slotted: allocated once per DRAM request, on the hot path.)
    """

    kind: AccessKind
    issued: int
    finish: int
    location: DRAMLocation

    @property
    def latency(self) -> int:
        return self.finish - self.issued

    @property
    def bank(self) -> int:
        return self.location.bank

    @property
    def row(self) -> int:
        return self.location.row


@dataclass
class RequestorStats:
    """Per-requestor counters (used by detection/forensics analyses)."""

    reads: int = 0
    writes: int = 0
    activates: int = 0
    rowclones: int = 0
    hits: int = 0
    conflicts: int = 0


class MemoryController:
    """Single-channel DDR controller over a :class:`DRAMDevice`."""

    def __init__(self, config: Optional[MemoryControllerConfig] = None) -> None:
        self.config = config or MemoryControllerConfig()
        self.device = DRAMDevice(self.config.geometry, self.config.timings,
                                 refresh_enabled=self.config.refresh_enabled)
        self.mapper: AddressMapping = make_mapping(self.config.mapping,
                                                   self.config.geometry)
        self._partition: Dict[int, str] = {}
        self._locked_until = 0
        self.requestor_stats: Dict[str, RequestorStats] = {}
        # Per-request constants hoisted out of the request path.
        self._queue_cycles = self.config.queue_cycles
        self._close_after = self.config.row_policy is RowPolicy.CLOSED
        self._constant_time = self.config.constant_time
        self._refresh_enabled = self.config.refresh_enabled
        # Observability hook (repro.obs): None = off, and every hook site
        # is guarded by `if obs is not None`, so the default request path
        # pays one attribute load + branch.
        self._obs = None
        obs = current_observer()
        if obs is not None:
            self.set_observer(obs)

    def set_observer(self, observer) -> None:
        """Attach a :class:`repro.obs.Observer` (tracer and/or sanitizer);
        ``None`` detaches."""
        self._obs = observer
        if observer is not None:
            observer.bind_device(self.device)

    # ------------------------------------------------------------------
    # Partitioning (MPR defense)
    # ------------------------------------------------------------------

    def partition_banks(self, owner: str, banks: Sequence[int]) -> None:
        """Assign ``banks`` exclusively to ``owner`` (MPR defense, §6).

        Once any bank is partitioned, accesses to partitioned banks by any
        other requestor raise :class:`PartitionViolationError`.
        """
        for bank in banks:
            if not 0 <= bank < self.config.geometry.num_banks:
                raise ValueError(f"bank {bank} out of range")
            existing = self._partition.get(bank)
            if existing is not None and existing != owner:
                raise ValueError(f"bank {bank} already owned by {existing!r}")
            self._partition[bank] = owner

    def clear_partitions(self) -> None:
        """Remove all bank-partition assignments."""
        self._partition.clear()

    @property
    def partitioning_active(self) -> bool:
        return bool(self._partition)

    def _check_partition(self, bank: int, requestor: str) -> None:
        owner = self._partition.get(bank)
        if owner is not None and owner != requestor:
            raise PartitionViolationError(
                f"requestor {requestor!r} accessed bank {bank} owned by {owner!r}"
            )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def _stats_for(self, requestor: str) -> RequestorStats:
        stats = self.requestor_stats.get(requestor)
        if stats is None:
            stats = RequestorStats()
            self.requestor_stats[requestor] = stats
        return stats

    def _begin(self, bank_index: int, issued: int, requestor: str) -> int:
        """Common entry: partition check, queueing, atomic-lock, refresh."""
        if self._partition:
            self._check_partition(bank_index, requestor)
        start = issued + self._queue_cycles
        locked = self._locked_until
        if start < locked:
            start = locked
        if self._refresh_enabled:
            self._refresh_service_start(bank_index, start)
        return start

    def _refresh_service_start(self, bank_index: int, start: int) -> None:
        """Apply any refresh window covering the request's *service* start.

        The window must be evaluated where the bank will actually service
        the request — ``max(start, busy_until)`` — not at the post-queue
        time ``start``: a request delayed behind a busy bank into a later
        refresh window would otherwise never observe that refresh.
        Applying a refresh pushes ``busy_until`` to the window's end, so
        the re-check loops until the service time lands outside every
        window (at most once more per tREFI period crossed).
        """
        device = self.device
        bank = device.banks[bank_index]
        obs = self._obs
        while True:
            busy = bank.busy_until
            service = start if start >= busy else busy
            window_end = device.refresh_window(bank_index, service)
            if window_end == service:
                return
            if obs is not None:
                obs.on_refresh(bank_index, service, window_end, bank)

    def access(self, addr: int, issued: int, *, requestor: str = "cpu",
               is_write: bool = False) -> MemoryResult:
        """Read or write one DRAM word at physical address ``addr``."""
        loc = self.mapper.decode(addr)
        kind, finish = self._access_core(loc.bank, loc.row, issued,
                                         requestor, is_write)
        return MemoryResult(kind=kind, issued=issued, finish=finish,
                            location=loc)

    def access_location(self, loc: DRAMLocation, issued: int, *,
                        requestor: str = "cpu",
                        is_write: bool = False) -> MemoryResult:
        """Access a pre-decoded DRAM location (fast path for PiM engines)."""
        kind, finish = self._access_core(loc.bank, loc.row, issued,
                                         requestor, is_write)
        return MemoryResult(kind=kind, issued=issued, finish=finish,
                            location=loc)

    def access_finish(self, addr: int, issued: int, *, requestor: str = "cpu",
                      is_write: bool = False) -> int:
        """Like :meth:`access` but returns only the finish time.

        Identical state evolution and statistics; skips the
        :class:`DRAMLocation`/:class:`MemoryResult` construction.  Used by
        fire-and-forget internal traffic — prefetch fills and cache
        write-backs — where the caller only needs the completion time.
        """
        bank_index, row = self.mapper.decode_bank_row(addr)
        _kind, finish = self._access_core(bank_index, row, issued,
                                          requestor, is_write)
        return finish

    def _access_core(self, bank_index: int, row: int, issued: int,
                     requestor: str, is_write: bool) -> "tuple":
        """Shared request path: returns ``(kind, finish)``.

        :meth:`_begin` is inlined here — this method runs once per DRAM
        request and the extra call frame showed up in profiles.
        """
        if self._partition:
            self._check_partition(bank_index, requestor)
        start = issued + self._queue_cycles
        locked = self._locked_until
        if start < locked:
            start = locked
        if self._refresh_enabled:
            self._refresh_service_start(bank_index, start)
        bank = self.device.banks[bank_index]
        obs = self._obs
        predicted = bank.classify(row, start) if obs is not None else None
        kind, service_start, finish = bank.access_raw(row, start,
                                                      self._close_after)
        if self._constant_time:
            finish = self._constant_time_finish(service_start, bank)
        if obs is not None:
            obs.on_dram_access("WR" if is_write else "RD", bank_index, row,
                               kind, requestor, issued, start, service_start,
                               finish, predicted, bank)
        stats = self.requestor_stats.get(requestor)
        if stats is None:
            stats = self._stats_for(requestor)
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if kind is AccessKind.HIT:
            stats.hits += 1
        elif kind is AccessKind.CONFLICT:
            stats.conflicts += 1
        return kind, finish

    def activate(self, bank_index: int, row: int, issued: int, *,
                 requestor: str = "cpu") -> MemoryResult:
        """Row activation without column access (PiM sender primitive)."""
        start = self._begin(bank_index, issued, requestor)
        bank = self.device.banks[bank_index]
        obs = self._obs
        predicted = bank.classify(row, start) if obs is not None else None
        result = bank.activate(row, start)
        finish = result.finish
        if self._constant_time:
            finish = self._constant_time_finish(result.service_start, bank)
        if obs is not None:
            obs.on_dram_access("ACT", bank_index, row, result.kind, requestor,
                               issued, start, result.service_start, finish,
                               predicted, bank)
        if self._close_after:
            # Under CRP the controller immediately precharges again.
            self._precharge_observed(bank, finish, obs)
        stats = self._stats_for(requestor)
        stats.activates += 1
        if result.kind is AccessKind.CONFLICT:
            stats.conflicts += 1
        loc = DRAMLocation(bank=bank_index, row=row, col=0)
        return MemoryResult(kind=result.kind, issued=issued, finish=finish,
                            location=loc)

    def _precharge_observed(self, bank: Bank, issued: int, obs) -> int:
        """Explicit PRE via :meth:`Bank.precharge`, reported to the
        observer (the sanitizer's tRAS check anchors on the pre-PRE
        ``row_opened_at``)."""
        if obs is None:
            return bank.precharge(issued)
        had_row = bank.open_row is not None
        opened_at = bank.row_opened_at
        finish = bank.precharge(issued)
        service_start = finish - self.config.timings.rp_cycles if had_row \
            else finish
        obs.on_precharge(bank.index, issued, service_start, finish,
                         opened_at, had_row, bank)
        return finish

    def _constant_time_finish(self, service_start: int, bank: Bank,
                              occupancy: Optional[int] = None) -> int:
        """CTD: every DRAM access takes exactly the worst-case latency (§6).

        The access occupies the bank for the full worst-case window — a
        leak-free constant-time controller cannot let a fast (row-hit)
        access free the bank early, or queueing delays would re-expose the
        very timing difference the defense removes."""
        t = self.config.timings
        window = occupancy if occupancy is not None else t.conflict_cycles
        finish = service_start + window
        bank.busy_until = max(bank.busy_until, finish)
        return finish

    # ------------------------------------------------------------------
    # RowClone (PuM substrate entry point)
    # ------------------------------------------------------------------

    def rowclone(self, src_addr: int, dst_addr: int, mask: int, issued: int, *,
                 requestor: str = "pim") -> List[MemoryResult]:
        """Masked multi-bank RowClone (§4.2).

        ``src_addr``/``dst_addr`` name row-aligned ranges that span all
        banks at the same row index; bit ``b`` of ``mask`` selects whether
        bank ``b`` performs the in-bank copy.  All selected bank-level
        copies run in parallel, and the transaction is atomic: the
        controller accepts no other DRAM operation until every bank-level
        copy completes (threat model, §5.1).

        Returns one :class:`MemoryResult` per selected bank (ascending bank
        order); an empty mask yields an empty list and no lock.
        """
        if mask < 0:
            raise ValueError("mask must be non-negative")
        num_banks = self.config.geometry.num_banks
        if mask >> num_banks:
            raise ValueError(f"mask selects banks beyond {num_banks}")
        src = self.mapper.decode(src_addr)
        dst = self.mapper.decode(dst_addr)
        results: List[MemoryResult] = []
        latest = issued
        stats = self._stats_for(requestor)
        for bank_index in range(num_banks):
            if not (mask >> bank_index) & 1:
                continue
            start = self._begin(bank_index, issued, requestor)
            bank = self.device.bank(bank_index)
            geom = self.config.geometry
            obs = self._obs
            predicted = bank.classify(src.row, start) if obs is not None \
                else None
            access = bank.rowclone_fpm(
                src.row, dst.row, start,
                rows_per_subarray=geom.rows_per_subarray,
                lines_per_row=geom.lines_per_row)
            finish = access.finish
            if self.config.constant_time:
                t = self.config.timings
                finish = self._constant_time_finish(
                    access.service_start, bank,
                    occupancy=t.rowclone_fpm_cycles + t.rp_cycles)
            if obs is not None:
                obs.on_rowclone(bank_index, src.row, dst.row, access.kind,
                                issued, access.service_start, finish,
                                requestor, predicted, bank)
            if self.config.row_policy is RowPolicy.CLOSED:
                self._precharge_observed(bank, finish, obs)
            stats.rowclones += 1
            if access.kind is AccessKind.CONFLICT:
                stats.conflicts += 1
            loc = DRAMLocation(bank=bank_index, row=dst.row, col=0)
            results.append(MemoryResult(kind=access.kind, issued=issued,
                                        finish=finish, location=loc))
            latest = max(latest, finish)
        if results:
            self._locked_until = max(self._locked_until, latest)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def address_of(self, bank: int, row: int, col: int = 0) -> int:
        """Craft the physical address of (bank, row, col) — the attacker's
        memory-massaging primitive (§4.1)."""
        return self.mapper.encode(bank, row, col)

    def snapshot_state(self) -> dict:
        """Copied controller + bank state for warm-state snapshots."""
        return {
            "banks": [bank.snapshot_state() for bank in self.device.banks],
            "locked_until": self._locked_until,
            "refresh_epoch": self.device.refresh_epoch,
            "partition": dict(self._partition),
            "requestor_stats": {
                name: (s.reads, s.writes, s.activates, s.rowclones,
                       s.hits, s.conflicts)
                for name, s in self.requestor_stats.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        banks = self.device.banks
        saved = state["banks"]
        if len(saved) != len(banks):
            raise ValueError("snapshot bank count mismatch")
        for bank, bank_state in zip(banks, saved):
            bank.restore_state(bank_state)
        self._locked_until = state["locked_until"]
        self.device.refresh_epoch = state.get("refresh_epoch", 0)
        self._partition = dict(state["partition"])
        self.requestor_stats = {
            name: RequestorStats(*vals)
            for name, vals in state["requestor_stats"].items()
        }
        if self._obs is not None:
            self._obs.on_clock_reset("restore")

    def reset_stats(self) -> None:
        """Zero per-requestor and per-bank counters; device state is kept."""
        self.requestor_stats.clear()
        self.device.reset_stats()

    def rebase_time(self) -> None:
        """Zero the device's clocks (see :meth:`DRAMDevice.rebase_time`);
        the discarded warm-up time folds into the device's refresh epoch."""
        now = max(self._locked_until,
                  max((b.busy_until for b in self.device.banks), default=0))
        self.device.rebase_time(now)
        self._locked_until = 0
        if self._obs is not None:
            self._obs.on_clock_reset("rebase")

    def open_rows(self) -> List[Optional[int]]:
        """Currently open row per bank (None = precharged)."""
        return [bank.open_row for bank in self.device.banks]

    @property
    def num_banks(self) -> int:
        return self.config.geometry.num_banks
