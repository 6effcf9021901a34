"""A DRAM bank with its row buffer — the shared structure IMPACT exploits.

The row buffer is a one-entry direct-mapped cache inside the bank (§3.1).
Every access is classified as:

- ``HIT`` — target row already open: pay ``tCAS`` only,
- ``EMPTY`` — bank precharged: pay ``tRCD + tCAS``,
- ``CONFLICT`` — another row open: pay ``tRP + tRCD + tCAS``.

Banks also track ``busy_until`` so concurrent requestors (sender/receiver,
attacker/victim, PiM engines) serialize realistically; queuing delay is how
the PuM channel's receiver observes contention (§4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.dram.timings import DRAMTimings


class AccessKind(enum.Enum):
    """Row-buffer outcome of a DRAM access."""

    HIT = "hit"
    EMPTY = "empty"
    CONFLICT = "conflict"


@dataclass(slots=True)
class BankAccess:
    """Result of one bank access.

    ``latency`` is measured from the requestor's issue time (``issued``),
    so it includes any queuing delay behind a busy bank; ``service_start``
    is when the bank actually began the operation.  (Slotted: one is
    allocated per DRAM access, squarely on the simulation hot path.)
    """

    kind: AccessKind
    issued: int
    service_start: int
    finish: int
    bank: int
    row: int

    @property
    def latency(self) -> int:
        return self.finish - self.issued

    @property
    def queue_delay(self) -> int:
        return self.service_start - self.issued


@dataclass
class BankStats:
    """Per-bank access counters."""

    hits: int = 0
    empties: int = 0
    conflicts: int = 0
    activations: int = 0
    rowclones: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.empties + self.conflicts

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def record(self, kind: AccessKind) -> None:
        if kind is AccessKind.HIT:
            self.hits += 1
        elif kind is AccessKind.EMPTY:
            self.empties += 1
        else:
            self.conflicts += 1


@dataclass
class Bank:
    """One DRAM bank: row-buffer state machine plus busy-time bookkeeping."""

    index: int
    timings: DRAMTimings
    open_row: Optional[int] = None
    busy_until: int = 0
    last_activation: int = 0
    #: When the currently open row's activation began (tRAS anchor for
    #: explicit precharges); meaningless while ``open_row`` is None.
    row_opened_at: int = 0
    stats: BankStats = field(default_factory=BankStats)

    def __post_init__(self) -> None:
        # The DRAMTimings cycle figures are properties deriving CPU cycles
        # from nanoseconds on every read; hoist them to plain ints once —
        # they sit on the per-access critical path.
        t = self.timings
        self._hit_cycles = t.hit_cycles
        self._empty_cycles = t.empty_cycles
        self._conflict_cycles = t.conflict_cycles
        self._rcd_cycles = t.rcd_cycles
        self._rp_cycles = t.rp_cycles
        self._rowclone_fpm_cycles = t.rowclone_fpm_cycles
        self._timeout_cycles = t.row_timeout_cycles
        self._ras_cycles = t.ras_cycles

    def _effective_row_at(self, service_start: int) -> Optional[int]:
        """Open row as the bank will see it when it services a request at
        ``service_start``, honoring the open-row timeout.

        This is the single source of truth for the timeout: ``classify``,
        ``access_raw``, ``activate`` and ``rowclone_fpm`` all evaluate the
        timeout at the *service* time (``max(issued, busy_until)``), never
        at the caller's issue time — evaluating at issue time made
        ``classify`` predict HIT for requests that queue past the timeout
        and then record CONFLICT.
        """
        row = self.open_row
        if row is not None and self._timeout_cycles > 0 \
                and service_start - self.last_activation > self._timeout_cycles:
            return None
        return row

    def classify(self, row: int, time: int) -> AccessKind:
        """What outcome would an access to ``row`` issued at ``time`` see?

        Pure (no state change), and agrees with what :meth:`access_raw`
        would record for the same issue time: the open-row timeout is
        evaluated at the would-be service start, after any queuing behind
        ``busy_until``.
        """
        busy = self.busy_until
        service_start = time if time >= busy else busy
        current = self._effective_row_at(service_start)
        if current is None:
            return AccessKind.EMPTY
        if current == row:
            return AccessKind.HIT
        return AccessKind.CONFLICT

    def access_raw(self, row: int, issued: int,
                   close_after: bool = False) -> "Tuple[AccessKind, int, int]":
        """Row-buffer state machine core of :meth:`access`.

        Returns ``(kind, service_start, finish)`` without building a
        :class:`BankAccess` — the controller sits on the simulator's
        hottest path and only needs these three fields.
        """
        busy = self.busy_until
        service_start = issued if issued >= busy else busy
        current = self._effective_row_at(service_start)
        stats = self.stats
        if current == row:
            kind = AccessKind.HIT
            latency = self._hit_cycles
            stats.hits += 1
        elif current is None:
            kind = AccessKind.EMPTY
            latency = self._empty_cycles
            stats.empties += 1
            stats.activations += 1
            self.row_opened_at = service_start
        else:
            kind = AccessKind.CONFLICT
            latency = self._conflict_cycles
            stats.conflicts += 1
            stats.activations += 1
            self.row_opened_at = service_start + self._rp_cycles
        finish = service_start + latency
        # Hit or activation alike restart the open-row timeout clock.
        self.last_activation = finish
        if close_after:
            self.open_row = None
            self.busy_until = finish + self._rp_cycles
        else:
            self.open_row = row
            self.busy_until = finish
        return kind, service_start, finish

    def access(self, row: int, issued: int, *, close_after: bool = False) -> BankAccess:
        """Perform a read/write access to ``row`` starting no earlier than
        ``issued``.

        Args:
            row: target DRAM row.
            issued: requestor's issue time (CPU cycles).
            close_after: auto-precharge after the access (closed-row policy,
                the CRP defense of §6); the precharge is hidden — the next
                access sees an ``EMPTY`` bank and never pays ``tRP``.
        """
        kind, service_start, finish = self.access_raw(row, issued, close_after)
        return BankAccess(kind=kind, issued=issued, service_start=service_start,
                          finish=finish, bank=self.index, row=row)

    def activate(self, row: int, issued: int) -> BankAccess:
        """Activate ``row`` without a column access (PiM-style ACT).

        Used by PEI operations that only need the row in the buffer and by
        the covert-channel sender, whose goal is purely to perturb the row
        buffer (§4.1 step 2).
        """
        busy = self.busy_until
        service_start = issued if issued >= busy else busy
        current = self._effective_row_at(service_start)
        stats = self.stats
        if current == row:
            kind = AccessKind.HIT
            latency = 0
            stats.hits += 1
        elif current is None:
            kind = AccessKind.EMPTY
            # Composed from the same rounded per-component figures as
            # access_raw's EMPTY latency (tRCD) so CPU accesses and
            # PiM-style bare ACTs never disagree by a rounding cycle.
            latency = self._rcd_cycles
            stats.empties += 1
            stats.activations += 1
            self.row_opened_at = service_start
        else:
            kind = AccessKind.CONFLICT
            latency = self._rp_cycles + self._rcd_cycles
            stats.conflicts += 1
            stats.activations += 1
            self.row_opened_at = service_start + self._rp_cycles
        finish = service_start + latency
        self.open_row = row
        self.busy_until = finish
        self.last_activation = finish
        return BankAccess(kind=kind, issued=issued, service_start=service_start,
                          finish=finish, bank=self.index, row=row)

    def rowclone_fpm(self, src_row: int, dst_row: int, issued: int, *,
                     rows_per_subarray: Optional[int] = None,
                     lines_per_row: int = 128) -> BankAccess:
        """In-bank RowClone copy [52]: Fast Parallel Mode when source and
        destination share a subarray, Pipelined Serial Mode otherwise.

        FPM issues ACT(src) then ACT(dst) back-to-back; if a different row
        is open the bank must first precharge, which is the latency
        difference the PuM receiver decodes (§4.2).  PSM streams the row
        over the internal bus line by line — roughly 10x slower.  Leaves
        ``dst`` open either way.
        """
        service_start = max(issued, self.busy_until)
        kind = self.classify(src_row, service_start)
        fpm_possible = (rows_per_subarray is None
                        or (src_row // rows_per_subarray
                            == dst_row // rows_per_subarray))
        if fpm_possible:
            latency = self._rowclone_fpm_cycles
        else:
            latency = self.timings.rowclone_psm_cycles(lines_per_row)
        if kind is AccessKind.CONFLICT:
            latency += self._rp_cycles
            self.row_opened_at = service_start + self._rp_cycles
        else:
            self.row_opened_at = service_start
        finish = service_start + latency
        self.open_row = dst_row
        self.busy_until = finish
        self.last_activation = finish
        self.stats.record(kind)
        self.stats.rowclones += 1
        self.stats.activations += 2
        return BankAccess(kind=kind, issued=issued, service_start=service_start,
                          finish=finish, bank=self.index, row=dst_row)

    def precharge(self, issued: int) -> int:
        """Explicitly close the open row; returns the finish time.

        An explicit PRE command cannot begin until the open row has been
        active for ``tRAS`` — the activation must finish restoring the
        cells before the row closes.  (Implicit conflict precharges and
        the closed-row policy's auto-precharge keep their tRP-only model:
        with the default timings their earliest possible issue already
        satisfies tRAS, and the figure baselines pin that behaviour.)
        """
        service_start = max(issued, self.busy_until)
        if self.open_row is None:
            return service_start
        earliest = self.row_opened_at + self._ras_cycles
        if service_start < earliest:
            service_start = earliest
        finish = service_start + self._rp_cycles
        self.open_row = None
        self.busy_until = finish
        return finish

    def apply_refresh(self, until: int) -> None:
        """Model a refresh: the bank is busy and its row buffer is closed."""
        self.busy_until = max(self.busy_until, until)
        self.open_row = None

    def snapshot_state(self) -> tuple:
        """Copied row-buffer state + counters (for warm-state snapshots)."""
        s = self.stats
        return (self.open_row, self.busy_until, self.last_activation,
                self.row_opened_at,
                (s.hits, s.empties, s.conflicts, s.activations, s.rowclones))

    def restore_state(self, state: tuple) -> None:
        (self.open_row, self.busy_until, self.last_activation,
         self.row_opened_at, counters) = state
        self.stats = BankStats(*counters)

    def snapshot(self) -> Dict[str, object]:
        """Debug/telemetry snapshot of bank state."""
        return {
            "index": self.index,
            "open_row": self.open_row,
            "busy_until": self.busy_until,
            "hits": self.stats.hits,
            "empties": self.stats.empties,
            "conflicts": self.stats.conflicts,
        }
