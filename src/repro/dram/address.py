"""Physical-address-to-DRAM-location mappings.

Modern controllers interleave physical memory across banks to exploit
bank-level parallelism (§4.3 cites [104-107]).  Attacks must reverse this
mapping to co-locate data with a victim (memory massaging, §4.1); here both
directions are exposed: :meth:`AddressMapping.decode` for the hardware path
and :meth:`AddressMapping.encode` for attack code that crafts addresses
targeting a chosen (bank, row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DRAMGeometry:
    """Shape of the simulated memory system.

    Defaults follow Table 2: one channel, 4 ranks x 16 banks, 8 KiB rows.
    ``num_banks`` is the flat count of independently accessible banks
    (rank x bank), which is what the attacks enumerate.
    """

    channels: int = 1
    ranks: int = 4
    banks_per_rank: int = 16
    rows_per_bank: int = 65536
    row_bytes: int = 8192
    line_bytes: int = 64
    subarrays_per_bank: int = 64

    def __post_init__(self) -> None:
        for field_name in ("channels", "ranks", "banks_per_rank",
                           "rows_per_bank", "row_bytes", "line_bytes",
                           "subarrays_per_bank"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        if self.row_bytes % self.line_bytes != 0:
            raise ValueError("row_bytes must be a multiple of line_bytes")
        if self.rows_per_bank % self.subarrays_per_bank != 0:
            raise ValueError("rows_per_bank must divide into subarrays")

    @property
    def num_banks(self) -> int:
        """Total independently accessible banks across all ranks."""
        return self.ranks * self.banks_per_rank

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    @property
    def rows_per_subarray(self) -> int:
        """Rows sharing one local row buffer — RowClone's Fast Parallel
        Mode only works within these boundaries [52]."""
        return self.rows_per_bank // self.subarrays_per_bank

    def subarray_of_row(self, row: int) -> int:
        return row // self.rows_per_subarray

    @property
    def capacity_bytes(self) -> int:
        return self.num_banks * self.rows_per_bank * self.row_bytes


@dataclass(frozen=True, slots=True)
class DRAMLocation:
    """A decoded DRAM coordinate.

    (Slotted: one is built per decoded DRAM request, on the hot path.)
    """

    bank: int
    row: int
    col: int


def _shift_for(value: int) -> Optional[int]:
    """log2(value) when ``value`` is a power of two, else None."""
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class AddressMapping:
    """Base class for invertible physical-address mappings.

    Decode runs once per DRAM request, so every mapping precomputes its
    geometry-derived constants here — and, when the relevant dimensions are
    powers of two (the common case: 64-byte lines, 8 KiB rows, 2^n banks),
    replaces the per-access divisions with mask/shift bit arithmetic.
    """

    def __init__(self, geometry: DRAMGeometry) -> None:
        self.geometry = geometry
        self._row_bytes = geometry.row_bytes
        self._num_banks = geometry.num_banks
        self._rows_per_bank = geometry.rows_per_bank
        self._capacity = geometry.capacity_bytes
        self._row_shift = _shift_for(self._row_bytes)
        self._bank_shift = _shift_for(self._num_banks)
        self._col_mask = self._row_bytes - 1
        self._bank_mask = self._num_banks - 1

    def decode(self, addr: int) -> DRAMLocation:
        """Map a physical byte address to its DRAM location."""
        raise NotImplementedError

    def decode_bank_row(self, addr: int) -> "tuple":
        """``(bank, row)`` of ``addr`` without building a DRAMLocation.

        The controller's finish-only fast path (prefetch fills, write-backs)
        needs just these two coordinates; subclasses may override with a
        cheaper computation than full :meth:`decode`.
        """
        loc = self.decode(addr)
        return loc.bank, loc.row

    def encode(self, bank: int, row: int, col: int = 0) -> int:
        """Inverse of :meth:`decode`: craft an address for a location."""
        raise NotImplementedError

    def _check_location(self, bank: int, row: int, col: int) -> None:
        geom = self.geometry
        if not 0 <= bank < geom.num_banks:
            raise ValueError(f"bank {bank} out of range [0, {geom.num_banks})")
        if not 0 <= row < geom.rows_per_bank:
            raise ValueError(f"row {row} out of range [0, {geom.rows_per_bank})")
        if not 0 <= col < geom.row_bytes:
            raise ValueError(f"col {col} out of range [0, {geom.row_bytes})")

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self._capacity:
            raise ValueError(
                f"address {addr:#x} out of range [0, {self._capacity:#x})"
            )


class RowInterleavedMapping(AddressMapping):
    """Consecutive addresses fill a whole row before switching banks.

    Layout (low to high): ``col | bank | row``.  Sequential streams get long
    row-buffer hit runs in one bank, then move to the next bank.
    """

    def decode(self, addr: int) -> DRAMLocation:
        if not 0 <= addr < self._capacity:
            self._check_addr(addr)
        if self._row_shift is not None and self._bank_shift is not None:
            col = addr & self._col_mask
            rest = addr >> self._row_shift
            bank = rest & self._bank_mask
            row = rest >> self._bank_shift
        else:
            rest, col = divmod(addr, self._row_bytes)
            row, bank = divmod(rest, self._num_banks)
        return DRAMLocation(bank=bank, row=row, col=col)

    def decode_bank_row(self, addr: int) -> "tuple":
        if not 0 <= addr < self._capacity:
            self._check_addr(addr)
        if self._row_shift is not None and self._bank_shift is not None:
            rest = addr >> self._row_shift
            return rest & self._bank_mask, rest >> self._bank_shift
        rest = addr // self._row_bytes
        row, bank = divmod(rest, self._num_banks)
        return bank, row

    def encode(self, bank: int, row: int, col: int = 0) -> int:
        self._check_location(bank, row, col)
        return (row * self._num_banks + bank) * self._row_bytes + col


class LineInterleavedMapping(AddressMapping):
    """Consecutive cache lines stripe across banks.

    Layout: line ``i`` lives in bank ``i mod num_banks``.  This maximizes
    bank-level parallelism and is the scheme §4.3 assumes for the hash table
    distributed across banks.
    """

    def __init__(self, geometry: DRAMGeometry) -> None:
        super().__init__(geometry)
        self._line_bytes = geometry.line_bytes
        self._lines_per_row = geometry.lines_per_row

    def decode(self, addr: int) -> DRAMLocation:
        if not 0 <= addr < self._capacity:
            self._check_addr(addr)
        line, offset = divmod(addr, self._line_bytes)
        index_in_bank, bank = divmod(line, self._num_banks)
        row, line_in_row = divmod(index_in_bank, self._lines_per_row)
        return DRAMLocation(bank=bank, row=row,
                            col=line_in_row * self._line_bytes + offset)

    def encode(self, bank: int, row: int, col: int = 0) -> int:
        self._check_location(bank, row, col)
        line_in_row, offset = divmod(col, self._line_bytes)
        index_in_bank = row * self._lines_per_row + line_in_row
        line = index_in_bank * self._num_banks + bank
        return line * self._line_bytes + offset


class XorBankMapping(AddressMapping):
    """Row-interleaved layout with a DRAMA-style XOR bank hash.

    The effective bank is ``raw_bank XOR (row & mask)``; XOR schemes spread
    pathological strides across banks and are what DRAMA-style attacks must
    reverse-engineer [68, 75-78].  Requires a power-of-two bank count.
    """

    def __init__(self, geometry: DRAMGeometry) -> None:
        super().__init__(geometry)
        if geometry.num_banks & (geometry.num_banks - 1) != 0:
            raise ValueError("XorBankMapping requires a power-of-two bank count")
        self._mask = geometry.num_banks - 1

    def decode(self, addr: int) -> DRAMLocation:
        if not 0 <= addr < self._capacity:
            self._check_addr(addr)
        if self._row_shift is not None:
            col = addr & self._col_mask
            rest = addr >> self._row_shift
        else:
            rest, col = divmod(addr, self._row_bytes)
        raw_bank = rest & self._bank_mask
        row = rest >> self._bank_shift
        bank = raw_bank ^ (row & self._mask)
        return DRAMLocation(bank=bank, row=row, col=col)

    def decode_bank_row(self, addr: int) -> "tuple":
        if not 0 <= addr < self._capacity:
            self._check_addr(addr)
        if self._row_shift is not None:
            rest = addr >> self._row_shift
        else:
            rest = addr // self._row_bytes
        raw_bank = rest & self._bank_mask
        row = rest >> self._bank_shift
        return raw_bank ^ (row & self._mask), row

    def encode(self, bank: int, row: int, col: int = 0) -> int:
        self._check_location(bank, row, col)
        raw_bank = bank ^ (row & self._mask)
        return (row * self._num_banks + raw_bank) * self._row_bytes + col


_MAPPINGS = {
    "row": RowInterleavedMapping,
    "line": LineInterleavedMapping,
    "xor": XorBankMapping,
}


def make_mapping(name: str, geometry: DRAMGeometry) -> AddressMapping:
    """Construct a mapping by name: ``row``, ``line``, or ``xor``."""
    try:
        cls = _MAPPINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown mapping {name!r}; choose from {sorted(_MAPPINGS)}"
        ) from None
    return cls(geometry)
