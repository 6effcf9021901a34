"""Warm-state snapshot/restore for the simulated machine.

The §5.1 methodology warms caches and TLBs before every measurement.  At
sweep scale that warm-up dominates: every point pays a full warm replay
even when many points share the same configuration and reference streams.
A :class:`SystemSnapshot` captures *all* architectural state — cache
contents and replacement metadata, row-buffer/bank state, TLBs,
prefetcher tables, predictor weights, and every RNG — so the warm-up runs
once and each subsequent run starts from :meth:`repro.system.System.restore`.

Design rules:

- Every stateful component exposes ``snapshot_state()`` returning a plain
  (copied) payload and ``restore_state(payload)`` that copies *again* on
  the way in, so one snapshot supports any number of restores.
- Restores mutate existing structures **in place** where other objects
  alias them (e.g. :class:`~repro.cache.cache.Cache` aliases its SRRIP
  policy's RRPV rows); replacing such lists wholesale would silently
  decouple the aliases.
- A snapshot is only valid for the :class:`~repro.system.System` (or an
  identically configured one) that produced it; restoring across
  configurations raises.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, List

#: Version of the on-disk snapshot wire format.  Bump whenever the
#: component payload layout changes shape in a way ``restore_state``
#: cannot absorb; readers treat a mismatched version as "no snapshot"
#: rather than guessing at the old layout.
SNAPSHOT_FORMAT_VERSION = 1

_MAGIC = b"RPRSNAP1"


class SnapshotFormatError(ValueError):
    """Raised when bytes are not a snapshot this build can read."""


def copy_rows(rows: List[list]) -> List[list]:
    """Shallow-copy a list of flat lists (the tag/valid/RRPV shape)."""
    return [list(row) for row in rows]


def restore_rows(dst: List[list], src: List[list]) -> None:
    """Copy ``src`` rows into ``dst`` rows **in place** (alias-safe)."""
    if len(dst) != len(src):
        raise ValueError(
            f"snapshot shape mismatch: {len(src)} rows vs {len(dst)}"
        )
    for dst_row, src_row in zip(dst, src):
        dst_row[:] = src_row


@dataclass(frozen=True)
class SystemSnapshot:
    """Opaque capture of a :class:`repro.system.System`'s state.

    ``config`` is the producing system's :class:`~repro.config.SystemConfig`
    (used to reject restores onto differently configured machines);
    ``payload`` maps component names to their ``snapshot_state()`` output.
    """

    config: Any
    payload: Dict[str, Any]

    def component(self, name: str) -> Any:
        try:
            return self.payload[name]
        except KeyError:
            raise KeyError(f"snapshot has no component {name!r}") from None

    # ------------------------------------------------------------------
    # Wire format (used by the warm-state store and cross-process tests)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize for another process or the on-disk warm store.

        Layout: 8-byte magic, little-endian ``u16`` format version, then
        a pickle of ``(config, payload)``.  The explicit version header
        lets :meth:`from_bytes` reject snapshots written by an older
        layout *before* unpickling, so stale store entries surface as
        clean misses instead of half-restored state.
        """
        body = pickle.dumps((self.config, self.payload),
                            protocol=pickle.HIGHEST_PROTOCOL)
        return _MAGIC + struct.pack("<H", SNAPSHOT_FORMAT_VERSION) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "SystemSnapshot":
        """Inverse of :meth:`to_bytes`; raises :class:`SnapshotFormatError`
        on foreign bytes or a format-version mismatch."""
        if len(data) < len(_MAGIC) + 2 or data[:len(_MAGIC)] != _MAGIC:
            raise SnapshotFormatError("not a repro snapshot")
        offset = len(_MAGIC)
        (version,) = struct.unpack_from("<H", data, offset)
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotFormatError(
                f"snapshot format v{version}, this build reads "
                f"v{SNAPSHOT_FORMAT_VERSION}")
        try:
            config, payload = pickle.loads(data[offset + 2:])
        except Exception as exc:  # corrupt pickle → format error
            raise SnapshotFormatError(f"corrupt snapshot body: {exc}") from exc
        return cls(config=config, payload=payload)
