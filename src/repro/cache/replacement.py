"""Cache replacement policies: LRU, SRRIP, and random.

Table 2 uses LRU at L1 and SRRIP [118] at L2/L3.  Replacement matters to the
attacks: eviction sets are only *probabilistically* effective because the
policy is opaque to the attacker (§3.2, Table 1 "ISA guarantees: X" for
eviction sets), and SRRIP in particular can retain a target line after
``ways`` conflicting fills.
"""

from __future__ import annotations

import random
from typing import List


class ReplacementPolicy:
    """Per-cache replacement state; one instance manages every set.

    State is flat: way ``w`` of set ``s`` is slot ``s * ways + w``, the
    same indexing :class:`repro.cache.cache.Cache` uses for its tags.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be >= 1")
        self.num_sets = num_sets
        self.ways = ways

    def on_hit(self, slot: int) -> None:
        """Update state after a hit on ``slot``."""
        raise NotImplementedError

    def on_fill(self, slot: int) -> None:
        """Update state after filling a new line into ``slot``."""
        raise NotImplementedError

    def victim(self, base: int) -> int:
        """The slot to evict from the full set whose first slot is
        ``base``.  Callers fill invalid ways first; this is only asked
        once every way of the set holds a line."""
        raise NotImplementedError

    def snapshot_state(self):
        """Copied replacement metadata for warm-state snapshots."""
        return None

    def restore_state(self, state) -> None:
        """Restore :meth:`snapshot_state` output.  Implementations must
        mutate existing lists in place — callers may alias them (see
        :mod:`repro.sim.snapshot`)."""


def restore_flat(dst: List[int], src: List[int]) -> None:
    """Copy ``src`` over ``dst`` in place; a whole-list ``[:] =`` would
    silently resize ``dst`` on a geometry mismatch, so that raises."""
    if len(src) != len(dst):
        raise ValueError(
            f"snapshot shape mismatch: {len(src)} slots vs {len(dst)}")
    dst[:] = src


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used: evict the oldest-touched way."""

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._stamp = 0
        self._last_use = [0] * (num_sets * ways)

    def on_hit(self, slot: int) -> None:
        stamp = self._stamp + 1
        self._stamp = stamp
        self._last_use[slot] = stamp

    on_fill = on_hit

    def victim(self, base: int) -> int:
        uses = self._last_use[base:base + self.ways]
        return base + uses.index(min(uses))

    def snapshot_state(self):
        return self._stamp, list(self._last_use)

    def restore_state(self, state) -> None:
        stamp, last_use = state
        restore_flat(self._last_use, last_use)
        self._stamp = stamp


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction [118] with 2-bit RRPVs.

    Fills insert at RRPV ``max-1`` (long re-reference), hits promote to 0.
    Victim selection scans for RRPV == max, aging every line when none is
    found.  This is the policy that defeats naive W-access eviction sets.
    """

    MAX_RRPV = 3

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._rrpv = [self.MAX_RRPV] * (num_sets * ways)

    def on_hit(self, slot: int) -> None:
        self._rrpv[slot] = 0

    def on_fill(self, slot: int) -> None:
        self._rrpv[slot] = self.MAX_RRPV - 1

    def victim(self, base: int) -> int:
        end = base + self.ways
        rrpvs = self._rrpv[base:end]
        max_rrpv = self.MAX_RRPV
        # RRPVs never exceed MAX_RRPV (aging only runs when no way is at
        # the maximum), so the ==-scan is an exact-match search.
        if max_rrpv not in rrpvs:
            # Age every line by the distance to the nearest re-reference
            # in one shot — equivalent to repeated +1 rounds.
            step = max_rrpv - max(rrpvs)
            rrpvs = [r + step for r in rrpvs]
            self._rrpv[base:end] = rrpvs
        return base + rrpvs.index(max_rrpv)

    def snapshot_state(self):
        return list(self._rrpv)

    def restore_state(self, state) -> None:
        # In place: Cache aliases this list for its inlined hit/fill
        # updates — rebinding it would silently break the alias.
        restore_flat(self._rrpv, state)


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (deterministic under a seeded RNG)."""

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways)
        self._rng = random.Random(seed)

    def on_hit(self, slot: int) -> None:
        pass

    def on_fill(self, slot: int) -> None:
        pass

    def victim(self, base: int) -> int:
        return base + self._rng.randrange(self.ways)

    def snapshot_state(self):
        return self._rng.getstate()

    def restore_state(self, state) -> None:
        self._rng.setstate(state)


_POLICIES = {"lru": LRUPolicy, "srrip": SRRIPPolicy, "random": RandomPolicy}


def make_replacement_policy(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    """Construct a policy by name: ``lru``, ``srrip``, or ``random``."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, ways)
