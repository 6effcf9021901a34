"""``Cache`` against a small per-set reference model (hypothesis).

The model below keeps one tag/dirty/replacement row per set and spells out
the victim order the simulator promises: the lowest invalid way first;
otherwise LRU evicts the first way with the oldest stamp, SRRIP ages the
set in one step and evicts the first way at the maximum RRPV, and Random
draws ``randrange(ways)`` from a seed-0 RNG only when the set is full.
Every return value, every evicted line, the resident lines of every set
and the stats must match, so a change to the victim order fails here.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheConfig

LINE = 64
MAX_RRPV = 3


class ReferenceCache:
    def __init__(self, sets, ways, replacement):
        self.sets = sets
        self.ways = ways
        self.replacement = replacement
        self.tags = [[None] * ways for _ in range(sets)]
        self.dirty = [[False] * ways for _ in range(sets)]
        self.stamp = 0
        self.last_use = [[0] * ways for _ in range(sets)]
        self.rrpv = [[MAX_RRPV] * ways for _ in range(sets)]
        self.rng = random.Random(0)
        self.stats = dict(hits=0, misses=0, fills=0, evictions=0,
                          writebacks=0, invalidations=0)

    def _locate(self, line):
        row = self.tags[line % self.sets]
        return line % self.sets, (row.index(line) if line in row else None)

    def _touch(self, s, way):
        self.stamp += 1
        self.last_use[s][way] = self.stamp
        self.rrpv[s][way] = 0

    def _victim(self, s):
        if None in self.tags[s]:
            return self.tags[s].index(None)
        if self.replacement == "lru":
            uses = self.last_use[s]
            return uses.index(min(uses))
        if self.replacement == "random":
            return self.rng.randrange(self.ways)
        rrpvs = self.rrpv[s]
        while MAX_RRPV not in rrpvs:
            rrpvs[:] = [r + 1 for r in rrpvs]
        return rrpvs.index(MAX_RRPV)

    def access(self, line, is_write):
        s, way = self._locate(line)
        if way is None:
            self.stats["misses"] += 1
            return False
        self._touch(s, way)
        if is_write:
            self.dirty[s][way] = True
        self.stats["hits"] += 1
        return True

    def fill(self, line, dirty):
        s, way = self._locate(line)
        if way is not None:
            self._touch(s, way)
            if dirty:
                self.dirty[s][way] = True
            return None
        way = self._victim(s)
        evicted = None
        if self.tags[s][way] is not None:
            evicted = (self.tags[s][way] * LINE, self.dirty[s][way])
            self.stats["evictions"] += 1
            self.stats["writebacks"] += evicted[1]
        self.tags[s][way] = line
        self.dirty[s][way] = dirty
        self.stamp += 1
        self.last_use[s][way] = self.stamp
        self.rrpv[s][way] = MAX_RRPV - 1
        self.stats["fills"] += 1
        return evicted

    def invalidate(self, line):
        s, way = self._locate(line)
        if way is None:
            return None
        was_dirty = self.dirty[s][way]
        self.tags[s][way] = None
        self.dirty[s][way] = False
        self.stats["invalidations"] += 1
        return was_dirty

    def resident_lines(self, s):
        return [tag * LINE for tag in self.tags[s] if tag is not None]


OPS = ["access", "write", "fill", "dirty-fill", "invalidate"]


@given(replacement=st.sampled_from(["lru", "srrip", "random"]),
       sets=st.sampled_from([1, 2, 4]),
       ways=st.sampled_from([1, 2, 4, 8]),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_cache_matches_per_set_reference(replacement, sets, ways, data):
    # About three lines per way keeps every set contended.
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(OPS),
                  st.integers(min_value=0, max_value=3 * sets * ways - 1)),
        min_size=1, max_size=200))
    cache = Cache(CacheConfig(name="t", size_bytes=sets * ways * LINE,
                              ways=ways, latency_cycles=1,
                              replacement=replacement))
    model = ReferenceCache(sets, ways, replacement)
    for op, line in ops:
        addr = line * LINE + line % LINE  # any byte of the line
        if op in ("access", "write"):
            got = cache.access(addr, is_write=op == "write")
            want = model.access(line, op == "write")
        elif op in ("fill", "dirty-fill"):
            evicted = cache.fill(addr, dirty=op == "dirty-fill")
            got = None if evicted is None else (evicted.addr, evicted.dirty)
            want = model.fill(line, op == "dirty-fill")
        else:
            got = cache.invalidate(addr)
            want = model.invalidate(line)
        assert got == want, (op, line)
    for s in range(sets):
        assert cache.resident_lines(s) == model.resident_lines(s)
    stats = cache.stats
    assert model.stats == dict(
        hits=stats.hits, misses=stats.misses, fills=stats.fills,
        evictions=stats.evictions, writebacks=stats.writebacks,
        invalidations=stats.invalidations)
