"""Unit tests for replacement policies (flat slot API: ``victim(base)`` is
only asked about a full set; invalid ways are the cache's concern)."""

import pytest

from repro.cache import (
    Cache,
    CacheConfig,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    make_replacement_policy,
)


def test_lru_evicts_oldest():
    policy = LRUPolicy(num_sets=1, ways=4)
    for way in range(4):
        policy.on_fill(way)
    policy.on_hit(0)  # way 0 becomes most recent
    assert policy.victim(0) == 1


def test_lru_victim_stays_inside_its_set():
    policy = LRUPolicy(num_sets=3, ways=4)
    for slot in range(12):
        policy.on_fill(slot)
    policy.on_hit(4)  # set 1's first way becomes most recent
    assert policy.victim(4) == 5
    assert policy.victim(0) == 0
    assert policy.victim(8) == 8


@pytest.mark.parametrize("replacement", ["lru", "srrip", "random"])
def test_cache_prefers_lowest_invalid_way(replacement):
    cache = Cache(CacheConfig(name="t", size_bytes=4 * 64, ways=4,
                              latency_cycles=1, replacement=replacement))
    for line in range(4):
        cache.fill(line * 64)
    cache.invalidate(1 * 64)
    cache.invalidate(3 * 64)
    assert cache.fill(10 * 64) is None  # no eviction: way 1 was invalid
    assert cache.resident_lines(0) == [0, 10 * 64, 2 * 64]
    assert cache.fill(11 * 64) is None
    assert cache.resident_lines(0) == [0, 10 * 64, 2 * 64, 11 * 64]


def test_srrip_hit_promotes_to_zero():
    policy = SRRIPPolicy(num_sets=1, ways=2)
    policy.on_fill(0)
    policy.on_fill(1)
    policy.on_hit(0)
    # Way 0 has RRPV 0, way 1 has MAX-1; aging finds way 1 first.
    assert policy.victim(0) == 1


def test_srrip_ages_in_one_step_and_picks_first_at_max():
    policy = SRRIPPolicy(num_sets=2, ways=4)
    for slot in range(4, 8):
        policy.on_fill(slot)
    policy.on_hit(4)
    policy.on_hit(6)
    assert policy._rrpv[4:8] == [0, 2, 0, 2]
    assert policy.victim(4) == 5
    assert policy._rrpv[4:8] == [1, 3, 1, 3]
    assert policy._rrpv[:4] == [SRRIPPolicy.MAX_RRPV] * 4  # set 0 untouched


def test_srrip_can_retain_reused_line_against_fills():
    """The property that defeats naive eviction sets (Table 1): a re-used
    line survives a burst of single-use fills."""
    policy = SRRIPPolicy(num_sets=1, ways=4)
    for way in range(4):
        policy.on_fill(way)
    policy.on_hit(2)  # target line re-referenced
    victims = []
    for _ in range(3):
        victim = policy.victim(0)
        policy.on_fill(victim)
        victims.append(victim)
    assert 2 not in victims


def test_random_is_deterministic_under_seed():
    a = RandomPolicy(num_sets=2, ways=8, seed=7)
    b = RandomPolicy(num_sets=2, ways=8, seed=7)
    draws = [a.victim(8) for _ in range(10)]
    assert draws == [b.victim(8) for _ in range(10)]
    assert all(8 <= slot < 16 for slot in draws)


def test_factory_dispatch():
    assert isinstance(make_replacement_policy("lru", 4, 2), LRUPolicy)
    assert isinstance(make_replacement_policy("srrip", 4, 2), SRRIPPolicy)
    assert isinstance(make_replacement_policy("random", 4, 2), RandomPolicy)
    with pytest.raises(ValueError):
        make_replacement_policy("fifo", 4, 2)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        LRUPolicy(num_sets=0, ways=4)
