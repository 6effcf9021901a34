"""Tests for the simulated Streamline channel [115]."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import System, SystemConfig
from repro.attacks import StreamlineChannel, streamline_upper_bound_mbps
from repro.attacks.streamline import shared_order
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry


def small_config(llc_mb=2.0, prefetchers=False):
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=8192),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=llc_mb,
                                  prefetchers_enabled=prefetchers),
        num_cores=2)


def make_channel(llc_mb=2.0, prefetchers=False, **kwargs):
    kwargs.setdefault("array_mb", 16.0)
    return StreamlineChannel(System(small_config(llc_mb, prefetchers)),
                             **kwargs)


def test_transmits_error_free_without_noise():
    result = make_channel().transmit_random(96, seed=3)
    assert result.error_rate == 0.0


def test_decode_convention_inverted():
    """Streamline decodes FAST (cache hit) as 1."""
    channel = make_channel()
    assert channel.decode(30) == 1
    assert channel.decode(150) == 0


def test_no_flushes_and_no_semaphores_needed():
    """Flushless and synchronization-free: the hierarchy records zero
    clflushes for either party."""
    system = System(small_config())
    channel = StreamlineChannel(system, array_mb=16.0)
    channel.transmit_random(64, seed=4)
    assert system.hierarchy.stats.clflushes == 0


def test_throughput_below_analytical_bound():
    """§5.1: the analytical model upper-bounds the implementable channel."""
    config = SystemConfig.paper_default()
    sim = StreamlineChannel(System(config)).transmit_random(128, seed=5)
    bound = streamline_upper_bound_mbps(System(config))
    assert sim.throughput_mbps <= bound
    assert sim.throughput_mbps > 0.5 * bound  # but not far below


def test_throughput_degrades_with_llc_size():
    small = make_channel(llc_mb=2.0).transmit_random(96, seed=6)
    large = make_channel(llc_mb=8.0, array_mb=48.0).transmit_random(96, seed=6)
    assert large.throughput_mbps < small.throughput_mbps


def test_survives_prefetchers_via_random_traversal():
    """The shuffled walk starves the stream prefetchers; a sequential walk
    would hand the receiver false hits."""
    result = make_channel(prefetchers=True).transmit_random(96, seed=7)
    assert result.error_rate < 0.05


def test_message_too_long_rejected():
    channel = make_channel(array_mb=4.1)
    with pytest.raises(ValueError):
        channel.transmit_random(100_000, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        make_channel(redundancy=2)  # must be odd
    with pytest.raises(ValueError):
        make_channel(lag_line_slots=0)
    with pytest.raises(ValueError):
        make_channel(llc_mb=8.0, array_mb=8.0)  # array must outsize LLC


@given(total=st.integers(min_value=1, max_value=5000),
       seed=st.integers(min_value=0, max_value=2**32),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_shared_order_prefix_is_a_seeded_partial_permutation(total, seed,
                                                             data):
    short = data.draw(st.integers(min_value=0, max_value=total))
    length = data.draw(st.integers(min_value=short, max_value=total))
    prefix = shared_order(total, seed, length)
    assert len(prefix) == length
    assert len(set(prefix)) == length  # distinct entries
    assert all(0 <= index < total for index in prefix)
    assert shared_order(total, seed, length) == prefix  # deterministic
    # Prefix-consistent: sender and receiver agree whatever length either
    # side draws.
    assert shared_order(total, seed, short) == prefix[:short]


def test_shared_order_full_length_is_a_permutation():
    order = shared_order(5000, 7, 5000)
    assert sorted(order) == list(range(5000))
    assert order != list(range(5000))  # actually shuffled
    assert shared_order(5000, 8, 5000) != order  # seeded


def test_shared_order_rejects_length_beyond_array():
    with pytest.raises(ValueError):
        shared_order(100, 1, 101)


def test_transmit_never_builds_a_full_array_order(monkeypatch):
    """A 64 MB-LLC channel draws only the prefix its message walks: no
    shuffle of the ~4M-line shared array ever runs."""
    import random

    def no_shuffle(self, x):
        raise AssertionError("full-array shuffle built")

    monkeypatch.setattr(random.Random, "shuffle", no_shuffle)
    channel = StreamlineChannel(
        System(SystemConfig.paper_default().with_llc(64.0)))
    assert channel.total_lines > 4_000_000
    result = channel.transmit_random(192, seed=1)
    assert len(result.received) == 192
