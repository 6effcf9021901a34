"""Equivalence tests: batched operations, bounded scheduler runs, and
BackgroundNoise window semantics."""

import dataclasses
import random

import pytest

from repro.config import SystemConfig
from repro.exp.warmstore import WarmStore
from repro.sim import DeadlockError, Scheduler, Semaphore
from repro.system import BackgroundNoise, System


# ----------------------------------------------------------------------
# Batched operation API
# ----------------------------------------------------------------------


def _addrs(count, stride=64, mod=1 << 21, mul=5):
    return [(i * stride * mul) % mod for i in range(count)]


def _config(replacement="srrip", prefetchers=True, mapping="row",
            refresh=False):
    """Paper config with a small L2/LLC, so a few thousand accesses reach
    LLC evictions, back-invalidations and DRAM write-backs."""
    config = SystemConfig.paper_default()
    hier = dataclasses.replace(
        config.hierarchy, l2_size_kb=64, llc_size_mb=0.25,
        prefetchers_enabled=prefetchers,
        l1_replacement=replacement, l2_replacement=replacement,
        llc_replacement=replacement)
    return dataclasses.replace(config, hierarchy=hier, mapping=mapping,
                               refresh_enabled=refresh)


def _mixed_stream(rng, system, count):
    """Probe-array replay hits, same-bank row-conflict bursts, short-range
    reuse and sequential sweeps, in random order: every hit level, DRAM
    row hits and conflicts, evictions and write-backs."""
    probe = [0x100000 + i * 64 for i in range(256)]
    nb = system.num_banks
    addrs = []
    pair = 0
    while len(addrs) < count:
        roll = rng.random()
        if roll < 0.35:
            addrs.extend(rng.choice(probe)
                         for _ in range(rng.randrange(20, 120)))
        elif roll < 0.65:
            for _ in range(rng.randrange(40, 200)):
                bank = (pair // 2) % nb
                col = (pair // (2 * nb)) % 128
                row = 2 * (pair // (2 * nb * 128)) + (pair & 1)
                addrs.append(system.address_of(bank, row % 4096, col * 64))
                pair += 1
        elif roll < 0.80 and addrs:
            addrs.extend(rng.choice(addrs[-300:])
                         for _ in range(rng.randrange(20, 120)))
        else:
            base = rng.randrange(0, 1 << 22) * 64
            addrs.extend(base + t * 64
                         for t in range(rng.randrange(30, 150)))
    return addrs[:count]


def _chain(hierarchy, addrs, now, **kwargs):
    """Reference: one :meth:`access` per address, each issued at the
    previous finish."""
    for addr in addrs:
        now = hierarchy.access(0, addr, now, **kwargs).finish
    return now


@pytest.mark.parametrize("replacement,prefetchers,mapping,refresh,sanitize", [
    ("lru", True, "row", False, False),
    ("lru", False, "xor", True, False),
    ("srrip", True, "line", True, True),
    ("srrip", False, "row", False, False),
    ("random", True, "xor", False, False),
    ("random", False, "line", True, True),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_access_batch_matches_chained_accesses(replacement, prefetchers,
                                               mapping, refresh, sanitize,
                                               seed):
    config = _config(replacement, prefetchers, mapping, refresh)
    loop_sys = System(config, sanitize=False)
    batch_sys = System(config, sanitize=sanitize)
    addrs = _mixed_stream(random.Random(seed), loop_sys, 3000)
    writes = addrs[: len(addrs) // 3]
    now = _chain(loop_sys.hierarchy, addrs, 100, pc=7, requestor="recv")
    now = _chain(loop_sys.hierarchy, writes, now, is_write=True,
                 requestor="send")
    batch = batch_sys.hierarchy.access_batch
    finish = batch(0, addrs, 100, pc=7, requestor="recv")
    finish = batch(0, writes, finish, is_write=True, requestor="send")
    assert finish == now
    assert batch_sys.snapshot().payload == loop_sys.snapshot().payload


@pytest.mark.parametrize("count", [1, 8, 63, 200])
@pytest.mark.parametrize("as_generator", [False, True])
def test_access_batch_takes_short_batches_and_generators(count,
                                                         as_generator):
    addrs = _addrs(count, mul=3)
    loop_sys = System(SystemConfig.paper_default())
    batch_sys = System(SystemConfig.paper_default())
    now = _chain(loop_sys.hierarchy, addrs, 0)
    finish = batch_sys.hierarchy.access_batch(
        0, (a for a in addrs) if as_generator else addrs, 0)
    assert finish == now
    assert batch_sys.snapshot().payload == loop_sys.snapshot().payload


@pytest.mark.parametrize("via_warm_store", [False, True])
def test_snapshot_restore_replay_matches_uninterrupted_run(via_warm_store,
                                                           tmp_path):
    config = _config(prefetchers=False)
    system = System(config)
    addrs = _mixed_stream(random.Random(3), system, 6000)
    mid = system.hierarchy.access_batch(0, addrs[:3000], 0, requestor="recv")
    snap = system.snapshot()
    if via_warm_store:
        WarmStore(str(tmp_path), version="v-test").store_snapshot(
            snap, recipe=("replay-test",))
        snap = WarmStore(str(tmp_path), version="v-test").load_snapshot(
            config, ("replay-test",))
        assert snap is not None
    fresh = System(config)
    fresh.restore(snap)
    tail = system.hierarchy.access_batch(0, addrs[3000:], mid,
                                         requestor="recv")
    assert fresh.hierarchy.access_batch(0, addrs[3000:], mid,
                                        requestor="recv") == tail
    assert fresh.snapshot().payload == system.snapshot().payload


def test_load_many_matches_load_loop():
    addrs = _addrs(1500, mul=11)
    loop_sys = System(SystemConfig.paper_default())
    batch_sys = System(SystemConfig.paper_default())

    def loop_body(ctx):
        for addr in addrs:
            loop_sys.load(ctx, 0, addr, requestor="cpu")
        yield None

    def batch_body(ctx):
        batch_sys.load_many(ctx, 0, addrs, requestor="cpu")
        yield None

    sched_a = Scheduler()
    thread_a = sched_a.spawn(loop_body)
    sched_a.run()
    sched_b = Scheduler()
    thread_b = sched_b.spawn(batch_body)
    sched_b.run()
    assert thread_a.now == thread_b.now
    assert (loop_sys.hierarchy.llc.stats.misses
            == batch_sys.hierarchy.llc.stats.misses)


# ----------------------------------------------------------------------
# Scheduler bounded runs and deadlock reporting
# ----------------------------------------------------------------------


def test_bounded_run_is_resumable():
    sched = Scheduler()
    seen = []

    def body(ctx):
        for _ in range(10):
            ctx.advance(10)
            seen.append(ctx.now)
            yield None

    sched.spawn(body)
    sched.run(until=35)
    mid = list(seen)
    assert max(mid) <= 45  # paused near the bound, not run to completion
    assert len(mid) < 10
    sched.run()
    assert seen == [10 * (i + 1) for i in range(10)]


def test_deadlock_error_names_the_primitive():
    sched = Scheduler()
    sem = Semaphore(name="handshake")

    def waiter(ctx):
        yield sem.acquire()

    sched.spawn(waiter, name="stuck")
    with pytest.raises(DeadlockError, match=r"stuck.*handshake"):
        sched.run()


# ----------------------------------------------------------------------
# BackgroundNoise windows
# ----------------------------------------------------------------------


def _make_noise(rate, seed=7):
    system = System(SystemConfig.paper_default())
    return BackgroundNoise(system.controller, rate, seed)


def test_noise_zero_rate_never_fires():
    noise = _make_noise(0.0)
    assert noise.run(0, 1_000_000) == 0
    assert noise.injected == 0


def test_noise_empty_or_inverted_window_fires_nothing():
    noise = _make_noise(5.0)
    assert noise.run(100, 100) == 0
    assert noise.run(100, 50) == 0


def test_noise_contiguous_windows_match_one_big_window():
    big = _make_noise(5.0)
    split = _make_noise(5.0)
    total_big = big.run(0, 60_000)
    total_split = sum(split.run(start, start + 10_000)
                      for start in range(0, 60_000, 10_000))
    # The pending-event state carries across contiguous windows, so
    # splitting the window must not create or drop events.
    assert total_big == total_split
    assert big.injected == split.injected


def test_noise_event_spanning_a_gap_is_rescheduled_not_replayed():
    noise = _make_noise(0.05)  # sparse: mean gap 20k cycles
    noise.run(0, 1000)
    pending = noise._next_event
    assert pending is not None and pending >= 1000
    # A window far past the pending event reschedules from its start
    # rather than firing stale events from the skipped-over gap.
    far_start = pending + 500_000
    fired = noise.run(far_start, far_start + 1)
    assert fired == 0
    assert noise._next_event >= far_start


def test_noise_snapshot_round_trip_resumes_stream():
    noise = _make_noise(5.0)
    noise.run(0, 5_000)
    state = noise.snapshot_state()
    a = [noise.run(start, start + 1_000)
         for start in range(5_000, 15_000, 1_000)]
    noise.restore_state(state)
    b = [noise.run(start, start + 1_000)
         for start in range(5_000, 15_000, 1_000)]
    assert a == b
