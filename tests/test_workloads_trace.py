"""Tests for memory-trace profiling."""

import pytest

from repro.dram import DRAMGeometry
from repro.workloads import RefStream, profile_trace, workload_spec

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)


def sequential_refs(count, start=0, step=64, write_every=0, cycles=1):
    """``count`` strided touches from one PC, repeated ``cycles`` times."""
    return RefStream.from_refs(
        [(0x400, start + i * step, bool(write_every and i % write_every == 0))
         for i in range(count)] * cycles, 2)


def test_sequential_stream_has_high_row_locality():
    profile = profile_trace(sequential_refs(512), geometry=GEOM)
    assert profile.row_locality > 0.95
    assert profile.refs == 512
    assert profile.distinct_lines == 512


def test_row_stride_stream_has_zero_row_locality():
    # One access per row in one bank: every transition switches rows.
    stride = GEOM.row_bytes * GEOM.num_banks
    profile = profile_trace(sequential_refs(64, step=stride), geometry=GEOM)
    assert profile.row_locality == 0.0
    assert len(profile.bank_histogram) == 1


def test_bank_balance_metrics():
    balanced = profile_trace(sequential_refs(GEOM.num_banks,
                                             step=GEOM.row_bytes),
                             geometry=GEOM)
    assert balanced.bank_balance == 1.0
    skewed = profile_trace(sequential_refs(64, step=0), geometry=GEOM)
    assert skewed.bank_balance < 0.1


def test_write_fraction():
    profile = profile_trace(sequential_refs(100, write_every=2), geometry=GEOM)
    assert profile.write_fraction == pytest.approx(0.5)


def test_reuse_distance_of_cyclic_pattern():
    refs = sequential_refs(8, cycles=4)  # cycle over 8 lines
    profile = profile_trace(refs, geometry=GEOM)
    assert profile.reuse_distance_p50 == 7  # 7 distinct lines in between
    assert profile.distinct_lines == 8


def test_no_reuse_reports_none():
    profile = profile_trace(sequential_refs(16), geometry=GEOM)
    assert profile.reuse_distance_p50 is None


def test_workload_profiles_match_their_design():
    """The Fig. 11 scaling rationale, audited: PR's stream carries more
    row locality than CC's pointer chasing."""
    pr = profile_trace(workload_spec("PR").refs(max_refs=4000), geometry=GEOM)
    cc = profile_trace(workload_spec("CC").refs(max_refs=4000), geometry=GEOM)
    assert pr.row_locality > cc.row_locality
    assert "refs" in pr.summary()
