"""Virtual server-range allocation (the paper's "allocate ⌈x/L⌉ servers")."""

import pytest

from repro.core.allocation import RangeAllocation
from repro.mpc import MPCCluster


def test_ranges_are_contiguous_and_sized():
    view = MPCCluster(8).view()
    alloc = RangeAllocation(view, {"a": 10, "b": 25, "c": 1}, load=10)
    assert alloc.width("a") == 1
    assert alloc.width("b") == 3
    assert alloc.width("c") == 1
    assert alloc.virtual_total == 5
    assert "a" in alloc and "z" not in alloc


def test_dest_is_deterministic_and_in_range():
    view = MPCCluster(4).view()
    alloc = RangeAllocation(view, {"t": 40}, load=10)
    dests = {alloc.dest("t", b) for b in range(100)}
    assert dests <= set(range(4))
    assert alloc.dest("t", 5) == alloc.dest("t", 5)


def test_colocation_within_task():
    # Same colocation key → same server; the point of the scheme.
    view = MPCCluster(16).view()
    alloc = RangeAllocation(view, {"x": 100, "y": 100}, load=10)
    assert alloc.dest("x", "k") == alloc.dest("x", "k")
    # Different tasks may map the same key elsewhere.
    destinations = {alloc.dest(task, "k") for task in ("x", "y")}
    assert len(destinations) >= 1  # may coincide after wrap, never errors


def test_wrap_spreads_over_real_servers():
    view = MPCCluster(4).view()
    alloc = RangeAllocation(view, {i: 12 for i in range(8)}, load=4)
    # 8 tasks × 3 virtual servers = 24 virtual over 4 real: hits them all.
    assert alloc.virtual_total == 24
    hit = {alloc.dest(task, key) for task in range(8) for key in range(50)}
    assert hit == {0, 1, 2, 3}


def test_load_must_be_positive():
    view = MPCCluster(2).view()
    with pytest.raises(ValueError):
        RangeAllocation(view, {"t": 5}, load=0)


def test_allocation_charges_control_traffic():
    cluster = MPCCluster(4)
    view = cluster.view()
    RangeAllocation(view, {i: 1 for i in range(10)}, load=1)
    assert cluster.report().control_messages >= 10
    assert cluster.report().max_load == 0
