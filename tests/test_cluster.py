"""MPC cluster simulator: routing, metering, the one view, phases."""

import pytest

from repro.config import ExecutionConfig
from repro.errors import ConfigError
from repro.mpc import MPCCluster, RoutingError
from repro.mpc.stats import LoadTracker


def test_exchange_delivers_and_charges():
    cluster = MPCCluster(4)
    view = cluster.view()
    outboxes = [[(1, "a"), (2, "b")], [(1, "c")], [], [(0, "d")]]
    inboxes = view.exchange(outboxes)
    assert inboxes == [["d"], ["a", "c"], ["b"], []]
    report = cluster.report()
    assert report.max_load == 2  # server 1 received two items
    assert report.total_communication == 4
    assert report.rounds == 1


def test_exchange_rejects_bad_destination():
    view = MPCCluster(2).view()
    with pytest.raises(RoutingError):
        view.exchange([[(5, "x")], []])


def test_exchange_requires_all_outboxes():
    view = MPCCluster(3).view()
    with pytest.raises(RoutingError):
        view.exchange([[]])


def test_broadcast_charges_every_server():
    cluster = MPCCluster(3)
    view = cluster.view()
    everything = view.broadcast([["a"], ["b"], []])
    assert everything == ["a", "b"]
    assert cluster.report().max_load == 2
    assert cluster.report().total_communication == 6


def test_gather_brings_items_to_one_server():
    cluster = MPCCluster(3)
    view = cluster.view()
    items = view.gather([["a"], ["b", "c"], []], dest=1)
    assert sorted(items) == ["a", "b", "c"]
    assert cluster.report().max_load == 3


def test_control_channel_is_separate():
    cluster = MPCCluster(4)
    view = cluster.view()
    view.control_gather([1, 2, 3, 4])
    view.control_scatter(2)
    report = cluster.report()
    assert report.max_load == 0
    assert report.control_messages == 4 + 2 * 4


def test_a_cluster_has_one_view_and_one_cursor():
    cluster = MPCCluster(3)
    view = cluster.view()
    assert cluster.view() is view
    assert view.servers == (0, 1, 2)
    view.exchange([[(1, "x")], [], []])
    assert cluster.view().round == 1 == cluster.report().rounds


def test_phase_is_the_round_interval_it_was_open_for():
    from repro.mpc import Fault, FaultSchedule

    # The straggler stalls round 0 by two rounds: the cursor jumps 0 → 3.
    cluster = MPCCluster(2, faults=FaultSchedule([Fault("straggler", 0, 0, delay=2)]))
    view, tracker = cluster.view(), cluster.tracker
    with tracker.phase("whole"):
        with tracker.phase("stalled"):
            view.exchange([[(0, "x")] * 5, []])
        assert view.round == 3
        with tracker.phase("after"):
            view.exchange([[(1, "y")] * 2, []])
    assert cluster.report().phases == (("stalled", 5), ("after", 2), ("whole", 5))
    assert tracker.per_round_loads() == [5, 0, 0, 2]


def test_single_server_cluster_works():
    cluster = MPCCluster(1)
    view = cluster.view()
    inboxes = view.exchange([[(0, "x"), (0, "y")]])
    assert inboxes == [["x", "y"]]


def test_cluster_requires_servers():
    with pytest.raises(ConfigError):
        MPCCluster(0)


def test_tracker_phases():
    tracker = LoadTracker()
    tracker.push_phase("alpha")
    tracker.record_receive(0, 0, 5)
    tracker.pop_phase()
    tracker.push_phase("beta")
    tracker.record_receive(1, 1, 2)
    tracker.pop_phase()
    report = tracker.report()
    assert ("alpha", 5) in report.phases
    assert ("beta", 2) in report.phases


def test_tracker_rejects_negative_counts():
    tracker = LoadTracker()
    with pytest.raises(ValueError):
        tracker.record_receive(0, 0, -1)


def test_per_round_loads():
    tracker = LoadTracker()
    tracker.record_receive(0, 0, 3)
    tracker.record_receive(2, 1, 7)
    assert tracker.per_round_loads() == [3, 0, 7]
    assert tracker.rounds == 3


def test_phase_context_manager():
    tracker = LoadTracker()
    with tracker.phase("outer"):
        tracker.record_receive(0, 0, 4)
        with tracker.phase("inner"):
            tracker.record_receive(1, 1, 9)
    phases = dict(tracker.report().phases)
    assert phases["inner"] == 9
    assert phases["outer"] == 9  # max over its whole span


def test_phase_survives_exceptions():
    tracker = LoadTracker()
    try:
        with tracker.phase("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    # Stack unwound; a later phase still records cleanly.
    with tracker.phase("after"):
        tracker.record_receive(0, 0, 2)
    assert dict(tracker.report().phases) == {"after": 2}


def test_algorithm_reports_include_phases():
    from repro import run_query
    from repro.workloads import planted_out_matmul

    result = run_query(planted_out_matmul(n=150, out=9000), ExecutionConfig(p=4))
    labels = [label for label, _load in result.report.phases]
    assert any(label.startswith("matmul-wc/") for label in labels)
