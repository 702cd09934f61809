"""Observability layer: events, sinks, skew metrics, JSONL round-trip.

Includes the PR's acceptance checks: a `repro trace --family line --p 8`
JSONL trace reconstructs `CostReport.max_load` / `total_communication`
exactly, and tracing (or its absence) never perturbs the metered load.
"""

import json

import pytest

from repro.config import ExecutionConfig
from repro.core.executor import run_query
from repro.mpc.cluster import MPCCluster
from repro.mpc.stats import CostReport, LoadTracker
from repro.obs import (
    CallbackSink,
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
    event_from_dict,
    event_to_dict,
    gini,
    load_matrix_from_events,
    load_matrix_from_tracker,
    per_round_stats,
    per_server_totals,
    percentile,
    phase_loads_from_events,
    read_trace,
    render_heatmap,
    report_from_trace,
    round_maxima,
    skew_stats,
    trace_aggregates,
)
from repro.workloads import line_instance, planted_out_matmul


# -- skew-metric math on hand-built vectors -----------------------------------


def test_skew_stats_balanced_vector():
    stats = skew_stats([4, 4, 4, 4])
    assert stats.n == 4 and stats.total == 16
    assert stats.max == 4 and stats.mean == 4.0
    assert stats.p95 == 4
    assert stats.imbalance == 1.0
    assert stats.gini == 0.0


def test_skew_stats_concentrated_vector():
    stats = skew_stats([0, 0, 0, 8])
    assert stats.max == 8 and stats.mean == 2.0
    assert stats.imbalance == 4.0
    assert stats.gini == pytest.approx(0.75)  # (n-1)/n for a single hot server
    assert stats.p95 == 8


def test_skew_stats_empty_vector():
    stats = skew_stats([])
    assert stats.n == 0 and stats.max == 0 and stats.imbalance == 0.0
    assert stats.gini == 0.0


def test_gini_properties():
    assert gini([]) == 0.0
    assert gini([0, 0, 0]) == 0.0
    assert gini([5, 5, 5, 5]) == 0.0
    # More skew ⇒ larger Gini, always within [0, 1).
    g_mild, g_severe = gini([3, 4, 5, 4]), gini([0, 1, 1, 14])
    assert 0.0 < g_mild < g_severe < 1.0


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7], 95) == 7
    assert percentile([], 95) == 0
    with pytest.raises(ValueError):
        percentile([1], 150)


def test_matrix_marginals():
    matrix = [[1, 2, 3], [4, 0, 2]]
    assert per_server_totals(matrix) == [5, 2, 5]
    assert round_maxima(matrix) == [3, 4]
    stats = per_round_stats(matrix)
    assert [s.max for s in stats] == [3, 4]
    assert stats[0].total == 6


# -- event serialization and sinks --------------------------------------------


def test_event_dict_round_trip():
    event = TraceEvent(
        op="exchange",
        round=3,
        servers=(0, 2, 5),
        received=(1, 0, 9),
        phase=("outer", "inner"),
        algorithm="line",
        scope="bench",
        detail={"tasks": [0, 1]},
    )
    assert event_from_dict(event_to_dict(event)) == event
    assert event.total == 10 and event.max_received == 9


def test_event_dict_omits_empty_fields():
    record = event_to_dict(TraceEvent(op="exchange", round=0, servers=(0,),
                                      received=(2,)))
    assert set(record) == {"op", "round", "servers", "received"}


def test_ring_buffer_sink_capacity():
    sink = RingBufferSink(capacity=2)
    for index in range(5):
        sink.write(TraceEvent(op="exchange", round=index, servers=(0,)))
    assert len(sink) == 2
    assert [event.round for event in sink.events] == [3, 4]
    sink.clear()
    assert len(sink) == 0


def test_callback_sink_and_tracer_fanout():
    seen = []
    tracer = Tracer([CallbackSink(seen.append), RingBufferSink()])
    tracer.emit("exchange", 0, (0, 1), (3, 4))
    assert len(seen) == 1
    assert seen[0].received == (3, 4)
    assert tracer.active


def test_inactive_tracer_emits_nothing():
    tracer = Tracer([])
    assert not tracer.active
    tracer.emit("exchange", 0, (0,), (1,))  # no sinks: a no-op, not an error


# -- cluster integration -------------------------------------------------------


def _run_traced(instance, p, algorithm="auto"):
    ring = RingBufferSink()
    cluster = MPCCluster(p, tracer=Tracer([ring]))
    result = run_query(instance, ExecutionConfig(algorithm=algorithm), cluster=cluster)
    return result, ring.events


def test_tracing_does_not_perturb_metering():
    instance = planted_out_matmul(n=120, out=600)
    plain = run_query(instance, ExecutionConfig(p=4))
    traced, events = _run_traced(instance, p=4)
    assert events, "tracer saw no events"
    assert traced.report == plain.report
    assert traced.relation.tuples == plain.relation.tuples


def test_untraced_cluster_has_no_tracer_overhead_path():
    cluster = MPCCluster(4)
    assert cluster.tracker.tracer is None
    view = cluster.view()
    view.exchange([[(0, "x")], [], [], []])  # the None fast path


def test_trace_matches_tracker_matrix():
    instance = line_instance(3, 60, 8, seed=0)
    ring = RingBufferSink()
    cluster = MPCCluster(8, tracer=Tracer([ring]))
    run_query(instance, cluster=cluster)
    from_tracker, servers_t = load_matrix_from_tracker(
        cluster.tracker, servers=list(range(8))
    )
    from_events, servers_e = load_matrix_from_events(ring.events)
    # Event matrix only lists servers that received something; embed and compare.
    column = {server: j for j, server in enumerate(servers_t)}
    embedded = [[0] * len(servers_t) for _ in from_tracker]
    for round_index, row in enumerate(from_events):
        for server, value in zip(servers_e, row):
            embedded[round_index][column[server]] = value
    assert embedded == from_tracker


def test_gather_and_broadcast_ops_are_tagged():
    ring = RingBufferSink()
    cluster = MPCCluster(3, tracer=Tracer([ring]))
    view = cluster.view()
    view.gather([["a"], ["b", "c"], []], dest=1)
    view.broadcast([["x"], [], []])
    ops = [event.op for event in ring.events]
    assert ops == ["gather", "broadcast"]
    assert ring.events[0].received == (0, 3, 0)
    assert ring.events[1].received == (1, 1, 1)


# -- JSONL round-trip (acceptance) --------------------------------------------


def test_trace_cli_roundtrip_line_p8(tmp_path, capsys):
    """`repro trace --family line --p 8`: trace aggregates == CostReport."""
    from repro.cli import main

    trace_path = tmp_path / "line.jsonl"
    code = main(["trace", "--family", "line", "--p", "8",
                 "--trace-out", str(trace_path), "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    events = read_trace(str(trace_path))
    assert events, "trace file is empty"
    aggregates = trace_aggregates(events)
    # Per-round max over per-server receive counts == the paper's L…
    assert aggregates["max_load"] == summary["report"]["max_load"]
    # …and the event sum == total communication.
    assert aggregates["total_communication"] == summary["report"]["total_communication"]
    assert aggregates["rounds"] == summary["report"]["rounds"]


def test_report_from_trace(tmp_path):
    instance = line_instance(3, 60, 8, seed=0)
    trace_path = tmp_path / "t.jsonl"
    with Tracer([JsonlSink(str(trace_path))]) as tracer:
        cluster = MPCCluster(8, tracer=tracer)
        result = run_query(instance, cluster=cluster)
    rebuilt = report_from_trace(read_trace(str(trace_path)))
    assert rebuilt.max_load == result.report.max_load
    assert rebuilt.total_communication == result.report.total_communication
    assert rebuilt.rounds == result.report.rounds


def test_jsonl_sink_writes_parseable_lines(tmp_path):
    trace_path = tmp_path / "events.jsonl"
    with JsonlSink(str(trace_path)) as sink:
        sink.write(TraceEvent(op="exchange", round=0, servers=(0, 1),
                              received=(2, 0), phase=("alpha",)))
        sink.write(TraceEvent(op="broadcast", round=1, servers=(0, 1),
                              received=(5, 5)))
    lines = trace_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["phase"] == ["alpha"]
    events = read_trace(str(trace_path))
    assert events[1].op == "broadcast"


def test_jsonl_sink_flushes_every_n_events(tmp_path):
    """Crash-safety: events are on disk every ``flush_every`` writes, so a
    killed run loses at most the unflushed tail."""
    trace_path = tmp_path / "events.jsonl"
    handle = open(trace_path, "w", encoding="utf-8")
    sink = JsonlSink(handle, flush_every=2)
    event = TraceEvent(op="exchange", round=0, servers=(0,), received=(1,))
    sink.write(event)
    sink.write(event)  # second write crosses the flush threshold
    assert len(trace_path.read_text().strip().splitlines()) == 2
    sink.write(event)  # unflushed tail...
    sink.close()       # ...flushed by close
    assert len(trace_path.read_text().strip().splitlines()) == 3
    handle.close()


def test_jsonl_sink_rejects_bad_flush_every(tmp_path):
    with pytest.raises(ValueError):
        JsonlSink(str(tmp_path / "x.jsonl"), flush_every=0)


def test_jsonl_sink_close_is_idempotent(tmp_path):
    sink = JsonlSink(str(tmp_path / "events.jsonl"))
    sink.close()
    sink.close()  # second close must not raise on the closed handle


def test_tracer_close_is_idempotent(tmp_path):
    closes = []

    class CountingSink(RingBufferSink):
        def close(self):
            closes.append(1)

    tracer = Tracer([CountingSink()])
    tracer.close()
    tracer.close()
    assert len(closes) == 1


def test_phase_loads_from_events():
    events = [
        TraceEvent(op="exchange", round=0, servers=(0, 1), received=(4, 1),
                   phase=("build",)),
        TraceEvent(op="exchange", round=1, servers=(0, 1), received=(2, 7),
                   phase=("build", "probe")),
        TraceEvent(op="fault", round=1, servers=(0, 1), phase=("build",),
                   detail={"kind": "crash", "server": 0}),
        TraceEvent(op="exchange", round=2, servers=(0, 1), received=(3, 0)),
    ]
    loads = phase_loads_from_events(events)
    assert loads == {"build": 7, "build//probe": 7}


# -- CostReport export ---------------------------------------------------------


def test_cost_report_dict_round_trip():
    report = CostReport(
        max_load=48, total_communication=4162, rounds=71,
        control_messages=12, elementary_products=1232,
        phases=(("line/estimate-out", 19), ("line/heavy-side", 48)),
    )
    assert CostReport.from_dict(report.to_dict()) == report
    assert json.loads(json.dumps(report.to_dict()))["max_load"] == 48


def test_cost_report_from_partial_dict():
    report = CostReport.from_dict(
        {"max_load": 3, "total_communication": 9, "rounds": 2}
    )
    assert report.control_messages == 0 and report.phases == ()


# -- heatmap -------------------------------------------------------------------


def test_heatmap_renders_scale_and_peak():
    text = render_heatmap([[0, 1, 2], [8, 0, 4]], servers=[0, 1, 2])
    lines = text.splitlines()
    assert "round" in lines[0] and "max" in lines[0]
    assert "@" in text  # the hottest cell
    assert "scale:" in lines[-1]
    # Row maxima in the right margin.
    assert lines[2].rstrip().endswith("2")
    assert lines[3].rstrip().endswith("8")


def test_heatmap_empty_matrix():
    assert "empty trace" in render_heatmap([])
    assert "empty trace" in render_heatmap([[0, 0], [0, 0]])


def test_heatmap_buckets_wide_matrices():
    row = [i % 7 for i in range(256)]
    text = render_heatmap([row], max_columns=32)
    assert "bucketed" in text
    body_line = text.splitlines()[2]
    assert len(body_line.split()[1]) == 32


# -- tracker internals ---------------------------------------------------------


def test_tracker_load_cells_is_a_copy():
    tracker = LoadTracker()
    tracker.record_receive(0, 1, 5)
    cells = tracker.load_cells()
    cells[0][1] = 999
    assert tracker.load_cells() == {0: {1: 5}}


def test_tracker_phase_path():
    tracker = LoadTracker()
    assert tracker.phase_path() == ()
    with tracker.phase("outer"):
        with tracker.phase("inner"):
            assert tracker.phase_path() == ("outer", "inner")
    assert tracker.phase_path() == ()


# -- determinism under fault injection -----------------------------------------


def _faulted_trace(path, instance, schedule):
    from repro.mpc import FaultInjector, MPCCluster

    with Tracer([JsonlSink(str(path))]) as tracer:
        injector = FaultInjector(schedule, spares=len(schedule))
        cluster = MPCCluster(4, tracer=tracer, faults=injector)
        result = run_query(
            instance, ExecutionConfig(algorithm="matmul"), cluster=cluster
        )
    return result.report


def test_same_seed_same_schedule_byte_identical_trace(tmp_path):
    """Same seed + same FaultSchedule ⇒ byte-identical JSONL trace and an
    identical CostReport across two fresh clusters."""
    from repro.mpc import FaultSchedule, MPCCluster

    instance = planted_out_matmul(n=80, out=320, seed=9)
    probe = MPCCluster(4)
    run_query(instance, ExecutionConfig(algorithm="matmul"), cluster=probe)
    cells = sorted(
        (r, s)
        for r, row in probe.tracker.load_cells().items()
        for s, count in row.items() if count > 0
    )
    schedule = FaultSchedule.random(seed=23, cells=cells, count=3)
    assert len(schedule) == 3

    first = _faulted_trace(tmp_path / "a.jsonl", instance, schedule)
    second = _faulted_trace(tmp_path / "b.jsonl", instance, schedule)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert first == second
    # The trace actually contains the fault tier, not just base events.
    ops = {event.op for event in read_trace(str(tmp_path / "a.jsonl"))}
    assert "checkpoint" in ops and "fault" in ops
