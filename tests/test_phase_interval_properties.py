"""Property tests for phases as round intervals.

A cluster has one view, and its round cursor only moves forward, so the
tracker reads a phase's load as the largest per-round peak from the round
the phase opened at on.  The reference is the tag-based attribution a trace
carries: every event names the phases open when it was delivered, and
:func:`~repro.obs.trace_io.phase_loads_from_events` takes the max
per-(round, server) load under each phase path.  For every phase label, the
largest ``report.phases`` load must equal the largest trace load of the
paths ending in that label — on all five families, both backends, and under
a straggler + drop + crash schedule, whose straggler moves the cursor by
more than one round.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends.dispatch import HAS_NUMPY
from repro.conformance.chaos import delivery_cells
from repro.core.executor import run_query
from repro.mpc import Fault, FaultSchedule, MPCCluster
from repro.obs import LOAD_OPS, RingBufferSink, Tracer, phase_loads_from_events
from repro.workloads import (
    line_instance,
    planted_out_matmul,
    star_instance,
    starlike_instance,
    twig_instance,
)

P = 4

FAMILIES = {
    "matmul": lambda seed: planted_out_matmul(n=40, out=160, seed=seed),
    "line": lambda seed: line_instance(3, tuples=30, domain=8, seed=seed),
    "star": lambda seed: star_instance(3, 24, 6, 5, seed=seed),
    "star-like": lambda seed: starlike_instance((2, 1, 1), tuples=24, domain=6, seed=seed),
    "twig": lambda seed: twig_instance(tuples=24, domain=6, seed=seed),
}

BACKENDS = ("pytuple", "columnar") if HAS_NUMPY else ("pytuple",)


def _run(instance, backend: str, faults=None):
    sink = RingBufferSink()
    cluster = MPCCluster(P, tracer=Tracer((sink,)), faults=faults, backend=backend)
    return run_query(instance, cluster=cluster), cluster, sink.events


def _schedule(cells, picks, delay: int) -> FaultSchedule:
    """A straggler at the earliest picked delivery cell (it always fires:
    the faulted run matches the clean one up to it), then a drop and a
    crash at later picked cells."""
    chosen = sorted({cells[pick % len(cells)] for pick in picks})
    kinds = ("straggler", "drop", "crash")
    return FaultSchedule(
        Fault(kind, round_index, server, delay if kind == "straggler" else 0)
        for kind, (round_index, server) in zip(kinds, chosen)
    )


def _by_label(report) -> Dict[str, int]:
    loads: Dict[str, int] = {}
    for label, load in report.phases:
        loads[label] = max(loads.get(label, 0), load)
    return loads


def _trace_by_label(events) -> Dict[str, int]:
    loads: Dict[str, int] = {}
    for path, load in phase_loads_from_events(events).items():
        label = path.split("//")[-1]
        loads[label] = max(loads.get(label, 0), load)
    return loads


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=6, deadline=None)
@given(
    st.integers(0, 5),
    st.booleans(),
    st.lists(st.integers(0, 10_000), min_size=3, max_size=3),
    st.integers(1, 3),
)
@example(seed=0, faulted=False, picks=[0, 0, 0], delay=1)
@example(seed=0, faulted=True, picks=[0, 5, 9], delay=3)
def test_phase_loads_equal_the_trace_attribution(family, backend, seed, faulted,
                                                 picks, delay):
    instance = FAMILIES[family](seed)
    result, cluster, events = _run(instance, backend)
    if faulted:
        schedule = _schedule(delivery_cells(cluster), picks, delay)
        result, cluster, events = _run(instance, backend, faults=schedule)
        assert cluster.faults.fired[0].kind == "straggler"
        assert result.report.recovery_rounds >= delay
    report = result.report
    from_report = _by_label(report)
    from_trace = _trace_by_label(events)
    assert {label: from_trace.get(label, 0) for label in from_report} == from_report
    assert set(from_trace) <= set(from_report)
    # The per-round peaks the phases read are the trace's, round by round.
    peaks = [0] * report.rounds
    for event in events:
        if event.op in LOAD_OPS:
            peaks[event.round] = max(peaks[event.round], *event.received)
    assert cluster.tracker.per_round_loads() == peaks
