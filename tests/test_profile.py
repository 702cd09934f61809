"""Wall-clock profiler and metrics registry: spans, exporters, bit-identity.

Covers the PR's invariant — with a profiler attached, answers,
``CostReport``\\ s, and traces are bit-identical to an unprofiled run across
backends and under fault schedules — plus the exporters' schema round-trips
driven by a deterministic fake clock.
"""

import json
import sys
import threading

import pytest

from repro.config import ExecutionConfig
from repro.core.executor import run_query
from repro.errors import ApplicabilityError, RoutingError, UnrecoverableFaultError
from repro.mpc import Fault, FaultInjector, FaultSchedule, MPCCluster
from repro.obs import (
    MetricsRegistry,
    MetricsSink,
    Profiler,
    RingBufferSink,
    Tracer,
    active_profiler,
    observe_profile,
    observe_report,
    replay_speedscope,
)
from repro.obs.profile import SPEEDSCOPE_SCHEMA, activate, write_json
from repro.workloads import (
    line_instance,
    planted_out_line,
    planted_out_matmul,
    planted_out_star,
    random_sparse_matmul,
    star_instance,
    twig_instance,
)


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


# -- profiler core -------------------------------------------------------------

def test_span_tree_accumulates_with_fake_clock():
    profiler = Profiler(clock=FakeClock())
    with profiler.span("outer", kind="phase"):
        with profiler.span("inner", kind="op", backend="pytuple"):
            pass
        with profiler.span("inner", kind="op", backend="pytuple"):
            pass
    assert profiler.open_depth == 0
    (outer,) = profiler.root.children.values()
    assert outer.label == "outer" and outer.calls == 1
    (inner,) = outer.children.values()
    # Repeated same-key spans accumulate into one node.
    assert inner.calls == 2 and inner.backend == "pytuple"
    # Clock ticks once per start/stop: outer spans 5 ticks, inners 1 each.
    assert outer.wall == pytest.approx(5.0)
    assert inner.wall == pytest.approx(2.0)
    assert outer.self_wall == pytest.approx(3.0)


def test_stop_without_start_raises():
    profiler = Profiler(clock=FakeClock())
    with pytest.raises(RuntimeError):
        profiler.stop()


def test_items_credit_and_add_items():
    profiler = Profiler(clock=FakeClock())
    profiler.start("exchange", kind="op")
    profiler.add_items(7)
    profiler.stop(items=3)
    (node,) = profiler.root.children.values()
    assert node.items == 10


def test_hotspots_group_by_phase_path():
    profiler = Profiler(clock=FakeClock())
    with profiler.span("run:matmul", kind="run"):
        with profiler.span("semijoin", kind="phase"):
            with profiler.span("exchange", kind="op", backend="pytuple"):
                profiler.add_items(40)
    rows = {(row.phase, row.label): row for row in profiler.hotspots()}
    op_row = rows[("run:matmul/semijoin", "exchange")]
    assert op_row.items == 40 and op_row.calls == 1
    # Structural spans appear as "·" bookkeeping rows under their path:
    # the semijoin phase under "run:matmul", the run root under "(top)".
    # Each start/stop consumes one fake-clock tick, so semijoin spans
    # ticks 1→4 and the run root ticks 0→5.
    assert rows[("run:matmul", "·")].cum_s == pytest.approx(3.0)
    assert rows[("(top)", "·")].cum_s == pytest.approx(5.0)


def test_render_hotspots_is_a_table():
    profiler = Profiler(clock=FakeClock())
    with profiler.span("run:line", kind="run"):
        with profiler.span("exchange", kind="op", backend="pytuple"):
            pass
    text = profiler.render_hotspots()
    assert text.splitlines()[0].split() == [
        "self_s", "cum_s", "calls", "items", "backend", "op", "phase"
    ]
    assert "run:line" in text and "exchange" in text


# -- exporters ------------------------------------------------------------------

def _profiled_fixture():
    profiler = Profiler(clock=FakeClock())
    with profiler.span("run:matmul", kind="run"):
        with profiler.span("exchange", kind="op", backend="columnar"):
            pass
        with profiler.span("hash_join", kind="kernel", backend="columnar"):
            pass
    return profiler


def test_speedscope_round_trip_matches_span_walls():
    profiler = _profiled_fixture()
    document = profiler.to_speedscope()
    assert document["$schema"] == SPEEDSCOPE_SCHEMA
    profile = document["profiles"][0]
    assert profile["type"] == "evented" and profile["unit"] == "seconds"
    assert profile["events"][0]["at"] == 0.0  # rebased to the origin
    totals = replay_speedscope(document)
    (run,) = profiler.root.children.values()
    assert totals["run:run:matmul"] == pytest.approx(run.wall)
    for child in run.children.values():
        name = f"{child.kind}:{child.label} [columnar]"
        assert totals[name] == pytest.approx(child.wall)


def test_speedscope_export_closes_open_spans_without_mutating():
    profiler = Profiler(clock=FakeClock())
    profiler.start("run:line", kind="run")
    document = profiler.to_speedscope()
    replay_speedscope(document)  # balanced despite the open span
    assert profiler.open_depth == 1  # export did not close the live span
    profiler.stop()


def test_speedscope_documents_are_deterministic_with_fake_clock():
    first = _profiled_fixture().to_speedscope()
    second = _profiled_fixture().to_speedscope()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_chrome_trace_events_balance():
    document = _profiled_fixture().to_chrome_trace()
    events = document["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "B") == \
        sum(1 for e in events if e["ph"] == "E")
    assert all(e["ts"] >= 0 for e in events)
    # Microsecond timestamps: 1-second fake ticks are 1e6 apart.
    assert events[1]["ts"] - events[0]["ts"] == pytest.approx(1e6)


def test_replay_rejects_unbalanced_documents():
    document = _profiled_fixture().to_speedscope()
    document["profiles"][0]["events"] = \
        document["profiles"][0]["events"][:-1]
    with pytest.raises(ValueError):
        replay_speedscope(document)


def test_write_json_round_trips(tmp_path):
    document = _profiled_fixture().to_speedscope()
    path = str(tmp_path / "profile.speedscope.json")
    write_json(document, path)
    assert json.load(open(path)) == document


# -- bit-identity: profiling on vs off -----------------------------------------

@pytest.mark.parametrize("backend", ["pytuple", "columnar"])
def test_profiled_run_is_bit_identical(backend):
    instance = planted_out_matmul(n=120, out=480)
    plain = run_query(instance, config=ExecutionConfig(p=4, backend=backend))
    profiler = Profiler()
    profiled = run_query(
        instance, config=ExecutionConfig(p=4, backend=backend, profiler=profiler)
    )
    assert profiled.relation.tuples == plain.relation.tuples
    assert profiled.report.to_dict() == plain.report.to_dict()
    assert profiler.open_depth == 0
    assert profiler.total_wall > 0.0
    # The run recorded the full span hierarchy: a run root with op spans.
    (run,) = profiler.root.children.values()
    assert run.kind == "run"
    kinds = {node.kind for node, _ in run.walk()}
    assert "op" in kinds and "step" in kinds


def test_profiled_run_leaves_trace_byte_identical(tmp_path):
    instance = line_instance(3, 60, 8, seed=0)

    def trace_with(profiler):
        ring = RingBufferSink()
        config = ExecutionConfig(p=4, tracer=Tracer([ring]), profiler=profiler)
        run_query(instance, config=config)
        from repro.obs import event_to_dict
        return [event_to_dict(event) for event in ring.events]

    assert trace_with(None) == trace_with(Profiler())


def test_profiled_run_is_bit_identical_under_faults():
    instance = planted_out_matmul(n=60, out=240)
    clean_cluster = MPCCluster(4)
    clean = run_query(
        instance, ExecutionConfig(algorithm="matmul"), cluster=clean_cluster
    )
    cells = sorted(
        (r, s)
        for r, row in clean_cluster.tracker.load_cells().items()
        for s, count in row.items() if count > 0
    )
    schedule = FaultSchedule.random(seed=3, cells=cells, count=4)

    def faulted_run(profiler):
        injector = FaultInjector(schedule, spares=4)
        cluster = MPCCluster(4, faults=injector, profiler=profiler)
        return run_query(instance, ExecutionConfig(algorithm="matmul"), cluster=cluster)

    plain = faulted_run(None)
    profiler = Profiler()
    profiled = faulted_run(profiler)
    assert profiled.relation.tuples == plain.relation.tuples
    assert profiled.report.to_dict() == plain.report.to_dict()
    assert profiler.open_depth == 0


def test_columnar_run_records_kernel_spans():
    instance = planted_out_matmul(n=200, out=800)
    profiler = Profiler()
    run_query(instance, config=ExecutionConfig(p=4, backend="columnar",
                                               profiler=profiler))
    kernels = {node.label for node, _ in profiler.root.walk()
               if node.kind == "kernel"}
    assert kernels, "columnar run recorded no kernel spans"
    assert all(node.backend == "columnar" for node, _ in profiler.root.walk()
               if node.kind == "kernel")


def test_dense_columnar_run_records_sketch_and_search_kernels():
    """The two whole-view kernels are profiled like the per-server ones: an
    undecorated kernel would read as plumbing in every attribution."""
    instance = random_sparse_matmul(n1=900, n2=900, rows=30, inner=30, cols=30)
    profiler = Profiler()
    run_query(instance, config=ExecutionConfig(p=4, backend="columnar",
                                               profiler=profiler))
    # sketch_column and one propagate step, two stages each; two semijoins
    # and three attach_by_key calls.
    for label, calls in (("k_smallest_distinct", 4), ("sample_sort_routes", 5)):
        spans = [node for node, _ in profiler.root.walk() if node.label == label]
        assert {(node.kind, node.backend) for node in spans} == {("kernel", "columnar")}
        assert sum(node.calls for node in spans) == calls
        assert all(node.items > 0 for node in spans)


def test_kernel_activation_is_restored_after_run():
    assert active_profiler() is None
    instance = planted_out_matmul(n=60, out=240)
    run_query(instance, config=ExecutionConfig(p=4, profiler=Profiler()))
    assert active_profiler() is None


def test_kernel_activation_restores_after_errors():
    sentinel = Profiler()
    token = activate(sentinel)
    try:
        instance = planted_out_matmul(n=60, out=240)
        with pytest.raises((KeyError, ValueError)):
            run_query(instance, config=ExecutionConfig(
                p=4, algorithm="nope", profiler=Profiler()))
        assert active_profiler() is sentinel
    finally:
        activate(token)


def test_kernel_activation_is_per_thread():
    """A profiler activated in one thread is invisible to a thread started
    afterwards (a module-global slot would leak it)."""
    seen = []
    token = activate(Profiler())
    try:
        thread = threading.Thread(target=lambda: seen.append(active_profiler()))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
    finally:
        activate(token)
    assert seen == [None]


def _kernel_calls(profiler):
    return sorted((node.label, node.calls) for node, _ in profiler.root.walk()
                  if node.kind == "kernel")


def test_concurrent_profiled_runs_keep_their_own_kernel_spans():
    """Two threads, each with its own profiler, interleave columnar runs:
    every kernel call lands in the profiler of the run that made it."""
    instance = planted_out_matmul(n=200, out=800)

    def profiled_run():
        profiler = Profiler()
        run_query(instance, config=ExecutionConfig(p=4, backend="columnar",
                                                   profiler=profiler))
        return profiler

    alone = _kernel_calls(profiled_run())
    assert alone, "columnar run recorded no kernel spans"

    barrier = threading.Barrier(2)
    outcomes = []

    def worker():
        barrier.wait(timeout=30)
        try:
            for _ in range(3):
                profiler = profiled_run()
                outcomes.append((profiler.open_depth, _kernel_calls(profiler)))
        except BaseException as error:  # surfaced by the assertion below
            outcomes.append(error)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two runs finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [(0, alone)] * 6


# -- error paths through the hook: spans stay balanced ---------------------------

def _routing_error_exchange(profiler):
    view = MPCCluster(4, profiler=profiler).view()
    view.exchange([[(9, "x")], [], [], []])  # destination out of range


def _routing_error_batches_mismatch(profiler):
    from repro.backends.batch import ColumnarBatch
    from repro.backends.dispatch import np

    view = MPCCluster(2, backend="columnar", profiler=profiler).view()
    batch = ColumnarBatch((np.arange(3, dtype=np.int64),), None, 3)
    dests = np.zeros(2, dtype=np.int64)  # two destinations for three rows
    view.exchange_batches(dests, batch)


def _unrecoverable_fault_batches(profiler):
    from repro.backends.batch import ColumnarBatch
    from repro.backends.dispatch import np

    # A crash with no spare fires inside the batch exchange's span.
    injector = FaultInjector(FaultSchedule([Fault("crash", 0, 1)]), spares=0)
    view = MPCCluster(2, faults=injector, backend="columnar",
                      profiler=profiler).view()
    batch = ColumnarBatch((np.arange(3, dtype=np.int64),), None, 3)
    view.exchange_batches(np.array([0, 1, 1], dtype=np.int64), batch)


def _applicability_error_dispatch(profiler):
    # A star algorithm on a matmul-shaped line of three relations.
    run_query(line_instance(3, 60, 8, seed=0),
              config=ExecutionConfig(p=4, algorithm="star", profiler=profiler))


@pytest.mark.parametrize("failing, error", [
    (_routing_error_exchange, RoutingError),
    (_routing_error_batches_mismatch, RoutingError),
    (_unrecoverable_fault_batches, UnrecoverableFaultError),
    (_applicability_error_dispatch, ApplicabilityError),
])
def test_errors_leave_spans_balanced_and_activation_restored(failing, error):
    profiler = Profiler()
    sentinel = Profiler()
    token = activate(sentinel)
    try:
        with pytest.raises(error):
            failing(profiler)
        assert profiler.open_depth == 0
        assert active_profiler() is sentinel
    finally:
        activate(token)


def test_error_inside_a_phase_closes_its_span():
    cluster = MPCCluster(4, profiler=Profiler())
    view = cluster.view()
    with pytest.raises(RoutingError):
        with cluster.tracker.phase("doomed"):
            view.exchange([[(9, "x")], [], [], []])
    assert cluster.tracker.profiler.open_depth == 0
    assert cluster.tracker.phase_path() == ()
    assert cluster.report().phases == ()  # a failed phase records no load


# -- shape golden: what the hook records, span by span ---------------------------
#
# (depth, kind, label, backend, calls, items) of every span, pre-order,
# captured from the hand-wired profiler.start/stop calls the tracker hook
# replaced.  Wall seconds are left out (FakeClock ticks count clock reads,
# which is not a contract); everything else a reader of ``repro profile``
# sees is pinned.

def _span_shape(instance, **config):
    profiler = Profiler(clock=FakeClock())
    run_query(instance, config=ExecutionConfig(p=4, profiler=profiler, **config))
    assert profiler.open_depth == 0
    return [(depth, node.kind, node.label, node.backend, node.calls, node.items)
            for node, depth in profiler.root.walk() if node is not profiler.root]


def test_span_shape_golden_planted_matmul_columnar():
    # Re-captured when the output path went to code columns: only `kernel`
    # rows moved (every fold — a reduce-by-key stage, a local join's
    # partials — is one `fold_rows` with the id fold nested in it;
    # `combine_columns`/`split_codes` are its helpers and record no span of
    # their own).  `step`, `op` and `phase` rows are the parent's.
    assert _span_shape(planted_out_matmul(n=200, out=800), backend="columnar") == [
        (1, "run", "run:line", "columnar", 1, 0),
        (2, "step", "load", "", 1, 0),
        (2, "step", "execute", "", 1, 0),
        (3, "kernel", "fold_rows", "columnar", 4, 504),
        (4, "kernel", "first_occurrence_unique", "columnar", 4, 504),
        (3, "op", "exchange", "columnar", 7, 1106),
        (3, "kernel", "sample_sort_routes", "columnar", 3, 750),
        (4, "kernel", "select_splitters", "columnar", 3, 48),
        (3, "kernel", "k_smallest_distinct", "columnar", 4, 652),
        (3, "phase", "matmul-wc/statistics", "", 1, 0),
        (4, "kernel", "fold_rows", "columnar", 4, 800),
        (5, "kernel", "group_reduce", "columnar", 4, 800),
        (4, "op", "exchange", "columnar", 2, 400),
        (3, "phase", "matmul-wc/light-light", "", 1, 0),
        (4, "kernel", "sample_sort_routes", "columnar", 2, 800),
        (5, "kernel", "select_splitters", "columnar", 2, 32),
        (4, "op", "exchange", "columnar", 4, 1800),
        (4, "kernel", "hash_join", "columnar", 16, 1600),
        (4, "kernel", "fold_rows", "columnar", 16, 800),
        (5, "kernel", "group_reduce", "columnar", 16, 800),
        (2, "step", "collect", "", 1, 0),
    ]


def test_planted_line_run_interns_no_output_tuple():
    """Composite keys are never interned: after a planted line the cluster's
    codec holds the attribute domains and the two-way join's cell ids (at
    most one per input tuple) — not one of the 800 answer tuples, which the
    item-keyed reduce-by-key used to intern call after call."""
    instance = planted_out_line(3, 200, 800)
    cluster = MPCCluster(4, backend="columnar")
    result = run_query(instance, cluster=cluster)
    codec = cluster.codec
    interned = {codec._values[code] for code in range(len(codec))}
    assert len(result.relation) == 800
    assert not interned & set(result.relation.tuples)
    domains = {
        value for relation in instance.relations.values()
        for values in relation.tuples for value in values
    }
    assert domains <= interned
    assert len(codec) <= len(domains) + instance.total_size


def test_twig_kernel_spans_stay_under_half_of_the_per_server_count():
    """The primitives call a kernel once per stage, not once per simulated
    server: the ledger's twig at p=16 recorded 12,788 kernel spans while
    reduce-by-key looped over the servers and records 4,473 now (the count
    is deterministic).  That is 4,441 plus 32: the eight reductions
    without a profile (the twig's side, x and y tables) fold as object
    columns since every value has a column, two stages of ``fold_rows`` +
    ``group_reduce`` each.  A per-server loop creeping back roughly
    triples it; the exchanges do not move either way."""
    def observed(backend):
        profiler = Profiler()
        run_query(twig_instance(tuples=100, domain=30, seed=2020),
                  config=ExecutionConfig(p=16, backend=backend, profiler=profiler))
        spans = [node for node, _ in profiler.root.walk()]
        return (sum(node.calls for node in spans if node.kind == "kernel"),
                sorted((node.label, node.calls, node.items)
                       for node in spans if node.kind == "op"))

    kernels, ops = observed("columnar")
    assert kernels == 4473
    assert kernels <= 12788 // 2
    assert observed("pytuple") == (0, ops)
    assert (sum(calls for _, calls, _ in ops),
            sum(items for _, _, items in ops)) == (721, 89395)  # the parent's


def test_a_dataset_is_one_batch_not_one_per_server(monkeypatch):
    """A columnar dataset is one batch with server cuts, so nothing cuts a
    batch per server any more: the twig below sliced batches 12,666 times
    in 456 rounds while a dataset held one batch per server."""
    from repro.backends.batch import ColumnarBatch

    slices = []
    original = ColumnarBatch.slice

    def counted(self, start, stop):
        slices.append((start, stop))
        return original(self, start, stop)

    monkeypatch.setattr(ColumnarBatch, "slice", counted)
    result = run_query(twig_instance(tuples=60, domain=12, seed=2020),
                       config=ExecutionConfig(p=16, backend="columnar"))
    assert result.report.rounds == 456
    assert len(slices) <= result.report.rounds


@pytest.mark.parametrize("instance", [
    planted_out_star(3, 300, 2500), twig_instance(tuples=60, domain=12, seed=2020),
], ids=["planted-star", "twig"])
def test_the_reshapes_never_decode_a_dataset(monkeypatch, instance):
    """§5's ``unpack_pairs`` and §7's ``_expand_and_aggregate`` split
    combined code columns into flat ones: inside them no ``ColumnarData``
    decodes its batch — not the product they reshape, not the result they
    hand to the aggregation."""
    from repro.core import star, tree
    from repro.mpc.columnar import ColumnarData

    inside, decoded, arrays = [], [], []
    parts = ColumnarData.parts

    def spying(self):
        if inside and self._decoded is None:
            decoded.append(inside[-1])
        return parts.fget(self)

    def watched(module, name):
        original = getattr(module, name)

        def call(rel, *args, **kwargs):
            arrays.append(isinstance(rel.data, ColumnarData))
            inside.append(name)
            try:
                return original(rel, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(ColumnarData, "parts", property(spying))
    watched(star, "unpack_pairs")
    watched(tree, "_expand_and_aggregate")
    reference = run_query(instance, config=ExecutionConfig(p=16, backend="pytuple"))
    arrays.clear()
    result = run_query(instance, config=ExecutionConfig(p=16, backend="columnar"))
    assert any(arrays) and decoded == []
    assert result.relation.tuples == reference.relation.tuples
    assert result.report.to_dict() == reference.report.to_dict()


def test_span_shape_golden_three_arm_star_pytuple():
    assert _span_shape(star_instance(3, 40, 8, 6, seed=0), backend="pytuple") == [
        (1, "run", "run:star", "pytuple", 1, 0),
        (2, "step", "load", "", 1, 0),
        (2, "step", "execute", "", 1, 0),
        (3, "op", "exchange", "pytuple", 62, 2375),
        (3, "op", "broadcast", "pytuple", 5, 164),
        (2, "step", "collect", "", 1, 0),
    ]


def test_one_profiler_observes_multiple_runs():
    profiler = Profiler()
    run_query(planted_out_matmul(n=60, out=240),
              config=ExecutionConfig(p=4, algorithm="matmul",
                                     profiler=profiler))
    run_query(line_instance(3, 60, 8, seed=0),
              config=ExecutionConfig(p=4, profiler=profiler))
    roots = sorted(node.label for node in profiler.root.children.values())
    assert len(roots) == 2 and all(label.startswith("run:") for label in roots)


# -- metrics registry -----------------------------------------------------------

def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("repro_events_total", "events", ("op",))
    counter.inc(op="exchange")
    counter.inc(2, op="exchange")
    assert counter.value(op="exchange") == 3
    gauge = registry.gauge("repro_last_load", "load")
    gauge.set(41)
    gauge.inc()
    assert gauge.value() == 42
    histogram = registry.histogram("repro_delivery", "items", buckets=(1, 10))
    histogram.observe(0.5)
    histogram.observe(5)
    histogram.observe(100)
    assert histogram.count() == 3
    assert histogram.sum() == pytest.approx(105.5)


def test_registry_rejects_type_and_label_mismatches():
    registry = MetricsRegistry()
    registry.counter("repro_x_total", "x", ("op",))
    with pytest.raises(ValueError):
        registry.gauge("repro_x_total")
    with pytest.raises(ValueError):
        registry.counter("repro_x_total", "x", ("other",))


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    counter = registry.counter("repro_events_total", "Total events.", ("op",))
    counter.inc(op="exchange")
    histogram = registry.histogram("repro_items", "Items.", buckets=(1, 8))
    histogram.observe(4)
    text = registry.render()
    assert '# HELP repro_events_total Total events.' in text
    assert '# TYPE repro_events_total counter' in text
    assert 'repro_events_total{op="exchange"} 1' in text
    assert '# TYPE repro_items histogram' in text
    assert 'repro_items_bucket{le="1"} 0' in text
    assert 'repro_items_bucket{le="8"} 1' in text
    assert 'repro_items_bucket{le="+Inf"} 1' in text
    assert 'repro_items_count 1' in text
    # Byte-stable for a fixed state.
    assert registry.render() == text


def test_metrics_sink_counts_trace_events():
    registry = MetricsRegistry()
    instance = planted_out_matmul(n=60, out=240)
    config = ExecutionConfig(p=4, tracer=Tracer([MetricsSink(registry)]))
    result = run_query(instance, config=config)
    text = registry.render()
    assert 'repro_trace_events_total{op="exchange"}' in text
    assert "repro_rounds_observed" in text
    # Items delivered across ops equals the report's total communication.
    delivered = sum(
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_items_delivered_total{")
    )
    assert delivered == result.report.total_communication


def test_observe_profile_and_report():
    registry = MetricsRegistry()
    profiler = Profiler(clock=FakeClock())
    with profiler.span("run:matmul", kind="run"):
        with profiler.span("exchange", kind="op", backend="pytuple"):
            profiler.add_items(12)
    observe_profile(registry, profiler)
    text = registry.render()
    assert 'repro_span_calls_total' in text
    assert 'op="exchange"' in text and 'phase="run:matmul"' in text

    instance = planted_out_matmul(n=60, out=240)
    result = run_query(instance, config=ExecutionConfig(p=4))
    observe_report(registry, result.report, scope="matmul")
    text = registry.render()
    assert f'repro_last_max_load{{scope="matmul"}} '\
        f'{result.report.max_load}' in text


# -- injectable clock in the conformance runner ---------------------------------

def test_fuzz_seconds_budget_with_fake_clock():
    from repro.conformance import FuzzConfig, fuzz

    config = FuzzConfig(seconds=2.5, seed=0, clock=FakeClock())
    summary = fuzz(config)
    # clock: 0 at deadline setup; iterations run while clock() < 2.5.
    assert summary.iterations_run == 2
    assert summary.to_json() == fuzz(
        FuzzConfig(seconds=2.5, seed=0, clock=FakeClock())
    ).to_json()
