"""The ledger's one declarative table: workloads, sizes, metrics.

``run.py`` (full and ``--tiny``), ``compare.py``, the self-check and the
root ``BENCHMARK.json`` all read this module; no size, rate, bound or
pinned constant is repeated anywhere else.

What the seed reaches: the annotation weight of every generated tuple,
in instances and in deltas, and nothing else.  The *shape* of the
instances (sizes, degrees, which values join), the order of the traffic
and the positions a delta stream touches come from :data:`STRUCTURE_SEED`.
Load counts tuples and never looks at an annotation, so it is the same
number under every seed and is pinned here (``load_sum``); and two runs
are dealt the same work, so they differ by the machine and not by the
draw.  The program itself never sees a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "RUN_SECONDS", "STRUCTURE_SEED", "WORKLOADS", "END_TO_END", "PER_LAYER",
    "Workload", "Metric", "manifest",
]

#: Length of one timed section; ``--seconds`` overrides it.
RUN_SECONDS = 12

#: Seed of everything structural (see the module docstring).
STRUCTURE_SEED = 2020


@dataclass(frozen=True)
class Workload:
    name: str
    #: batch | service_read | service_write_mix | ivm
    kind: str
    #: One line: why this workload exists (goes to BENCHMARK.json).
    why: str
    #: Layers that do most of the work / that it runs around.
    stresses: str
    bypasses: str
    #: What the generic end-to-end operation metrics mean here.
    primary: str
    secondary: str
    #: Percentile reported as ``primary_ms_tail``: the highest one that
    #: keeps at least 12 samples beyond it at this workload's sample count
    #: (100 = the slowest sample, where a run has only a handful).
    tail_percentile: float
    #: ``ExecutionConfig`` fields (batch, ivm) or ``repro serve`` defaults.
    config: Dict[str, Any]
    #: Sizes, mixes, rates and the pinned ``load_sum``, full and tiny.
    full: Dict[str, Any]
    tiny: Dict[str, Any]

    def sizes(self, tiny: bool) -> Dict[str, Any]:
        return self.tiny if tiny else self.full


def _instance(label: str, generator: str, **kwargs: Any) -> Tuple[str, str, Dict[str, Any]]:
    """``(label, generator name, keyword arguments)``; the generator is a
    name in ``repro.workloads`` or :func:`inputs.near_diagonal_matmul`."""
    return (label, generator, kwargs)


_SERVICE_READ_CONFIGS = tuple(
    {"p": p, "algorithm": algorithm}
    for p in (4, 8, 16) for algorithm in ("auto", "yannakakis")
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="families_planted",
        kind="batch",
        why="one planted sparse-output instance per query family: the paper's "
            "algorithms do the work and kernels little, so an array-native "
            "rewrite shows here and a kernel-only change must not",
        stresses="core (line, star, starlike, tree), mpc exchanges with many small batches",
        bypasses="backends.kernels (<8 % of wall), service, ivm",
        primary="one pass of api.run_query over the five instances (round_s_p50)",
        secondary="one api.run_query call, all families pooled",
        tail_percentile=100,
        config={"p": 16, "backend": "columnar", "workers": 1},
        full={
            "instances": (
                _instance("matmul", "planted_out_matmul", n=2000, out=64000),
                _instance("line", "planted_out_line", length=3, n=2000, out=64000),
                _instance("star", "planted_out_star", arms=3, n=600, out=60000),
                _instance("star-like", "starlike_instance", arm_lengths=(2, 1, 1),
                          tuples=400, domain=120, seed=STRUCTURE_SEED),
                _instance("twig", "twig_instance", tuples=100, domain=30,
                          seed=STRUCTURE_SEED),
            ),
            "min_rounds": 3,
            "load_sum": 10750,
        },
        tiny={
            "instances": (
                _instance("matmul", "planted_out_matmul", n=40, out=200),
                _instance("line", "planted_out_line", length=3, n=40, out=200),
                _instance("star", "planted_out_star", arms=3, n=20, out=100),
                _instance("star-like", "starlike_instance", arm_lengths=(2, 1, 1),
                          tuples=20, domain=8, seed=STRUCTURE_SEED),
                _instance("twig", "twig_instance", tuples=12, domain=5,
                          seed=STRUCTURE_SEED),
            ),
            "min_rounds": 2,
            "load_sum": 112,
        },
    ),
    Workload(
        name="matmul_dense",
        kind="batch",
        why="two heavy-aggregation matmuls (products >> OUT, 12.5 % and 100 % "
            "dense): kernels, exchanges and collection do the work in few large "
            "batches, so a gain for small batches that costs large ones shows",
        stresses="backends.kernels, backends.codec, mpc exchanges with few large batches, data.collect",
        bypasses="per-item plumbing in core, service, ivm",
        primary="one pass of api.run_query over the two instances (round_s_p50)",
        secondary="one api.run_query call, both instances pooled",
        tail_percentile=100,
        config={"p": 16, "backend": "columnar", "workers": 1},
        full={
            "instances": (
                _instance("sparse", "random_sparse_matmul", n1=20000, n2=20000,
                          rows=400, inner=400, cols=400, seed=STRUCTURE_SEED),
                _instance("dense", "random_sparse_matmul", n1=19600, n2=19600,
                          rows=140, inner=140, cols=140, seed=STRUCTURE_SEED),
            ),
            "min_rounds": 3,
            "load_sum": 24509,
        },
        tiny={
            "instances": (
                _instance("sparse", "random_sparse_matmul", n1=800, n2=800,
                          rows=80, inner=80, cols=80, seed=STRUCTURE_SEED),
                _instance("dense", "random_sparse_matmul", n1=900, n2=900,
                          rows=30, inner=30, cols=30, seed=STRUCTURE_SEED),
            ),
            "min_rounds": 2,
            "load_sum": 1013,
        },
    ),
    Workload(
        name="service_read",
        kind="service_read",
        why="read-only traffic over 36 cache keys drawn Zipf(1.1) against a "
            "cache half the working set: HTTP shell, routing, cache and "
            "serialization do the work and the executor runs only on misses",
        stresses="service (server, handlers, cache, admission), serialization of answers",
        bypasses="core and backends on hits; ivm",
        primary="one read that misses the cache in the closed loop, 2 connections",
        secondary="one cold POST /query: every key once on an empty cache, 1 connection",
        tail_percentile=90,
        config={"p": 8, "backend": "pytuple", "workers": 1},
        full={
            "instances": (
                _instance("mm_a", "planted_out_matmul", n=400, out=3000),
                _instance("mm_b", "planted_out_matmul", n=500, out=4000),
                _instance("line_a", "planted_out_line", length=3, n=400, out=2500),
                _instance("line_b", "planted_out_line", length=3, n=500, out=3500),
                _instance("star_a", "planted_out_star", arms=3, n=150, out=2500),
                _instance("star_b", "planted_out_star", arms=3, n=180, out=3500),
            ),
            "configs": _SERVICE_READ_CONFIGS,
            "zipf": 1.1,
            "explain_share": 0.05,
            "connections": 2,
            "cache_share": 0.5,
            "min_misses": 20,
            "warm_hits": 300,
            "open_rate": 20.0,
            "latency_limit_ms": 250.0,
            "load_sum": 15573,
        },
        tiny={
            "instances": (
                _instance("mm_a", "planted_out_matmul", n=40, out=200),
                _instance("line_a", "planted_out_line", length=3, n=40, out=200),
                _instance("star_a", "planted_out_star", arms=3, n=20, out=100),
            ),
            "configs": _SERVICE_READ_CONFIGS[:2],
            "zipf": 1.1,
            "explain_share": 0.05,
            "connections": 2,
            "cache_share": 0.5,
            "min_misses": 2,
            "warm_hits": 20,
            "open_rate": 20.0,
            "latency_limit_ms": 250.0,
            "load_sum": 261,
        },
    ),
    Workload(
        name="service_write_mix",
        kind="service_write_mix",
        why="30 % delta posts beside 60 % view reads and 10 % queries: each "
            "delta invalidates its instance's cache entries, so the O(N) mutate "
            "and re-digest path and view serialization carry the load",
        stresses="service write path (io, ivm.mutate_instance, cache.instance_digest, views), ivm.view",
        bypasses="service.cache (hit share low by construction)",
        primary="one read (GET /views/<name> or POST /query), closed loop (read_ms_p50)",
        secondary="one POST /instances/<name>/deltas, |delta|=4, view refresh included (write_ms_p50)",
        tail_percentile=95,
        config={"p": 8, "backend": "pytuple", "workers": 1},
        full={
            "instances": (
                _instance("mm_0", "near_diagonal_matmul", n=4000),
                _instance("mm_1", "near_diagonal_matmul", n=4000),
                _instance("mm_2", "near_diagonal_matmul", n=4000),
                _instance("mm_3", "near_diagonal_matmul", n=4000),
                _instance("line_0", "planted_out_line", length=3, n=1000, out=8000),
                _instance("line_1", "planted_out_line", length=3, n=1000, out=8000),
            ),
            "mix": {"delta": 0.30, "view": 0.60, "query": 0.10},
            "delta_size": 4,
            "connections": 2,
            "min_writes": 40,
            "load_sum": 15272,
        },
        tiny={
            "instances": (
                _instance("mm_0", "near_diagonal_matmul", n=100),
                _instance("line_0", "planted_out_line", length=3, n=40, out=200),
            ),
            "mix": {"delta": 0.30, "view": 0.60, "query": 0.10},
            "delta_size": 4,
            "connections": 2,
            "min_writes": 2,
            "load_sum": 114,
        },
    ),
    Workload(
        name="ivm_stream",
        kind="ivm",
        why="library-level view maintenance under a stream of tiny deltas: the "
            "executor runs on ~10-tuple restricted instances, so fixed per-run "
            "cost (cluster, load, codec) is everything and kernels nothing",
        stresses="ivm.view, fixed per-run cost of core.executor, mpc.cluster, data.load",
        bypasses="backends.kernels, service",
        primary="one view.apply of a |delta|=4 batch (apply_ms_p50)",
        secondary="one view.apply of a |delta|=64 batch",
        tail_percentile=99,
        config={"p": 8, "backend": None, "workers": 1},
        full={
            "instances": (_instance("mm", "near_diagonal_matmul", n=16000),),
            # One block = small applies, large applies, then one
            # mutate_instance + api.run_query recompute checked against
            # the view; blocks repeat until the time is up.
            "block": {"small": 200, "large": 20},
            "small_delta": 4,
            "large_delta": 64,
            "min_blocks": 3,
            "load_blocks": 2,
            "load_sum": 1939,
        },
        tiny={
            "instances": (_instance("mm", "near_diagonal_matmul", n=300),),
            "block": {"small": 10, "large": 2},
            "small_delta": 4,
            "large_delta": 16,
            "min_blocks": 2,
            "load_blocks": 2,
            "load_sum": 97,
        },
    ),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse
    #: before a change counts as a regression; None for per-layer metrics.
    bound: Optional[float]
    #: Definition (end to end) or the timed call (per layer).
    what: str
    #: Per layer: which end-to-end metric it should move, on which workload.
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "generate inputs, start the server / register / materialize, "
           "warm-up; outside the timed section"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "high-water RSS of the process running the program when the timed "
           "section ends (the workload process, or the `repro serve` child)"),
    Metric("load_sum", "tuples", "lower", 1e-9,
           "sum of CostReport.max_load over the workload's query set (ivm_stream: "
           "sum of DeltaResult.load over the first load_blocks blocks); a "
           "deterministic count pinned in this table"),
    Metric("capacity_rps", "1/s", "higher", 0.20,
           "correct operations per second of the timed closed-loop section "
           "(queries, responses or delta batches)"),
    Metric("primary_ms_p50", "ms", "lower", 0.20,
           "median latency of the workload's primary operation"),
    Metric("primary_ms_tail", "ms", "lower", 0.25,
           "latency of the primary operation at the workload's tail_percentile; "
           "a request that fails or is refused counts as slower than any limit"),
    Metric("secondary_ms_p50", "ms", "lower", 0.25,
           "median latency of the workload's secondary operation"),
)

_BATCH = "families_planted, matmul_dense"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("planner.plan_s", "s", "lower", None,
           "repro.planner.plan_query(instance, p, backend), per instance",
           "nothing on batch (auto does not plan); primary_ms_tail on service_read via admission"),
    Metric("mpc.cluster_init_s", "s", "lower", None,
           "ExecutionConfig.make_cluster",
           "primary_ms_p50 on ivm_stream; not on batch"),
    Metric("data.load_s", "s", "lower", None,
           "DistRelation.load, every relation",
           "primary_ms_p50 on ivm_stream; small share on batch"),
    Metric("core.run_s", "s", "lower", None,
           "ALGORITHMS[chosen].run(instance, view, loaded)",
           f"primary_ms_p50 on {_BATCH}"),
    Metric("core.run_s.matmul", "s", "lower", None, "the same, matmul instances",
           "primary_ms_p50 on families_planted; shows which family a change reached"),
    Metric("core.run_s.line", "s", "lower", None, "the same, line instances",
           "primary_ms_p50 on families_planted"),
    Metric("core.run_s.star", "s", "lower", None, "the same, star instances",
           "primary_ms_p50 on families_planted"),
    Metric("core.run_s.star-like", "s", "lower", None, "the same, star-like instances",
           "primary_ms_p50 on families_planted"),
    Metric("core.run_s.twig", "s", "lower", None, "the same, twig instances",
           "primary_ms_p50 on families_planted"),
    Metric("core.finalize_s", "s", "lower", None,
           "aggregate_relation as the executor calls it", f"primary_ms_p50 on {_BATCH}"),
    Metric("data.collect_s", "s", "lower", None, "DistRelation.collect",
           f"primary_ms_p50 on {_BATCH} (O(OUT)); lazy materialization lands here"),
    Metric("mpc.exchange_s", "s", "lower", None,
           "self time of ClusterView.exchange, exchange_batches, broadcast, "
           "broadcast_batches, gather",
           "primary_ms_p50 on matmul_dense; predicted flat on families_planted"),
    Metric("mpc.exchange_calls", "count", "lower", None, "calls of the same",
           "must not move unless the change says so"),
    Metric("mpc.communication", "tuples", "lower", None,
           "sum of CostReport.total_communication", "must not move unless the change says so"),
    Metric("mpc.rounds", "count", "lower", None,
           "sum of CostReport.rounds", "must not move unless the change says so"),
    Metric("backends.kernel_s", "s", "lower", None,
           "self time of the public functions of repro.backends.kernels",
           "primary_ms_p50 on matmul_dense; predicted flat on families_planted and ivm_stream"),
    Metric("backends.kernel_calls", "count", "lower", None, "calls of the same",
           "fewer, larger calls is the array-native direction"),
    Metric("backends.codec_s", "s", "lower", None,
           "self time of ValueCodec public methods",
           "primary_ms_p50 on ivm_stream and matmul_dense"),
    Metric("core.plumbing_s", "s", "lower", None,
           "self time of core.run: core.run_s minus the exchange, kernel, codec "
           "and nested step spans inside it",
           "primary_ms_p50 on families_planted, the ~90 % PROFILE.md pins"),
    Metric("ref.pytuple_round_s", "s", "lower", None,
           "the same round on backend=pytuple; doubles as the identity oracle",
           "reference only"),
    Metric("ref.columnar_speedup", "x", "higher", None,
           "ref.pytuple_round_s / untraced round median (base: pytuple)",
           "the ROADMAP's >=2x planted / >=8x dense gates read it"),
    Metric("service.http_ms_p50", "ms", "lower", None,
           "socket warm-hit median minus in-process ServiceState.handle warm-hit median",
           "primary_ms_p50 on service_read"),
    Metric("service.handle_hit_us_p50", "us", "lower", None,
           "ServiceState.handle('POST', '/query', body) on a cached key",
           "primary_ms_p50, capacity_rps on service_read"),
    Metric("service.handle_miss_ms_p50", "ms", "lower", None,
           "the same on an uncached key",
           "primary_ms_tail, capacity_rps on service_read"),
    Metric("service.execute_ms_p50", "ms", "lower", None,
           "api.run_query with the Tracer([RingBufferSink()]) config, as the handler calls it",
           "primary_ms_tail, capacity_rps on service_read"),
    Metric("service.admission_plan_us_p50", "us", "lower", None,
           "plan_query(..., statistics=StatisticsCatalog.for_instance(...)) inside handle",
           "primary_ms_tail on service_read (small)"),
    Metric("service.serialize_ms_p50", "ms", "lower", None,
           "derived: handle miss - execute - admission plan",
           "primary_ms_tail, capacity_rps on service_read; primary_ms_p50 on service_write_mix"),
    Metric("service.cache_hit_share", "ratio", "higher", None,
           "cache hits / (hits + misses), GET /metrics scraped before and after",
           "capacity_rps, primary_ms_tail on service_read; structurally low on service_write_mix"),
    Metric("service.cache_evictions", "count", "lower", None,
           "repro_service_cache_evictions_total, scraped the same way", "capacity_rps on service_read"),
    Metric("service.executions", "count", "lower", None,
           "repro_service_executions_total, scraped the same way", "capacity_rps"),
    Metric("service.rejected_share", "ratio", "lower", None,
           "429 responses / requests", "validity: the baseline sees none"),
    Metric("service.open_read_ms_p50", "ms", "lower", None,
           "one read in the open-loop phase at open_rate, timed from its due time",
           "what a user sees below capacity; capacity_rps and primary_ms_p50 on "
           "service_read carry the bound"),
    Metric("service.open_read_ms_tail", "ms", "lower", None,
           "the same at the workload's tail_percentile; limit latency_limit_ms, "
           "a failed or refused request misses it",
           "the tail of the same; moves with misses and with whatever stalls a connection"),
    Metric("service.generator_lag_ms_p99", "ms", "lower", None,
           "send time minus due time in the open-loop phase",
           "validity of service.open_read_ms_*, not a target"),
    Metric("service.explain_ms_p50", "ms", "lower", None,
           "handle on POST /explain", "primary_ms_p50 on service_read (5 % of reads)"),
    Metric("service.register_ms_p50", "ms", "lower", None,
           "handle on POST /instances", "setup_s on both service workloads"),
    Metric("service.view_get_ms_p50", "ms", "lower", None,
           "handle on GET /views/<name>", "primary_ms_p50 on service_write_mix"),
    Metric("io.instance_from_json_ms_p50", "ms", "lower", None,
           "repro.io.instance_from_json as the handler calls it", "setup_s"),
    Metric("io.delta_from_json_us_p50", "us", "lower", None,
           "repro.io.delta_from_json as the handler calls it", "secondary_ms_p50 on service_write_mix"),
    Metric("service.instance_digest_ms_p50", "ms", "lower", None,
           "repro.service.cache.instance_digest on the mutated instance",
           "secondary_ms_p50 on service_write_mix; not ivm_stream"),
    Metric("ivm.mutate_instance_ms_p50", "ms", "lower", None,
           "repro.ivm.mutate_instance",
           "secondary_ms_p50 on service_write_mix; not primary_ms_p50 on ivm_stream"),
    Metric("service.view_refresh_s", "s", "lower", None,
           "repro_service_view_refresh_seconds per applied delta, from /metrics",
           "secondary_ms_p50 on service_write_mix"),
    Metric("ivm.materialize_s", "s", "lower", None,
           "api.materialize (service_write_mix: handle on POST /views)",
           "setup_s on ivm_stream and service_write_mix"),
    Metric("ivm.apply_ms_p50.d64", "ms", "lower", None,
           "view.apply at the large delta size",
           "shows whether apply cost scales with |delta| or is fixed overhead"),
    Metric("ivm.executor_share", "ratio", "lower", None,
           "time inside run_query during apply / apply wall",
           "splits primary_ms_p50 on ivm_stream into restriction vs executor fixed cost"),
    Metric("ivm.recompute_ms_p50", "ms", "lower", None,
           "mutate_instance + api.run_query on the sampled generations",
           "the ROADMAP's 'IVM in seconds'"),
    Metric("ivm.wall_advantage", "x", "higher", None,
           "ivm.recompute_ms_p50 / apply median (base: apply)",
           "a ratio, so per-layer only: a faster executor must not read as a regression"),
    Metric("ivm.maintenance_communication", "tuples", "lower", None,
           "sum of DeltaResult.communication over the load_blocks prefix",
           "must not move unless the change says so"),
    Metric("bench.calibration_ms", "ms", "lower", None,
           "median calibration tick (inputs.Calibrator) in the timed section, as measured",
           "not the program: how slow the machine was; every other time is scaled by it"),
    Metric("trace.overhead_share", "ratio", "lower", None,
           "traced / untraced primary operation time, minus 1 (base: untraced)",
           "bounds how far the per-layer numbers can be trusted"),
)


def manifest() -> Dict[str, Any]:
    """The root ``BENCHMARK.json`` document, derived from the tables."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
