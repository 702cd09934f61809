"""The library facade: a *stable*, versioned API surface.

``python -m repro`` is a thin argparse shell over this module — anything
the command line can do, a notebook, test harness, or the long-running
query service (:mod:`repro.service`) can do by importing
:mod:`repro.api`:

* :func:`run_query` — evaluate one instance under an
  :class:`~repro.config.ExecutionConfig`;
* :func:`compare` — distributed Yannakakis baseline vs the paper's
  algorithm (or any ``config.algorithm``) on one instance, both cost
  reports packaged together;
* :func:`explain` — the planner's predicted load for every runnable
  algorithm on one instance, without executing anything
  (:mod:`repro.planner`);
* :func:`sweep` — :func:`compare` across a labelled series of instances;
* :func:`table1` — the paper's Table 1 on adversarial workload families;
* :func:`fuzz` — a conformance fuzzing campaign
  (:mod:`repro.conformance`);
* :func:`chaos` — the fault-injection tier of the same campaign runner;
* :func:`materialize` / :func:`apply_delta` — incremental view
  maintenance (:mod:`repro.ivm`): pin a live
  :class:`~repro.ivm.MaterializedView` over an instance and keep it
  current under :class:`~repro.ivm.DeltaBatch` streams, metered under
  the ``maintenance`` tag of the cost report.

**Contract.**  ``__all__`` is the surface: everything in it is covered by
the compatibility promise tracked by :data:`__version__` (semantic
versioning; the package release carries the same number).  Every
function takes a config object (:class:`ExecutionConfig` for the
executor-shaped entry points, :class:`~repro.conformance.FuzzConfig` for
the campaigns) and returns structured data — no printing, no process exit
codes.  Failures raise from the typed hierarchy in :mod:`repro.errors`
(:class:`~repro.errors.ConfigError` for bad knobs at construction time,
:class:`~repro.errors.ApplicabilityError` for algorithm/shape mismatches),
which is how the service maps exceptions to HTTP statuses.

Results, cost reports, and traces are backend-independent: an
``ExecutionConfig(backend="columnar")`` run is bit-identical to the
default ``"pytuple"`` one, only faster.

Version 2.0 removed the transitional paths of the 1.x facade: the loose
``run_query(**kwargs)`` keywords and the deprecated forwarders
``repro.reporting.table1_report``/``compare_on`` and
``repro.testing.fuzz_differential``.  Version 3.0 removed the process
execution mode and the ``"numpy"`` backend value: one sequential engine,
two backends (``"pytuple"`` reference, ``"columnar"`` arrays) plus
``"auto"`` (see CHANGELOG.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .config import ExecutionConfig
from .core.executor import QueryResult
from .core.executor import run_query as _executor_run_query
from .data.query import Instance

#: Version of the *facade contract* (what ``__all__`` promises); since
#: 3.0.0 the package release (``repro.__version__``, pyproject.toml)
#: carries the same number.  2.0 dropped the loose-keyword ``run_query``
#: path and the deprecated ``reporting``/``testing`` forwarders; 2.1 added
#: incremental view maintenance (``materialize``/``apply_delta``); 3.0
#: removed the process execution mode and the ``"numpy"`` backend.
__version__ = "3.0.0"

__all__ = [
    "__version__",
    "ExecutionConfig",
    "CompareResult",
    "QueryResult",
    "TABLE1_FAMILIES",
    "run_query",
    "compare",
    "explain",
    "sweep",
    "table1",
    "fuzz",
    "chaos",
    "materialize",
    "apply_delta",
]


def run_query(
    instance: Instance,
    config: Optional[ExecutionConfig] = None,
) -> QueryResult:
    """Evaluate ``instance``; the facade twin of
    :func:`repro.core.executor.run_query`.

    All knobs travel in ``config`` (:class:`ExecutionConfig`); the 1.x
    loose keyword arguments (``p=…``, ``tracer=…``, …) were removed in
    facade 2.0 — construct an :class:`ExecutionConfig` once and reuse it.
    """
    return _executor_run_query(instance, config=config or ExecutionConfig())


@dataclass(frozen=True)
class CompareResult:
    """Baseline vs paper algorithm on one instance, fully measured."""

    #: The distributed Yannakakis run (Table 1's first column).
    baseline: QueryResult
    #: The compared run — ``config.algorithm`` (``"auto"`` by default).
    ours: QueryResult

    @property
    def speedup(self) -> float:
        """Baseline load over paper-algorithm load (> 1 ⇒ the paper wins)."""
        return self.baseline.report.max_load / max(1, self.ours.report.max_load)

    def row(self, label: str) -> "ComparisonRow":
        """Package as a :class:`repro.reporting.ComparisonRow`."""
        from .reporting import ComparisonRow

        return ComparisonRow(
            label=label,
            query_class=self.ours.query_class,
            input_size=self._input_size,
            out_size=self.ours.out_size,
            baseline_load=self.baseline.report.max_load,
            new_load=self.ours.report.max_load,
            baseline_comm=self.baseline.report.total_communication,
            new_comm=self.ours.report.total_communication,
            rounds=self.ours.report.rounds,
        )

    # Stashed by compare() — the instance itself is not retained.
    _input_size: int = 0


def compare(
    instance: Instance,
    config: Optional[ExecutionConfig] = None,
    scope: Optional[str] = None,
) -> CompareResult:
    """Run the baseline and ``config.algorithm`` on ``instance``.

    The compared side honours ``config.algorithm`` (``"auto"`` — the
    paper's per-class choice — by default; explicit names force one
    algorithm and raise ``ValueError`` when the query lacks the required
    shape).  Raises ``AssertionError`` if the two runs disagree (they
    never should; this keeps report data trustworthy by construction).
    Only the compared run is traced when ``config.tracer`` is set —
    ``scope`` names it in the event stream, so several instances can
    share one sink.
    """
    config = config or ExecutionConfig()
    baseline = _executor_run_query(
        instance, config=replace(config, tracer=None, algorithm="yannakakis")
    )
    if config.tracer is not None and scope is not None:
        config.tracer.scope = scope
    ours = _executor_run_query(instance, config=config)
    if baseline.relation.tuples != ours.relation.tuples:
        raise AssertionError(
            f"algorithms disagree on {scope or instance.query.classify()!r}"
        )
    return CompareResult(
        baseline=baseline, ours=ours, _input_size=instance.total_size
    )


def sweep(
    instances: Iterable[Tuple[str, Instance]],
    config: Optional[ExecutionConfig] = None,
) -> List[Tuple[str, CompareResult]]:
    """:func:`compare` across a labelled series of instances.

    ``instances`` yields ``(label, instance)`` pairs; each label becomes
    the tracer scope for its point, and the comparisons come back in input
    order paired with their labels.
    """
    return [
        (label, compare(instance, config, scope=label))
        for label, instance in instances
    ]


def explain(
    instance: Instance,
    config: Optional[ExecutionConfig] = None,
    stats_mode: str = "offline",
) -> "Plan":
    """The planner's predictions for ``instance`` — no execution.

    Returns the :class:`repro.planner.Plan`: the algorithm
    ``algorithm="auto"`` runs as ``chosen``, every runnable algorithm's
    predicted load, and the statistics snapshot behind them.
    ``stats_mode="in-model"`` collects the statistics on a throwaway
    cluster so the plan reports their metered cost; the default
    ``"offline"`` snapshot is free; any other value raises
    :class:`~repro.errors.ConfigError`.  Deterministic: same instance,
    same calibration file, byte-identical
    :meth:`~repro.planner.Plan.to_dict`.
    """
    from .backends.dispatch import admit_instance
    from .planner import plan_query

    config = config or ExecutionConfig()
    view = None
    if stats_mode == "in-model":
        view = admit_instance(config.make_cluster(instance.total_size), instance).view()
    return plan_query(
        instance,
        p=config.p,
        stats_mode=stats_mode,
        view=view,
        backend=config.backend,
    )


#: Table-1 row labels in presentation order.
TABLE1_FAMILIES = ("matmul", "line", "star", "tree")


def table1(
    scale: int = 300,
    config: Optional[ExecutionConfig] = None,
    families: Optional[Sequence[str]] = None,
) -> List["ComparisonRow"]:
    """One adversarial instance per Table-1 row, measured.

    ``scale`` is the tuples-per-relation knob; families are the planted/
    adversarial ones where the baseline's intermediate exceeds OUT (see
    docs/paper_notes.md on why uniform-random data would show ties).
    ``config.tracer`` traces every row's paper-algorithm run into one event
    stream, scoped by the row label; when ``config`` is omitted the
    historical defaults (``p=16``, no tracing) apply.  ``families`` selects
    a subset of :data:`TABLE1_FAMILIES` (default all); an empty selection
    is legal and returns no rows, and an unknown name raises ``ValueError``
    rather than silently measuring nothing.
    """
    from .workloads import (
        bowtie_line,
        overlapping_star,
        planted_out_matmul,
        twig_instance,
    )

    config = config or ExecutionConfig(p=16)
    builders: Sequence[tuple] = (
        ("matmul", lambda: planted_out_matmul(n=scale, out=min(scale * scale, 64 * scale))),
        ("line", lambda: bowtie_line(blocks=max(1, scale // 25), fan_out=25, fan_mid=64)),
        ("star", lambda: overlapping_star(arms=3, centres=32, fan=max(2, scale // 32))),
        ("tree", lambda: twig_instance(
            tuples=scale,
            domain=max(10, scale // 10, int(scale ** 0.5) + 2),
            seed=1,
        )),
    )
    if families is None:
        selected = builders
    else:
        unknown = sorted(set(families) - set(TABLE1_FAMILIES))
        if unknown:
            from .errors import ConfigError

            raise ConfigError(
                f"unknown Table-1 families {unknown}; "
                f"choose from {', '.join(TABLE1_FAMILIES)}"
            )
        wanted = set(families)
        selected = [entry for entry in builders if entry[0] in wanted]
    return [
        compare(builder(), config, scope=label).row(label)
        for label, builder in selected
    ]


def fuzz(config: Optional["FuzzConfig"] = None, **overrides: Any) -> "FuzzSummary":
    """Run one conformance fuzzing campaign (differential oracle +
    metamorphic invariants); deterministic per seed.

    ``config`` is a :class:`repro.conformance.FuzzConfig`; keyword
    ``overrides`` replace individual fields of it (or of the default
    config), so ``fuzz(iterations=100, backend="columnar")`` works without
    constructing one explicitly.  Never raises on invariant failures —
    they come back shrunk inside the summary.
    """
    from .conformance import FuzzConfig, fuzz as _conformance_fuzz

    config = config or FuzzConfig()
    if overrides:
        config = replace(config, **overrides)
    return _conformance_fuzz(config)


def materialize(
    instance: Instance,
    config: Optional[ExecutionConfig] = None,
    name: str = "view",
) -> "MaterializedView":
    """Pin a live :class:`~repro.ivm.MaterializedView` over ``instance``.

    The materialization is one ordinary distributed run whose meters
    become the view's base report; keep the returned view and feed it
    delta batches through :func:`apply_delta`.  The view copies the
    instance's relations — later mutations of ``instance`` do not leak
    into it.
    """
    from .ivm import materialize as _ivm_materialize

    return _ivm_materialize(instance, config=config, name=name)


def apply_delta(view: "MaterializedView", batch: "DeltaBatch") -> "DeltaResult":
    """Apply one :class:`~repro.ivm.DeltaBatch` to ``view``.

    Maintenance cost is proportional to the delta's join neighbourhood,
    not to instance size, and accumulates under the ``maintenance`` tag
    of ``view.report()`` — the base meters never change.  Raises
    :class:`~repro.errors.UnsupportedDeltaError` when the batch contains
    deletions and the view's semiring has no additive inverse, and
    :class:`~repro.errors.ConfigError` on malformed changes (unknown
    relation, arity mismatch, deleting an absent tuple).
    """
    return view.apply(batch)


def chaos(config: Optional["FuzzConfig"] = None, **overrides: Any) -> "FuzzSummary":
    """The chaos tier on its own: every case re-checked under seeded
    recoverable fault schedules plus one planted unrecoverable one.

    Same contract as :func:`fuzz` with the invariant set pinned to
    ``("differential", "chaos")``; tune the tier with the
    ``chaos_schedules``/``chaos_faults`` fields.
    """
    from .conformance import FuzzConfig, fuzz as _conformance_fuzz

    config = config or FuzzConfig(iterations=10)
    if overrides:
        config = replace(config, **overrides)
    config = replace(config, invariants=("differential", "chaos"))
    return _conformance_fuzz(config)
