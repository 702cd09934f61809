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
* :func:`table1` — the paper's Table 1 on adversarial workload families;
* :func:`fuzz` — a conformance fuzzing campaign
  (:mod:`repro.conformance`), the chaos tier included;
* :func:`materialize` — incremental view maintenance (:mod:`repro.ivm`):
  pin a live :class:`~repro.ivm.MaterializedView` over an instance and
  keep it current with ``view.apply(batch)`` under
  :class:`~repro.ivm.DeltaBatch` streams, metered under the
  ``maintenance`` tag of the cost report.

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

The surface's version history (what each release removed) is in
CHANGELOG.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from .config import ExecutionConfig
from .core.executor import QueryResult, run_query
from .data.query import Instance

#: Version of the *facade contract* (what ``__all__`` promises); the
#: package release (``repro.__version__``, pyproject.toml) carries the
#: same number.
__version__ = "3.0.0"

__all__ = [
    "__version__",
    "ExecutionConfig",
    "CompareResult",
    "ComparisonRow",
    "QueryResult",
    "TABLE1_FAMILIES",
    "run_query",
    "compare",
    "explain",
    "table1",
    "fuzz",
    "materialize",
]


@dataclass(frozen=True)
class ComparisonRow:
    """Baseline-vs-paper measurement for one instance (a Table-1 row)."""

    label: str
    query_class: str
    input_size: int
    out_size: int
    baseline_load: int
    new_load: int
    baseline_comm: int
    new_comm: int
    rounds: int

    @property
    def speedup(self) -> float:
        """Baseline load over new-algorithm load (> 1 ⇒ the paper wins)."""
        return self.baseline_load / max(1, self.new_load)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict (all fields plus the derived speedup)."""
        record = asdict(self)
        record["speedup"] = self.speedup
        return record


@dataclass(frozen=True)
class CompareResult:
    """Baseline vs paper algorithm on one instance, fully measured."""

    #: The distributed Yannakakis run (Table 1's first column).
    baseline: QueryResult
    #: The compared run — ``config.algorithm`` (``"auto"`` by default).
    ours: QueryResult
    #: The instance's total tuple count (the instance itself is not kept).
    input_size: int

    @property
    def speedup(self) -> float:
        """Baseline load over paper-algorithm load (> 1 ⇒ the paper wins)."""
        return self.baseline.report.max_load / max(1, self.ours.report.max_load)

    def row(self, label: str) -> ComparisonRow:
        """Package as a :class:`ComparisonRow`."""
        return ComparisonRow(
            label=label,
            query_class=self.ours.query_class,
            input_size=self.input_size,
            out_size=self.ours.out_size,
            baseline_load=self.baseline.report.max_load,
            new_load=self.ours.report.max_load,
            baseline_comm=self.baseline.report.total_communication,
            new_comm=self.ours.report.total_communication,
            rounds=self.ours.report.rounds,
        )


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
    baseline = run_query(
        instance, replace(config, tracer=None, algorithm="yannakakis")
    )
    if config.tracer is not None and scope is not None:
        config.tracer.scope = scope
    ours = run_query(instance, config)
    if baseline.relation.tuples != ours.relation.tuples:
        raise AssertionError(
            f"algorithms disagree on {scope or instance.query.classify()!r}"
        )
    return CompareResult(
        baseline=baseline, ours=ours, input_size=instance.total_size
    )


def explain(
    instance: Instance, config: Optional[ExecutionConfig] = None
) -> "Plan":
    """The planner's predictions for ``instance`` — no execution.

    Returns the :class:`repro.planner.Plan`: the algorithm
    ``algorithm="auto"`` runs as ``chosen``, every runnable algorithm's
    predicted load at ``config.p``, and the unmetered statistics snapshot
    behind them.  Deterministic: same instance, same calibration file,
    byte-identical :meth:`~repro.planner.Plan.to_dict`.
    """
    from .planner import plan_query

    config = config or ExecutionConfig()
    return plan_query(instance, p=config.p, backend=config.backend)


#: Table-1 row labels in presentation order.
TABLE1_FAMILIES = ("matmul", "line", "star", "tree")


def table1(
    scale: int = 300,
    config: Optional[ExecutionConfig] = None,
    families: Optional[Sequence[str]] = None,
) -> List[ComparisonRow]:
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


def fuzz(config: Optional["FuzzConfig"] = None) -> "FuzzSummary":
    """Run one conformance fuzzing campaign (differential oracle +
    metamorphic invariants, plus the chaos tier when ``config.invariants``
    names ``"chaos"``); deterministic per seed.

    ``config`` is a :class:`repro.conformance.FuzzConfig` (default
    ``FuzzConfig()``).  Never raises on invariant failures — they come
    back shrunk inside the summary.
    """
    from .conformance import FuzzConfig, fuzz as _conformance_fuzz

    return _conformance_fuzz(config or FuzzConfig())


def materialize(
    instance: Instance,
    config: Optional[ExecutionConfig] = None,
    name: str = "view",
) -> "MaterializedView":
    """Pin a live :class:`~repro.ivm.MaterializedView` over ``instance``.

    The materialization is one ordinary distributed run whose meters
    become the view's base report; keep the returned view and feed it
    delta batches through ``view.apply(batch)``.  The view copies the
    instance's relations — later mutations of ``instance`` do not leak
    into it.
    """
    from .ivm import materialize as _ivm_materialize

    return _ivm_materialize(instance, config=config, name=name)
