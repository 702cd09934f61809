"""Top-level query executor: classify, dispatch, meter (paper §1.5/Table 1).

``run_query`` is the library's front door: it loads an :class:`Instance`
onto a simulated cluster, picks the paper's algorithm for the query's class
(or the requested one), and returns the result together with the measured
:class:`~repro.mpc.stats.CostReport`.

Dispatch goes through a declarative registry (:data:`ALGORITHMS`): each
entry couples an algorithm name with the structural predicate deciding
whether a query has the required shape and the function that runs it.  The
registry is introspectable — :func:`applicable_algorithms` is how the
conformance fuzzer (:mod:`repro.conformance`) enumerates every algorithm a
random query can legally exercise, instead of hardcoding the zoo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..backends.dispatch import admit_instance
from ..config import ExecutionConfig
from ..data.query import Instance, QueryClass, TreeQuery
from ..data.relation import DistRelation, Relation
from ..errors import ApplicabilityError
from ..mpc.cluster import ClusterView, MPCCluster
from ..mpc.stats import CostReport
from ..obs.profile import activate
from .line import line_query
from .star import star_query
from .starlike import starlike_query
from .tree import tree_query
from .two_way_join import aggregate_relation
from .yannakakis_mpc import yannakakis_mpc_distributed

__all__ = [
    "run_query",
    "QueryResult",
    "AlgorithmSpec",
    "ALGORITHMS",
    "AUTO_CHOICE",
    "applicable_algorithms",
]


@dataclass
class QueryResult:
    """Result of one distributed query execution."""

    #: The answer, schema = output attributes in sorted order.
    relation: Relation
    #: Measured cluster costs (the paper's load L, rounds, communication…).
    report: CostReport
    #: Query class detected by :meth:`TreeQuery.classify`.
    query_class: QueryClass
    #: Which algorithm actually ran.
    algorithm: str

    @property
    def out_size(self) -> int:
        return len(self.relation)


def run_query(
    instance: Instance,
    config: Optional[ExecutionConfig] = None,
    *,
    cluster: Optional[MPCCluster] = None,
) -> QueryResult:
    """Evaluate ``instance`` on a fresh simulated MPC cluster built from
    ``config`` (an :class:`~repro.config.ExecutionConfig`, default
    ``ExecutionConfig()``), or on ``cluster`` as built — a faulted one, or
    one whose meters the caller reads afterwards — when one is given;
    ``config`` then supplies only ``algorithm`` and ``validate``.

    ``config.algorithm="auto"`` picks the paper's new algorithm for the
    query's class — the second column of Table 1 — while ``"yannakakis"``
    forces the baseline (first column).  Explicit names force that
    algorithm and raise if the query does not have the required shape.
    Results, cost reports, and traces are identical across
    ``config.backend`` values (:mod:`repro.backends`); only wall-clock
    differs.

    ``config.validate=True`` cross-checks the distributed answer against
    the sequential oracle (annotations included) and raises
    ``AssertionError`` on any mismatch; the oracle runs outside the
    cluster, so metering is unaffected.
    """
    if config is None:
        config = ExecutionConfig()
    if cluster is None:
        cluster = config.make_cluster(instance.total_size)
    view = admit_instance(cluster, instance.relations.values()).view()
    query = instance.query
    semiring = instance.semiring
    query_class = query.classify()

    tracker = cluster.tracker
    chosen = config.algorithm
    if chosen == "auto":
        chosen = AUTO_CHOICE[query_class]
    if tracker.tracer is not None:
        tracker.tracer.label = chosen

    out_schema = tuple(sorted(query.output))
    # Activation makes this run's profiler (or its absence) visible to the
    # vectorized kernels, which receive bare arrays and cannot reach the
    # cluster through their arguments.  One root span per run: a profiler
    # may observe many runs (a table1 sweep, a view's delta batches).
    previous = activate(tracker.profiler)
    try:
        with tracker.span(f"run:{chosen}", "run", cluster.backend):
            distributed = _dispatch(chosen, instance, view)
            if distributed.schema != out_schema:
                with tracker.span("finalize", "step"):
                    distributed = aggregate_relation(
                        distributed, out_schema, semiring
                    )
            with tracker.span("collect", "step"):
                relation = distributed.collect("result", semiring)
    finally:
        activate(previous)
    if config.validate:
        from ..ram.evaluate import evaluate

        expected = evaluate(instance)
        if relation.tuples != expected.tuples:
            raise AssertionError(
                f"distributed result disagrees with the oracle: "
                f"{len(relation)} vs {len(expected)} tuples"
            )
    report = cluster.report()
    report.algorithm = chosen
    return QueryResult(
        relation=relation,
        report=report,
        query_class=query_class,
        algorithm=chosen,
    )


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered distributed algorithm.

    ``applies`` is the structural predicate (a query may satisfy several —
    a matmul query is also a legal star and star-like query), ``run``
    evaluates a pre-loaded instance, and ``requirement`` names the shape in
    error messages.
    """

    name: str
    applies: Callable[[TreeQuery], bool]
    run: Callable[[Instance, ClusterView, Dict[str, DistRelation]], DistRelation]
    requirement: str


def _run_yannakakis(
    instance: Instance, view: ClusterView, loaded: Dict[str, DistRelation]
) -> DistRelation:
    return yannakakis_mpc_distributed(instance, loaded)


def _run_line(
    instance: Instance,
    view: ClusterView,
    loaded: Dict[str, DistRelation],
    matmul_strategy: str = "auto",
) -> DistRelation:
    query = instance.query
    order = query.path_order()
    rels = [loaded[query.relation_between(x, y)] for x, y in zip(order, order[1:])]
    return line_query(rels, order, instance.semiring,
                      matmul_strategy=matmul_strategy)


def _run_matmul_worst_case(
    instance: Instance, view: ClusterView, loaded: Dict[str, DistRelation]
) -> DistRelation:
    return _run_line(instance, view, loaded, matmul_strategy="worst-case")


def _run_matmul_output_sensitive(
    instance: Instance, view: ClusterView, loaded: Dict[str, DistRelation]
) -> DistRelation:
    return _run_line(instance, view, loaded, matmul_strategy="output-sensitive")


def _run_star(
    instance: Instance, view: ClusterView, loaded: Dict[str, DistRelation]
) -> DistRelation:
    query = instance.query
    centre = next(
        a for a in query.attributes
        if all(a in attrs for _n, attrs in query.relations)
    )
    arm_attrs = []
    rels = []
    for name, attrs in query.relations:
        arm_attrs.append(attrs[0] if attrs[1] == centre else attrs[1])
        rels.append(loaded[name])
    return star_query(rels, arm_attrs, centre, instance.semiring)


def _run_starlike(
    instance: Instance, view: ClusterView, loaded: Dict[str, DistRelation]
) -> DistRelation:
    return starlike_query(instance.query, loaded, instance.semiring)


def _run_tree(
    instance: Instance, view: ClusterView, loaded: Dict[str, DistRelation]
) -> DistRelation:
    return tree_query(instance.query, loaded, instance.semiring)


#: The algorithm zoo, in dispatch-preference order.  ``yannakakis`` and
#: ``tree`` accept every tree query; the others require their paper shape.
ALGORITHMS: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            "yannakakis",
            lambda query: True,
            _run_yannakakis,
            "a tree query",
        ),
        AlgorithmSpec(
            "matmul",
            lambda query: query.is_matmul(),
            _run_line,
            "a matmul (two-relation line) query",
        ),
        AlgorithmSpec(
            "matmul-worst-case",
            lambda query: query.is_matmul(),
            _run_matmul_worst_case,
            "a matmul (two-relation line) query",
        ),
        AlgorithmSpec(
            "matmul-output-sensitive",
            lambda query: query.is_matmul(),
            _run_matmul_output_sensitive,
            "a matmul (two-relation line) query",
        ),
        AlgorithmSpec(
            "line",
            lambda query: query.is_line() or query.is_matmul(),
            _run_line,
            "a line query",
        ),
        AlgorithmSpec(
            "star",
            lambda query: query.is_star(),
            _run_star,
            "a star query",
        ),
        AlgorithmSpec(
            "star-like",
            lambda query: query.is_star_like(),
            _run_starlike,
            "star-like",
        ),
        AlgorithmSpec(
            "tree",
            lambda query: True,
            _run_tree,
            "a tree query",
        ),
    )
}

#: The executor's ``algorithm="auto"`` choice per query class (Table 1).
AUTO_CHOICE: Dict[QueryClass, str] = {
    "free-connex": "yannakakis",
    "matmul": "line",
    "line": "line",
    "star": "star",
    "star-like": "star-like",
    "twig": "tree",
    "tree": "tree",
}


def applicable_algorithms(query: TreeQuery) -> List[str]:
    """Every registered algorithm whose shape predicate accepts ``query``.

    Always non-empty (``yannakakis`` and ``tree`` accept everything); the
    conformance fuzzer runs all of them differentially against the oracle.
    """
    return [name for name, spec in ALGORITHMS.items() if spec.applies(query)]


def _dispatch(chosen: str, instance: Instance, view: ClusterView) -> DistRelation:
    query = instance.query
    spec = ALGORITHMS.get(chosen)
    if spec is None:
        raise ApplicabilityError(
            f"unknown algorithm {chosen!r}; registered: "
            f"{', '.join(ALGORITHMS)} (plus the 'auto' dispatcher)"
        )
    if not spec.applies(query):
        raise ApplicabilityError(
            f"algorithm {chosen!r} needs {spec.requirement}, but this query "
            f"is {query.classify()}; applicable here: "
            f"{', '.join(applicable_algorithms(query))}"
        )
    tracker = view.tracker
    semiring = instance.semiring
    with tracker.span("load", "step"):
        loaded: Dict[str, DistRelation] = {
            name: DistRelation.load(view, instance.relation(name), semiring)
            for name, _ in query.relations
        }
    with tracker.span("execute", "step"):
        return spec.run(instance, view, loaded)
