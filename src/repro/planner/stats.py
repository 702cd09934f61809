"""Statistics catalog for the load predictor (docs/planner.md).

Every Table 1 load formula is a function of a handful of per-instance
statistics: relation sizes ``N_e``, the total input ``N``, and the output
size ``OUT``.  The planner never looks at the data when it predicts —
it looks at a :class:`QueryStatistics` snapshot produced here, in one of
two modes:

* **offline** (default) — a sequential ANALYZE-style scan of the local
  :class:`~repro.data.relation.Relation` objects: exact sizes, per-attribute
  distinct counts, maximum degrees and heavy-hitter counts, plus an OUT
  estimate whose estimator depends on the query shape (see below).  Nothing
  is metered; the snapshot is free in the MPC cost model, the way a real
  system's catalog is maintained outside the query path.
* **in-model** — the same snapshot collected *on the cluster* with metered
  load: relations are loaded, degrees come from
  :func:`~repro.primitives.degrees.degree_table`, and OUT comes from the
  paper's §2.2 KMV-sketch estimator
  (:func:`~repro.primitives.estimate_out.estimate_path_out`) where it
  applies.  The charge lands on the caller's meter under a
  ``planner/stats`` phase, so a plan that pays for its statistics shows
  that load in the caller's :class:`~repro.mpc.stats.CostReport`.

OUT estimators by query shape (the ``out_provenance`` field records which
one ran):

* ``kmv-sketch`` — line-shaped queries (matmul included): the §2.2
  right-to-left KMV propagation,
  :func:`~repro.primitives.estimate_out.estimate_path_out`, in both modes —
  on a throwaway one-server cluster whose meters nobody reads (offline) or
  on the caller's view (in-model).  Exact whenever every per-value reach
  is below the sketch width ``k``.
* ``degree-bound`` — star queries: ``Σ_b Π_i d_i(b)`` over centre values
  ``b`` and per-arm distinct counts ``d_i(b)`` — an exact count of arm
  combinations and an upper bound on OUT (distinct centres may emit the
  same output tuple).
* ``oracle`` — everything else (star-like, twig, general trees): the
  boolean-semiring sequential oracle, i.e. exact OUT by full evaluation.
  Only ever used offline; in-model collection falls back to the offline
  scan for these shapes and records ``oracle-offline-fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..backends.dispatch import admit_instance, resolve_backend
from ..data.query import Instance, TreeQuery
from ..data.relation import DistRelation, Relation
from ..mpc.cluster import MPCCluster
from ..semiring import BOOLEAN

__all__ = [
    "RelationStats",
    "QueryStatistics",
    "collect_statistics",
    "collect_statistics_in_model",
    "estimate_out",
]

#: Hash salt of the §2.2 sketches (both modes) and, offset per attribute,
#: of the in-model degree tables.
_SKETCH_SALT = 7000


@dataclass(frozen=True)
class RelationStats:
    """Catalog entry for one relation: size, distincts, degrees, skew."""

    name: str
    size: int
    #: attr → number of distinct values.
    distinct: Tuple[Tuple[str, int], ...]
    #: attr → maximum degree (tuples sharing one value of the attribute).
    max_degree: Tuple[Tuple[str, int], ...]
    #: attr → count of heavy hitters (values with degree² > size, the
    #: paper's √N heavy/light threshold).
    heavy_hitters: Tuple[Tuple[str, int], ...]

    def max_degree_of(self, attr: str) -> int:
        return dict(self.max_degree).get(attr, 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "size": self.size,
            "distinct": {attr: count for attr, count in self.distinct},
            "max_degree": {attr: count for attr, count in self.max_degree},
            "heavy_hitters": {attr: count for attr, count in self.heavy_hitters},
        }


@dataclass(frozen=True)
class QueryStatistics:
    """Everything the cost models read: the planner's view of an instance."""

    query_class: str
    total_size: int
    relations: Tuple[RelationStats, ...]
    out_estimate: float
    #: Which estimator produced ``out_estimate`` (see module docstring).
    out_provenance: str
    #: ``"offline"`` or ``"in-model"``.
    mode: str
    #: Load charged to the collecting cluster (0 for offline snapshots).
    metered_load: int = 0

    def relation_named(self, name: str) -> RelationStats:
        for stats in self.relations:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def sizes(self) -> List[int]:
        return [stats.size for stats in self.relations]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query_class": self.query_class,
            "total_size": self.total_size,
            "relations": [stats.to_dict() for stats in self.relations],
            "out_estimate": round(self.out_estimate, 3),
            "out_provenance": self.out_provenance,
            "mode": self.mode,
            "metered_load": self.metered_load,
        }


# -- per-relation scans --------------------------------------------------------


def _relation_stats(name: str, relation: Relation) -> RelationStats:
    counts: Dict[str, Dict[Any, int]] = {attr: {} for attr in relation.schema}
    for values, _weight in relation:
        for attr, value in zip(relation.schema, values):
            bucket = counts[attr]
            bucket[value] = bucket.get(value, 0) + 1
    size = len(relation)
    distinct = tuple(
        (attr, len(counts[attr])) for attr in sorted(relation.schema)
    )
    max_degree = tuple(
        (attr, max(counts[attr].values(), default=0))
        for attr in sorted(relation.schema)
    )
    heavy = tuple(
        (
            attr,
            sum(1 for degree in counts[attr].values() if degree * degree > size),
        )
        for attr in sorted(relation.schema)
    )
    return RelationStats(
        name=name,
        size=size,
        distinct=distinct,
        max_degree=max_degree,
        heavy_hitters=heavy,
    )


# -- OUT estimators ------------------------------------------------------------


def _load(instance: Instance, view) -> Dict[str, DistRelation]:
    return {
        name: DistRelation.load(view, instance.relation(name), instance.semiring)
        for name, _attrs in instance.query.relations
    }


def _kmv_out(
    query: TreeQuery, loaded: Dict[str, DistRelation], order: Sequence[str]
) -> float:
    """The §2.2 estimator over relations already loaded on one view."""
    from ..primitives.estimate_out import estimate_path_out

    path = [loaded[query.relation_between(x, y)] for x, y in zip(order, order[1:])]
    return estimate_path_out(path, list(order), base_salt=_SKETCH_SALT)[0]


def _line_out_offline(
    instance: Instance, order: Sequence[str], backend: Optional[str]
) -> float:
    """:func:`_kmv_out` on a throwaway one-server cluster whose meters
    nobody reads: the call in-model collection makes, unmetered."""
    cluster = MPCCluster(1, backend=resolve_backend(backend, instance.total_size))
    view = admit_instance(cluster, instance.relations.values()).view()
    return _kmv_out(instance.query, _load(instance, view), order)


def _star_out_degree_bound(instance: Instance) -> float:
    """``Σ_b Π_i d_i(b)``: arm combinations per centre value, summed."""
    query = instance.query
    shared = set.intersection(*(set(attrs) for _name, attrs in query.relations))
    centre = next(iter(shared))
    per_relation: List[Dict[Any, int]] = []
    for name, attrs in query.relations:
        centre_index = attrs.index(centre)
        arm_index = 1 - centre_index
        arms: Dict[Any, set] = {}
        for values, _weight in instance.relation(name):
            arms.setdefault(values[centre_index], set()).add(values[arm_index])
        per_relation.append({b: len(vals) for b, vals in arms.items()})
    common = set(per_relation[0])
    for table in per_relation[1:]:
        common &= set(table)
    total = 0
    for b in common:
        product = 1
        for table in per_relation:
            product *= table[b]
        total += product
    return float(total)


def _oracle_out(instance: Instance) -> float:
    """Exact OUT via the boolean-semiring sequential oracle."""
    from ..ram.evaluate import evaluate

    relations = {}
    for name, attrs in instance.query.relations:
        relation = Relation(name, attrs)
        for values, _weight in instance.relation(name):
            relation.add(values, True, BOOLEAN)
        relations[name] = relation
    boolean_instance = Instance(instance.query, relations, BOOLEAN)
    return float(len(evaluate(boolean_instance)))


def estimate_out(
    instance: Instance, backend: Optional[str] = None
) -> Tuple[float, str]:
    """``(estimate, provenance)`` for the instance's output size, from the
    shape-appropriate estimator (module docstring).  ``backend`` is the
    kernel backend the §2.2 estimator runs on (the estimate does not
    depend on it).
    """
    query = instance.query
    order = query.path_order()
    if order is not None and query.is_line():
        return _line_out_offline(instance, order, backend), "kmv-sketch"
    if query.is_star():
        return _star_out_degree_bound(instance), "degree-bound"
    return _oracle_out(instance), "oracle"


# -- collection entry points ---------------------------------------------------


def collect_statistics(
    instance: Instance, backend: Optional[str] = None
) -> QueryStatistics:
    """Offline (unmetered) snapshot of every statistic the planner reads;
    ``backend`` as in :func:`estimate_out`."""
    relations = tuple(
        _relation_stats(name, instance.relation(name))
        for name, _attrs in instance.query.relations
    )
    out_estimate, provenance = estimate_out(instance, backend)
    return QueryStatistics(
        query_class=instance.query.classify(),
        total_size=instance.total_size,
        relations=relations,
        out_estimate=out_estimate,
        out_provenance=provenance,
        mode="offline",
    )


def collect_statistics_in_model(instance: Instance, view) -> QueryStatistics:
    """Metered snapshot: statistics computed *on the cluster*.

    Sizes and degree statistics are collected through metered degree
    tables; OUT uses the distributed §2.2 estimator for line-shaped
    queries and falls back to the offline estimator otherwise (recorded in
    the provenance).  The charged load is the difference of the view's
    meter around the collection, reported in ``metered_load`` — and left
    on the meter.
    """
    from ..primitives.degrees import degree_table

    tracker = view.tracker
    before = tracker.max_load
    query = instance.query
    with tracker.phase("planner/stats"):
        loaded = _load(instance, view)
        relations: List[RelationStats] = []
        for name, attrs in query.relations:
            relation = loaded[name]
            distinct: List[Tuple[str, int]] = []
            max_degree: List[Tuple[str, int]] = []
            heavy: List[Tuple[str, int]] = []
            size = relation.total_size
            for offset, attr in enumerate(sorted(attrs)):
                index = relation.attr_index(attr)
                degrees = degree_table(
                    relation.data,
                    lambda item, index=index: item[0][index],
                    salt=_SKETCH_SALT + 31 * offset,
                )
                local = [
                    [degree for _value, degree in part]
                    for part in degrees.parts
                ]
                view.control_gather([len(part) for part in local])
                distinct.append((attr, sum(len(part) for part in local)))
                max_degree.append(
                    (attr, max((max(part) for part in local if part), default=0))
                )
                heavy.append(
                    (
                        attr,
                        sum(
                            sum(1 for d in part if d * d > size)
                            for part in local
                        ),
                    )
                )
            relations.append(
                RelationStats(
                    name=name,
                    size=size,
                    distinct=tuple(distinct),
                    max_degree=tuple(max_degree),
                    heavy_hitters=tuple(heavy),
                )
            )
        order = query.path_order()
        if order is not None and query.is_line():
            out_estimate, provenance = _kmv_out(query, loaded, order), "kmv-sketch"
        else:
            out_estimate, provenance = estimate_out(instance)
            if provenance == "oracle":
                provenance = "oracle-offline-fallback"
    return QueryStatistics(
        query_class=query.classify(),
        total_size=instance.total_size,
        relations=tuple(relations),
        out_estimate=out_estimate,
        out_provenance=provenance,
        mode="in-model",
        metered_load=max(0, tracker.max_load - before),
    )
