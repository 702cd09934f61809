"""Statistics catalog for the load predictor (docs/planner.md).

Every Table 1 load formula is a function of a handful of per-instance
statistics: relation sizes ``N_e``, the total input ``N``, and the output
size ``OUT``.  The planner never looks at the data when it predicts —
it looks at a :class:`QueryStatistics` snapshot produced here by a
sequential ANALYZE-style scan of the local
:class:`~repro.data.relation.Relation` objects: exact sizes, per-attribute
distinct counts, maximum degrees and heavy-hitter counts, plus an OUT
estimate whose estimator depends on the query shape (see below).  Nothing
is metered; the snapshot is free in the MPC cost model, the way a real
system's catalog is maintained outside the query path.  (The algorithms
that need OUT meter their own §2.2 estimate, as the ``line/estimate-out``
phase of their runs.)

OUT estimators by query shape (the ``out_provenance`` field records which
one ran):

* ``kmv-sketch`` — line-shaped queries (matmul included): the §2.2
  right-to-left KMV propagation,
  :func:`~repro.primitives.estimate_out.estimate_path_out`, on a throwaway
  one-server cluster whose meters nobody reads.  Exact whenever every
  per-value reach is below the sketch width ``k``.
* ``degree-bound`` — star queries: ``Σ_b Π_i d_i(b)`` over centre values
  ``b`` and per-arm distinct counts ``d_i(b)`` — an exact count of arm
  combinations and an upper bound on OUT (distinct centres may emit the
  same output tuple).
* ``oracle`` — everything else (star-like, twig, general trees): the
  boolean-semiring sequential oracle, i.e. exact OUT by full evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..backends.dispatch import admit_instance, resolve_backend
from ..data.query import Instance
from ..data.relation import DistRelation, Relation
from ..mpc.cluster import MPCCluster
from ..semiring import BOOLEAN

__all__ = [
    "RelationStats",
    "QueryStatistics",
    "collect_statistics",
    "estimate_out",
]

#: Hash salt of the §2.2 sketches.
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

    def sizes(self) -> List[int]:
        return [stats.size for stats in self.relations]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query_class": self.query_class,
            "total_size": self.total_size,
            "relations": [stats.to_dict() for stats in self.relations],
            "out_estimate": round(self.out_estimate, 3),
            "out_provenance": self.out_provenance,
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


def _line_out(
    instance: Instance, order: Sequence[str], backend: Optional[str]
) -> float:
    """The §2.2 estimator on a throwaway one-server cluster whose meters
    nobody reads."""
    from ..primitives.estimate_out import estimate_path_out

    cluster = MPCCluster(1, backend=resolve_backend(backend, instance.total_size))
    view = admit_instance(cluster, instance.relations.values()).view()
    loaded = {
        name: DistRelation.load(view, instance.relation(name), instance.semiring)
        for name, _attrs in instance.query.relations
    }
    path = [
        loaded[instance.query.relation_between(x, y)]
        for x, y in zip(order, order[1:])
    ]
    return estimate_path_out(path, list(order), base_salt=_SKETCH_SALT)[0]


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
        return _line_out(instance, order, backend), "kmv-sketch"
    if query.is_star():
        return _star_out_degree_bound(instance), "degree-bound"
    return _oracle_out(instance), "oracle"


# -- collection entry points ---------------------------------------------------


def collect_statistics(
    instance: Instance, backend: Optional[str] = None
) -> QueryStatistics:
    """Unmetered snapshot of every statistic the planner reads;
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
    )
