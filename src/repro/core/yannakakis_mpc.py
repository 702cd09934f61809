"""The distributed Yannakakis algorithm — the paper's baseline (§1.2, §1.4).

Runs the classic Yannakakis plan (dangling-tuple removal, then bottom-up
pairwise join + aggregation) on the MPC simulator, using the optimal
skew-resilient two-way join for every step.  Its load is
``O(N/p + J/p)`` where ``J`` is the maximum intermediate join size:
``J = O(OUT)`` for free-connex queries, ``O(N·√OUT)`` for matrix
multiplication, ``O(N·OUT^{1−1/n})`` for stars and ``O(N·OUT)`` in general —
the first column of Table 1 that the new algorithms beat.
"""

from __future__ import annotations

from typing import Dict

from ..data.query import Instance
from ..data.relation import DistRelation, Relation
from ..mpc.cluster import ClusterView
from ..primitives.dangling import remove_dangling
from ..ram.yannakakis import yannakakis_plan
from .two_way_join import aggregate_relation, join_aggregate_pair

__all__ = ["yannakakis_mpc", "yannakakis_mpc_distributed"]


def yannakakis_mpc_distributed(
    instance: Instance, relations: Dict[str, DistRelation]
) -> DistRelation:
    """Run the baseline over the instance's loaded ``relations`` and leave
    the result distributed (canonical schema: output attributes in sorted
    order)."""
    query = instance.query
    semiring = instance.semiring
    relations = remove_dangling(query, relations)

    for step in yannakakis_plan(query):
        leaf = relations.pop(step.leaf)
        host = relations[step.host]
        relations[step.host] = join_aggregate_pair(leaf, host, step.keep, semiring)

    (final,) = relations.values()
    schema = tuple(sorted(query.output))
    if final.schema == schema:
        return final
    return aggregate_relation(final, schema, semiring)


def yannakakis_mpc(instance: Instance, view: ClusterView) -> Relation:
    """Run the baseline and materialize the result at the coordinator."""
    relations = {
        name: DistRelation.load(view, instance.relation(name), instance.semiring)
        for name, _ in instance.query.relations
    }
    distributed = yannakakis_mpc_distributed(instance, relations)
    return distributed.collect("yannakakis_mpc", instance.semiring)
