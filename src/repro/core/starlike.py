"""Star-like queries (paper §6, Figure 1).

A star-like query is a set of line-query *arms* sharing one non-output
attribute ``B``; Lemma 7 bounds the load by
``O( (NN')^{1/3}OUT^{1/2}/p^{2/3} + N'^{2/3}OUT^{1/3}/p^{2/3}
     + N·OUT^{2/3}/p + (N+N'+OUT)/p )``.

Algorithm (OUT-oblivious):

1. estimate per-arm reach counts ``d_i(b)`` with KMV sketches (§2.2) and
   bucket ``dom(B)`` by the sorting permutation ``φ_b`` *and* whether
   ``∏_{i<n} d_{φ(i)}(b) ≤ d_{φ(n)}(b)`` (*small*) or not (*large*);
2. **small buckets**: shrink every arm except ``φ(n)`` to ``R(A_j, B)``
   (Yannakakis along the arm; sizes ≤ N·√OUT by Lemma 10), join them on
   ``B`` into a combined relation, and solve the remaining *line query*
   towards ``A_{φ(n)}`` (§4);
3. **large buckets**: shrink all arms, split them into index sets
   ``I = {φ(n), φ(n−3), …}`` and ``J`` (Lemma 11 keeps both sides ≤
   OUT^{2/3} per value), join each side on ``B``, *uniformize* by the
   power-of-two degree of ``b`` on the ``I`` side, and run one matrix
   multiplication per degree class (§3.2);
4. ⊕-combine everything by the arm-end attributes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..data.query import TreeQuery
from ..data.relation import DistRelation
from ..mpc.distributed import Distributed
from ..primitives.dangling import remove_dangling
from ..primitives.degrees import (
    degree_table,
    distinct_labels,
    label_tuples,
    select_labelled,
)
from ..primitives.estimate_out import estimate_path_out
from ..primitives.reduce_by_key import reduce_by_key
from ..semiring import Semiring
from .arms import Arm, extract_arms
from .line import line_query
from .matmul import sparse_matmul
from .star import binarize, expand_columns, join_group_on_centre, unpack_pairs
from .two_way_join import aggregate_relation, join_aggregate_pair

__all__ = ["starlike_query", "shrink_arm", "arm_reach_estimates"]


def starlike_query(
    query: TreeQuery,
    relations: Dict[str, DistRelation],
    semiring: Semiring,
    salt: int = 0,
) -> DistRelation:
    """Evaluate a star-like query; result schema = sorted output attributes.

    Line queries (n = 2 arms) are delegated to §4 and pure stars to §5 via
    the shared machinery; this function handles the general arm mix.
    """
    if not query.is_star_like():
        raise ValueError("starlike_query requires a star-like query")
    out_schema = tuple(sorted(query.output))

    order = query.path_order()
    if order is not None:  # two arms ⇒ a line query
        rels = [
            relations[query.relation_between(x, y)] for x, y in zip(order, order[1:])
        ]
        return line_query(rels, order, semiring, salt).reordered(out_schema)

    centre = query.centre()
    arms = extract_arms(query, centre)
    n = len(arms)
    arm_ends = [arm[-1][2] for arm in arms]

    relations = remove_dangling(query, relations)
    view = next(iter(relations.values())).view

    # ---- Step 1: per-arm d_i(b) and the (φ, small/large) bucketing. ---------
    reach_tables = [
        arm_reach_estimates(arm, relations, salt + 10 + i) for i, arm in enumerate(arms)
    ]
    merged = Distributed.union(view, [
        table.map_items(lambda pair, i=i: (pair[0], ((i, pair[1]),)))
        for i, table in enumerate(reach_tables)
    ])
    profiles = reduce_by_key(
        merged, lambda pair: pair[0], lambda pair: pair[1], lambda a, b: a + b,
        salt + 30,
    )

    def bucket_of(profile: Tuple[Tuple[int, float], ...]) -> Tuple[Tuple[int, ...], str]:
        degrees = dict(profile)
        perm = tuple(sorted(range(n), key=lambda i: (degrees.get(i, 1.0), i)))
        product = 1.0
        for i in perm[:-1]:
            product *= max(1.0, degrees.get(i, 1.0))
        kind = "small" if product <= max(1.0, degrees.get(perm[-1], 1.0)) else "large"
        return (perm, kind)

    bucket_table = profiles.map_items(lambda pair: (pair[0], bucket_of(pair[1])))
    observed = distinct_labels(bucket_table, salt + 31)

    outputs: List[Distributed] = []
    for bucket_index, (perm, kind) in enumerate(observed):
        bucket_rels = _restrict_to_bucket(
            query, relations, centre, bucket_table, (perm, kind)
        )
        bucket_rels = remove_dangling(query, bucket_rels)
        if any(rel.total_size == 0 for rel in bucket_rels.values()):
            continue
        solve = _solve_small if kind == "small" else _solve_large
        outputs.append(
            solve(arms, arm_ends, perm, centre, bucket_rels, semiring,
                  tuple(arm_ends), salt + 100 * (bucket_index + 1))
        )

    result = DistRelation(tuple(arm_ends), Distributed.union(view, outputs))
    return aggregate_relation(
        result, tuple(arm_ends), semiring, salt + 5
    ).reordered(out_schema)


# -- arm machinery ---------------------------------------------------------------


def arm_reach_estimates(
    arm: Arm, relations: Dict[str, DistRelation], salt: int
) -> Distributed:
    """``(b, d_i(b))`` pairs: distinct arm-end values reachable from ``b``.

    Exact (a degree count) for single-relation arms; KMV estimate (§2.2)
    for longer arms.
    """
    if len(arm) == 1:
        name, near, _far = arm[0]
        rel = relations[name]
        table = degree_table(rel.data, rel.key_fn((near,)), salt)
        return table.map_items(lambda pair: (pair[0][0], float(pair[1])))
    path_attrs = [arm[0][1]] + [step[2] for step in arm]
    path_rels = [relations[step[0]] for step in arm]
    _total, per_value = estimate_path_out(
        path_rels, path_attrs, base_salt=salt
    )
    return per_value.map_items(lambda pair: (pair[0], max(1.0, pair[1])))


def shrink_arm(
    arm: Arm,
    relations: Dict[str, DistRelation],
    semiring: Semiring,
    salt: int,
) -> DistRelation:
    """Yannakakis along the arm: ``R(B, A_end) = Σ_internal ⋈ arm`` (§6
    steps 2.1/3.1).  Result schema ``(centre, end)``."""
    end = arm[-1][2]
    centre = arm[0][1]
    accumulated = relations[arm[-1][0]].reordered((arm[-1][1], end))
    for step_index in range(len(arm) - 2, -1, -1):
        name, near, far = arm[step_index]
        accumulated = join_aggregate_pair(
            relations[name].reordered((near, far)),
            accumulated,
            (near, end),
            semiring,
            salt=salt + step_index,
        )
    return accumulated.reordered((centre, end))


def _solve_small(
    arms: Sequence[Arm],
    arm_ends: Sequence[str],
    perm: Tuple[int, ...],
    centre: str,
    relations: Dict[str, DistRelation],
    semiring: Semiring,
    out_order: Tuple[str, ...],
    salt: int,
) -> Distributed:
    """§6 step 2: shrink all but the largest arm, reduce to a line query."""
    small_positions = list(perm[:-1])
    last = perm[-1]
    shrunk = [
        shrink_arm(arms[i], relations, semiring, salt + 10 * k).reordered(
            (arm_ends[i], centre)
        )
        for k, i in enumerate(small_positions)
    ]
    joined, joined_attrs = join_group_on_centre(
        shrunk, [arm_ends[i] for i in small_positions], centre, semiring, salt + 70
    )
    combined = binarize(joined, joined_attrs, "__small", centre)

    # Line query: __small — B — … — A_{φ(n)} along the remaining arm.
    tail_arm = arms[last]
    line_attrs = ["__small", centre] + [step[2] for step in tail_arm]
    line_rels = [combined] + [relations[step[0]] for step in tail_arm]
    line_result = line_query(line_rels, line_attrs, semiring, salt + 80)
    # line_result schema: ("__small", A_{φ(n)}).
    flat = expand_columns(
        line_result.data, line_result.schema, {"__small": joined_attrs}, out_order
    )
    if flat is not None:
        return flat
    return unpack_pairs(
        _pairify(line_result),
        joined_attrs,
        (arm_ends[last],),
        out_order,
    )


def _solve_large(
    arms: Sequence[Arm],
    arm_ends: Sequence[str],
    perm: Tuple[int, ...],
    centre: str,
    relations: Dict[str, DistRelation],
    semiring: Semiring,
    out_order: Tuple[str, ...],
    salt: int,
) -> Distributed:
    """§6 step 3: shrink all arms, Lemma-11 index split, uniformized matmuls."""
    n = len(arms)
    shrunk = [
        shrink_arm(arms[i], relations, semiring, salt + 10 * i).reordered(
            (arm_ends[i], centre)
        )
        for i in range(n)
    ]
    in_i = set()
    position = n
    while position >= 1:
        in_i.add(perm[position - 1])
        position -= 3
    i_positions = sorted(in_i)
    j_positions = [i for i in range(n) if i not in in_i]

    left_joined, left_attrs = join_group_on_centre(
        [shrunk[i] for i in i_positions],
        [arm_ends[i] for i in i_positions], centre, semiring, salt + 200,
    )
    right_joined, right_attrs = join_group_on_centre(
        [shrunk[i] for i in j_positions],
        [arm_ends[i] for i in j_positions], centre, semiring, salt + 220,
    )
    left = binarize(left_joined, left_attrs, "__ai", centre)
    right = binarize(right_joined, right_attrs, "__aj", centre)

    # §6 step 3.3: uniformize by the power-of-two degree class of b in left.
    left_degrees = degree_table(left.data, left.key_fn((centre,)), salt + 240)
    class_table = left_degrees.map_items(
        lambda pair: (pair[0][0], int(math.floor(math.log2(max(1, pair[1])))))
    )
    classes = distinct_labels(class_table, salt + 241)
    left_labelled = label_tuples(left, class_table, centre)
    right_labelled = label_tuples(right, class_table, centre)

    outputs: List[Distributed] = []
    for class_index, degree_class in enumerate(classes):
        left_part, right_part = (
            select_labelled(rel, labels, lambda label: label == degree_class)
            for rel, labels in ((left, left_labelled), (right, right_labelled))
        )
        if left_part.total_size == 0 or right_part.total_size == 0:
            continue
        product = sparse_matmul(
            left_part, right_part, semiring, reduce_dangling=False,
            salt=salt + 250 + class_index,
        )
        outputs.append(unpack_pairs(product, left_attrs, right_attrs, out_order))
    return Distributed.union(left.view, outputs)


# -- small utilities --------------------------------------------------------------


def _pairify(rel: DistRelation) -> DistRelation:
    """Adapt a (combined, scalar) binary relation of items for
    :func:`~repro.core.star.unpack_pairs`: the left column is already a
    component tuple, the right column is wrapped as a 1-tuple (even when the
    value itself happens to be a tuple, e.g. a recursion-combined attribute).
    Code columns skip it: :func:`~repro.core.star.expand_columns` splits
    the left column alone."""
    data = rel.data.map_items(
        lambda item: ((item[0][0], (item[0][1],)), item[1])
    )
    return DistRelation(rel.schema, data)


def _restrict_to_bucket(
    query: TreeQuery,
    relations: Dict[str, DistRelation],
    centre: str,
    bucket_table: Distributed,
    bucket: Tuple,
) -> Dict[str, DistRelation]:
    """Filter the centre-incident relations to the bucket's B values."""
    restricted = dict(relations)
    for rel_index, _neighbour in query.adjacency[centre]:
        name = query.relations[rel_index][0]
        rel = restricted[name]
        restricted[name] = select_labelled(
            rel, label_tuples(rel, bucket_table, centre),
            lambda label: label == bucket,
        )
    return restricted
