"""Star queries (paper §5).

``∑_B R1(A1,B) ⋈ … ⋈ Rn(An,B)`` with load
``O( (N·OUT/p)^{2/3} + N·OUT^{1/2}/p + (N+OUT)/p )`` (Theorem 5),
*oblivious* to OUT:

1. compute per-value degree profiles ``(d_1(b), …, d_n(b))`` and bucket
   ``dom(B)`` by the permutation ``φ_b`` that sorts the profile — at most
   ``n!`` buckets (a constant);
2. for each bucket, join the odd-position relations into ``R_φ(A_odd, B)``
   and the even-position ones into ``R_φ(A_even, B)``; Lemmas 5–6 bound both
   by ``N·√OUT``;
3. reduce to one matrix multiplication per bucket (output-sensitive, §3.2);
4. ⊕-combine the bucket results (they may share output keys).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..data.query import TreeQuery
from ..data.relation import DistRelation
from ..mpc.columnar import ColumnarData
from ..mpc.distributed import Distributed
from ..primitives.dangling import remove_dangling
from ..primitives.degrees import (
    degree_table,
    distinct_labels,
    label_tuples,
    select_labelled,
)
from ..primitives.reduce_by_key import reduce_by_key
from ..semiring import Semiring
from .matmul import sparse_matmul
from .two_way_join import aggregate_relation, join_aggregate_pair

__all__ = ["star_query", "join_group_on_centre", "binarize", "unpack_pairs",
           "expand_columns"]


def star_query(
    relations: Sequence[DistRelation],
    arm_attrs: Sequence[str],
    centre: str,
    semiring: Semiring,
    salt: int = 0,
) -> DistRelation:
    """Evaluate the star query; result schema is ``tuple(arm_attrs)``.

    ``relations[i]`` must contain attributes ``{arm_attrs[i], centre}``.
    """
    n = len(relations)
    if n != len(arm_attrs) or n < 2:
        raise ValueError("star query needs ≥ 2 relations, one arm attribute each")
    relations = [
        rel.reordered((arm_attrs[i], centre)) for i, rel in enumerate(relations)
    ]

    # Dangling-tuple removal: b must appear in every relation.
    names = [f"__S{i}" for i in range(n)]
    query = TreeQuery(
        tuple((names[i], (arm_attrs[i], centre)) for i in range(n)),
        frozenset(arm_attrs),
    )
    reduced = remove_dangling(query, dict(zip(names, relations)))
    relations = [reduced[name] for name in names]

    if n == 2:
        return sparse_matmul(
            relations[0], relations[1], semiring, reduce_dangling=False, salt=salt
        )

    # ---- Step 1: degree profiles and permutation buckets. -------------------
    view = relations[0].view
    profile_parts: List[Distributed] = []
    for i, rel in enumerate(relations):
        table = degree_table(rel.data, rel.key_fn((centre,)), salt + i)
        profile_parts.append(
            table.map_items(lambda pair, i=i: (pair[0][0], ((i, pair[1]),)))
        )
    profiles = reduce_by_key(
        Distributed.union(view, profile_parts),
        lambda pair: pair[0], lambda pair: pair[1], lambda a, b: a + b, salt + 100,
    )

    def permutation_of(profile: Tuple[Tuple[int, int], ...]) -> Tuple[int, ...]:
        degrees = dict(profile)
        return tuple(sorted(range(n), key=lambda i: (degrees.get(i, 0), i)))

    class_table = profiles.map_items(
        lambda pair: (pair[0], permutation_of(pair[1]))
    )
    observed = distinct_labels(class_table, salt + 101)

    # Label every tuple with its b-bucket once per relation.
    labelled = [label_tuples(rel, class_table, centre) for rel in relations]

    outputs: List[Distributed] = []
    for class_index, perm in enumerate(observed):
        bucket_rels = [
            select_labelled(rel, labels, lambda label: label == perm)
            for rel, labels in zip(relations, labelled)
        ]
        if any(rel.total_size == 0 for rel in bucket_rels):
            continue
        odd_positions = [perm[k] for k in range(0, n, 2)]  # positions 1,3,… (1-based)
        even_positions = [perm[k] for k in range(1, n, 2)]
        odd_rel, odd_attrs = join_group_on_centre(
            [bucket_rels[i] for i in odd_positions],
            [arm_attrs[i] for i in odd_positions],
            centre, semiring, salt + 200 + 10 * class_index,
        )
        even_rel, even_attrs = join_group_on_centre(
            [bucket_rels[i] for i in even_positions],
            [arm_attrs[i] for i in even_positions],
            centre, semiring, salt + 205 + 10 * class_index,
        )
        left = binarize(odd_rel, odd_attrs, "__odd", centre)
        right = binarize(even_rel, even_attrs, "__even", centre)
        product = sparse_matmul(
            left, right, semiring, reduce_dangling=False,
            salt=salt + 300 + 10 * class_index,
        )
        outputs.append(
            unpack_pairs(product, odd_attrs, even_attrs, tuple(arm_attrs))
        )

    result = DistRelation(tuple(arm_attrs), Distributed.union(view, outputs))
    return aggregate_relation(result, tuple(arm_attrs), semiring, salt + 400)


def join_group_on_centre(
    relations: Sequence[DistRelation],
    attrs: Sequence[str],
    centre: str,
    semiring: Semiring,
    salt: int,
) -> Tuple[DistRelation, Tuple[str, ...]]:
    """Full join ``⋈_i R_i(A_i, B)`` on the shared centre.

    Returns the joined relation (schema ``(*attrs, centre)``) and the arm
    attribute order.  Uses the skew-resilient pairwise join.
    """
    accumulated = relations[0]
    acc_attrs: Tuple[str, ...] = (attrs[0],)
    for offset, rel in enumerate(relations[1:]):
        keep = acc_attrs + (attrs[offset + 1], centre)
        accumulated = join_aggregate_pair(
            accumulated, rel, keep, semiring, salt=salt + offset
        )
        acc_attrs = acc_attrs + (attrs[offset + 1],)
    return accumulated, acc_attrs


def binarize(
    relation: DistRelation,
    arm_attrs: Sequence[str],
    combined_name: str,
    centre: str,
) -> DistRelation:
    """Fold the arm columns into one combined column: schema
    ``(combined_name, centre)``; values become tuples (local op)."""
    arm_indices = [relation.attr_index(a) for a in arm_attrs]
    centre_index = relation.attr_index(centre)
    data = relation.data.map_items(
        lambda item: (
            (tuple(item[0][i] for i in arm_indices), item[0][centre_index]),
            item[1],
        )
    )
    return DistRelation((combined_name, centre), data)


def unpack_pairs(
    product: DistRelation,
    left_attrs: Sequence[str],
    right_attrs: Sequence[str],
    out_order: Tuple[str, ...],
) -> Distributed:
    """Expand a (combined-left, combined-right) matmul result into flat keys
    ordered by ``out_order`` (local op)."""
    flat = expand_columns(
        product.data, product.schema,
        dict(zip(product.schema, (tuple(left_attrs), tuple(right_attrs)))), out_order,
    )
    if flat is not None:
        return flat
    positions: Dict[str, Tuple[int, int]] = {}
    for i, attr in enumerate(left_attrs):
        positions[attr] = (0, i)
    for i, attr in enumerate(right_attrs):
        positions[attr] = (1, i)
    plan = [positions[attr] for attr in out_order]
    return product.data.map_items(
        lambda item: (tuple(item[0][side][index] for side, index in plan), item[1])
    )


def expand_columns(
    data: Distributed,
    schema: Sequence[str],
    expansions: Dict[str, Tuple[str, ...]],
    out_order: Sequence[str],
) -> Optional[ColumnarData]:
    """The code columns of ``data`` (over ``schema``) with every combined
    column — one ``expansions`` names, holding tuples of its components'
    values — split into its components' columns, recursively, and ordered
    by ``out_order``; None when ``data`` is not array-native.  Each
    distinct combined value is decoded once
    (:meth:`~repro.backends.columnar.ValueCodec.components`); an attribute
    met twice keeps its last column, as the item reshapes keep its last
    value."""
    if not (isinstance(data, ColumnarData) and data.batch.kind == "items"):
        return None
    columns: Dict[str, Any] = {}
    pending = list(zip(schema, data.batch.columns))
    while pending:  # last first: the first column kept is the last one met
        attr, column = pending.pop()
        if attr in expansions:
            components = expansions[attr]
            pending.extend(zip(components, data.codec.components(column, len(components))))
        else:
            columns.setdefault(attr, column)
    return data.with_columns(columns[attr] for attr in out_order)
