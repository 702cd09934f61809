"""Line queries — chain matrix multiplication (paper §4).

``∑_{A2..An} R1(A1,A2) ⋈ … ⋈ Rn(An,An+1)`` with load
``O( N·OUT^{1/2}/p + (N·OUT/p)^{2/3} + (N+OUT)/p )`` (Theorem 4):

1. estimate OUT (§2.2) and split ``dom(A2)`` by degree in R1 at √OUT;
2. **heavy side**: every heavy ``A2`` value joins ≥ √OUT distinct ``A1``
   values (Lemma 4), so every right-to-left Yannakakis intermediate
   ``R(A_i, A_{n+1})`` has size ≤ N·√OUT; shrink the tail to
   ``R(A2, A_{n+1})`` and finish with one output-sensitive matrix
   multiplication;
3. **light side**: ``R1 ⋈ R2`` has size ≤ N·√OUT by the degree bound;
   aggregate out ``A2`` and recurse on the shorter line query;
4. ⊕-combine the two result sets by ``(A1, A_{n+1})``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..data.query import TreeQuery
from ..data.relation import DistRelation
from ..mpc.distributed import Distributed
from ..primitives.dangling import remove_dangling
from ..primitives.degrees import degree_table, label_tuples, select_labelled
from ..primitives.estimate_out import estimate_path_out
from ..semiring import Semiring
from .matmul import sparse_matmul
from .two_way_join import aggregate_relation, join_aggregate_pair

__all__ = ["line_query"]


def line_query(
    relations: Sequence[DistRelation],
    attrs: Sequence[str],
    semiring: Semiring,
    salt: int = 0,
    matmul_strategy: str = "auto",
) -> DistRelation:
    """Evaluate the line query; result over ``(attrs[0], attrs[-1])``.

    ``relations[i]`` must contain attributes ``(attrs[i], attrs[i+1])``.
    ``matmul_strategy`` forces the :func:`~repro.core.matmul.sparse_matmul`
    strategy of the two-relation case (the executor's
    ``matmul-worst-case``/``matmul-output-sensitive`` entries); longer
    lines ignore it — their internal matmul steps are part of the §4
    algorithm, not a dispatch choice.
    """
    if len(relations) != len(attrs) - 1 or len(relations) < 1:
        raise ValueError("need m relations for m+1 line attributes")
    relations = [
        rel.reordered((attrs[i], attrs[i + 1])) for i, rel in enumerate(relations)
    ]

    if len(relations) == 1:
        # Degenerate: a single binary relation, both attributes output.
        return aggregate_relation(relations[0], (attrs[0], attrs[1]), semiring, salt)

    relations = _reduce_line(relations, attrs)
    if len(relations) == 2:
        return sparse_matmul(
            relations[0], relations[1], semiring, strategy=matmul_strategy,
            reduce_dangling=False, salt=salt,
        )

    tracker = relations[0].view.tracker
    with tracker.phase("line/estimate-out"):
        out_estimate, _per_a = estimate_path_out(
            list(relations), list(attrs), base_salt=salt + 500
        )
    threshold = max(1.0, math.sqrt(max(1.0, out_estimate)))

    first, second = relations[0], relations[1]
    a2 = attrs[1]
    degrees = degree_table(first.data, first.key_fn((a2,)), salt + 1)
    degree_pairs = degrees.map_items(lambda pair: (pair[0][0], pair[1]))

    def split(rel: DistRelation, heavy: bool) -> DistRelation:
        labelled = label_tuples(rel, degree_pairs, a2, default=0)
        return select_labelled(
            rel, labelled, lambda degree: (degree >= threshold) == heavy
        )

    outputs: List[Distributed] = []
    out_schema = (attrs[0], attrs[-1])

    # ---- Step 2: heavy side. -----------------------------------------------
    with tracker.phase("line/heavy-side"):
        heavy_rels = [split(first, True), split(second, True)] + list(relations[2:])
        heavy_rels = _reduce_line(heavy_rels, attrs)
        if all(rel.total_size for rel in heavy_rels):
            tail = heavy_rels[-1]
            for i in range(len(heavy_rels) - 2, 0, -1):
                tail = join_aggregate_pair(
                    heavy_rels[i], tail, (attrs[i], attrs[-1]), semiring,
                    salt=salt + 3 + i,
                )
            heavy_result = sparse_matmul(
                heavy_rels[0], tail, semiring, strategy="output-sensitive",
                reduce_dangling=False, salt=salt + 20,
            )
            outputs.append(heavy_result.data)

    # ---- Step 3: light side (recurse on a shorter line). --------------------
    with tracker.phase("line/light-side"):
        light_first, light_second = split(first, False), split(second, False)
        if light_first.total_size and light_second.total_size:
            merged = join_aggregate_pair(
                light_first, light_second, (attrs[0], attrs[2]), semiring,
                salt=salt + 40,
            )
            shorter = [merged] + list(relations[2:])
            shorter_attrs = [attrs[0]] + list(attrs[2:])
            light_result = line_query(shorter, shorter_attrs, semiring, salt + 50)
            outputs.append(light_result.data)

    # ---- Step 4: ⊕-combine by (A1, A_{n+1}). --------------------------------
    combined = DistRelation(out_schema, Distributed.union(relations[0].view, outputs))
    return aggregate_relation(combined, out_schema, semiring, salt + 60)


def _reduce_line(
    relations: Sequence[DistRelation], attrs: Sequence[str]
) -> List[DistRelation]:
    """Remove dangling tuples along the line (semijoin passes)."""
    names = [f"__L{i}" for i in range(len(relations))]
    query = TreeQuery(
        tuple((names[i], (attrs[i], attrs[i + 1])) for i in range(len(relations))),
        frozenset({attrs[0], attrs[-1]}),
    )
    reduced = remove_dangling(
        query, {names[i]: relations[i] for i in range(len(relations))}
    )
    return [reduced[name] for name in names]
