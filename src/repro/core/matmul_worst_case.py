"""Worst-case optimal sparse matrix multiplication (paper §3.1).

Computes ``∑_B R1(A,B) ⋈ R2(B,C)`` with load ``O((N1+N2)/p + √(N1N2/p))``:

* **unbalanced case** ``N1/N2 ∉ [1/p, p]``: sort the larger relation by its
  output attribute (co-locating each output value) and broadcast the
  smaller; everything finishes locally.
* **balanced case**: set ``L = √(N1N2/p)``, call a value *heavy* when its
  degree is ≥ L, and split into four subqueries:

  - *heavy-heavy*: one task per heavy pair ``(a, c)`` with
    ``⌈(d(a)+d(c))/L⌉`` servers; both sides hash by ``B`` inside the range.
  - *heavy-light* / *light-heavy*: one task per heavy value; the light side
    of the other relation is replicated into every task, hashed by ``B``.
  - *light-light*: parallel-packing groups both light sides into degree-≤L
    bundles; servers form a ``k × l`` grid and each cell joins one bundle
    pair locally — the step that gives the algorithm its *locality* (all
    elementary products of a cell aggregate in place and are never shuffled).

The results of the four subqueries are disjoint, so their union needs no
further aggregation.

Simulation note: virtual task ranges wrap onto real servers (see
:class:`~repro.core.allocation.RangeAllocation`), so messages carry their
task id and servers join strictly within a task — this guarantees every
elementary product is computed exactly once even when two tasks share a
real server.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from ..data.relation import DistRelation
from ..mpc.columnar import assemble
from ..mpc.distributed import Distributed
from ..primitives.degrees import attach_by_key, degree_table, lookup_table
from ..primitives.packing import parallel_packing
from ..primitives.sort import distributed_sort
from ..semiring import Semiring
from .allocation import RangeAllocation
from .two_way_join import (
    JoinLayout, join_tasked, local_join_aggregate, local_join_partials,
)

__all__ = ["matmul_worst_case", "matmul_unbalanced", "worst_case_load_target"]


def worst_case_load_target(n1: int, n2: int, p: int) -> int:
    """The paper's L = √(N1·N2/p) (≥ 1)."""
    return max(1, math.ceil(math.sqrt(max(1, n1) * max(1, n2) / p)))


def _matmul_attrs(r1: DistRelation, r2: DistRelation) -> Tuple[str, str, str]:
    """(a_attr, b_attr, c_attr) for a matrix-multiplication pair."""
    shared = set(r1.schema) & set(r2.schema)
    if len(shared) != 1:
        raise ValueError(
            f"matmul needs exactly one shared attribute, got {shared!r}"
        )
    b_attr = next(iter(shared))
    a_attr = next(a for a in r1.schema if a != b_attr)
    c_attr = next(c for c in r2.schema if c != b_attr)
    return a_attr, b_attr, c_attr


def matmul_unbalanced(
    r1: DistRelation, r2: DistRelation, semiring: Semiring
) -> DistRelation:
    """The ``N1/N2 ∉ [1/p, p]`` case: sort-by-output + broadcast (§3).

    Also covers the trivial ``N1 = 1`` / ``N2 = 1`` case.  After the larger
    relation is sorted by its output attribute, every output value lives on
    one server, so local results are final.
    """
    a_attr, b_attr, c_attr = _matmul_attrs(r1, r2)
    small, big = (r1, r2) if r1.total_size <= r2.total_size else (r2, r1)
    big_out = c_attr if big is r2 else a_attr

    # Equal output values must be co-located so local results are final;
    # safe because each output value's degree is ≤ N_small ≤ N_big/p here.
    ordered = distributed_sort(big.data, big.key_fn((big_out,)), split_ties=False)
    small_items = small.data.broadcast()

    tracker = r1.view.tracker
    # The small side probes as the left input; the out-key stays (a, c).
    layout = JoinLayout(r1.view, semiring, small.schema, big.schema, (a_attr, c_attr))

    def compute(part: List[Any]) -> List[Any]:
        partials, products = local_join_aggregate(small_items, part, layout, semiring)
        tracker.record_products(products)
        return list(partials.items())

    return DistRelation((a_attr, c_attr), ordered.map_parts(compute))


def matmul_worst_case(
    r1: DistRelation,
    r2: DistRelation,
    semiring: Semiring,
    salt: int = 0,
    load_factor: float = 1.0,
) -> DistRelation:
    """§3.1: the √(N1N2/p) algorithm (assumes dangling tuples removed).

    ``load_factor`` scales the heavy/light threshold L away from the
    paper's √(N1N2/p) — used only by the threshold-ablation benchmark to
    show the paper's choice balances the four subqueries.
    """
    view = r1.view
    p = view.p
    n1, n2 = r1.total_size, r2.total_size
    a_attr, b_attr, c_attr = _matmul_attrs(r1, r2)
    if n1 == 0 or n2 == 0:
        return DistRelation((a_attr, c_attr), Distributed.empty(view))
    if n1 * p < n2 or n2 * p < n1:
        return matmul_unbalanced(r1, r2, semiring)

    load = max(1, round(worst_case_load_target(n1, n2, p) * load_factor))
    a_key = r1.key_fn((a_attr,))
    c_key = r2.key_fn((c_attr,))
    b1_index = r1.attr_index(b_attr)
    b2_index = r2.attr_index(b_attr)
    a_index = r1.attr_index(a_attr)
    c_index = r2.attr_index(c_attr)
    tracker = view.tracker
    layout = JoinLayout(view, semiring, r1.schema, r2.schema, (a_attr, c_attr))

    # Step 1: degrees and the heavy/light split.  Heavy lists have size
    # ≤ N/L ≤ p and live at the coordinator (control channel).
    tracker.push_phase("matmul-wc/statistics")
    a_degrees = degree_table(r1.data, a_key, salt)
    c_degrees = degree_table(r2.data, c_key, salt + 1)
    heavy_a = {
        key[0]: deg
        for key, deg in lookup_table(
            a_degrees.filter_items(lambda pair: pair[1] >= load)
        ).items()
    }
    heavy_c = {
        key[0]: deg
        for key, deg in lookup_table(
            c_degrees.filter_items(lambda pair: pair[1] >= load)
        ).items()
    }

    r1_heavy = r1.data.filter_items(lambda item: item[0][a_index] in heavy_a)
    r1_light = r1.data.filter_items(lambda item: item[0][a_index] not in heavy_a)
    r2_heavy = r2.data.filter_items(lambda item: item[0][c_index] in heavy_c)
    r2_light = r2.data.filter_items(lambda item: item[0][c_index] not in heavy_c)
    n2_light = r2_light.total_size
    n1_light = r1_light.total_size
    tracker.pop_phase()

    outputs: List[Distributed] = []

    def tasked(
        phase: str,
        sizes: Dict[Any, int],
        left_msgs: Distributed,
        right_msgs: Distributed,
        route_salt: int,
    ) -> None:
        """One tagged subquery: ``⌈size/L⌉`` servers per task, both sides'
        ("L"/"R", task, item) messages hashed by B inside their task's
        range in one exchange, joined within tasks."""
        tracker.push_phase(phase)
        alloc = RangeAllocation(view, sizes, load)
        routed = left_msgs.concat(right_msgs).repartition(
            lambda msg: alloc.dest(
                msg[1], msg[2][0][b1_index if msg[0] == "L" else b2_index], route_salt
            )
        )
        outputs.append(join_tasked(routed, layout, semiring))
        tracker.pop_phase()

    # Step 2: heavy-heavy — one task per heavy (a, c) pair.
    if heavy_a and heavy_c:
        tasked(
            "matmul-wc/heavy-heavy",
            {(a, c): heavy_a[a] + heavy_c[c] for a in heavy_a for c in heavy_c},
            r1_heavy.map_parts(lambda part: [
                ("L", (item[0][a_index], c), item) for item in part for c in heavy_c
            ]),
            r2_heavy.map_parts(lambda part: [
                ("R", (a, item[0][c_index]), item) for item in part for a in heavy_a
            ]),
            salt + 2,
        )

    # Step 3: heavy-light — one task per heavy a; light R2 replicated to all.
    if heavy_a and n2_light:
        tasked(
            "matmul-wc/heavy-light",
            {a: heavy_a[a] + n2_light for a in heavy_a},
            r1_heavy.map_items(lambda item: ("L", item[0][a_index], item)),
            r2_light.map_parts(
                lambda part: [("R", a, item) for item in part for a in heavy_a]
            ),
            salt + 3,
        )

    # Light-heavy (symmetric).
    if heavy_c and n1_light:
        tasked(
            "matmul-wc/light-heavy",
            {c: heavy_c[c] + n1_light for c in heavy_c},
            r1_light.map_parts(
                lambda part: [("L", c, item) for item in part for c in heavy_c]
            ),
            r2_heavy.map_items(lambda item: ("R", item[0][c_index], item)),
            salt + 4,
        )

    # Step 4: light-light — degree-packed groups on a k × l grid.
    if n1_light and n2_light:
        tracker.push_phase("matmul-wc/light-light")
        a_light_degrees = a_degrees.filter_items(lambda pair: pair[1] < load)
        c_light_degrees = c_degrees.filter_items(lambda pair: pair[1] < load)
        a_packed, k_groups = parallel_packing(
            a_light_degrees, lambda pair: pair[1] / load
        )
        c_packed, l_groups = parallel_packing(
            c_light_degrees, lambda pair: pair[1] / load
        )
        a_group_table = a_packed.map_items(lambda entry: (entry[0][0], entry[1]))
        c_group_table = c_packed.map_items(lambda entry: (entry[0][0], entry[1]))

        r1_grouped = attach_by_key(r1_light, a_group_table, a_key, default=None)
        r2_grouped = attach_by_key(r2_light, c_group_table, c_key, default=None)

        def cell_server(i: int, j: int) -> int:
            return (i * l_groups + j) % p

        routed = (
            r1_grouped.map_items(lambda entry: ("L", entry[1], entry[0]))
            .repartition_multi(
                lambda msg: sorted({cell_server(msg[1], j) for j in range(l_groups)})
            )
            .concat(
                r2_grouped.map_items(lambda entry: ("R", entry[1], entry[0]))
                .repartition_multi(
                    lambda msg: sorted({cell_server(i, msg[1]) for i in range(k_groups)})
                )
            )
        )

        def compute_cells(part: List[Any], server_index: int) -> List[Any]:
            by_group_left: Dict[int, List[Any]] = {}
            by_group_right: Dict[int, List[Any]] = {}
            for tag, group, item in part:
                target = by_group_left if tag == "L" else by_group_right
                target.setdefault(group, []).append(item)
            pieces: List[Any] = []
            # A product of cell (i, j) is computed only on cell_server(i, j),
            # so every product is computed exactly once cluster-wide.
            for i, left_items in by_group_left.items():
                for j, right_items in by_group_right.items():
                    if cell_server(i, j) != server_index:
                        continue
                    partials, products = local_join_partials(
                        left_items, right_items, layout, semiring
                    )
                    tracker.record_products(products)
                    pieces.append(partials)
            return pieces

        outputs.append(assemble(view, [
            compute_cells(part, server_index)
            for server_index, part in enumerate(routed.parts)
        ]))
        tracker.pop_phase()

    return DistRelation((a_attr, c_attr), Distributed.union(view, outputs))
