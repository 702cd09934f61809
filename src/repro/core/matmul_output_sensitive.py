"""Output-sensitive sparse matrix multiplication (paper §3.2).

Computes ``∑_B R1(A,B) ⋈ R2(B,C)`` with load
``O((N1+N2)/p + (N1·N2·OUT)^{1/3}/p^{2/3})`` w.h.p., given (an estimate of)
the output size OUT and per-row output counts ``OUT_a`` (§2.2):

* ``OUT ≤ N/p`` — :func:`linear_sparse_mm`: co-locate by ``B``, aggregate
  locally, finish with one reduce-by-key.  Load O(N/p).
* otherwise, with ``L = (N1N2·OUT/p²)^{1/3} + (N1+N2)/p``:

  1. rows with ``OUT_a ≥ √(N2·OUT·L/N1)`` are *heavy*: their subquery is
     solved by the baseline join-then-aggregate (its intermediate size is
     bounded by ``√(N1N2·OUT/L)``, giving load O(L));
  2. light rows are parallel-packed into row-groups ``A_i`` of
     ``Σ OUT_a = O(√(N2·OUT·L/N1))`` each;
  3. for every row-group, the per-column result counts
     ``r_i(c) = |π_A σ_{A∈A_i}R1 ⋈ R2(B,c)|`` are estimated with KMV
     sketches on ``⌈(|σ_{A_i}R1| + N2)/L⌉`` servers per group (total O(p));
     *group-heavy* columns (``r_i(c) ≥ L``) each get a dedicated task;
  4. the remaining light columns are packed per group into bundles of
     ``Σ r_i(c) = O(L)`` results; every ``(A_i, C_{ij})`` bundle pair is a
     little matrix multiplication with input O(L) and output O(L), solved by
     :func:`linear_sparse_mm` on its own server range.

All four parts produce disjoint ``(a, c)`` keys, so the union of their
(fully aggregated) outputs is the answer.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..data.relation import DistRelation
from ..mpc.distributed import Distributed
from ..mpc.hashing import hash_to_bucket
from ..primitives.degrees import (
    attach_by_key,
    degree_table,
    label_tuples,
    lookup_table,
    select_labelled,
)
from ..primitives.estimate_out import estimate_path_out
from ..primitives.kmv import MultiKMV
from ..primitives.packing import parallel_packing, scoped_parallel_packing
from ..primitives.reduce_by_key import reduce_by_key
from ..semiring import Semiring
from .allocation import RangeAllocation
from .matmul_worst_case import _matmul_attrs
from .two_way_join import JoinLayout, join_aggregate_pair, join_tasked

__all__ = ["linear_sparse_mm", "matmul_output_sensitive", "output_sensitive_load_target"]


def output_sensitive_load_target(n1: int, n2: int, out: float, p: int) -> int:
    """The paper's L = (N1·N2·OUT/p²)^{1/3} + (N1+N2)/p (≥ 1)."""
    cube = (max(1, n1) * max(1, n2) * max(1.0, out)) / (p * p)
    return max(1, math.ceil(cube ** (1.0 / 3.0)) + math.ceil((n1 + n2) / p))


def linear_sparse_mm(
    r1: DistRelation, r2: DistRelation, semiring: Semiring, salt: int = 0
) -> DistRelation:
    """LinearSparseMM (§3.2): O(N/p) load when OUT ≤ N/p.

    Both relations are co-partitioned on ``B`` (the paper sorts; we hash,
    which meets the same load bound w.h.p. because after dangling removal
    every ``B``-degree is ≤ OUT ≤ N/p), local results are pre-aggregated,
    and one reduce-by-key combines them.
    """
    view = r1.view
    p = view.p
    a_attr, b_attr, c_attr = _matmul_attrs(r1, r2)
    b1_index = r1.attr_index(b_attr)
    b2_index = r2.attr_index(b_attr)

    # One task spanning the view; each side is routed in its own exchange.
    left = r1.data.map_items(lambda item: ("L", None, item)).repartition(
        lambda msg: hash_to_bucket(msg[2][0][b1_index], p, salt)
    )
    right = r2.data.map_items(lambda item: ("R", None, item)).repartition(
        lambda msg: hash_to_bucket(msg[2][0][b2_index], p, salt)
    )
    layout = JoinLayout(view, semiring, r1.schema, r2.schema, (a_attr, c_attr))
    reduced = join_tasked(left.concat(right), layout, semiring, salt + 1)
    return DistRelation((a_attr, c_attr), reduced)


def matmul_output_sensitive(
    r1: DistRelation,
    r2: DistRelation,
    semiring: Semiring,
    out_estimate: Optional[float] = None,
    out_a_table: Optional[Distributed] = None,
    salt: int = 0,
) -> DistRelation:
    """§3.2: the (N1N2·OUT)^{1/3}/p^{2/3} algorithm (dangling tuples removed).

    ``out_estimate``/``out_a_table`` are the §2.2 statistics as
    :func:`~repro.primitives.estimate_out.estimate_path_out` returns them
    (``(a, OUT_a)`` pairs keyed by the bare ``A`` value); when omitted they
    are computed here (one KMV pass, linear load).
    """
    view = r1.view
    p = view.p
    n1, n2 = r1.total_size, r2.total_size
    a_attr, b_attr, c_attr = _matmul_attrs(r1, r2)
    if n1 == 0 or n2 == 0:
        return DistRelation((a_attr, c_attr), Distributed.empty(view))

    if out_estimate is None or out_a_table is None:
        out_estimate, out_a_table = estimate_path_out(
            [r1, r2], [a_attr, b_attr, c_attr], base_salt=salt + 900
        )

    total = n1 + n2
    if out_estimate <= total / p:
        return linear_sparse_mm(r1, r2, semiring, salt)

    load = output_sensitive_load_target(n1, n2, out_estimate, p)
    heavy_row_threshold = math.sqrt(n2 * out_estimate * load / n1)

    a_index = r1.attr_index(a_attr)
    b1_index = r1.attr_index(b_attr)
    b2_index = r2.attr_index(b_attr)
    c_index = r2.attr_index(c_attr)
    c_key = r2.key_fn((c_attr,))
    layout = JoinLayout(view, semiring, r1.schema, r2.schema, (a_attr, c_attr))

    outputs: List[Distributed] = []

    def answer() -> DistRelation:
        """The disjoint parts' union."""
        return DistRelation((a_attr, c_attr), Distributed.union(view, outputs))

    def tasked(
        alloc: RangeAllocation, left_msgs: Distributed, right_msgs: Distributed,
        route_salt: int,
    ) -> None:
        """One family of tagged subqueries: each side's ("L"/"R", task, item)
        messages hashed by B inside their task's range (one exchange a
        side), joined within tasks."""
        routed = left_msgs.repartition(
            lambda msg: alloc.dest(msg[1], msg[2][0][b1_index], route_salt)
        ).concat(
            right_msgs.repartition(
                lambda msg: alloc.dest(msg[1], msg[2][0][b2_index], route_salt)
            )
        )
        outputs.append(join_tasked(routed, layout, semiring, route_salt + 1))

    # ---- Step 1: split rows by OUT_a. -------------------------------------
    r1_labelled = label_tuples(r1, out_a_table, a_attr, default=1.0)
    r1_heavy = select_labelled(r1, r1_labelled, lambda est: est >= heavy_row_threshold)
    r1_light = select_labelled(r1, r1_labelled, lambda est: est < heavy_row_threshold)

    # ---- Step 2: heavy rows via the baseline join-then-aggregate. ----------
    if r1_heavy.total_size:
        outputs.append(
            join_aggregate_pair(
                r1_heavy, r2, (a_attr, c_attr), semiring, salt=salt + 1
            ).data
        )

    if r1_light.total_size == 0:
        return answer()

    # ---- Step 3a: pack light rows into groups A_i by OUT_a. ----------------
    light_rows = out_a_table.filter_items(  # (a, est) of the light values
        lambda pair: pair[1] < heavy_row_threshold
    )
    packed, _k1 = parallel_packing(
        light_rows,
        lambda pair: min(1.0, max(pair[1], 1.0) / heavy_row_threshold),
    )
    group_table = packed.map_items(lambda entry: (entry[0][0], entry[1]))
    r1_grouped = label_tuples(r1_light, group_table, a_attr).filter_items(
        lambda entry: entry[1] is not None
    )

    # Group input sizes s_i = |σ_{A∈A_i} R1| (coordinator table, O(#groups)).
    group_sizes = {
        key: size
        for key, size in lookup_table(
            reduce_by_key(
                r1_grouped,
                lambda entry: entry[1],
                lambda _entry: 1,
                lambda x, y: x + y,
                salt=salt + 3,
            )
        ).items()
    }

    # ---- Step 3b: estimate r_i(c) per (group, column) with KMV sketches. ---
    est_alloc = RangeAllocation(
        view, {i: group_sizes[i] + n2 for i in sorted(group_sizes)}, load
    )
    est_routed = (
        r1_grouped.map_items(lambda entry: ("S", entry[1], entry[0]))
        .repartition(
            lambda msg: est_alloc.dest(msg[1], msg[2][0][b1_index], salt + 4)
        )
        .concat(
            r2.data.map_items(lambda item: ("R", item)).repartition_multi(
                lambda msg: sorted(
                    {
                        est_alloc.dest(i, msg[1][0][b2_index], salt + 4)
                        for i in group_sizes
                    }
                )
            )
        )
    )

    def sketch_part(part: List[Any]) -> List[Any]:
        # (i, b) → bundle of a's; then join with local R2 tuples on b.
        bundles: Dict[Tuple[Any, Any], MultiKMV] = {}
        r2_local: List[Any] = []
        for msg in part:
            if msg[0] == "S":
                _tag, i, item = msg
                key = (i, item[0][b1_index])
                bundle = MultiKMV.of([item[0][a_index]], 16, 5, salt + 800)
                if key in bundles:
                    bundles[key] = bundles[key].merge(bundle)
                else:
                    bundles[key] = bundle
            else:
                r2_local.append(msg[1])
        partials: Dict[Tuple[Any, Any], MultiKMV] = {}
        for item in r2_local:
            b = item[0][b2_index]
            c = item[0][c_index]
            for i in group_sizes:
                bundle = bundles.get((i, b))
                if bundle is None:
                    continue
                key = (i, c)
                if key in partials:
                    partials[key] = partials[key].merge(bundle)
                else:
                    partials[key] = bundle
        return list(partials.items())

    sketch_partials = est_routed.map_parts(sketch_part)
    column_counts = reduce_by_key(
        sketch_partials,
        lambda pair: pair[0],
        lambda pair: pair[1],
        lambda x, y: x.merge(y),
        salt=salt + 5,
    ).map_items(lambda pair: (pair[0], pair[1].estimate()))

    # ---- Step 3c: group-heavy columns get dedicated tasks. -----------------
    heavy_cols = lookup_table(
        column_counts.filter_items(lambda pair: pair[1] >= load)
    )  # {(i, c): estimate}; O(p) entries by the Σp_ic = O(p) argument.
    if heavy_cols:
        c_degrees = degree_table(r2.data, c_key, salt + 6)
        heavy_col_values = {c for (_i, c) in heavy_cols}
        c_degree_map = {
            key[0]: deg
            for key, deg in lookup_table(
                c_degrees.filter_items(lambda pair: pair[0][0] in heavy_col_values)
            ).items()
        }
        hc_alloc = RangeAllocation(
            view,
            {
                (i, c): group_sizes[i] + c_degree_map.get(c, 0)
                for (i, c) in sorted(heavy_cols, key=repr)
            },
            load,
        )
        heavy_by_group: Dict[Any, List[Any]] = {}
        for i, c in heavy_cols:
            heavy_by_group.setdefault(i, []).append(c)

        tasked(
            hc_alloc,
            r1_grouped.map_parts(
                lambda part: [
                    ("L", (entry[1], c), entry[0])
                    for entry in part
                    for c in heavy_by_group.get(entry[1], ())
                ]
            ),
            r2.data.map_parts(
                lambda part: [
                    ("R", (i, item[0][c_index]), item)
                    for item in part
                    for i in group_sizes
                    if (i, item[0][c_index]) in heavy_cols
                ]
            ),
            salt + 7,
        )

    # ---- Step 4: light columns, packed per group, via LinearSparseMM. ------
    light_cols = column_counts.filter_items(
        lambda pair: pair[1] < load and pair[0] not in heavy_cols
    )
    if light_cols.total_size:
        col_packed, _groups_per_scope = scoped_parallel_packing(
            light_cols,
            lambda pair: pair[0][0],  # scope = row-group i
            lambda pair: min(1.0, max(pair[1], 1.0) / load),
        )
        # (i, c) → bundle id j; bundle key = (i, j).
        bundle_table = col_packed.map_items(
            lambda entry: (entry[0][0], entry[1][1])
        )  # ((i, c), j)
        # Bundle input sizes: the R2 share; the R1 share is s_i per bundle.
        r2_bundled = attach_by_key(
            r2.data.map_parts(
                lambda part: [
                    ((i, item[0][c_index]), item)
                    for item in part
                    for i in group_sizes
                ]
            ),
            bundle_table,
            lambda pair: pair[0],
            default=None,
        ).filter_items(lambda entry: entry[1] is not None)
        # entries: (((i, c), item), j)
        bundle_sizes = {
            key: size
            for key, size in lookup_table(
                reduce_by_key(
                    r2_bundled,
                    lambda entry: (entry[0][0][0], entry[1]),
                    lambda _entry: 1,
                    lambda x, y: x + y,
                    salt=salt + 10,
                )
            ).items()
        }
        task_sizes = {
            (i, j): group_sizes[i] + size
            for (i, j), size in sorted(bundle_sizes.items(), key=repr)
        }
        ll_alloc = RangeAllocation(view, task_sizes, load)

        bundles_by_group: Dict[Any, List[int]] = {}
        for i, j in task_sizes:
            bundles_by_group.setdefault(i, []).append(j)

        tasked(
            ll_alloc,
            r1_grouped.map_parts(
                lambda part: [
                    ("L", (entry[1], j), entry[0])
                    for entry in part
                    for j in bundles_by_group.get(entry[1], ())
                ]
            ),
            r2_bundled.map_items(
                lambda entry: ("R", (entry[0][0][0], entry[1]), entry[0][1])
            ),
            salt + 11,
        )

    return answer()
