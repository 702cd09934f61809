"""Skew-resilient two-way join + aggregation (paper §1.4, [5, 13]).

``join_aggregate_pair`` computes ``Σ_{−keep} (R ⋈ S)`` on shared attributes
with the optimal-style load ``O((N1+N2)/p + J/p)`` where ``J = |R ⋈ S|``:

1. per-join-key degrees on both sides (reduce-by-key);
2. every key ``b`` gets an ``r_b × c_b`` grid of virtual cells with
   ``r_b = ⌈d_R(b)/λ⌉`` and ``c_b = ⌈d_S(b)/λ⌉`` for a chunk size ``λ``
   balancing replication against per-cell size; R-tuples pick a random row
   and replicate across the row's cells, S-tuples a random column — the
   classic fragment-replicate scheme that neutralizes skew;
3. cells hash onto servers; each server joins its cells locally and
   pre-aggregates by the ``keep`` attributes;
4. a final reduce-by-key ⊕-combines partials (this is the step that costs
   ``J/p`` when the aggregate keys do not collapse locally — exactly the
   baseline bottleneck the paper's algorithms avoid through locality).

The same routine with ``keep = all attributes`` is a plain full join.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..backends.dispatch import columnar_enabled, np
from ..data.relation import ColumnKey, DistRelation, annotation_of
from ..mpc.columnar import assemble
from ..mpc.distributed import Distributed
from ..mpc.hashing import hash_to_bucket, stable_hash
from ..primitives.degrees import attach_by_key, degree_table
from ..primitives.reduce_by_key import reduce_by_key
from ..semiring import Semiring

__all__ = [
    "join_aggregate_pair",
    "join_aggregate_naive",
    "aggregate_relation",
    "JoinLayout",
    "local_join_aggregate",
    "local_join_partials",
    "join_tasked",
    "vector_profile",
]


def join_aggregate_pair(
    left: DistRelation,
    right: DistRelation,
    keep: Sequence[str],
    semiring: Semiring,
    salt: int = 0,
) -> DistRelation:
    """``Σ_{−keep} (left ⋈ right)`` as a new :class:`DistRelation` on the
    same view, hash-partitioned by the keep-key."""
    view = left.view
    p = view.p
    keep = tuple(keep)
    layout = JoinLayout(view, semiring, left.schema, right.schema, keep)
    left_key = left.key_fn(layout.shared)
    right_key = right.key_fn(layout.shared)

    left_degrees = degree_table(left.data, left_key, salt)
    right_degrees = degree_table(right.data, right_key, salt)
    left_tagged = attach_by_key(left.data, left_degrees, left_key, default=0)
    right_tagged = attach_by_key(right.data, right_degrees, right_key, default=0)

    # Grid dimensions of a key's cell grid depend on *both* sides' degrees;
    # attach the partner side's degree as well.
    left_full = attach_by_key(
        left_tagged, right_degrees, lambda pair: left_key(pair[0]), default=0
    )
    right_full = attach_by_key(
        right_tagged, left_degrees, lambda pair: right_key(pair[0]), default=0
    )

    # Each key gets cells in proportion to its share of the join size
    # J = Σ_b d_L(b)·d_R(b) (gathered as one scalar on the control channel),
    # the allocation that yields the optimal O(N/p + √(J/p)) join-phase load.
    join_size = _estimate_join_size(view, left_full, right_full)

    def grid_of(left_degree: int, right_degree: int) -> Tuple[int, int]:
        if left_degree == 0 or right_degree == 0:
            return 1, 1
        cells = min(
            p, max(1, math.ceil(left_degree * right_degree * p / max(1, join_size)))
        )
        rows = min(
            cells,
            max(1, round(math.sqrt(cells * left_degree / max(1, right_degree)))),
        )
        cols = math.ceil(cells / rows)
        return rows, cols

    # Every (left-copy, right-copy) pair meets in exactly one cell
    # (row(left), col(right)); copies are tagged with their cell id and the
    # local join is restricted to same-cell pairs, so each elementary product
    # is computed exactly once even when two cells hash to one server.
    def left_cells_of(entry: Tuple[Tuple[Any, int], int]) -> List[Tuple]:
        (item, own_degree), partner_degree = entry
        key = left_key(item)
        rows, cols = grid_of(own_degree, partner_degree)
        row = stable_hash(("row", key, item[0]), salt) % rows
        return [("L", (key, row, col, cols), item) for col in range(cols)]

    def right_cells_of(entry: Tuple[Tuple[Any, int], int]) -> List[Tuple]:
        (item, own_degree), partner_degree = entry
        key = right_key(item)
        rows, cols = grid_of(partner_degree, own_degree)
        col = stable_hash(("col", key, item[0]), salt) % cols
        return [("R", (key, row, col, cols), item) for row in range(rows)]

    left_msgs = left_full.map_parts(
        lambda part: [msg for entry in part for msg in left_cells_of(entry)]
    )
    right_msgs = right_full.map_parts(
        lambda part: [msg for entry in part for msg in right_cells_of(entry)]
    )

    def cell_server(msg: Tuple) -> int:
        # A key's cells occupy *consecutive* servers (row-major) from a
        # hashed offset, so one heavy key's ≤ p cells never collide with
        # each other (birthday-free, unlike independent hashing).
        key, row, col, cols = msg[1]
        offset = hash_to_bucket(key, p, salt + 7)
        return (offset + row * cols + col) % p

    routed = left_msgs.concat(right_msgs).repartition(cell_server)

    tracker = view.tracker
    local_join = _local_join_cells_vec if layout.profile else _local_join_cells_dict

    def join_cells(part: List[Any]) -> Any:
        partials, products = local_join(part, layout)
        tracker.record_products(products)
        return partials

    partials = assemble(view, [[join_cells(part)] for part in routed.parts])
    return DistRelation(keep, _reduce_partials(partials, len(keep), semiring, salt + 13))


def _local_join_cells_dict(
    part: Sequence[Tuple[str, Tuple, Tuple]], layout: "JoinLayout"
) -> Tuple[List[Any], int]:
    """The cell-grouped local join of :func:`join_aggregate_pair` (tuple
    backend): ``(partials, products)``, every cell's products streamed in
    left-first-occurrence cell order and ⊕-aggregated by out-key."""
    semiring, out_key = layout.semiring, layout.out_key
    lefts: Dict[Tuple, List[Tuple]] = {}
    rights: Dict[Tuple, List[Tuple]] = {}
    for tag, cell, item in part:
        (lefts if tag == "L" else rights).setdefault(cell, []).append(item)
    partials: Dict[Tuple, Any] = {}
    products = 0
    for cell, left_rows in lefts.items():
        right_rows = rights.get(cell)
        if not right_rows:
            continue
        for l_values, l_weight in left_rows:
            for r_values, r_weight in right_rows:
                products += 1
                key = out_key(l_values, r_values)
                weight = semiring.mul(l_weight, r_weight)
                if key in partials:
                    partials[key] = semiring.add(partials[key], weight)
                else:
                    partials[key] = weight
    return list(partials.items()), products


def _estimate_join_size(view, left_full: Distributed, right_full: Distributed) -> int:
    """J = Σ over tuples of the *partner* degree ≡ Σ_b d_L(b)·d_R(b).

    Computed locally from the degree-tagged tuples (each left tuple of key b
    contributes d_R(b)), summed over the control channel.
    """
    local = [
        sum(entry[1] for entry in part) for part in left_full.parts
    ]
    view.control_gather(local)
    return max(1, sum(local))


class JoinLayout:
    """The one description of a local join of ``(values, annotation)`` items.

    ``left_key``/``right_key`` are the columns of the shared attributes (in
    sorted attribute order) on each side, ``out_sources`` says where every
    ``keep`` attribute is read from (``("L"/"R", column)``, the left side
    winning a tie), ``codec``/``profile`` are what the view's cluster
    lets the array kernels use (``profile`` None: the tuple backend), and
    ``semiring`` supplies the scalar ⊕/⊗ of object columns.  The tuple
    kernels' readers
    are derived here, once per layout rather than once per item:
    ``left_key_of``/``right_key_of`` map a values tuple to its join key (the
    bare value for a one-column key) and ``out_key(l_values, r_values)``
    builds the output key of one elementary product.
    """

    def __init__(
        self,
        view: Any,
        semiring: Semiring,
        left_schema: Sequence[str],
        right_schema: Sequence[str],
        keep: Sequence[str],
    ) -> None:
        self.shared = tuple(sorted(set(left_schema) & set(right_schema)))
        if not self.shared:
            raise ValueError(
                f"schemas {tuple(left_schema)!r} and {tuple(right_schema)!r} "
                "share no attribute to join on"
            )
        self.left_key = tuple(left_schema.index(a) for a in self.shared)
        self.right_key = tuple(right_schema.index(a) for a in self.shared)
        sources: List[Tuple[str, int]] = []
        for attribute in keep:
            if attribute in left_schema:
                sources.append(("L", left_schema.index(attribute)))
            elif attribute in right_schema:
                sources.append(("R", right_schema.index(attribute)))
            else:
                raise ValueError(f"keep attribute {attribute!r} in neither schema")
        self.out_sources = tuple(sources)
        self.semiring = semiring
        self.profile = vector_profile(view, semiring)
        self.codec = view.cluster.codec if self.profile is not None else None
        self.left_key_of = itemgetter(*self.left_key)
        self.right_key_of = itemgetter(*self.right_key)
        self.out_key = _out_key_reader(self.out_sources)


@lru_cache(maxsize=256)
def _out_key_reader(sources: Tuple[Tuple[str, int], ...]) -> Any:
    """``(l_values, r_values) → out-key`` as one compiled expression, e.g.
    ``(l[0], r[1], )``: a per-product generator over ``sources`` costs
    several times the product itself, and compiling costs more than the rest
    of a layout, so readers are shared by shape.  The text holds only
    "l"/"r" and column numbers."""
    reads = "".join(f"{side.lower()}[{column}], " for side, column in sources)
    return eval(f"lambda l, r: ({reads})")  # noqa: S307


# -- vectorized local-join kernels (columnar backend) -------------------------
#
# These replay the dict kernels' elementary-product stream with array ops
# (see repro.backends.kernels): same products, same partials order, so the
# pre-aggregated partials a server emits — and therefore every meter — are
# identical.  Annotations the profile cannot type exactly are object
# columns, multiplied and folded by the semiring's own ⊗/⊕.

#: Integer product streams cap their length so segment sums stay exact
#: (< 2^22 products, each < 2^40, sums < 2^62).
_PRODUCT_SUM_GUARD = 1 << 22
#: int64 ⊗-products must stay well inside int64.
_PRODUCT_MUL_LIMIT = 1 << 62


def vector_profile(view: Any, semiring: Semiring) -> Optional[Any]:
    """The column profile of ``semiring`` on this view's cluster, or None
    on the tuple backend."""
    if not columnar_enabled(view):
        return None
    from ..backends.columnar import profile_of

    return profile_of(semiring)


def _products(
    layout: JoinLayout, left_ann: Any, right_ann: Any, l_pos: Any, r_pos: Any
) -> Any:
    """The ⊗ of every elementary product at ``(l_pos, r_pos)``: the
    profile's ufunc when both columns share one typed dtype in which every
    product and its ⊕-fold stay exact, else the semiring's ⊗ over objects.
    Python's float ops warn about nothing, so neither do these."""
    profile, dtype = layout.profile, left_ann.dtype
    if dtype != right_ann.dtype or dtype == object:
        exact = False
    elif profile.kind == "int":
        exact = l_pos.shape[0] < _PRODUCT_SUM_GUARD
    elif profile.mul_name == "mul" and dtype == np.int64:
        bound = int(np.abs(left_ann).max()) * int(np.abs(right_ann).max())
        exact = bound < _PRODUCT_MUL_LIMIT
    else:
        exact = True
    with np.errstate(all="ignore"):
        if exact:
            weights = profile.mul(left_ann[l_pos], right_ann[r_pos])
            # inf + -inf is NaN, which makes a min/max fold order-sensitive.
            if dtype.kind != "f" or not np.isnan(weights).any():
                return weights
        mul = np.frompyfunc(layout.semiring.mul, 2, 1)
        return mul(
            left_ann.astype(object, copy=False)[l_pos],
            right_ann.astype(object, copy=False)[r_pos],
        )


def _partials_batch(
    layout: JoinLayout,
    left_items: Sequence[Tuple[Tuple, Any]],
    right_items: Sequence[Tuple[Tuple, Any]],
    l_pos: Any,
    r_pos: Any,
) -> Tuple[Any, int]:
    """The elementary products at ``(l_pos, r_pos)`` ⊕-aggregated by out-key:
    ``(batch, products)`` with the out-key's code columns and the reduced
    weights in key-first-occurrence order — exactly the ``.items()`` of the
    dict the scalar kernels build, still in codes."""
    from ..backends.batch import ColumnarBatch
    from ..backends.columnar import encode_annotations
    from ..backends.kernels import fold_rows

    products = int(l_pos.shape[0])
    if products == 0:
        return [], 0
    profile = layout.profile
    left_ann = encode_annotations([item[1] for item in left_items], profile)
    right_ann = encode_annotations([item[1] for item in right_items], profile)
    weights = _products(layout, left_ann, right_ann, l_pos, r_pos)
    sides = {"L": (left_items, l_pos), "R": (right_items, r_pos)}
    out_columns = []  # per output attribute: its code for every product
    for side, index in layout.out_sources:
        items, positions = sides[side]
        codes = layout.codec.encode_many([item[0][index] for item in items])
        out_columns.append(codes[positions])
    columns, reduced = fold_rows(
        out_columns, weights, profile.adder(weights, layout.semiring.add)
    )
    batch = ColumnarBatch(tuple(columns), reduced, int(reduced.shape[0]), "items")
    return batch, products


def _local_join_vec(
    left_items: Sequence[Tuple[Tuple, Any]],
    right_items: Sequence[Tuple[Tuple, Any]],
    layout: JoinLayout,
) -> Tuple[Any, int]:
    """Vectorized :func:`local_join_aggregate`: the right-outer probe stream
    (each right item in arrival order, its left matches in arrival order).
    A multi-column join key is probed as one id per row
    (:func:`~repro.backends.kernels.row_ids` over both sides at once)."""
    from ..backends.kernels import hash_join, row_ids

    codec = layout.codec
    columns = [
        codec.encode_many(
            [item[0][left_col] for item in left_items]
            + [item[0][right_col] for item in right_items]
        )
        for left_col, right_col in zip(layout.left_key, layout.right_key)
    ]
    ids = row_ids(columns, len(left_items) + len(right_items))[0]
    split = len(left_items)
    l_pos, r_pos = hash_join(ids[:split], ids[split:], outer="right")
    return _partials_batch(layout, left_items, right_items, l_pos, r_pos)


def _local_join_cells_vec(
    part: Sequence[Tuple[str, Tuple, Tuple]], layout: JoinLayout
) -> Tuple[Any, int]:
    """Vectorized cell-grouped local join (the fragment-replicate kernel of
    :func:`join_aggregate_pair`).

    The dict kernel streams products cell-by-cell in *left-first-occurrence*
    cell order; blocking the left rows by that rank (stable, so arrival
    order survives within a block) makes the left-outer probe replay the
    exact same stream."""
    from ..backends.kernels import first_occurrence_unique, hash_join

    codec = layout.codec
    left_rows: List[Tuple] = []
    right_rows: List[Tuple] = []
    left_cells: List[Tuple] = []
    right_cells: List[Tuple] = []
    for tag, cell, item in part:
        if tag == "L":
            left_rows.append(item)
            left_cells.append(cell)
        else:
            right_rows.append(item)
            right_cells.append(cell)
    left_codes = codec.encode_many(left_cells)
    right_codes = codec.encode_many(right_cells)
    firsts = first_occurrence_unique(left_codes)
    first_order = np.argsort(firsts, kind="stable")
    ranks = first_order[np.searchsorted(firsts[first_order], left_codes)]
    perm = np.argsort(ranks, kind="stable")
    l_block, r_pos = hash_join(left_codes[perm], right_codes, outer="left")
    return _partials_batch(layout, left_rows, right_rows, perm[l_block], r_pos)


def aggregate_relation(
    relation: DistRelation,
    group_attrs: Sequence[str],
    semiring: Semiring,
    salt: int = 0,
) -> DistRelation:
    """``Σ_{−group_attrs} relation`` via reduce-by-key (paper §2.1)."""
    reduced = reduce_by_key(
        relation.data,
        relation.key_fn(tuple(group_attrs)),
        annotation_of,
        semiring.add,
        salt=salt,
        profile=vector_profile(relation.view, semiring),
    )
    return DistRelation(tuple(group_attrs), reduced)


def _reduce_partials(
    partials: Distributed, width: int, semiring: Semiring, salt: int
) -> Distributed:
    """⊕-combine the ``(out_key, weight)`` partials of local joins by their
    ``width``-column key."""
    return reduce_by_key(
        partials, ColumnKey(range(width)), annotation_of, semiring.add, salt,
        profile=vector_profile(partials.view, semiring),
    )


def local_join_partials(
    left_items: Sequence[Tuple[Tuple, Any]],
    right_items: Sequence[Tuple[Tuple, Any]],
    layout: JoinLayout,
    semiring: Semiring,
) -> Tuple[Any, int]:
    """Join two local tuple lists as ``layout`` describes, ⊕-aggregating by
    its out-key.

    Returns ``(partials, elementary_product_count)``; used by every algorithm
    that arranges tuples so products can be aggregated in place (the paper's
    "locality").  The partials are a piece for
    :func:`~repro.mpc.columnar.assemble`: the ``(out_key, weight)`` item
    list of the tuple kernel below or, under the columnar backend, the same
    join run as array kernels — same products, same partials, same order —
    still in codes.
    """
    if layout.profile is not None:
        return _local_join_vec(left_items, right_items, layout)
    return _local_join_dict(left_items, right_items, layout, semiring)


def _local_join_dict(
    left_items: Sequence[Tuple[Tuple, Any]],
    right_items: Sequence[Tuple[Tuple, Any]],
    layout: JoinLayout,
    semiring: Semiring,
) -> Tuple[List[Any], int]:
    """The tuple kernel of :func:`local_join_partials`: the right-outer
    probe of an index of the left items, partials in a dict."""
    left_key_of, right_key_of, out_key = (
        layout.left_key_of, layout.right_key_of, layout.out_key
    )
    index: Dict[Any, List[Tuple[Tuple, Any]]] = {}
    for item in left_items:
        index.setdefault(left_key_of(item[0]), []).append(item)
    partials: Dict[Tuple, Any] = {}
    products = 0
    for r_values, r_weight in right_items:
        matches = index.get(right_key_of(r_values))
        if not matches:
            continue
        for l_values, l_weight in matches:
            products += 1
            key = out_key(l_values, r_values)
            weight = semiring.mul(l_weight, r_weight)
            if key in partials:
                partials[key] = semiring.add(partials[key], weight)
            else:
                partials[key] = weight
    return list(partials.items()), products


def local_join_aggregate(
    left_items: Sequence[Tuple[Tuple, Any]],
    right_items: Sequence[Tuple[Tuple, Any]],
    layout: JoinLayout,
    semiring: Semiring,
) -> Tuple[Dict[Tuple, Any], int]:
    """:func:`local_join_partials` with the partials decoded into the dict
    the tuple kernel builds: ``(partials, elementary_product_count)``."""
    partials, products = local_join_partials(left_items, right_items, layout, semiring)
    if not isinstance(partials, list):
        partials = partials.to_items(layout.codec)
    return dict(partials), products


def join_tasked(
    routed: Distributed, layout: JoinLayout, semiring: Semiring, salt: int = 0
) -> Distributed:
    """Join already-routed ``("L"/"R", task, item)`` messages strictly inside
    each task, then ⊕-reduce the partials by out-key (hashed with ``salt``).

    The paper gives every tagged subquery ``⌈size/L⌉`` servers of its own;
    the simulator wraps those virtual ranges onto real servers (see
    :class:`~repro.core.allocation.RangeAllocation`), so two tasks may share
    one.  Joining within a task keeps every elementary product computed
    exactly once.  Tasks are visited in the order their first left message
    arrived, which fixes the partials' order and with it every meter.
    """
    tracker = routed.view.tracker

    def compute(part: List[Any]) -> List[Any]:
        lefts: Dict[Any, List[Any]] = {}
        rights: Dict[Any, List[Any]] = {}
        for tag, task, item in part:
            (lefts if tag == "L" else rights).setdefault(task, []).append(item)
        pieces: List[Any] = []
        for task, left_items in lefts.items():
            right_items = rights.get(task)
            if not right_items:
                continue
            partials, products = local_join_partials(
                left_items, right_items, layout, semiring
            )
            tracker.record_products(products)
            pieces.append(partials)
        return pieces

    partials = assemble(routed.view, [compute(part) for part in routed.parts])
    return _reduce_partials(partials, len(layout.out_sources), semiring, salt)


def join_aggregate_naive(
    left: DistRelation,
    right: DistRelation,
    keep: Sequence[str],
    semiring: Semiring,
    salt: int = 0,
) -> DistRelation:
    """Skew-*oblivious* hash join (ablation baseline, §1.4 context).

    Both sides are hash-partitioned by the join key with no degree
    statistics: a heavy key lands entirely on one server, whose load then
    scales with that key's join size instead of J/p.  Correct but fragile —
    kept to let benchmarks quantify what the fragment-replicate scheme of
    :func:`join_aggregate_pair` buys.
    """
    view = left.view
    p = view.p
    keep = tuple(keep)
    layout = JoinLayout(view, semiring, left.schema, right.schema, keep)
    left_key = left.key_fn(layout.shared)
    right_key = right.key_fn(layout.shared)

    # Both sides co-partition in ONE shuffle round (the textbook plan),
    # so the heavy key's server receives d_L(b) + d_R(b) in a single round:
    # one task spanning the whole view.
    tagged = left.data.map_items(lambda item: ("L", None, item)).concat(
        right.data.map_items(lambda item: ("R", None, item))
    )
    routed = tagged.repartition(
        lambda msg: hash_to_bucket(
            left_key(msg[2]) if msg[0] == "L" else right_key(msg[2]), p, salt
        )
    )
    return DistRelation(keep, join_tasked(routed, layout, semiring, salt + 13))
