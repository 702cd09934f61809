"""Output-size estimation for line queries (paper §2.2).

For a line query ``∑ R1(A1,A2) ⋈ … ⋈ Rn(An,An+1)`` the output size is
``OUT = Σ_a OUT_a`` where ``OUT_a`` counts the distinct ``A_{n+1}`` values
reachable from ``a ∈ dom(A1)``.  The paper computes a constant-factor
approximation of every ``OUT_a`` (and hence of OUT) with linear load by
pushing KMV sketches from right to left with n reduce-by-key passes, using
the sketch merge as the "sum".

Sketch bundles are metered as one communication unit each: their true size
is O(k log N) = Õ(1), absorbed by the paper's Õ notation (see DESIGN.md).

:class:`KMV`/:class:`MultiKMV` bundles folded by ``reduce_by_key`` are the
item path and the oracle.  Under the columnar backend one estimate carries
its sketches as a table of hash *ranks* instead (:class:`_SketchTable`) and
both stages of every bundle reduce-by-key are one
:func:`~repro.backends.kernels.k_smallest_distinct` call over all servers
(:func:`_fold`): the same partials in the same first-occurrence order to
the same hashed destinations, so meters and traces do not move, and the
same floats at the end.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from ..backends.batch import ColumnarBatch
from ..backends.dispatch import columnar_enabled, np
from ..data.relation import DistRelation
from ..mpc.columnar import ColumnarData, server_cuts
from ..mpc.distributed import Distributed
from .degrees import attach_by_key
from .kmv import KMV, MultiKMV
from .multi_search import multi_search_rows
from .reduce_by_key import reduce_by_key

__all__ = ["estimate_path_out", "sketch_column", "propagate_sketches"]

#: Default sketch parameters: k controls the per-sketch accuracy (≈1/√k
#: relative error), repetitions the median boosting.
DEFAULT_K = 64
DEFAULT_REPETITIONS = 5


def sketch_column(
    relation: DistRelation,
    counted_attr: str,
    key_attr: str,
    k: int = DEFAULT_K,
    repetitions: int = DEFAULT_REPETITIONS,
    base_salt: int = 1000,
) -> Distributed:
    """Per ``key_attr`` value, a :class:`MultiKMV` over the joined
    ``counted_attr`` values: ``(key_value, bundle)`` pairs."""
    counted_index = relation.attr_index(counted_attr)
    key_index = relation.attr_index(key_attr)
    view = relation.view
    if columnar_enabled(view) and k >= 2 and repetitions >= 1:
        codec = view.cluster.codec
        items = relation.data.collect()
        key_ids = codec.encode_many([item[0][key_index] for item in items])
        order, ranks = _hash_order(
            codec, [item[0][counted_index] for item in items], k, repetitions, base_salt
        )
        servers = np.repeat(np.arange(view.p), relation.data.part_sizes())
        return _fold(view, codec, order, servers, key_ids, ranks[:, :, None])
    singles = relation.data.map_items(
        lambda item: (
            item[0][key_index],
            MultiKMV.of([item[0][counted_index]], k, repetitions, base_salt),
        )
    )
    return reduce_by_key(
        singles,
        lambda pair: pair[0],
        lambda pair: pair[1],
        lambda a, b: a.merge(b),
    )


class _HashOrder(NamedTuple):
    """The hash order one estimate fixes, once per repetition: sketches hold
    the dense *rank* of a value's ``hash_to_unit`` among the counted values
    instead of the unit itself.  Equal units share a rank, so "distinct"
    keeps meaning distinct unit, as :meth:`KMV.add` defines it, and the k
    smallest ranks are the k smallest units; floats return at the very end.
    """

    k: int
    base_salt: int
    #: Pads a sketch holding fewer than k values; above every rank.
    sentinel: int
    #: ``units[repetition, rank]``; the sentinel column is never an
    #: estimate, 1.0 keeps the vectorized division quiet.
    units: Any


def _hash_order(
    codec: Any, counted: List[Any], k: int, repetitions: int, base_salt: int
) -> Tuple[_HashOrder, Any]:
    """The order over ``counted``'s values and their ``(rows, repetitions)``
    ranks in it."""
    ids, row_of = np.unique(codec.encode_many(counted), return_inverse=True)
    sentinel = int(ids.shape[0])
    units = np.ones((repetitions, sentinel + 1))
    rank_of = np.empty((sentinel, repetitions), dtype=np.min_scalar_type(sentinel))
    for repetition in range(repetitions):
        distinct, rank_of[:, repetition] = np.unique(
            codec.units(ids, base_salt + repetition), return_inverse=True
        )
        units[repetition, : distinct.shape[0]] = distinct
    return _HashOrder(k, base_salt, sentinel, units), rank_of[row_of]


class _SketchTable(ColumnarData):
    """``(key, MultiKMV)`` pairs as arrays: one ``"pairs"`` batch of key
    codes annotated with a ``(rows, repetitions, k)`` matrix of hash ranks,
    ascending and sentinel-padded (see :class:`_HashOrder`), cut by server.
    It decays to the item pairs when something reads :attr:`parts`.
    """

    def __init__(self, view: Any, batch: ColumnarBatch, cuts: List[int], codec: Any,
                 order: _HashOrder) -> None:
        super().__init__(view, batch, cuts, codec)
        self.order = order

    @property
    def parts(self) -> List[List[Any]]:  # type: ignore[override]
        if self._decoded is None:
            batch = self.batch
            self._decoded = self._cut(list(zip(
                self.codec.decode_many(batch.columns[0]),
                map(self._bundle, batch.annotations),
            )))
        return self._decoded

    def _bundle(self, ranks: Any) -> MultiKMV:
        k, base_salt, sentinel, units = self.order
        return MultiKMV(tuple(
            KMV(k, base_salt + repetition,
                tuple(units[repetition, held[held != sentinel]].tolist()))
            for repetition, held in enumerate(ranks)
        ))

    def keys(self) -> Distributed:
        """The key values alone, placed as the pairs are."""
        return Distributed(
            self.view, self._cut(self.codec.decode_many(self.batch.columns[0]))
        )

    def estimates(self) -> Distributed:
        """``(key, estimate)`` pairs, the estimate being
        :meth:`MultiKMV.estimate`: per repetition the number of values held
        or, once k are held, ``(k − 1) / unit`` of the k-th; then the median
        over repetitions."""
        k, _salt, sentinel, units = self.order
        table = self.batch
        ranks = table.annotations
        repetitions = ranks.shape[1]
        held = (ranks != sentinel).sum(axis=2)
        kth = units[np.arange(repetitions), ranks[:, :, k - 1]]
        ordered = np.sort(np.where(held < k, held, (k - 1) / kth), axis=1)
        middle = repetitions // 2
        if repetitions % 2:
            medians = ordered[:, middle]
        else:
            medians = (ordered[:, middle - 1] + ordered[:, middle]) / 2
        return Distributed(self.view, self._cut(list(zip(
            self.codec.decode_many(table.columns[0]), medians.tolist()
        ))))


def _fold(
    view: Any,
    codec: Any,
    order: _HashOrder,
    servers: Any,
    key_ids: Any,
    ranks: Any,
    rows: Optional[Any] = None,
) -> _SketchTable:
    """Reduce-by-key with the sketch merge as the sum, each stage one
    kernel call over every server: row ``i`` sits on ``servers[i]``
    (non-decreasing), is keyed ``key_ids[i]`` and brings the sketch
    ``ranks[rows[i]]``.  Partials leave each server in first-occurrence key
    order for ``hash_to_bucket(key, p)`` and the receivers emit totals in
    first-arrival order, exactly as :func:`reduce_by_key`'s dict folds do.
    """
    from ..backends.kernels import k_smallest_distinct

    p = view.p
    span = len(codec)

    def stage(servers, key_ids, ranks, rows=None) -> _SketchTable:
        firsts, folded = k_smallest_distinct(
            servers * span + key_ids, ranks, order.k, order.sentinel, rows
        )
        batch = ColumnarBatch((key_ids[firsts],), folded, int(firsts.shape[0]), "pairs")
        return _SketchTable(view, batch, server_cuts(servers[firsts], p), codec, order)

    partials = stage(servers, key_ids, ranks, rows).batch
    arrived, cuts = view.exchange_batches(
        codec.buckets(partials.columns[0], p, 0), partials
    )
    servers = np.repeat(np.arange(p), np.diff(cuts))
    return stage(servers, arrived.columns[0], arrived.annotations)


def propagate_sketches(
    sketches: Distributed,
    relation: DistRelation,
    from_attr: str,
    to_attr: str,
) -> Distributed:
    """One right-to-left step: merge, for every ``to`` value, the bundles of
    all ``from`` values it joins with."""
    from_index = relation.attr_index(from_attr)
    to_index = relation.attr_index(to_attr)

    # Skew-safe attachment: a heavy `from` value must not pile its tuples
    # onto one server, so the bundles are joined in via multi-search.
    if isinstance(sketches, _SketchTable):
        rows = multi_search_rows(
            relation.data, sketches.keys(),
            lambda item: item[0][from_index], lambda key: key,
        )
        if rows is not None:
            # The same attach → filter → reduce on row numbers: a tuple
            # points at its `from` value's row of the sketch table.
            hit = rows.exact
            to_ids = sketches.codec.encode_many(
                [item[0][to_index] for item in relation.data.collect()]
            )
            return _fold(
                relation.view, sketches.codec, sketches.order, rows.servers[hit],
                to_ids[rows.queries[hit]],
                sketches.batch.annotations,
                rows.predecessors[hit],
            )
    tagged = attach_by_key(
        relation.data, sketches, lambda item: item[0][from_index], default=None
    )
    emitted = tagged.filter_items(lambda entry: entry[1] is not None).map_items(
        lambda entry: (entry[0][0][to_index], entry[1])
    )
    return reduce_by_key(
        emitted,
        lambda pair: pair[0],
        lambda pair: pair[1],
        lambda a, b: a.merge(b),
    )


def estimate_path_out(
    relations: Sequence[DistRelation],
    attrs: Sequence[str],
    k: int = DEFAULT_K,
    repetitions: int = DEFAULT_REPETITIONS,
    base_salt: int = 1000,
) -> Tuple[float, Distributed]:
    """Estimate reachable-distinct counts along a path.

    ``attrs = [X0, …, Xm]`` and ``relations[i]`` has schema containing
    ``(X_i, X_{i+1})``.  Counts, for every value of ``X0``, the distinct
    ``Xm`` values reachable through the path, and returns
    ``(total_estimate, per_value)`` where ``per_value`` holds
    ``(x0_value, estimate)`` pairs hash-partitioned by value.

    This is the paper's OUT estimator when the path is the whole line query
    (then ``total ≈ OUT`` and per-value ≈ OUT_a), and the arm-statistics
    estimator ``d_i(b)`` for star-like queries (§6).
    """
    if len(relations) != len(attrs) - 1 or not relations:
        raise ValueError("need m relations for m+1 path attributes")
    sketches = sketch_column(
        relations[-1], attrs[-1], attrs[-2], k, repetitions, base_salt
    )
    for i in range(len(relations) - 2, -1, -1):
        sketches = propagate_sketches(sketches, relations[i], attrs[i + 1], attrs[i])
    if isinstance(sketches, _SketchTable):
        per_value = sketches.estimates()
    else:
        per_value = sketches.map_items(lambda pair: (pair[0], pair[1].estimate()))
    local_sums = [sum(est for _value, est in part) for part in per_value.parts]
    per_value.view.control_gather(local_sums)
    return float(sum(local_sums)), per_value
