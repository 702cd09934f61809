"""Array-native distributed datasets (the ``"columnar"`` backend).

A :class:`ColumnarData` is a :class:`~repro.mpc.distributed.Distributed`
whose physical payload is *one* :class:`~repro.backends.batch.ColumnarBatch`
for the whole view plus ``cuts``: the rows are laid out server by server,
local server ``i`` holding ``batch`` rows ``cuts[i]:cuts[i + 1]``, the way
the paper's §2.1 primitives treat a relation as one partitioned sequence.
It is what :meth:`~repro.data.relation.DistRelation.load` places at round
0, what :func:`assemble` makes of the local joins' batch partials and
:meth:`~repro.mpc.distributed.Distributed.union` of array-native inputs,
what :meth:`~repro.mpc.cluster.ClusterView.exchange_batches` delivers, and
what the whole-batch primitives (reduce-by-key, the semijoins) read and
return.  Every inherited operation (``map_parts``, ``repartition``, …)
transparently *decays* it to the reference item representation through the
lazily-decoded :attr:`parts` property and proceeds on the tuple path — with
identical routing, and therefore identical meters and traces, either way.

``total_size``/``part_sizes`` read the cuts directly, so the logical tuple
counts the load meter and the algorithms' statistics consume never require
a decode.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, List, Optional, Sequence

from ..backends.batch import ColumnarBatch
from ..backends.dispatch import np
from .cluster import ClusterView
from .distributed import Distributed
from ..errors import RoutingError

__all__ = ["ColumnarData", "assemble", "server_cuts", "unite"]


class ColumnarData(Distributed):
    """Items spread across servers, physically stored as one array batch.

    ``batch`` holds every server's rows, server by server; ``cuts`` (p + 1
    non-decreasing row offsets, ``cuts[0] == 0``) says where each server's
    rows start and end; ``codec`` is the cluster's shared
    :class:`~repro.backends.columnar.ValueCodec` used to decode on demand.
    The decoded item lists are memoized: decoding happens at most once,
    only when some consumer actually needs tuples.
    """

    def __init__(
        self, view: ClusterView, batch: ColumnarBatch, cuts: Sequence[int], codec: Any
    ) -> None:
        if len(cuts) != view.p + 1:
            raise RoutingError(f"expected {view.p} parts, got {len(cuts) - 1}")
        self.view = view
        self.batch = batch
        self.cuts: List[int] = list(cuts)
        self.codec = codec
        self._decoded: Optional[List[List[Any]]] = None

    # -- lazy decode (the "convert at the edge" boundary) ----------------------

    @property
    def parts(self) -> List[List[Any]]:  # type: ignore[override]
        """Item lists, decoded from the batch (one call) on first access."""
        if self._decoded is None:
            self._decoded = self._cut(self.batch.to_items(self.codec))
        return self._decoded

    def _cut(self, rows: List[Any]) -> List[List[Any]]:
        """``rows`` (one per batch row) as the per-server lists."""
        cuts = self.cuts
        return [rows[cuts[i] : cuts[i + 1]] for i in range(self.view.p)]

    # -- array-backed inspection (no decode) -----------------------------------

    @property
    def total_size(self) -> int:
        return self.batch.size

    def part_sizes(self) -> List[int]:
        cuts = self.cuts
        return [cuts[i + 1] - cuts[i] for i in range(self.view.p)]

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_batch(
        cls, view: ClusterView, batch: ColumnarBatch, codec: Any
    ) -> "ColumnarData":
        """Place one whole-dataset batch contiguously, ⌈n/p⌉ rows per
        server — the same free round-0 placement as ``from_items``."""
        size = batch.size
        chunk = (size + view.p - 1) // view.p
        return cls(view, batch, [min(i * chunk, size) for i in range(view.p + 1)], codec)

    def with_batch(self, batch: ColumnarBatch, servers: Any) -> "ColumnarData":
        """``batch`` on this dataset's view, its rows on the non-decreasing
        local ``servers``."""
        return ColumnarData(self.view, batch, server_cuts(servers, self.view.p), self.codec)

    def with_columns(self, columns: Any) -> "ColumnarData":
        """These rows, annotations and cuts over other code ``columns``
        (an ``"items"`` batch): a local reshape, no decode."""
        batch = self.batch
        return ColumnarData(
            self.view, ColumnarBatch(tuple(columns), batch.annotations, batch.size),
            self.cuts, self.codec,
        )


def server_cuts(servers: Any, p: int) -> List[int]:
    """The p + 1 cuts of rows whose non-decreasing local servers are
    ``servers``."""
    return np.searchsorted(servers, np.arange(p + 1)).tolist()


def unite(view: ClusterView, datasets: Sequence[Distributed]) -> Optional[ColumnarData]:
    """:meth:`Distributed.union` of array datasets on ``view`` whose
    non-empty batches share one layout — one stable argsort of the
    owner-server column and one ``take`` — or None (the union is items)."""
    held = [dataset for dataset in datasets if dataset.total_size]
    if not (
        held
        and all(type(d) is ColumnarData and d.view is view for d in datasets)
        and len({dataset.batch.layout() for dataset in held}) == 1
    ):
        return None
    servers = np.arange(view.p)
    owners = np.concatenate([np.repeat(servers, d.part_sizes()) for d in held])
    order = np.argsort(owners.astype(np.min_scalar_type(view.p)), kind="stable")
    cuts = np.cumsum([0] + np.bincount(owners, minlength=view.p).tolist()).tolist()
    batch = ColumnarBatch.concat([dataset.batch for dataset in held]).take(order)
    return ColumnarData(view, batch, cuts, view.cluster.codec)


def assemble(view: ClusterView, pieces: Sequence[Sequence[Any]]) -> Distributed:
    """One dataset from every server's pieces side by side, in order; a piece
    is a :class:`ColumnarBatch` or an item list (local-join partials, the
    inputs of a union).  Batches of one layout concatenate into a
    :class:`ColumnarData` — one concatenation, the servers already in
    order; any other mix decays every batch to items."""
    pieces = [[piece for piece in server if len(piece)] for server in pieces]
    held = [piece for server in pieces for piece in server]
    if (
        held
        and all(isinstance(piece, ColumnarBatch) for piece in held)
        and len({piece.layout() for piece in held}) == 1
    ):
        sizes = [sum(piece.size for piece in server) for server in pieces]
        return ColumnarData(
            view, ColumnarBatch.concat(held), np.cumsum([0] + sizes).tolist(),
            view.cluster.codec,
        )

    def items_of(piece: Any) -> List[Any]:
        if isinstance(piece, ColumnarBatch):
            return piece.to_items(view.cluster.codec)
        return piece

    return Distributed(
        view, [list(chain.from_iterable(map(items_of, server))) for server in pieces]
    )
