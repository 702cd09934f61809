"""Array-native distributed datasets (the ``"columnar"`` backend).

A :class:`ColumnarData` is a :class:`~repro.mpc.distributed.Distributed`
whose physical payload is one :class:`~repro.backends.batch.ColumnarBatch`
per server instead of a Python list per server.  It is what
:meth:`~repro.data.relation.DistRelation.load` places at round 0, what
:func:`assemble` makes of the local joins' batch partials and of a union of
array-native inputs, and what the whole-batch
:func:`~repro.primitives.reduce_by_key.reduce_by_key` reads and returns.
Every inherited operation (``map_parts``, ``repartition``, ``rebalance``, …)
transparently *decays* it to the reference item representation through the
lazily-decoded :attr:`parts` property and proceeds on the tuple path — with
identical routing, and therefore identical meters and traces, either way.

``total_size``/``part_sizes`` read array lengths directly, so the logical
tuple counts the load meter and the algorithms' statistics consume never
require a decode.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, List, Optional, Sequence

from ..backends.batch import ColumnarBatch
from .cluster import ClusterView
from .distributed import Distributed
from ..errors import RoutingError

__all__ = ["ColumnarData", "assemble"]


class ColumnarData(Distributed):
    """Items spread across servers, physically stored as array batches.

    ``batches[i]`` holds local server ``i``'s rows; ``codec`` is the
    cluster's shared :class:`~repro.backends.columnar.ValueCodec` used to
    decode on demand.  The decoded item lists are memoized: decoding
    happens at most once, only when some consumer actually needs tuples.
    """

    def __init__(
        self, view: ClusterView, batches: Sequence[ColumnarBatch], codec: Any
    ) -> None:
        if len(batches) != view.p:
            raise RoutingError(f"expected {view.p} parts, got {len(batches)}")
        self.view = view
        self.batches: List[ColumnarBatch] = list(batches)
        self.codec = codec
        self._decoded: Optional[List[List[Any]]] = None

    # -- lazy decode (the "convert at the edge" boundary) ----------------------

    @property
    def parts(self) -> List[List[Any]]:  # type: ignore[override]
        """Item lists, decoded from the batches on first access."""
        if self._decoded is None:
            codec = self.codec
            self._decoded = [batch.to_items(codec) for batch in self.batches]
        return self._decoded

    # -- array-backed inspection (no decode) -----------------------------------

    @property
    def total_size(self) -> int:
        return sum(batch.size for batch in self.batches)

    def part_sizes(self) -> List[int]:
        return [batch.size for batch in self.batches]

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_batch(
        cls, view: ClusterView, batch: ColumnarBatch, codec: Any
    ) -> "ColumnarData":
        """Place one whole-dataset batch contiguously, ⌈n/p⌉ rows per
        server — the same free round-0 placement as ``from_items``."""
        p = view.p
        size = batch.size
        chunk = (size + p - 1) // p if size else 0
        return cls(
            view,
            [batch.slice(i * chunk, (i + 1) * chunk) if chunk else
             batch.slice(0, 0) for i in range(p)],
            codec,
        )


def assemble(view: ClusterView, pieces: Sequence[Sequence[Any]]) -> Distributed:
    """One dataset from every server's pieces side by side, in order; a piece
    is a :class:`ColumnarBatch` or an item list (local-join partials, the
    inputs of a union).  Batches of one layout concatenate into a
    :class:`ColumnarData`; any other mix decays every batch to items."""
    pieces = [[piece for piece in server if len(piece)] for server in pieces]
    held = [piece for server in pieces for piece in server]
    if (
        held
        and all(isinstance(piece, ColumnarBatch) for piece in held)
        and len({piece.layout() for piece in held}) == 1
    ):
        empty = held[0].slice(0, 0)
        return ColumnarData(
            view,
            [ColumnarBatch.concat(server) if server else empty for server in pieces],
            view.cluster.codec,
        )

    def items_of(piece: Any) -> List[Any]:
        if isinstance(piece, ColumnarBatch):
            return piece.to_items(view.cluster.codec)
        return piece

    return Distributed(
        view, [list(chain.from_iterable(map(items_of, server))) for server in pieces]
    )
