"""Array-native distributed datasets (the ``"columnar"`` backend).

A :class:`ColumnarData` is a :class:`~repro.mpc.distributed.Distributed`
whose physical payload is one :class:`~repro.backends.batch.ColumnarBatch`
per server instead of a Python list per server.  Primitives that understand
batches move them through
:meth:`~repro.mpc.cluster.ClusterView.exchange_batches` without touching a
Python object per row; everything else transparently *decays* to the
reference item representation through the lazily-decoded :attr:`parts`
property and proceeds on the tuple path — with identical routing, and
therefore identical meters and traces, either way.

``total_size``/``part_sizes`` read array lengths directly, so the logical
tuple counts the load meter and the algorithms' statistics consume never
require a decode.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..backends.batch import ColumnarBatch
from ..backends.dispatch import np
from .cluster import ClusterView
from .distributed import Distributed
from ..errors import RoutingError

__all__ = ["ColumnarData", "columnar_parts"]


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

    # -- batch-native transformations ------------------------------------------

    def map_batches(self, fn) -> "ColumnarData":
        """Apply a local per-server batch transformation; no communication."""
        return ColumnarData(self.view, [fn(b) for b in self.batches], self.codec)

    def repartition_batches(self, dests: Sequence[Any]) -> "ColumnarData":
        """Send row ``i`` of each batch to ``dests[...][i]``; one round,
        delivered and metered identically to item ``repartition``."""
        inboxes = self.view.exchange_batches(dests, self.batches)
        return ColumnarData(self.view, inboxes, self.codec)

    def concat(self, other: Distributed) -> Distributed:
        if (
            isinstance(other, ColumnarData)
            and other.view is self.view
            and other.batches
            and self.batches
            and other.batches[0].kind == self.batches[0].kind
            and len(other.batches[0].columns) == len(self.batches[0].columns)
            and (other.batches[0].annotations is None)
            == (self.batches[0].annotations is None)
        ):
            return ColumnarData(
                self.view,
                [ColumnarBatch.concat([a, b])
                 for a, b in zip(self.batches, other.batches)],
                self.codec,
            )
        return super().concat(other)

    def rebalance(self) -> Distributed:
        """Array form of contiguous re-chunking: identical destinations
        (global row order, ⌈n/p⌉ chunks), shipped as batches."""
        total = self.total_size
        p = self.view.p
        chunk = (total + p - 1) // p if total else 1
        dests: List[Any] = []
        offset = 0
        for batch in self.batches:
            positions = np.arange(offset, offset + batch.size, dtype=np.int64)
            dests.append(np.minimum(positions // chunk, p - 1))
            offset += batch.size
        return self.repartition_batches(dests)


def columnar_parts(dist: Distributed) -> Optional[List[ColumnarBatch]]:
    """The undecoded batches of ``dist`` when it is array-native, else None.

    The gate primitives use to decide whether a batch fast path applies
    without forcing a decode.
    """
    if isinstance(dist, ColumnarData):
        return dist.batches
    return None
