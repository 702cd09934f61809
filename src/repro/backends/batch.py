"""Array batches that move through the cluster as units.

A :class:`ColumnarBatch` is the wire form of one server's slice of a
dataset under the ``"columnar"`` backend: parallel int64 code columns (one
per tuple position, codes from the cluster's shared
:class:`~.columnar.ValueCodec`) plus an optional annotation column.
:meth:`~repro.mpc.cluster.ClusterView.exchange_batches` splits batches by a
destination array and concatenates the fragments — never touching a Python
object per row — while the logical tuple counts (and therefore the load
meter) come from the array lengths.

Two decode layouts cover every dataset shape the primitives ship:

* ``"items"`` — ``columns[j][i]`` is the code of attribute ``j`` of row
  ``i``; rows decode to the ``(values, annotation)`` wire format (loaded
  relations, join partials, reduce-by-key on a column key).
* ``"pairs"`` — one column of interned-key codes; rows decode to
  ``(key, annotation)`` pairs (reduce-by-key on an opaque key, sketches).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, List, Optional, Sequence, Tuple

from .dispatch import np

__all__ = ["ColumnarBatch"]


class ColumnarBatch:
    """One server's rows as parallel arrays.

    ``columns`` are int64 codec codes; ``annotations`` is a typed or
    ``object`` column, or ``None`` for code-only payloads (distinct keys).
    ``kind`` selects the decode layout (``"items"`` or ``"pairs"``).
    """

    __slots__ = ("columns", "annotations", "size", "kind")

    def __init__(
        self,
        columns: Tuple[Any, ...],
        annotations: Optional[Any],
        size: int,
        kind: str = "items",
    ) -> None:
        self.columns = columns
        self.annotations = annotations
        self.size = size
        self.kind = kind

    def take(self, indices: Any) -> "ColumnarBatch":
        """The rows at ``indices`` (in that order), as a new batch."""
        return ColumnarBatch(
            tuple(column[indices] for column in self.columns),
            None if self.annotations is None else self.annotations[indices],
            int(indices.shape[0]),
            self.kind,
        )

    def slice(self, start: int, stop: int) -> "ColumnarBatch":
        """Rows ``start:stop`` (contiguous, view-backed)."""
        return ColumnarBatch(
            tuple(column[start:stop] for column in self.columns),
            None if self.annotations is None else self.annotations[start:stop],
            max(0, min(stop, self.size) - start),
            self.kind,
        )

    @staticmethod
    def concat(batches: Sequence["ColumnarBatch"]) -> "ColumnarBatch":
        """Row-wise concatenation, batch order preserved (= inbox order)."""
        batches = [b for b in batches if b is not None]
        if not batches:
            raise ValueError("concat needs at least one batch")
        first = batches[0]
        if len(batches) == 1:
            return first
        columns = tuple(
            np.concatenate([b.columns[j] for b in batches])
            for j in range(len(first.columns))
        )
        if first.annotations is None:
            annotations = None
        else:
            columns_in = [b.annotations for b in batches]
            if len({column.dtype for column in columns_in}) > 1:
                # Never promote (an int beside a float): every value keeps
                # its type in an ``object`` column.
                columns_in = [column.astype(object) for column in columns_in]
            annotations = np.concatenate(columns_in)
        return ColumnarBatch(
            columns, annotations, sum(b.size for b in batches), first.kind
        )

    def layout(self) -> Tuple[Any, ...]:
        """What two batches must share for their rows to concatenate into
        one batch: decode layout, width and whether they carry annotations
        (:meth:`concat` reconciles annotation dtypes)."""
        return self.kind, len(self.columns), self.annotations is None

    def to_items(self, codec: Any) -> List[Any]:
        """Decode to ``(key, annotation)`` rows, order preserved: the key is
        the values tuple (``"items"``) or the one interned key (``"pairs"``),
        the annotation None for a code-only payload."""
        if self.size == 0:
            return []
        decoded = [codec.decode_many(column) for column in self.columns]
        if self.kind == "pairs":
            keys = decoded[0]
        else:
            keys = list(zip(*decoded)) if decoded else [()] * self.size
        if self.annotations is None:
            return list(zip(keys, repeat(None)))
        return list(zip(keys, self.annotations.tolist()))

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ColumnarBatch(width={len(self.columns)}, size={self.size}, "
                f"kind={self.kind!r})")
