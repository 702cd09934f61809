"""Distributed datasets over a :class:`~repro.mpc.cluster.ClusterView`.

A :class:`Distributed` is simply "one list of items per server of the view".
Every repartitioning physically moves items via the view's ``exchange`` and
is therefore metered.  Initial input placement (the model's round-0 state,
``N/p`` tuples per server) is free, matching §1.3.

This class is the reference item representation; the ``"columnar"``
backend's :class:`~repro.mpc.columnar.ColumnarData` subclass stores one
array batch with server cuts instead and decays to these item lists
whenever one of the operations below reads :attr:`parts` (it overrides
none of them; only :meth:`Distributed.union` looks at the batch first).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Sequence

from .cluster import ClusterView
from ..errors import RoutingError

__all__ = ["Distributed"]


class Distributed:
    """Items spread across the servers of one view."""

    def __init__(self, view: ClusterView, parts: Sequence[List[Any]]) -> None:
        if len(parts) != view.p:
            raise RoutingError(f"expected {view.p} parts, got {len(parts)}")
        self.view = view
        self.parts: List[List[Any]] = [list(part) for part in parts]

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_items(cls, view: ClusterView, items: Iterable[Any]) -> "Distributed":
        """Place ``items`` contiguously, ⌈n/p⌉ per server (free: round-0 input)."""
        data = list(items)
        p = view.p
        size = len(data)
        chunk = (size + p - 1) // p if size else 0
        parts = [data[i * chunk : (i + 1) * chunk] for i in range(p)]
        return cls(view, parts)

    @classmethod
    def empty(cls, view: ClusterView) -> "Distributed":
        return cls(view, [[] for _ in range(view.p)])

    @staticmethod
    def union(view: ClusterView, datasets: Iterable["Distributed"]) -> "Distributed":
        """The datasets' items side by side on ``view``, server by server in
        the order given (the paper's "union of the disjoint subquery
        outputs"); no communication, linear in the items.  Array-native
        inputs of one batch layout stay arrays (:func:`~repro.mpc.columnar
        .unite`); beside an item input, or one of another layout, they
        decay to item lists."""
        datasets = list(datasets)
        if datasets and type(datasets[0]) is not Distributed:  # else: items
            from .columnar import unite

            united = unite(view, datasets)
            if united is not None:
                return united
        parts: List[List[Any]] = [[] for _ in range(view.p)]
        for dataset in datasets:
            if dataset.view is not view:
                raise RoutingError("union requires datasets on the same view")
            for part, more in zip(parts, dataset.parts):
                part.extend(more)
        return Distributed(view, parts)

    # -- inspection --------------------------------------------------------------

    @property
    def total_size(self) -> int:
        return sum(len(part) for part in self.parts)

    def part_sizes(self) -> List[int]:
        """Per-server item counts."""
        return [len(part) for part in self.parts]

    def items(self) -> Iterable[Any]:
        """Iterate all items (simulation-side inspection, not a cluster op)."""
        for part in self.parts:
            yield from part

    def collect(self) -> List[Any]:
        """All items as one list (simulation-side inspection)."""
        return [item for part in self.parts for item in part]

    # -- local (communication-free) transformations -------------------------------

    def map_parts(self, fn: Callable[[List[Any]], List[Any]]) -> "Distributed":
        """Apply a per-server local transformation; no communication."""
        return Distributed(self.view, [fn(part) for part in self.parts])

    def map_items(self, fn: Callable[[Any], Any]) -> "Distributed":
        """Apply ``fn`` to every item in place (no communication)."""
        return self.map_parts(lambda part: [fn(item) for item in part])

    def filter_items(self, predicate: Callable[[Any], bool]) -> "Distributed":
        """Keep the items satisfying ``predicate`` (no communication)."""
        return self.map_parts(lambda part: [item for item in part if predicate(item)])

    def concat(self, other: "Distributed") -> "Distributed":
        """Union of two datasets living on the same view; no communication."""
        return Distributed.union(self.view, (self, other))

    # -- communication -------------------------------------------------------------

    def repartition(self, dest_fn: Callable[[Any], int]) -> "Distributed":
        """Send each item to local server ``dest_fn(item)``; one round."""
        inboxes = self.view.route(self.parts, dest_fn)
        return Distributed(self.view, inboxes)

    def repartition_multi(self, dests_fn: Callable[[Any], Iterable[int]]) -> "Distributed":
        """Replicate each item to all servers in ``dests_fn(item)``; one round."""
        inboxes = self.view.route_multi(self.parts, dests_fn)
        return Distributed(self.view, inboxes)

    def broadcast(self) -> List[Any]:
        """Materialize all items on every server; returns the shared list."""
        return self.view.broadcast(self.parts)

