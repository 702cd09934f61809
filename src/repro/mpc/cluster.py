"""Simulated MPC cluster (paper §1.3).

``MPCCluster`` hosts ``p`` logical servers.  Algorithms act through the
cluster's one :class:`ClusterView`, which owns the round cursor.  All data
movement goes through :meth:`ClusterView.exchange` (or its batch form),
which physically delivers items and charges the
:class:`~repro.mpc.stats.LoadTracker` at the receiving servers, making the
measured load the paper's ``L`` by construction.

Round semantics: every delivering operation consumes one round of the
cursor, which only ever moves forward.  The paper's "allocate ``⌈size/L⌉``
servers to each subquery" steps run on the whole view: a task id column
placed by :class:`~repro.core.allocation.RangeAllocation` routes each
subquery's tuples to its own server range, and independent subqueries run
one after another, so their rounds add up.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError, RoutingError
from .stats import CostReport, LoadTracker

__all__ = ["MPCCluster", "ClusterView"]


class MPCCluster:
    """A simulated cluster of ``p`` interconnected servers.

    ``tracer`` (a :class:`repro.obs.events.Tracer`, optional) turns on the
    structured event stream: every exchange/broadcast/gather emits one
    event.  Without it, operations pay only a ``None`` check — the metered
    load ``L`` is identical either way.

    ``faults`` (a :class:`~repro.mpc.faults.FaultSchedule`, or a
    :class:`~repro.mpc.faults.FaultInjector` to set its ``spares``,
    optional) enables deterministic fault injection with checkpoint/replay
    recovery on either backend; without it (the default) every delivering
    operation pays a single ``None`` check and all meters are
    bit-identical to a fault-free build.

    ``backend`` (``"pytuple"`` or ``"columnar"``, default ``"pytuple"``)
    selects the kernel implementation the primitives use for their local
    work; ``"columnar"`` runs array kernels and ships encoded arrays
    through ``exchange_batches`` instead of item lists.  Neither choice
    changes what is delivered or metered (see :mod:`repro.backends`).
    ``cluster.codec`` is the backend's shared value codec, created lazily
    on first use.

    ``profiler`` (a :class:`~repro.obs.profile.Profiler`, optional) turns
    on wall-clock span profiling: every delivering operation records its
    elapsed time and items moved (through
    :meth:`~repro.mpc.stats.LoadTracker.span`).  Results, meters and
    traces are bit-identical with and without one.
    """

    def __init__(self, p: int, tracer: Optional[Any] = None,
                 faults: Optional[Any] = None, backend: str = "pytuple",
                 profiler: Optional[Any] = None) -> None:
        if p < 1:
            raise ConfigError("cluster needs at least one server")
        self.p = p
        self.backend = backend
        self._codec: Optional[Any] = None
        self.tracker = LoadTracker(tracer=tracer, profiler=profiler)
        if faults is None:
            self.faults = None
        else:
            from .faults import as_injector

            self.faults = as_injector(faults)
        self._view = ClusterView(self)

    @property
    def codec(self) -> Any:
        """The cluster-wide :class:`~repro.backends.columnar.ValueCodec`."""
        if self._codec is None:
            from ..backends.columnar import ValueCodec

            self._codec = ValueCodec()
        return self._codec

    def view(self) -> "ClusterView":
        """The cluster's one view over all ``p`` servers (the same object on
        every call, so the cluster has exactly one round cursor)."""
        return self._view

    def report(self) -> CostReport:
        """Snapshot of the cluster's cost meters."""
        return self.tracker.report()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MPCCluster(p={self.p})"


class ClusterView:
    """The ``p`` servers of one cluster and its forward-only round cursor.

    ``servers`` is ``(0, …, p - 1)``; trace events carry it.
    """

    def __init__(self, cluster: MPCCluster) -> None:
        self.cluster = cluster
        self.p = cluster.p
        self.servers = tuple(range(cluster.p))
        self.round = 0

    @property
    def tracker(self) -> LoadTracker:
        return self.cluster.tracker

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ClusterView(p={self.p}, round={self.round})"

    # -- communication ---------------------------------------------------------

    def _deliver(self, op: str, sizes: Tuple[int, ...]) -> None:
        """The one delivery step of every communicating operation: charge
        ``sizes[i]`` items to server ``i`` at the current round, fire the
        faults scheduled there, and advance the cursor past the round and
        any recovery rounds."""
        round_index = self.round
        self.tracker.charge_round(op, round_index, self.servers, sizes)
        injector = self.cluster.faults
        extra = 0 if injector is None else injector.deliver(self, round_index, sizes)
        self.round = round_index + 1 + extra

    def exchange(
        self,
        outboxes: Sequence[Iterable[Tuple[int, Any]]],
        *,
        op: str = "exchange",
    ) -> List[List[Any]]:
        """One communication round within this view.

        ``outboxes[i]`` holds ``(dest_local_index, item)`` messages emitted by
        local server ``i``.  Returns the per-server inboxes.  Charges every
        delivery to the receiving server at the current round, then advances
        the cursor.  ``op`` only labels the trace event (``gather`` routes
        through here and tags itself).
        """
        tracker = self.tracker
        with tracker.span(op, "op", self.cluster.backend) as span:
            p = self.p
            if len(outboxes) != p:
                raise RoutingError(f"expected {p} outboxes, got {len(outboxes)}")
            inboxes: List[List[Any]] = [[] for _ in range(p)]
            for outbox in outboxes:
                for dest, item in outbox:
                    # Checked per message: a negative index would otherwise
                    # deliver to a server counted from the end.
                    if not 0 <= dest < p:
                        raise RoutingError(f"destination {dest} outside view of size {p}")
                    inboxes[dest].append(item)
            sizes = tuple(map(len, inboxes))
            self._deliver(op, sizes)
            span.add_items(sum(sizes))
        return inboxes

    def exchange_batches(
        self,
        dests: Any,
        batch: Any,
        *,
        op: str = "exchange",
    ) -> Tuple[Any, List[int]]:
        """One communication round moving *arrays* instead of item lists.

        ``batch`` is a :class:`~repro.backends.batch.ColumnarBatch` of every
        outgoing row, laid out in source-server order (local server 0's
        outbox first); ``dests`` is the parallel int64 array of destination
        local indices (one per row).  Returns ``(delivered, cuts)``: one
        batch of every inbound row, server by server, local server ``i``'s
        inbox at rows ``cuts[i]:cuts[i + 1]``.

        Delivery order is identical to :meth:`exchange`: one stable sort of
        the rows by destination keeps every inbox's rows in source order,
        each source's in outbox order — which is how :meth:`exchange` fills
        its inboxes, one source after the other.  Each server is charged
        the *logical tuple count* it receives — its row count — at the
        current round, so the load/communication meters and the trace event
        are bit-identical to the item-at-a-time path for the same routing
        decisions.
        """
        from ..backends.dispatch import np

        p = self.p
        with self.tracker.span(op, "op", self.cluster.backend) as span:
            # Validate before any work (all-or-nothing, like the item
            # path's routing checks).
            if dests.shape[0] != batch.size:
                raise RoutingError("destination array does not match batch")
            if batch.size:
                low, high = int(dests.min()), int(dests.max())
                if low < 0 or high >= p:
                    bad = low if low < 0 else high
                    raise RoutingError(
                        f"destination {bad} outside view of size {p}"
                    )
            # 16-bit destinations take the radix sort.
            order = np.argsort(
                dests.astype(np.min_scalar_type(p), copy=False), kind="stable"
            )
            sizes = tuple(np.bincount(dests, minlength=p).tolist())
            delivered = batch.take(order)
            self._deliver(op, sizes)
            span.add_items(sum(sizes))
        return delivered, [0, *accumulate(sizes)]

    def broadcast_batches(self, batches: Sequence[Any]) -> Any:
        """Batch form of :meth:`broadcast`: every server receives the
        concatenation of all parts; charged the total row count each."""
        from ..backends.batch import ColumnarBatch

        with self.tracker.span("broadcast", "op", self.cluster.backend) as span:
            everything = ColumnarBatch.concat(list(batches))
            self._deliver("broadcast", (everything.size,) * self.p)
            span.add_items(everything.size * self.p)
        return everything

    def route(
        self,
        parts: Sequence[Sequence[Any]],
        dest_fn: Callable[[Any], int],
        *,
        op: str = "exchange",
    ) -> List[List[Any]]:
        """Reshuffle: send every item to ``dest_fn(item)`` (a local index)."""
        outboxes = [[(dest_fn(item), item) for item in part] for part in parts]
        return self.exchange(outboxes, op=op)

    def route_multi(
        self,
        parts: Sequence[Sequence[Any]],
        dests_fn: Callable[[Any], Iterable[int]],
    ) -> List[List[Any]]:
        """Replicating reshuffle: send each item to every index in ``dests_fn(item)``."""
        outboxes = [
            [(dest, item) for item in part for dest in dests_fn(item)] for part in parts
        ]
        return self.exchange(outboxes)

    def broadcast(self, parts: Sequence[Sequence[Any]]) -> List[Any]:
        """Send every item to *all* servers in the view; returns the common list.

        One round; each server's incoming load is the total item count, which
        is how the paper charges a broadcast.
        """
        with self.tracker.span("broadcast", "op", self.cluster.backend) as span:
            everything = [item for part in parts for item in part]
            self._deliver("broadcast", (len(everything),) * self.p)
            span.add_items(len(everything) * self.p)
        return everything

    def gather(self, parts: Sequence[Sequence[Any]], dest: int = 0) -> List[Any]:
        """Bring all items to one server (charged there); one round."""
        inboxes = self.route(parts, lambda item: dest, op="gather")
        return inboxes[dest]

    # -- coordinator/control channel --------------------------------------------

    def control_gather(self, values: Sequence[Any]) -> List[Any]:
        """Gather one scalar per server on the control channel (O(p) traffic)."""
        self.tracker.record_control(len(values))
        return list(values)

    def control_scatter(self, count: int = 1) -> None:
        """Charge scattering ``count`` scalars to every server."""
        self.tracker.record_control(count * self.p)
