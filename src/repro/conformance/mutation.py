"""Mutation helpers: prove the fuzzer has teeth.

A conformance harness that never fires might be vacuous.  The mutation
smoke test (tests/test_conformance.py) plants a deliberate bug with
:func:`planted_exchange_off_by_one` and asserts the fuzzer (a) detects it
within a bounded budget, (b) shrinks the failure to a handful of tuples,
and (c) produces a corpus entry that replays red while the bug is in place
and green once it is reverted.

The planted bug is the classic off-by-one: one server's outbox loses its
final message in every exchange round (``range(len(xs) - 1)`` written where
``range(len(xs))`` was meant).  The RAM oracle never touches the cluster,
so every distributed algorithm drifts from it as soon as real data moves.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate
from typing import Iterator, List

from ..mpc.cluster import ClusterView
from ..mpc.faults import FaultInjector

__all__ = [
    "planted_exchange_off_by_one",
    "planted_drop_blackhole",
]


@contextmanager
def planted_exchange_off_by_one() -> Iterator[None]:
    """Monkeypatch :meth:`ClusterView.exchange` with an off-by-one bug.

    While active, the last non-empty outbox of every exchange silently
    drops its final message before delivery.  Metering and tracing are
    untouched — only correctness breaks, which is exactly what the
    differential oracle must catch.
    """
    original = ClusterView.exchange

    def buggy_exchange(self, outboxes, *, op="exchange"):
        clipped = [list(outbox) for outbox in outboxes]
        for outbox in reversed(clipped):
            if outbox:
                del outbox[-1]  # the planted off-by-one
                break
        return original(self, clipped, op=op)

    ClusterView.exchange = buggy_exchange
    try:
        yield
    finally:
        ClusterView.exchange = original


@contextmanager
def planted_drop_blackhole() -> Iterator[None]:
    """Monkeypatch the exchanges so a dropped delivery is never retransmitted.

    While active, whenever a ``drop`` fault fires in an exchange the
    faulted server's inbox — on the batch path, its range of delivered
    rows — is emptied *after* metering, so every meter still claims a
    successful recovery while the algorithm silently computes on lost
    data.  Fault-free runs are untouched — only the chaos tier (``repro
    fuzz --chaos`` / the ``chaos`` invariant) can catch this bug, which is
    exactly what the chaos mutation smoke test asserts.
    """
    deliver = FaultInjector.deliver
    exchange, exchange_batches = ClusterView.exchange, ClusterView.exchange_batches
    dropped: List[int] = []  # servers a drop fired at in the last delivery

    def recording_deliver(self, view, round_index, counts):
        before = len(self.fired)
        extra = deliver(self, view, round_index, counts)
        dropped.extend(f.server for f in self.fired[before:] if f.kind == "drop")
        return extra

    def buggy_exchange(self, outboxes, *, op="exchange"):
        dropped.clear()
        inboxes = exchange(self, outboxes, op=op)
        for server in dropped:
            inboxes[server].clear()
        return inboxes

    def buggy_exchange_batches(self, dests, batch, *, op="exchange"):
        from ..backends.dispatch import np

        dropped.clear()
        delivered, cuts = exchange_batches(self, dests, batch, op=op)
        if not dropped:
            return delivered, cuts
        sizes = [high - low for low, high in zip(cuts, cuts[1:])]
        keep = np.ones(delivered.size, dtype=bool)
        for server in dropped:
            keep[cuts[server]:cuts[server + 1]] = False
            sizes[server] = 0
        return delivered.take(np.flatnonzero(keep)), [0, *accumulate(sizes)]

    FaultInjector.deliver = recording_deliver
    ClusterView.exchange = buggy_exchange
    ClusterView.exchange_batches = buggy_exchange_batches
    try:
        yield
    finally:
        FaultInjector.deliver = deliver
        ClusterView.exchange = exchange
        ClusterView.exchange_batches = exchange_batches
