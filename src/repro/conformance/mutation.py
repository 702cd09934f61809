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
from typing import Iterator

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
    """Monkeypatch drop-fault recovery into a silent blackhole.

    While active, whenever a ``drop`` fault fires the retransmission never
    arrives: the faulted server's inbox is emptied *after* metering, so
    every meter still claims a successful recovery while the algorithm
    silently computes on lost data.  Fault-free runs are untouched — only
    the chaos tier (``repro fuzz --chaos`` / the ``chaos`` invariant) can
    catch this bug, which is exactly what the chaos mutation smoke test
    asserts.
    """
    original = FaultInjector.deliver

    def buggy_deliver(self, view, round_index, counts, op, payloads=None):
        fired_before = len(self.fired)
        next_round = original(self, view, round_index, counts, op, payloads)
        if payloads is not None:
            for fault in self.fired[fired_before:]:
                if fault.kind == "drop":
                    payloads[fault.server].clear()
        return next_round

    FaultInjector.deliver = buggy_deliver
    try:
        yield
    finally:
        FaultInjector.deliver = original
