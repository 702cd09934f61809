"""Checkpointing and retry/replay recovery for injected faults.

The simulator's recovery story mirrors what a synchronous production
cluster would do (the paper's §1.3 model assumes none of this is needed):

* **Checkpointing** — after every delivering round, each server's state
  (everything it has received so far; initial round-0 placement is free,
  matching §1.3) is checkpointed.  The :class:`CheckpointStore` tracks the
  per-server state sizes; a ``checkpoint`` trace event is emitted per
  round when a tracer is attached.
* **Retry/replay** — when a fault fires, the :class:`RecoveryManager`
  repairs it: dropped messages are retransmitted from the senders' kept
  outboxes (one extra round), duplicated messages are deduplicated by
  sequence number at the receiver (extra received items, no extra round),
  a crashed server is replaced by a spare that restores the last
  checkpoint and replays the failed round (one extra round, restore +
  replay items), and a straggler stalls the whole synchronous round by its
  delay.  Every recovery charge goes to the
  :class:`~repro.mpc.stats.LoadTracker` under the distinct ``recovery``
  tag — the base load ``L`` is never touched.
* **Unrecoverable faults** — a crash with no spare left, a crash with
  checkpointing disabled, or a drop with no retry budget raises
  :class:`~repro.errors.UnrecoverableFaultError` naming the failing
  round, instead of silently corrupting the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import UnrecoverableFaultError

__all__ = ["RecoveryPolicy", "CheckpointStore", "RecoveryManager"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the retry/replay recovery protocol.

    ``spares`` is the number of replacement servers available for crash
    recovery; ``max_retries`` bounds retransmissions of a dropped delivery
    (per fault); ``checkpoint=False`` disables state checkpointing, which
    makes *any* crash unrecoverable (there is nothing to restore).
    """

    spares: int = 2
    max_retries: int = 1
    checkpoint: bool = True


class CheckpointStore:
    """Per-server checkpointed state sizes (items received so far).

    The simulator does not need the state's *contents* to recover — the
    failed round is re-executed from the senders' kept outboxes — but the
    restore cost of a replacement server is exactly the checkpoint size,
    and that is what gets charged under the ``recovery`` tag.
    """

    def __init__(self) -> None:
        self._state_items: Dict[int, int] = {}
        self._last_round: int = -1

    def extend(self, server: int, count: int) -> None:
        """Fold one round's delivery into ``server``'s checkpointed state."""
        if count:
            self._state_items[server] = self._state_items.get(server, 0) + count

    def mark_round(self, round_index: int) -> None:
        if round_index > self._last_round:
            self._last_round = round_index

    def state_size(self, server: int) -> int:
        """Items in ``server``'s last checkpoint (its restore cost)."""
        return self._state_items.get(server, 0)

    @property
    def last_round(self) -> int:
        """Most recent checkpointed round (-1 before any delivery)."""
        return self._last_round

    @property
    def total_items(self) -> int:
        return sum(self._state_items.values())


class RecoveryManager:
    """Executes the recovery protocol for one cluster run.

    Single-use and deterministic: the same fault hitting the same run
    state always produces the same charges, which is what makes chaos
    traces byte-identical across replays.
    """

    def __init__(self, policy: RecoveryPolicy) -> None:
        self.policy = policy
        self.checkpoints: Optional[CheckpointStore] = (
            CheckpointStore() if policy.checkpoint else None
        )
        self.spares_left = policy.spares
        #: (kind, round, server, items, extra_rounds) per recovered fault.
        self.recoveries: list = []

    # -- per-round checkpointing ------------------------------------------------

    def checkpoint_round(self, view: Any, round_index: int,
                         counts: Tuple[int, ...]) -> None:
        """Checkpoint every server's state after a delivering round."""
        store = self.checkpoints
        if store is None:
            return
        for server, count in enumerate(counts):
            store.extend(server, count)
        store.mark_round(round_index)
        tracer = view.tracker.tracer
        if tracer is not None and tracer.active:
            tracer.emit(
                "checkpoint",
                round_index,
                view.servers,
                (),
                view.tracker.phase_path(),
                detail={"state_items": store.total_items},
            )

    # -- fault handling ----------------------------------------------------------

    def recover(self, fault: Any, view: Any, round_index: int, server: int,
                count: int) -> int:
        """Repair one fired fault; returns the extra rounds it consumed.

        ``count`` is the number of items the faulted ``server`` was due to
        receive in this round.  Charges go through the tracker's recovery
        meters; raises :class:`UnrecoverableFaultError` when the policy
        cannot repair the fault.
        """
        tracker = view.tracker
        kind = fault.kind

        if kind == "straggler":
            extra = max(1, fault.delay)
            tracker.add_recovery_rounds(extra)
            self._emit(view, "recovery", round_index, fault,
                       items=0, extra_rounds=extra)
            self.recoveries.append((kind, round_index, server, 0, extra))
            return extra

        if kind == "duplicate":
            # The duplicate copy arrives and is discarded by sequence-number
            # dedup: extra received items, no extra round.
            tracker.record_recovery_receive(round_index, server, count)
            self._emit(view, "recovery", round_index, fault,
                       items=count, extra_rounds=0)
            self.recoveries.append((kind, round_index, server, count, 0))
            return 0

        if kind == "drop":
            if self.policy.max_retries < 1:
                raise UnrecoverableFaultError(
                    f"messages to server {server} dropped at round "
                    f"{round_index} and the recovery policy allows no "
                    f"retries",
                    kind=kind, round_index=round_index, server=server,
                )
            # Senders keep their outboxes until the round is acknowledged;
            # the retransmission occupies the next round.
            tracker.record_recovery_receive(round_index + 1, server, count)
            tracker.add_recovery_rounds(1)
            self._emit(view, "recovery", round_index, fault,
                       items=count, extra_rounds=1)
            self.recoveries.append((kind, round_index, server, count, 1))
            return 1

        if kind == "crash":
            if self.checkpoints is None:
                raise UnrecoverableFaultError(
                    f"server {server} crashed at round {round_index} with "
                    f"checkpointing disabled: nothing to restore",
                    kind=kind, round_index=round_index, server=server,
                )
            if self.spares_left < 1:
                raise UnrecoverableFaultError(
                    f"server {server} crashed at round {round_index} with no "
                    f"spare server left",
                    kind=kind, round_index=round_index, server=server,
                )
            self.spares_left -= 1
            # The spare assumes the crashed server's identity: it restores
            # the last checkpoint and the senders replay the failed round.
            items = self.checkpoints.state_size(server) + count
            tracker.record_recovery_receive(round_index + 1, server, items)
            tracker.add_recovery_rounds(1)
            self._emit(view, "recovery", round_index, fault,
                       items=items, extra_rounds=1)
            self.recoveries.append((kind, round_index, server, items, 1))
            return 1

        raise ValueError(f"unknown fault kind {kind!r}")

    def _emit(self, view: Any, op: str, round_index: int, fault: Any, *,
              items: int, extra_rounds: int) -> None:
        tracer = view.tracker.tracer
        if tracer is None or not tracer.active:
            return
        tracer.emit(
            op,
            round_index,
            view.servers,
            (),
            view.tracker.phase_path(),
            detail={
                "kind": fault.kind,
                "server": fault.server,
                "items": items,
                "extra_rounds": extra_rounds,
            },
        )
