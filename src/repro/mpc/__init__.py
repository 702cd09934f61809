"""Simulated Massively Parallel Computation substrate (paper §1.3).

Beyond the failure-free model, the substrate supports deterministic fault
injection with checkpoint/replay recovery (:mod:`repro.mpc.faults`):
crashes, drops, duplicates and stragglers fire at seeded ``(round,
server)`` coordinates on either backend, answers survive every
recoverable schedule, and the repair cost is metered separately under the
``recovery`` tag of :class:`CostReport`.

A round always executes sequentially in the calling process: the model's
cost is the metered load ``L``, which does not depend on how the host
schedules a round's local work.
"""

from ..errors import FaultError, MPCError, RoutingError, UnrecoverableFaultError
from .cluster import ClusterView, MPCCluster
from .distributed import Distributed
from .faults import FAULT_KINDS, Fault, FaultInjector, FaultSchedule
from .hashing import hash_to_bucket, hash_to_unit, stable_hash
from .stats import CostReport, LoadTracker

__all__ = [
    "MPCCluster",
    "ClusterView",
    "Distributed",
    "LoadTracker",
    "CostReport",
    "MPCError",
    "RoutingError",
    "FaultError",
    "UnrecoverableFaultError",
    "FAULT_KINDS",
    "Fault",
    "FaultSchedule",
    "FaultInjector",
    "stable_hash",
    "hash_to_unit",
    "hash_to_bucket",
]
