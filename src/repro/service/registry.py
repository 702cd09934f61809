"""Named instance registry with content digests.

The service operates on *registered* instances: clients upload data once
(``POST /instances``) and refer to it by name afterwards, so query
requests stay small and the server can reuse per-instance state — the
result cache and the planner's statistics catalog — across requests.

Every registration computes the instance's content digest
(:func:`~repro.service.cache.instance_digest`); re-registering a name
with different data yields a different digest, which is the cache- and
statistics-invalidation signal.  The entry keeps the digest's
per-relation state, so a delta moves it in O(|Δ|).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..data.query import Instance
from ..errors import ReproError
from .cache import RowSums, instance_digest, row_sums

__all__ = ["UnknownInstanceError", "RegisteredInstance", "InstanceRegistry"]


class UnknownInstanceError(ReproError, KeyError):
    """A request named an instance that is not registered (HTTP 404)."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no registered instance named {name!r}")
        self.name = name

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass(frozen=True)
class RegisteredInstance:
    """One named instance plus its derived identity."""

    name: str
    instance: Instance
    #: Content digest — the cache/statistics key component.
    digest: str
    #: How many times this name has been (re-)registered.
    generation: int
    #: The digest's per-relation state (never mutated in place).
    sums: RowSums

    def describe(self) -> Dict[str, object]:
        """A JSON-able summary (no tuple data)."""
        query = self.instance.query
        return {
            "name": self.name,
            "digest": self.digest,
            "generation": self.generation,
            "semiring": self.instance.semiring.name,
            "query_class": query.classify(),
            "relations": {
                rel_name: len(self.instance.relation(rel_name))
                for rel_name, _ in query.relations
            },
            "total_tuples": self.instance.total_size,
            "output": sorted(query.output),
        }


class InstanceRegistry:
    """Thread-safe name → :class:`RegisteredInstance` map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instances: Dict[str, RegisteredInstance] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._instances)

    def register(self, name: str, instance: Instance) -> RegisteredInstance:
        """Register (or replace) ``name``; returns the new entry.

        Use :meth:`replace` when the digest the name pointed at before is
        needed for invalidation.
        """
        return self.replace(name, instance)[0]

    def replace(
        self, name: str, instance: Instance, sums: Optional[RowSums] = None
    ) -> "tuple[RegisteredInstance, Optional[str]]":
        """Register ``name``, returning ``(entry, old_digest)`` where
        ``old_digest`` is the digest the name previously pointed at (None
        for a first registration, or when the data is unchanged).
        ``sums`` is the digest state of ``instance`` when the caller holds
        it already (the delta path moved it); otherwise it is recomputed."""
        if sums is None:
            sums = row_sums(instance)
        digest = instance_digest(instance, sums)
        with self._lock:
            previous = self._instances.get(name)
            generation = previous.generation + 1 if previous else 1
            entry = RegisteredInstance(
                name=name, instance=instance, digest=digest,
                generation=generation, sums=sums,
            )
            self._instances[name] = entry
            old_digest = None
            if previous is not None and previous.digest != digest:
                old_digest = previous.digest
            return entry, old_digest

    def get(self, name: str) -> RegisteredInstance:
        with self._lock:
            entry = self._instances.get(name)
        if entry is None:
            raise UnknownInstanceError(name)
        return entry

    def drop(self, name: str) -> RegisteredInstance:
        """Unregister ``name``; returns the dropped entry (for cache
        invalidation)."""
        with self._lock:
            entry = self._instances.pop(name, None)
        if entry is None:
            raise UnknownInstanceError(name)
        return entry

    def list(self) -> List[Dict[str, object]]:
        """Summaries of every registered instance, sorted by name."""
        with self._lock:
            entries = sorted(self._instances.values(), key=lambda e: e.name)
        return [entry.describe() for entry in entries]

    def digests(self) -> Dict[str, str]:
        with self._lock:
            return {name: entry.digest for name, entry in self._instances.items()}
