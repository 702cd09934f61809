"""The service's one store: name → an immutable :class:`RegisteredInstance`.

The service operates on *registered* instances: clients upload data once
(``POST /instances``) and refer to it by name afterwards.  Everything the
service derives from a name's data lives on its entry: the content digest
(:func:`~repro.service.cache.instance_digest`, the result-cache key
component) with its per-relation state, so a delta moves it in O(|Δ|); the
generation; the materialized views over it; and the planner's statistics,
collected on first use.

One writer per name.  Register, drop, a delta, view create and view drop
each hold the name's :meth:`InstanceRegistry.writer` lock from reading the
entry to swapping in its successor, and an entry is replaced whole, never
edited.  A reader that holds an entry therefore sees one committed state.
The views are the one mutable part: a delta applies to them in place under
the name's lock, and :meth:`InstanceRegistry.view` hands a view to readers
under the same lock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..data.query import Instance
from ..errors import ConfigError, ReproError
from ..ivm import MaterializedView
from ..planner.stats import QueryStatistics, collect_statistics
from .cache import RowSums, instance_digest, row_sums

__all__ = ["UnknownInstanceError", "UnknownViewError", "RegisteredView",
           "RegisteredInstance", "InstanceRegistry", "successor"]


class _UnknownName(ReproError, KeyError):
    what = "name"

    def __init__(self, name: str) -> None:
        super().__init__(f"no registered {self.what} named {name!r}")
        self.name = name

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class UnknownInstanceError(_UnknownName):
    """A request named an instance that is not registered (HTTP 404)."""

    what = "instance"


class UnknownViewError(_UnknownName):
    """A request named a view that is not registered (HTTP 404)."""

    what = "view"


@dataclass(frozen=True)
class RegisteredView:
    """One named view plus the instance name it maintains."""

    name: str
    instance: str
    view: MaterializedView

    def describe(self) -> Dict[str, object]:
        """A JSON-able summary (no tuple data)."""
        summary = self.view.to_summary()
        summary["name"] = self.name
        summary["instance"] = self.instance
        return summary


@dataclass(frozen=True)
class RegisteredInstance:
    """One named instance plus everything derived from it."""

    name: str
    instance: Instance
    #: Content digest — the cache key component.
    digest: str
    #: How many writes of the data this name has seen: 1 at registration,
    #: one more per re-registration or delta.
    generation: int
    #: The digest's per-relation state (never mutated in place).
    sums: RowSums
    #: The views maintained over this name, by view name.
    views: Mapping[str, RegisteredView] = field(default_factory=dict)
    #: The planner's statistics once collected; entries of one digest
    #: share the list.
    memo: List[QueryStatistics] = field(default_factory=list, repr=False)

    def statistics(self, backend: Optional[str] = None) -> QueryStatistics:
        """The planner's statistics of this content, collected on first use
        (``backend`` runs the collection; the snapshot does not depend on it)."""
        if not self.memo:
            self.memo.append(collect_statistics(self.instance, backend))
        return self.memo[0]

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


def successor(
    name: str,
    instance: Instance,
    previous: Optional[RegisteredInstance] = None,
    sums: Optional[RowSums] = None,
    keep_views: bool = False,
) -> RegisteredInstance:
    """``name``'s entry holding ``instance``, one generation after
    ``previous`` (None: a first registration).

    ``sums`` is the digest state of ``instance`` when the caller holds it
    already (the delta path moved it); otherwise it is recomputed.  The
    statistics carry over when the content is unchanged, and so do the
    views, or always with ``keep_views`` (a delta refreshes them; a
    wholesale replacement is not a delta).
    """
    if sums is None:
        sums = row_sums(instance)
    digest = instance_digest(instance, sums)
    same = previous is not None and previous.digest == digest
    return RegisteredInstance(
        name=name, instance=instance, digest=digest,
        generation=previous.generation + 1 if previous else 1, sums=sums,
        views=previous.views if previous and (same or keep_views) else {},
        memo=previous.memo if same else [],
    )


class InstanceRegistry:
    """Thread-safe name → :class:`RegisteredInstance` store, one writer
    per name."""

    def __init__(self) -> None:
        #: Guards both maps; held for map steps only, never for a write.
        self._lock = threading.Lock()
        self._entries: Dict[str, RegisteredInstance] = {}
        #: name → the lock a write of that name holds throughout; present
        #: while the name is registered or a write of it is in flight.
        self._writers: Dict[str, threading.Lock] = {}

    @contextmanager
    def writer(self, name: str) -> Iterator[None]:
        """Hold the lock every write of ``name`` holds from read to swap.

        A name left unregistered gives its lock up, so names that 404 or
        were dropped hold no memory; a writer that queued on a lock given
        up meanwhile takes the name's current one instead."""
        while True:
            with self._lock:
                lock = self._writers.setdefault(name, threading.Lock())
            lock.acquire()
            with self._lock:
                if self._writers.get(name) is lock:
                    break
            lock.release()
        try:
            yield
        finally:
            with self._lock:
                if name not in self._entries:
                    del self._writers[name]
            lock.release()

    def find(self, name: str) -> Optional[RegisteredInstance]:
        with self._lock:
            return self._entries.get(name)

    def get(self, name: str) -> RegisteredInstance:
        entry = self.find(name)
        if entry is None:
            raise UnknownInstanceError(name)
        return entry

    def swap(self, name: str,
             entry: Optional[RegisteredInstance]) -> Optional[RegisteredInstance]:
        """Install ``entry`` under ``name`` (None: unregister it) and return
        the entry it replaces.  The caller holds :meth:`writer` of ``name``.

        View names are unique across the store: a view name another
        instance maintains is refused (400), and nothing changes.
        """
        with self._lock:
            previous = self._entries.get(name)
            if entry is None:
                del self._entries[name]
                return previous
            for view in sorted(set(entry.views) - set(previous.views if previous else ())):
                owner = self._owner(view)
                if owner is not None:
                    raise ConfigError(
                        f"view {view!r} maintains instance {owner!r}; drop it first")
            self._entries[name] = entry
            return previous

    def _owner(self, view: str) -> Optional[str]:
        """The name whose entry holds view ``view``; the caller holds ``_lock``."""
        return next((name for name, entry in self._entries.items() if view in entry.views),
                    None)

    @contextmanager
    def view(self, name: str) -> Iterator[Tuple[RegisteredInstance, RegisteredView]]:
        """Hold the writer lock of the instance view ``name`` maintains;
        yields that instance's entry and the view."""
        with self._lock:
            owner = self._owner(name)
        if owner is None:
            raise UnknownViewError(name)
        with self.writer(owner):
            entry = self.find(owner)
            if entry is None or name not in entry.views:
                raise UnknownViewError(name)  # dropped while we queued
            yield entry, entry.views[name]

    def entries(self) -> List[RegisteredInstance]:
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.name)

    def list(self) -> List[Dict[str, object]]:
        """Summaries of every registered instance, sorted by name."""
        return [entry.describe() for entry in self.entries()]

    def list_views(self) -> List[Dict[str, object]]:
        """Summaries of every view, sorted by name, each read under its
        instance's writer lock."""
        summaries = []
        for stale in self.entries():
            with self.writer(stale.name):
                entry = self.find(stale.name)
                if entry is not None:
                    summaries.extend(view.describe() for view in entry.views.values())
        return sorted(summaries, key=lambda summary: summary["name"])
