"""Result cache: canonical keys, LRU eviction under a byte budget.

The service promises *bit-identical* responses for warm hits, so the
cache stores the exact serialized response body and keys it by everything
that could change that body:

* the **instance digest** — a content hash of the registered data
  (:func:`instance_digest`), stable under tuple insertion order and
  independent of any codec interning state, so re-registering the same
  logical data hits and mutating it misses;
* the **canonical query form** (:func:`canonical_query`) — relation
  names, schemas, and output attributes in sorted order;
* the **semiring** name;
* the **config fingerprint** (:func:`config_fingerprint`) — only the
  *semantic* :class:`~repro.config.ExecutionConfig` fields.  Observers
  (``tracer``, ``profiler``) never change answers, reports, or traces, so
  they are excluded; so is ``backend``, which the backend-differential
  battery proves bit-identical by contract — a result computed under
  ``backend="columnar"`` legally serves a ``"pytuple"`` request.

Entries are evicted least-recently-used once the byte budget is
exceeded, and dropped eagerly when their instance is mutated or
unregistered (:meth:`ResultCache.invalidate`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..config import ExecutionConfig
from ..data.query import Instance, TreeQuery

__all__ = [
    "canonical_query",
    "canonical_value",
    "config_fingerprint",
    "instance_digest",
    "cache_key",
    "ResultCache",
]

#: ``ExecutionConfig`` fields that can change a response body.  Everything
#: else (tracer, profiler, backend, fault_schedule — the service
#: rejects schedules outright) is non-semantic under the library's
#: bit-identity contracts.
SEMANTIC_CONFIG_FIELDS = ("p", "algorithm", "seed", "validate", "stats_mode")


def canonical_value(value: Any) -> Any:
    """A JSON-able form of an attribute/annotation value with a total
    order-friendly representation (tuples become tagged lists, exactly the
    :mod:`repro.io` convention)."""
    if isinstance(value, tuple):
        return {"__tuple__": [canonical_value(v) for v in value]}
    return value


def canonical_query(query: TreeQuery) -> str:
    """The query's shape as a canonical JSON string: relation (name,
    schema) pairs sorted by name, output attributes sorted."""
    return json.dumps(
        {
            "relations": sorted(
                [name, list(attrs)] for name, attrs in query.relations
            ),
            "output": sorted(query.output),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def instance_digest(instance: Instance) -> str:
    """A content digest of the instance: query shape, semiring name, and
    every relation's tuples in *sorted* order.

    Stable under tuple insertion order (tuples are sorted by their
    canonical JSON encoding before hashing) and under any codec interning
    order (the digest never looks at encoded columns, only at the logical
    values).  Two instances with the same digest produce byte-identical
    responses for the same request, which is what makes the digest a
    sound cache-key component.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(canonical_query(instance.query).encode("utf-8"))
    hasher.update(instance.semiring.name.encode("utf-8"))
    for name, _attrs in sorted(instance.query.relations):
        hasher.update(name.encode("utf-8"))
        rows = [
            json.dumps(
                [canonical_value(v) for v in values] + [canonical_value(w)],
                sort_keys=True,
                separators=(",", ":"),
                default=repr,
            )
            for values, w in instance.relation(name)
        ]
        for row in sorted(rows):
            hasher.update(row.encode("utf-8"))
            hasher.update(b"\n")
    return hasher.hexdigest()


def config_fingerprint(config: ExecutionConfig) -> str:
    """The semantic fields of ``config`` as a canonical JSON string.

    Ignores the observer fields (``tracer``, ``profiler``) and the
    backend knob — none of them can change the response body (the
    backend-differential battery is the proof), so including them would
    only fragment the cache.
    """
    return json.dumps(
        {field: getattr(config, field) for field in SEMANTIC_CONFIG_FIELDS},
        sort_keys=True,
        separators=(",", ":"),
    )


def cache_key(
    endpoint: str,
    digest: str,
    query: TreeQuery,
    semiring_name: str,
    config: ExecutionConfig,
) -> str:
    """The full cache key for one request: endpoint × instance digest ×
    canonical query form × semiring × config fingerprint."""
    return "|".join(
        (
            endpoint,
            digest,
            canonical_query(query),
            semiring_name,
            config_fingerprint(config),
        )
    )


class ResultCache:
    """A thread-safe LRU byte-budgeted map from cache keys to response
    bodies.

    ``max_bytes`` bounds the *sum of stored body sizes*; inserting past
    the budget evicts least-recently-used entries first.  A single body
    larger than the whole budget is simply not cached.  Each entry
    remembers its instance digest so :meth:`invalidate` can drop every
    response derived from a mutated or unregistered instance in one call.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes < 0:
            from ..errors import ConfigError

            raise ConfigError("cache max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[str, bytes]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: str) -> Optional[bytes]:
        """The cached body for ``key`` (refreshing its recency), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: str, digest: str, body: bytes) -> None:
        """Store ``body`` under ``key`` (tagged with its instance digest),
        evicting LRU entries to stay under the byte budget."""
        size = len(body)
        if size > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old[1])
            self._entries[key] = (digest, body)
            self._bytes += size
            while self._bytes > self.max_bytes and self._entries:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.evictions += 1

    def invalidate(self, digest: str) -> int:
        """Drop every entry derived from instance ``digest``; returns how
        many entries were removed."""
        with self._lock:
            doomed = [
                key for key, (entry_digest, _) in self._entries.items()
                if entry_digest == digest
            ]
            for key in doomed:
                _, body = self._entries.pop(key)
                self._bytes -= len(body)
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> Dict[str, int]:
        """A snapshot for ``/metrics`` and tests."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
