"""Result cache: canonical keys, LRU eviction under a byte budget.

The service promises *bit-identical* responses for warm hits, so the
cache stores the exact serialized response body and keys it by everything
that could change that body:

* the **endpoint**;
* the **instance name** — bodies name the instance they answer, so two
  names registered with the same data never share an entry;
* the **instance digest** — a content hash of the registered data, its
  canonical query form (:func:`canonical_query`) and its semiring
  (:func:`instance_digest`), stable under tuple insertion order and
  independent of any codec interning state, so re-registering the same
  logical data hits and mutating it misses;
* the **config fingerprint** (:func:`config_fingerprint`) — only the
  *semantic* :class:`~repro.config.ExecutionConfig` fields.  Observers
  (``tracer``, ``profiler``) never change answers, reports, or traces, so
  they are excluded; so is ``backend``, which the backend-differential
  battery proves bit-identical by contract — a result computed under
  ``backend="columnar"`` legally serves a ``"pytuple"`` request.

Entries are evicted least-recently-used once the byte budget is
exceeded, and dropped eagerly when their instance is mutated or
unregistered (:meth:`ResultCache.invalidate` of its ``(name, digest)``).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from itertools import chain
from typing import Any, Dict, Iterable, Optional, Tuple

from ..config import ExecutionConfig
from ..data.query import Instance, TreeQuery
from ..data.relation import Relation
from ..io import jsonify

__all__ = [
    "canonical_query",
    "config_fingerprint",
    "RowSums",
    "row_sums",
    "moved_sums",
    "instance_digest",
    "cache_key",
    "ResultCache",
]

#: ``ExecutionConfig`` fields that can change a response body.  Everything
#: else (tracer, profiler, backend, fault_schedule — the service
#: rejects schedules outright) is non-semantic under the library's
#: bit-identity contracts.
SEMANTIC_CONFIG_FIELDS = ("p", "algorithm", "validate")


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


#: The digest's per-relation state: name → (row count, sum of the row
#: hashes mod 2²⁵⁶, whether every key value is an exact ``int`` or ``str``).
RowSums = Dict[str, Tuple[int, int, bool]]

#: What a cache entry is tagged with: its instance's (name, digest).
Tag = Tuple[str, str]

_SUM_MODULUS = 1 << 256
_encode_row = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=repr
).encode


def _row_hash(values: Tuple[Any, ...], annotation: Any) -> int:
    """256-bit BLAKE2b of one row's canonical JSON, as an integer."""
    text = _encode_row([jsonify(v) for v in (*values, annotation)])
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=32).digest(), "big")


def _plain(keys: Iterable[Tuple[Any, ...]]) -> bool:
    """Whether every value in ``keys`` (tuples flattened) is an exact
    ``int`` or ``str``.  Such a key can only equal a key with the same
    canonical text; ``1 == 1.0 == True`` share a dict slot but not JSON."""
    types = set(map(type, chain.from_iterable(keys)))
    if tuple in types:
        nested = [v for v in chain.from_iterable(keys) if type(v) is tuple]
        return types <= {int, str, tuple} and _plain(nested)
    return types <= {int, str}


def _relation_sums(relation: Relation) -> Tuple[int, int, bool]:
    total = sum(_row_hash(values, annotation) for values, annotation in relation)
    return len(relation), total % _SUM_MODULUS, _plain(relation.tuples)


def row_sums(instance: Instance) -> RowSums:
    """The digest state of ``instance``, from scratch: O(N)."""
    return {name: _relation_sums(instance.relation(name))
            for name, _attrs in instance.query.relations}


def moved_sums(sums: RowSums, before: Instance, after: Instance,
               touched: Iterable[Tuple[str, Tuple[Any, ...]]]) -> RowSums:
    """``sums`` (the state of ``before``) advanced to ``after``, which
    differs from it at most on the ``touched`` (relation, key) pairs.

    For each distinct key the row it had leaves the sum and the row it has
    now joins it, which covers deletes, fresh inserts and ⊕-combining
    inserts alike.  A relation with a key that is not plain is re-summed:
    its stored key may spell differently from the equal key the delta names.
    """
    keys: Dict[str, set] = {}
    for name, key in touched:
        keys.setdefault(name, set()).add(key)
    moved = dict(sums)
    for name, relation_keys in keys.items():
        count, total, plain = sums[name]
        if not (plain and _plain(relation_keys)):
            moved[name] = _relation_sums(after.relation(name))
            continue
        old, new = before.relation(name).tuples, after.relation(name).tuples
        for key in relation_keys:
            if key in old:
                count -= 1
                total -= _row_hash(key, old[key])
            if key in new:
                count += 1
                total += _row_hash(key, new[key])
        moved[name] = (count, total % _SUM_MODULUS, True)
    return moved


def instance_digest(instance: Instance, sums: Optional[RowSums] = None) -> str:
    """A content digest of the instance: query shape, semiring name and,
    per relation, the row count and the sum mod 2²⁵⁶ of a 256-bit hash of
    each row's canonical JSON (``sums``; computed here when not passed).

    A sum ignores order and the rows are logical values, never encoded
    columns, so the digest is stable under tuple insertion order and under
    any codec interning order.  Two instances with the same digest produce
    byte-identical responses for the same request, which is what makes it
    a sound cache-key component — against accident, not against a client
    who crafts colliding multisets (docs/service.md).
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(canonical_query(instance.query).encode("utf-8"))
    hasher.update(instance.semiring.name.encode("utf-8"))
    triples = sorted(
        (name, count, f"{total:x}")
        for name, (count, total, _) in (sums or row_sums(instance)).items())
    hasher.update(json.dumps(triples).encode("utf-8"))
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


def cache_key(endpoint: str, name: str, digest: str,
              config: ExecutionConfig) -> str:
    """The full cache key for one request: endpoint × instance name ×
    instance digest × config fingerprint."""
    return "|".join((endpoint, name, digest, config_fingerprint(config)))


class ResultCache:
    """A thread-safe LRU byte-budgeted map from cache keys to response
    bodies.

    ``max_bytes`` bounds the *sum of stored body sizes*; inserting past
    the budget evicts least-recently-used entries first.  A single body
    larger than the whole budget is simply not cached.  Each entry
    remembers its instance's ``(name, digest)`` tag so :meth:`invalidate`
    can drop every response derived from one registration of a mutated or
    unregistered instance in one call.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes < 0:
            from ..errors import ConfigError

            raise ConfigError("cache max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Tag, bytes]]" = OrderedDict()
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

    def put(self, key: str, tag: Tag, body: bytes) -> None:
        """Store ``body`` under ``key`` (tagged with its instance's
        ``(name, digest)``), evicting LRU entries to stay under the byte
        budget."""
        size = len(body)
        if size > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old[1])
            self._entries[key] = (tag, body)
            self._bytes += size
            while self._bytes > self.max_bytes and self._entries:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.evictions += 1

    def invalidate(self, tag: Tag) -> int:
        """Drop every entry tagged ``(name, digest)``; returns how many
        entries were removed."""
        with self._lock:
            doomed = [
                key for key, (entry_tag, _) in self._entries.items()
                if entry_tag == tag
            ]
            for key in doomed:
                _, body = self._entries.pop(key)
                self._bytes -= len(body)
            self.invalidations += len(doomed)
            return len(doomed)

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
