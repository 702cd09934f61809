"""Cache-key canonicalization and the LRU byte-budget cache.

The service's warm-hit bit-identity promise rests on the cache key being
a *pure function of the request's semantics*:

* :func:`~repro.service.instance_digest` must not change when the same
  logical data arrives in a different tuple insertion order, and must not
  read any codec interning state (running the columnar backend — which
  interns every value into per-cluster codecs — leaves it untouched);
* :func:`~repro.service.config_fingerprint` must ignore the non-semantic
  :class:`~repro.config.ExecutionConfig` fields: observers (``tracer``,
  ``profiler``) and the ``backend`` knob, which the backend-differential
  battery proves cannot change a response body.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.config import ExecutionConfig
from repro.data.query import Instance
from repro.data.relation import Relation
from repro.obs import Profiler, RingBufferSink, Tracer
from repro.service import (
    ResultCache,
    cache_key,
    canonical_query,
    config_fingerprint,
    instance_digest,
)
from repro.workloads import planted_out_matmul, star_instance


def _reordered(instance: Instance, reverse: bool = True) -> Instance:
    """The same logical instance with every relation's tuples re-inserted
    in reversed order (a different dict insertion order throughout)."""
    relations = {}
    for name, relation in instance.relations.items():
        rows = list(relation)
        if reverse:
            rows.reverse()
        relations[name] = Relation(name, relation.schema, rows)
    return Instance(instance.query, relations, instance.semiring)


# -- instance digest ---------------------------------------------------------


def test_digest_stable_under_tuple_insertion_order():
    instance = planted_out_matmul(n=30, out=60)
    assert instance_digest(instance) == instance_digest(_reordered(instance))


def test_digest_stable_across_query_shapes():
    star = star_instance(3, 40, 40, 5, seed=1)
    assert instance_digest(star) == instance_digest(_reordered(star))


def test_digest_changes_with_data():
    instance = planted_out_matmul(n=30, out=60)
    other = planted_out_matmul(n=30, out=90)
    assert instance_digest(instance) != instance_digest(other)


def test_digest_changes_with_semiring():
    from repro.semiring.standard import BOOLEAN, COUNTING

    instance = planted_out_matmul(n=10, out=20)
    relations = {name: rel for name, rel in instance.relations.items()}
    boolean = Instance(
        instance.query,
        {
            name: Relation(name, rel.schema,
                           [(values, True) for values, _ in rel])
            for name, rel in relations.items()
        },
        BOOLEAN,
    )
    assert instance.semiring is COUNTING
    assert instance_digest(instance) != instance_digest(boolean)


def test_digest_ignores_codec_interning_order():
    """Executing on the columnar backend interns every attribute value
    into per-cluster codecs; the digest reads only logical values, so it
    is byte-identical before and after — and identical to the digest of a
    copy that was never executed at all."""
    instance = planted_out_matmul(n=25, out=50)
    twin = _reordered(instance, reverse=False)
    before = instance_digest(instance)
    api.run_query(instance, ExecutionConfig(p=4, backend="columnar"))
    assert instance_digest(instance) == before
    assert instance_digest(twin) == before


# -- config fingerprint ------------------------------------------------------


def test_fingerprint_ignores_observers_and_execution_mode():
    base = ExecutionConfig(p=4)
    observed = ExecutionConfig(
        p=4,
        tracer=Tracer([RingBufferSink()]),
        profiler=Profiler(),
    )
    assert config_fingerprint(base) == config_fingerprint(observed)


def test_fingerprint_ignores_backend():
    assert config_fingerprint(ExecutionConfig(p=4, backend="columnar")) == \
        config_fingerprint(ExecutionConfig(p=4, backend="pytuple"))


@pytest.mark.parametrize("kwargs", [
    {"p": 5},
    {"algorithm": "yannakakis"},
    {"algorithm": "matmul"},
    {"validate": True},
])
def test_fingerprint_tracks_every_semantic_field(kwargs):
    assert config_fingerprint(ExecutionConfig(**kwargs)) != \
        config_fingerprint(ExecutionConfig())


def test_cache_key_separates_endpoints_and_instances():
    instance = planted_out_matmul(n=10, out=20)
    config = ExecutionConfig(p=4)
    digest = instance_digest(instance)
    query_key = cache_key("query", digest, instance.query,
                          instance.semiring.name, config)
    compare_key = cache_key("compare", digest, instance.query,
                            instance.semiring.name, config)
    other_key = cache_key("query", "f" * 32, instance.query,
                          instance.semiring.name, config)
    assert len({query_key, compare_key, other_key}) == 3


def test_canonical_query_sorts_relations_and_output():
    instance = star_instance(3, 20, 20, 4, seed=0)
    text = canonical_query(instance.query)
    names = [name for name, _ in instance.query.relations]
    assert text == canonical_query(instance.query)  # deterministic
    for name in names:
        assert name in text


# -- the LRU byte-budget cache -----------------------------------------------


def test_cache_round_trip_and_counters():
    cache = ResultCache(max_bytes=1024)
    assert cache.get("k") is None
    cache.put("k", "d1", b"body")
    assert cache.get("k") == b"body"
    stats = cache.stats()
    assert stats == {
        "entries": 1, "bytes": 4, "hits": 1, "misses": 1,
        "evictions": 0, "invalidations": 0,
    }


def test_cache_evicts_least_recently_used_under_byte_budget():
    cache = ResultCache(max_bytes=10)
    cache.put("a", "d", b"aaaa")
    cache.put("b", "d", b"bbbb")
    assert cache.get("a") == b"aaaa"  # refresh a: b is now the LRU entry
    cache.put("c", "d", b"cccc")      # 12 bytes > 10: evict b
    assert cache.get("b") is None
    assert cache.get("a") == b"aaaa"
    assert cache.get("c") == b"cccc"
    assert cache.stats()["evictions"] == 1
    assert cache.current_bytes <= 10


def test_cache_skips_bodies_larger_than_the_whole_budget():
    cache = ResultCache(max_bytes=4)
    cache.put("huge", "d", b"x" * 100)
    assert len(cache) == 0
    assert cache.get("huge") is None


def test_cache_replaces_in_place_without_double_counting():
    cache = ResultCache(max_bytes=100)
    cache.put("k", "d", b"x" * 40)
    cache.put("k", "d", b"y" * 60)
    assert cache.current_bytes == 60
    assert cache.get("k") == b"y" * 60


def test_cache_invalidates_every_entry_of_a_digest():
    cache = ResultCache(max_bytes=1024)
    cache.put("q1", "digest-a", b"1")
    cache.put("q2", "digest-a", b"2")
    cache.put("q3", "digest-b", b"3")
    assert cache.invalidate("digest-a") == 2
    assert cache.get("q1") is None and cache.get("q2") is None
    assert cache.get("q3") == b"3"
    assert cache.stats()["invalidations"] == 2


def test_cache_zero_budget_disables_storage():
    cache = ResultCache(max_bytes=0)
    cache.put("k", "d", b"")
    # an empty body fits a zero budget; anything real does not
    cache.put("k2", "d", b"body")
    assert cache.get("k2") is None


# -- the digest moved by deltas ------------------------------------------------


def _random_batch(rng, instance: Instance):
    """One batch mixing the cases a (relation, key) can go through: fresh
    insert, ⊕-combining insert, delete, delete-then-reinsert in one batch,
    and the same key twice in one batch."""
    from repro.ivm import DeltaBatch, delete, insert

    changes = []
    for name, _attrs in instance.query.relations:
        present = list(instance.relation(name).tuples)
        fresh = (rng.randrange(10**6, 10**7), rng.randrange(5))
        for kind in rng.sample(["fresh", "combine", "delete", "reinsert", "twice"],
                               rng.randrange(1, 4)):
            if kind == "fresh":
                changes.append(insert(name, fresh, rng.randrange(1, 9)))
            elif kind == "twice":
                changes += [insert(name, fresh, 1), insert(name, fresh, 2)]
            elif not present:
                continue
            else:
                key = present.pop(rng.randrange(len(present)))
                if kind != "combine":
                    changes.append(delete(name, key))
                if kind != "delete":
                    # 0 keeps a combined annotation, so the row is unchanged
                    changes.append(insert(name, key, rng.randrange(0, 9)))
    rng.shuffle(changes)
    return DeltaBatch(changes)


@pytest.mark.parametrize("seed", range(8))
def test_moved_digest_equals_the_from_scratch_digest_at_every_step(seed):
    import random

    from repro.ivm import mutate_instance
    from repro.service.cache import moved_sums, row_sums
    from repro.workloads import zipf_matmul

    rng = random.Random(seed)
    instance = (planted_out_matmul(n=12, out=24) if seed % 2
                else zipf_matmul(20, 20, 5, seed=seed))
    sums = row_sums(instance)
    for _ in range(12):
        batch = _random_batch(rng, instance)
        mutated = mutate_instance(instance, batch)
        sums = moved_sums(sums, instance, mutated,
                          [(change.relation, change.values) for change in batch])
        assert sums == row_sums(mutated)
        assert instance_digest(mutated, sums) == instance_digest(mutated)
        instance = mutated


def test_moved_digest_survives_keys_that_are_equal_but_spell_differently():
    """``(1, 2) == (1.0, True)`` share a dict slot; the stored spelling is
    what responses print, so it is what the digest must keep hashing."""
    from repro.ivm import DeltaBatch, delete, insert, mutate_instance
    from repro.service.cache import moved_sums, row_sums
    from repro.workloads import zipf_matmul

    instance = zipf_matmul(10, 10, 3, seed=1)
    key = next(iter(instance.relation("R1").tuples))
    alias = tuple(float(v) for v in key)
    sums = row_sums(instance)
    for batch in (
        DeltaBatch((insert("R1", alias, 4),)),                       # combines
        DeltaBatch((delete("R1", alias), insert("R1", alias, 1))),   # respells
        DeltaBatch((insert("R1", key, 2),)),                         # plain again
    ):
        mutated = mutate_instance(instance, batch)
        sums = moved_sums(sums, instance, mutated,
                          [(change.relation, change.values) for change in batch])
        assert instance_digest(mutated, sums) == instance_digest(mutated)
        instance = mutated
