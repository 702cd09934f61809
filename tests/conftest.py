"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.data import Instance, Relation, TreeQuery
from repro.semiring import (
    BOOLEAN,
    COUNTING,
    MAX_MIN,
    TROPICAL_MIN_PLUS,
    Semiring,
)

#: (semiring, weight sampler) pairs used across algorithm tests: one exact
#: non-idempotent semiring (catches double counting), two idempotent ones.
SEMIRING_SAMPLERS = [
    (COUNTING, lambda rng: rng.randint(1, 5)),
    (TROPICAL_MIN_PLUS, lambda rng: float(rng.randint(0, 20))),
    (BOOLEAN, lambda rng: True),
    (MAX_MIN, lambda rng: float(rng.randint(1, 9))),
]


def random_relation(
    name: str,
    schema,
    tuples: int,
    left_domain: int,
    right_domain: int,
    rng: random.Random,
    semiring: Semiring,
    weight_sampler,
) -> Relation:
    """A random binary relation with distinct tuples."""
    relation = Relation(name, schema)
    seen = set()
    attempts = 0
    limit = min(tuples, left_domain * right_domain)
    while len(seen) < limit and attempts < 200 * tuples:
        attempts += 1
        entry = (rng.randrange(left_domain), rng.randrange(right_domain))
        if entry not in seen:
            seen.add(entry)
            relation.add(entry, weight_sampler(rng))
    return relation


def random_instance(
    query: TreeQuery,
    tuples: int,
    domain: int,
    rng: random.Random,
    semiring: Semiring,
    weight_sampler,
) -> Instance:
    """Random instance of an arbitrary binary tree query."""
    relations = {
        name: random_relation(
            name, attrs, tuples, domain, domain, rng, semiring, weight_sampler
        )
        for name, attrs in query.relations
    }
    return Instance(query, relations, semiring)


def canonicalize(relation: Relation, schema, semiring: Semiring) -> Relation:
    """Re-key a result relation onto ``schema`` (sorted output order)."""
    result = Relation("canonical", schema)
    for values, weight in relation:
        bound = dict(zip(relation.schema, values))
        result.add(tuple(bound[a] for a in schema), weight, semiring)
    return result


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(params=("pytuple", "columnar"))
def backend(request) -> str:
    """The kernel backend a parametrized module runs under.

    Modules opt in with a one-line autouse fixture requesting ``backend``;
    every test in them then runs twice — once on the reference tuple
    backend and once on the array-native columnar backend — with a single
    test body.
    """
    return request.param


# Common query shapes -----------------------------------------------------------

MATMUL_QUERY = TreeQuery(
    (("R1", ("A", "B")), ("R2", ("B", "C"))), frozenset({"A", "C"})
)

LINE3_QUERY = TreeQuery(
    (("R1", ("A1", "A2")), ("R2", ("A2", "A3")), ("R3", ("A3", "A4"))),
    frozenset({"A1", "A4"}),
)

STAR3_QUERY = TreeQuery(
    (("R1", ("A1", "B")), ("R2", ("A2", "B")), ("R3", ("A3", "B"))),
    frozenset({"A1", "A2", "A3"}),
)

TWIG_QUERY = TreeQuery(
    (
        ("Ra1", ("A1", "B1")),
        ("Ra2", ("A2", "B1")),
        ("Rm", ("B1", "B2")),
        ("Rb1", ("A3", "B2")),
        ("Rb2", ("A4", "B2")),
    ),
    frozenset({"A1", "A2", "A3", "A4"}),
)

GENERAL_TREE_QUERY = TreeQuery(
    (
        ("R1", ("A", "B")),
        ("R2", ("B", "C")),
        ("R3", ("C", "D")),
        ("R4", ("B", "E")),
    ),
    frozenset({"A", "C"}),
)


@pytest.fixture
def shipped(monkeypatch):
    """The annotation dtype of every batch ``ClusterView.exchange_batches``
    ships from here on (None for a code-only batch), in call order."""
    from repro.mpc.cluster import ClusterView

    dtypes = []
    original = ClusterView.exchange_batches

    def recording(self, dests, batch, **kwargs):
        dtypes.append(None if batch.annotations is None else batch.annotations.dtype)
        return original(self, dests, batch, **kwargs)

    monkeypatch.setattr(ClusterView, "exchange_batches", recording)
    return dtypes
