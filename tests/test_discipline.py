"""Semiring-MPC-model discipline (§1.3): algorithms may only combine
annotations through the semiring's ⊕/⊗.

Every algorithm is run over :class:`~repro.testing.OpaqueSemiring`, whose
elements raise on any arithmetic, ordering, or truth-testing performed
outside the semiring object.  A pass proves the implementation creates new
semiring values exclusively by adding/multiplying existing ones — the
precondition of the paper's lower bounds.
"""

import random
import zlib

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.conformance import QUERY_FAMILIES, SKEW_PROFILES, FuzzCase, FuzzConfig
from repro.conformance.generators import random_query, random_skeleton
from repro.conformance.invariants import check_opaque_discipline
from repro.core.executor import applicable_algorithms
from repro.data import Instance, Relation
from repro.ram import evaluate
from repro.testing import OpaqueSemiring
from tests.conftest import (
    GENERAL_TREE_QUERY,
    LINE3_QUERY,
    MATMUL_QUERY,
    STAR3_QUERY,
    TWIG_QUERY,
)

ALL_QUERIES = [MATMUL_QUERY, LINE3_QUERY, STAR3_QUERY, TWIG_QUERY, GENERAL_TREE_QUERY]


def _opaque_instance(query, seed, tuples=28, domain=5):
    semiring, counters = OpaqueSemiring.make()
    rng = random.Random(seed)
    relations = {}
    for name, attrs in query.relations:
        relation = Relation(name, attrs)
        seen = set()
        attempts = 0
        while len(seen) < tuples and attempts < 60 * tuples:
            attempts += 1
            entry = (rng.randrange(domain), rng.randrange(domain))
            if entry not in seen:
                seen.add(entry)
                relation.add(entry, OpaqueSemiring.wrap(rng.randint(1, 4)))
        relations[name] = relation
    return Instance(query, relations, semiring), counters


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.classify())
@pytest.mark.parametrize("algorithm", ["auto", "yannakakis"])
def test_algorithms_respect_the_semiring_model(query, algorithm):
    instance, counters = _opaque_instance(query, seed=11)
    result = run_query(instance, ExecutionConfig(p=6, algorithm=algorithm))
    # Cross-check values against a plain-integer rerun of the oracle.
    plain = {
        key: OpaqueSemiring.unwrap(value)
        for key, value in evaluate(instance).tuples.items()
    }
    got = {
        key: OpaqueSemiring.unwrap(value)
        for key, value in result.relation.tuples.items()
    }
    assert got == plain
    # The algorithm actually used the semiring (for non-empty results).
    if plain:
        assert counters["mul"] > 0


@pytest.mark.parametrize("family", QUERY_FAMILIES)
@pytest.mark.parametrize("skew", SKEW_PROFILES)
def test_every_registry_algorithm_respects_the_semiring_model(family, skew):
    """§1.3 discipline for EVERY algorithm the registry dispatches to the
    query class — line, star, star-like and tree included, not just the
    matmul path — on conformance-generated instances of every skew."""
    rng = random.Random(zlib.crc32(f"{family}/{skew}".encode()))
    query = random_query(rng, family)
    skeleton = random_skeleton(rng, query, tuples=10, domain=4, skew=skew)
    case = FuzzCase(
        query=query,
        skeleton=skeleton,
        profile="opaque",
        family=family,
        skew=skew,
        seed=0,
    )
    # Exercises every applicable registry algorithm over OpaqueSemiring and
    # cross-checks values against the counting oracle.
    check_opaque_discipline(case, FuzzConfig(p=5))
    # Sanity: the specialized algorithm for this family really was covered.
    covered = applicable_algorithms(query)
    assert set(covered) >= {"yannakakis", "tree"}
    if family in ("star", "matmul"):
        assert "star" in covered
    if family in ("matmul", "line"):
        assert "line" in covered
    if family != "tree":
        assert "star-like" in covered


def test_opaque_elements_reject_foreign_arithmetic():
    a = OpaqueSemiring.wrap(3)
    b = OpaqueSemiring.wrap(4)
    with pytest.raises(TypeError):
        _ = a + b
    with pytest.raises(TypeError):
        _ = a * b
    with pytest.raises(TypeError):
        _ = a < b
    with pytest.raises(TypeError):
        bool(a)
    assert a == OpaqueSemiring.wrap(3)


def test_compare_algorithms_helper():
    """Every applicable algorithm, cross-checked against the oracle by
    ``validate=True``, over the opaque semiring."""
    instance, _counters = _opaque_instance(MATMUL_QUERY, seed=3)
    reports = {
        algorithm: run_query(
            instance, ExecutionConfig(p=4, algorithm=algorithm, validate=True)
        ).report
        for algorithm in applicable_algorithms(instance.query)
    }
    assert {"yannakakis", "line", "star"} <= set(reports)
    assert all(report.max_load >= 0 for report in reports.values())


def test_compare_algorithms_detects_disagreement():
    # A deliberately wrong "algorithm" name raises cleanly instead of
    # silently passing.
    instance, _counters = _opaque_instance(STAR3_QUERY, seed=5)
    with pytest.raises(ValueError):
        run_query(instance, ExecutionConfig(p=4, algorithm="line", validate=True))
