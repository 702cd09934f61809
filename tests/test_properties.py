"""Property-based integration tests: for *random* tree queries and random
instances, every MPC algorithm must agree with the sequential oracle.

This is the suite's strongest invariant: it draws the query shape, the
output attributes, the data, and the cluster size, and checks
``run_query(auto) == run_query(yannakakis) == evaluate`` exactly —
annotations included — over both an exact and an idempotent semiring.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_query
from repro.config import ExecutionConfig
from repro.data import Instance, Relation, TreeQuery
from repro.ram import evaluate
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def tree_queries(draw, max_attrs=6):
    """A uniformly random attribute tree with a random output set."""
    m = draw(st.integers(min_value=2, max_value=max_attrs))
    attrs = [f"X{i}" for i in range(m)]
    relations = []
    for i in range(1, m):
        parent = attrs[draw(st.integers(min_value=0, max_value=i - 1))]
        relations.append((f"R{i}", (parent, attrs[i])))
    subset = draw(
        st.sets(st.sampled_from(attrs), min_size=0, max_size=m)
    )
    return TreeQuery(tuple(relations), frozenset(subset))


def _random_instance(query, seed, semiring, weight_fn, tuples=14, domain=4):
    rng = random.Random(seed)
    relations = {}
    for name, attrs in query.relations:
        relation = Relation(name, attrs)
        seen = set()
        attempts = 0
        while len(seen) < tuples and attempts < 40 * tuples:
            attempts += 1
            entry = (rng.randrange(domain), rng.randrange(domain))
            if entry not in seen:
                seen.add(entry)
                relation.add(entry, weight_fn(rng))
        relations[name] = relation
    return Instance(query, relations, semiring)


@SETTINGS
@given(tree_queries(), st.integers(0, 10_000), st.sampled_from([1, 3, 8]))
def test_auto_matches_oracle_counting(query, seed, p):
    instance = _random_instance(
        query, seed, COUNTING, lambda rng: rng.randint(1, 4)
    )
    want = evaluate(instance)
    result = run_query(instance, ExecutionConfig(p=p))
    assert result.relation.tuples == want.tuples


@SETTINGS
@given(tree_queries(), st.integers(0, 10_000), st.sampled_from([2, 5]))
def test_auto_matches_oracle_tropical(query, seed, p):
    instance = _random_instance(
        query, seed, TROPICAL_MIN_PLUS, lambda rng: float(rng.randint(0, 9))
    )
    want = evaluate(instance)
    result = run_query(instance, ExecutionConfig(p=p))
    assert result.relation.tuples == want.tuples


@SETTINGS
@given(tree_queries(max_attrs=5), st.integers(0, 10_000))
def test_baseline_matches_oracle(query, seed):
    instance = _random_instance(
        query, seed, COUNTING, lambda rng: rng.randint(1, 3)
    )
    want = evaluate(instance)
    result = run_query(instance, ExecutionConfig(p=4, algorithm="yannakakis"))
    assert result.relation.tuples == want.tuples


@SETTINGS
@given(tree_queries(max_attrs=5), st.integers(0, 10_000))
def test_load_accounting_invariants(query, seed):
    instance = _random_instance(
        query, seed, COUNTING, lambda rng: 1
    )
    result = run_query(instance, ExecutionConfig(p=4))
    report = result.report
    assert report.max_load >= 0
    assert report.total_communication >= report.max_load
    assert report.rounds >= 0
    # The sum of per-round maxima dominates nothing smaller than max_load.
    assert report.max_load <= report.total_communication


@SETTINGS
@given(tree_queries(max_attrs=4), st.integers(0, 10_000))
def test_auto_matches_oracle_polynomial_provenance(query, seed):
    """Provenance polynomials ride through every algorithm unchanged."""
    from repro.semiring import POLYNOMIAL, monomial

    rng = random.Random(seed)
    counter = [0]

    def fresh_variable(_rng):
        counter[0] += 1
        return monomial(f"t{counter[0]}")

    instance = _random_instance(
        query, seed, POLYNOMIAL, lambda r: fresh_variable(r), tuples=8, domain=3
    )
    want = evaluate(instance)
    result = run_query(instance, ExecutionConfig(p=3))
    assert result.relation.tuples == want.tuples
