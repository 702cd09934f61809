"""Semiring axioms and behaviour (paper §1.1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExecutionConfig
from repro.semiring import (
    BOOLEAN,
    COUNTING,
    IDEMPOTENT_SEMIRINGS,
    LINEAGE,
    MAX_MIN,
    MAX_TIMES,
    POLYNOMIAL,
    REAL,
    STANDARD_SEMIRINGS,
    TROPICAL_MAX_PLUS,
    TROPICAL_MIN_PLUS,
    WHY_PROVENANCE,
    Semiring,
    SemiringError,
    monomial,
)


@pytest.mark.parametrize("semiring", STANDARD_SEMIRINGS, ids=lambda s: s.name)
def test_standard_axioms_on_int_samples(semiring):
    if semiring is BOOLEAN:
        sample = [True, False]
    else:
        sample = [0.0, 1.0, 2.0, 3.0, 5.0]
    semiring.check_axioms(sample)


def test_idempotent_flags():
    assert BOOLEAN.idempotent_add
    assert TROPICAL_MIN_PLUS.idempotent_add
    assert TROPICAL_MAX_PLUS.idempotent_add
    assert MAX_MIN.idempotent_add
    assert not COUNTING.idempotent_add
    assert not REAL.idempotent_add
    assert all(s.idempotent_add for s in IDEMPOTENT_SEMIRINGS)


def test_sum_and_product_helpers():
    assert COUNTING.sum([1, 2, 3]) == 6
    assert COUNTING.sum([]) == 0
    assert COUNTING.product([2, 3, 4]) == 24
    assert COUNTING.product([]) == 1
    assert TROPICAL_MIN_PLUS.sum([3.0, 1.0, 2.0]) == 1.0
    assert TROPICAL_MIN_PLUS.sum([]) == math.inf
    assert TROPICAL_MIN_PLUS.product([3.0, 1.0]) == 4.0
    assert BOOLEAN.sum([False, False]) is False
    assert BOOLEAN.sum([False, True]) is True


def test_is_zero():
    assert COUNTING.is_zero(0)
    assert not COUNTING.is_zero(1)
    assert TROPICAL_MIN_PLUS.is_zero(math.inf)
    assert MAX_TIMES.is_zero(0.0)


def test_check_axioms_rejects_broken_semiring():
    broken = Semiring(
        name="broken", zero=0, one=1,
        add=lambda a, b: a + b,
        mul=lambda a, b: a + b,  # not absorbing at 0? 1*0=1 → violates
    )
    with pytest.raises(SemiringError):
        broken.check_axioms([1, 2])


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3))
def test_counting_distributes(values):
    a, b, c = values
    assert COUNTING.mul(a, COUNTING.add(b, c)) == COUNTING.add(
        COUNTING.mul(a, b), COUNTING.mul(a, c)
    )


@given(
    st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False), min_size=3, max_size=3
    )
)
def test_tropical_distributes(values):
    a, b, c = values
    left = TROPICAL_MIN_PLUS.mul(a, TROPICAL_MIN_PLUS.add(b, c))
    right = TROPICAL_MIN_PLUS.add(
        TROPICAL_MIN_PLUS.mul(a, b), TROPICAL_MIN_PLUS.mul(a, c)
    )
    assert left == right


@given(
    st.lists(
        st.floats(min_value=0, max_value=10, allow_nan=False), min_size=3, max_size=3
    )
)
def test_max_min_absorbs_and_distributes(values):
    a, b, c = values
    assert MAX_MIN.mul(a, MAX_MIN.zero) == MAX_MIN.zero
    assert MAX_MIN.mul(a, MAX_MIN.add(b, c)) == MAX_MIN.add(
        MAX_MIN.mul(a, b), MAX_MIN.mul(a, c)
    )


# -- provenance ------------------------------------------------------------------


def test_lineage_union_semantics():
    a = frozenset({"t1"})
    b = frozenset({"t2"})
    assert LINEAGE.add(a, b) == frozenset({"t1", "t2"})
    assert LINEAGE.mul(a, b) == frozenset({"t1", "t2"})
    assert LINEAGE.add(a, a) == a  # idempotent


def test_why_provenance_identities():
    witness = frozenset({frozenset({"t1"})})
    assert WHY_PROVENANCE.mul(witness, WHY_PROVENANCE.one) == witness
    assert WHY_PROVENANCE.mul(witness, WHY_PROVENANCE.zero) == WHY_PROVENANCE.zero
    other = frozenset({frozenset({"t2"})})
    combined = WHY_PROVENANCE.mul(witness, other)
    assert combined == frozenset({frozenset({"t1", "t2"})})
    assert WHY_PROVENANCE.add(witness, witness) == witness


def test_why_provenance_axioms():
    elements = [
        WHY_PROVENANCE.zero,
        WHY_PROVENANCE.one,
        frozenset({frozenset({"a"})}),
        frozenset({frozenset({"a"}), frozenset({"b"})}),
    ]
    WHY_PROVENANCE.check_axioms(elements)


def test_polynomial_monomials_and_arithmetic():
    x = monomial("x")
    y = monomial("y")
    xy = POLYNOMIAL.mul(x, y)
    assert xy == monomial("x", "y")
    x_plus_x = POLYNOMIAL.add(x, x)
    # 2x, i.e. coefficient 2 on the monomial x.
    assert dict(x_plus_x) == {(("x", 1),): 2}
    square = POLYNOMIAL.mul(x, x)
    assert dict(square) == {(("x", 2),): 1}


def test_polynomial_axioms():
    elements = [POLYNOMIAL.zero, POLYNOMIAL.one, monomial("x"), monomial("y"),
                POLYNOMIAL.add(monomial("x"), monomial("y"))]
    POLYNOMIAL.check_axioms(elements)


def test_polynomial_distributivity_example():
    x, y, z = monomial("x"), monomial("y"), monomial("z")
    left = POLYNOMIAL.mul(x, POLYNOMIAL.add(y, z))
    right = POLYNOMIAL.add(POLYNOMIAL.mul(x, y), POLYNOMIAL.mul(x, z))
    assert left == right


def test_top_k_smallest_semiring():
    from repro.semiring import top_k_smallest

    s2 = top_k_smallest(2)
    s2.check_axioms([(), (1.0,), (2.0, 3.0), (0.5, 5.0), (1.0, 1.0)])
    assert s2.add((1.0,), (3.0, 4.0)) == (1.0, 3.0)
    assert s2.mul((1.0, 2.0), (10.0, 20.0)) == (11.0, 12.0)
    assert s2.mul((1.0,), s2.one) == (1.0,)
    assert s2.mul((1.0,), s2.zero) == s2.zero
    # k = 1 degenerates to (min, +).
    s1 = top_k_smallest(1)
    assert s1.add((3.0,), (1.0,)) == (1.0,)
    assert s1.mul((3.0,), (1.0,)) == (4.0,)
    with pytest.raises(ValueError):
        top_k_smallest(0)


def test_top_k_through_a_distributed_query():
    import random

    from repro import run_query
    from repro.data import Instance, Relation, TreeQuery
    from repro.ram import evaluate
    from repro.semiring import top_k_smallest

    s = top_k_smallest(3)
    rng = random.Random(8)
    query = TreeQuery(
        (("R1", ("A", "B")), ("R2", ("B", "C"))), frozenset({"A", "C"})
    )
    r1 = Relation("R1", ("A", "B"))
    r2 = Relation("R2", ("B", "C"))
    seen = set()
    while len(seen) < 60:
        t = (rng.randrange(10), rng.randrange(6))
        if t not in seen:
            seen.add(t)
            r1.add(t, (float(rng.randint(1, 9)),))
    seen = set()
    while len(seen) < 60:
        t = (rng.randrange(6), rng.randrange(10))
        if t not in seen:
            seen.add(t)
            r2.add(t, (float(rng.randint(1, 9)),))
    instance = Instance(query, {"R1": r1, "R2": r2}, s)
    result = run_query(instance, ExecutionConfig(p=6))
    assert result.relation.tuples == evaluate(instance).tuples
    # Every annotation is a sorted ≤3-tuple: the 3 cheapest 2-hop routes.
    for costs in result.relation.tuples.values():
        assert 1 <= len(costs) <= 3
        assert list(costs) == sorted(costs)
