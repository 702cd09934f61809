"""The backend-differential battery: columnar ≡ pytuple, bit for bit.

The columnar backend's contract is not "same answer, roughly" — it is
*bit-identical observables*: the answer relation (tuples and annotations),
the serialized :class:`~repro.mpc.stats.CostReport`, and the full trace
event stream must match the reference backend exactly, because the meters
are the reproduction's scientific output.  This module enforces that
contract over the whole conformance grid — every query family × every
semiring profile × every skew — by running the ``columnar-identity``
invariant (which itself runs every applicable algorithm per case), and
separately pins the Table-1 load meters at benchmark scale.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.dispatch import HAS_NUMPY
from repro.conformance.generators import (
    PROFILES,
    QUERY_FAMILIES,
    SKEW_PROFILES,
    GeneratorConfig,
    random_case,
)
from repro.conformance.invariants import check_columnar_identity

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy unavailable")


class _GridConfig:
    """Config shim with the fields invariant checkers read."""

    p = 5
    p_large = 8
    backend = None


def _case_for(family: str, profile: str, skew: str, seed: int):
    """A deterministic fuzz case pinned to one grid cell."""
    generator = GeneratorConfig(
        max_tuples=12,
        domain=5,
        families=(family,),
        profiles=(profile,),
        skews=(skew,),
    )
    return random_case(random.Random(seed), generator, 0)


GRID = [
    (family, profile, skew)
    for family in QUERY_FAMILIES
    for profile in sorted(PROFILES)
    for skew in SKEW_PROFILES
]


@needs_numpy
@pytest.mark.parametrize(
    "family,profile,skew", GRID, ids=["-".join(cell) for cell in GRID]
)
def test_columnar_identical_across_grid(family, profile, skew):
    """5 families × 5 semirings × 3 skews, every applicable algorithm:
    answers, cost reports, and traces agree between the backends."""
    case = _case_for(family, profile, skew, seed=0xD1FF ^ hash((family, profile, skew)) % 4096)
    check_columnar_identity(case, _GridConfig())


@needs_numpy
def test_columnar_identical_under_seed_sweep():
    """A second, rng-driven sweep: fresh skeletons (not the grid's pinned
    seeds) keep the battery from overfitting to one corpus of instances."""
    rng = random.Random(0xBA77E4)
    generator = GeneratorConfig(max_tuples=10, domain=4)
    for index in range(10):
        case = random_case(rng, generator, index)
        check_columnar_identity(case, _GridConfig())


@needs_numpy
def test_table1_loads_identical_at_benchmark_scale():
    """Satellite meter check: the Table-1 experiment at scale=300 reports
    the same loads/rounds/communication on both backends, derived on the
    columnar path from array lengths rather than item-list lengths."""
    from repro.api import table1
    from repro.config import ExecutionConfig

    def rows(backend: str):
        return [
            row.to_dict()
            for row in table1(
                scale=300,
                config=ExecutionConfig(p=16, backend=backend),
                families=("matmul",),
            )
        ]

    reference = rows("pytuple")
    columnar = rows("columnar")
    assert reference == columnar
