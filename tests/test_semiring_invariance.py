"""Semiring invariance of the algorithms' *structure*.

The paper's algorithms make all routing decisions from tuple keys and
degree statistics — never from annotation values.  Consequences tested
here on identical key-structures under different semirings:

* the elementary-product count is semiring-independent;
* the communication pattern (total messages, loads, rounds) is
  semiring-independent;
* the *support* (set of output keys) is semiring-independent whenever no
  semiring collapses to zero (guaranteed for the semirings used here).
"""

import random

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.data import Instance, Relation
from repro.semiring import BOOLEAN, COUNTING, MAX_MIN, TROPICAL_MIN_PLUS
from tests.conftest import (
    LINE3_QUERY,
    MATMUL_QUERY,
    STAR3_QUERY,
    TWIG_QUERY,
)

SEMIRING_WEIGHTS = [
    (COUNTING, lambda rng: rng.randint(1, 5)),
    (BOOLEAN, lambda rng: True),
    (TROPICAL_MIN_PLUS, lambda rng: float(rng.randint(0, 9))),
    (MAX_MIN, lambda rng: float(rng.randint(1, 9))),
]


def _instances_with_same_keys(query, seed, tuples=40, domain=7):
    """One instance per semiring, all sharing the same tuple keys."""
    rng = random.Random(seed)
    keys = {}
    for name, _attrs in query.relations:
        seen = set()
        attempts = 0
        while len(seen) < tuples and attempts < 100 * tuples:
            attempts += 1
            entry = (rng.randrange(domain), rng.randrange(domain))
            seen.add(entry)
        keys[name] = sorted(seen)
    instances = []
    for semiring, weight in SEMIRING_WEIGHTS:
        wrng = random.Random(seed + 1)
        relations = {
            name: Relation(
                name, attrs, [(entry, weight(wrng)) for entry in keys[name]]
            )
            for name, attrs in query.relations
        }
        instances.append(Instance(query, relations, semiring))
    return instances


@pytest.mark.parametrize(
    "query", [MATMUL_QUERY, LINE3_QUERY, STAR3_QUERY, TWIG_QUERY],
    ids=lambda q: q.classify(),
)
@pytest.mark.parametrize("algorithm", ["auto", "yannakakis"])
def test_structure_is_semiring_invariant(query, algorithm):
    instances = _instances_with_same_keys(query, seed=13)
    fingerprints = []
    supports = []
    for instance in instances:
        result = run_query(instance, ExecutionConfig(p=6, algorithm=algorithm))
        report = result.report
        fingerprints.append(
            (report.elementary_products, report.total_communication,
             report.max_load, report.rounds)
        )
        supports.append(frozenset(result.relation.tuples))
    assert len(set(fingerprints)) == 1, fingerprints
    assert len(set(supports)) == 1
