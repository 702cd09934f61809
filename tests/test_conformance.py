"""The conformance & fuzzing subsystem (src/repro/conformance/).

Three layers of assurance:

* unit tests for the generator grid, the shrinker, and corpus round-trips;
* determinism: the same seed must produce a byte-identical JSON summary;
* the mutation smoke test — a deliberately planted off-by-one in the
  cluster's exchange step MUST be detected by a short seeded campaign,
  shrunk to a handful of tuples, and serialized into a corpus entry that
  replays red while the bug is active and green once it is reverted.  A
  fuzzer that cannot catch a planted bug proves nothing.
"""

import json
import random

import pytest

from repro.conformance import (
    DEFAULT_INVARIANTS,
    INVARIANTS,
    PROFILES,
    QUERY_FAMILIES,
    SKEW_PROFILES,
    FuzzCase,
    FuzzConfig,
    GeneratorConfig,
    InvariantViolation,
    case_from_document,
    case_to_document,
    corpus_files,
    failing_predicate,
    fuzz,
    load_case,
    materialize,
    planted_exchange_off_by_one,
    random_case,
    random_query,
    random_skeleton,
    replay_case,
    save_case,
    shrink_case,
    skeleton_size,
)
from repro.core.executor import ALGORITHMS, applicable_algorithms
from repro.ram import evaluate


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("family", QUERY_FAMILIES)
def test_random_query_produces_the_advertised_family(family):
    rng = random.Random(7)
    for _ in range(5):
        query = random_query(rng, family)
        klass = query.classify()
        if family == "tree":
            assert klass in ("twig", "tree")
        elif family == "star-like":
            assert klass == "star-like"
        else:
            assert klass == family


@pytest.mark.parametrize("skew", SKEW_PROFILES)
def test_random_skeleton_is_well_formed(skew):
    rng = random.Random(13)
    query = random_query(rng, "star")
    skeleton = random_skeleton(rng, query, tuples=10, domain=4, skew=skew)
    assert set(skeleton) == {name for name, _ in query.relations}
    for rows in skeleton.values():
        values_seen = [values for values, _ in rows]
        assert len(values_seen) == len(set(values_seen))  # distinct tuples
        assert all(1 <= weight <= 4 for _, weight in rows)


def test_generator_grid_cycles_every_family_and_profile():
    rng = random.Random(0)
    config = GeneratorConfig()
    cases = [random_case(rng, config, index) for index in range(25)]
    families = {case.family for case in cases}
    profiles = {case.profile for case in cases}
    assert families == set(QUERY_FAMILIES)
    assert profiles == set(PROFILES)


def test_materialize_annotates_per_profile():
    rng = random.Random(5)
    config = GeneratorConfig(profiles=("counting",))
    case = random_case(rng, config, 0)
    counting = materialize(case, profile="counting")
    boolean = materialize(case, profile="boolean")
    name = counting.query.relations[0][0]
    assert all(isinstance(w, int) for _, w in counting.relation(name))
    assert all(w is True for _, w in boolean.relation(name))


def test_registry_introspection_matches_dispatch():
    """applicable_algorithms must mirror what run_query actually accepts."""
    rng = random.Random(3)
    for family in QUERY_FAMILIES:
        query = random_query(rng, family)
        names = applicable_algorithms(query)
        assert "yannakakis" in names and "tree" in names
        for name in names:
            assert ALGORITHMS[name].applies(query)


# ------------------------------------------------------------------ shrinker


def _counting_case():
    rng = random.Random(11)
    config = GeneratorConfig(profiles=("counting",), families=("matmul",))
    return random_case(rng, config, 0)


def test_shrink_non_failing_case_is_identity():
    case = _counting_case()
    assert shrink_case(case, lambda _case: False) is case


def test_shrink_reaches_a_small_core():
    """Predicate: 'some relation still contains a tuple with value 0 in the
    join column' — the shrinker must strip everything else."""
    case = _counting_case()

    def predicate(candidate):
        return any(
            values[0] == 0
            for rows in candidate.skeleton.values()
            for values, _weight in rows
        )

    if not predicate(case):  # make sure the core exists
        skeleton = dict(case.skeleton)
        name = next(iter(skeleton))
        skeleton[name] = skeleton[name] + [((0, 0), 2)]
        case = case.replace_skeleton(skeleton)
    shrunk = shrink_case(case, predicate)
    assert predicate(shrunk)
    assert skeleton_size(shrunk) == 1
    # Weight normalization kicked in.
    assert all(w == 1 for rows in shrunk.skeleton.values() for _, w in rows)


def test_shrink_respects_budget():
    case = _counting_case()
    calls = []

    def predicate(candidate):
        calls.append(1)
        return True

    shrink_case(case, predicate, budget=5)
    assert len(calls) <= 5


# -------------------------------------------------------------------- corpus


def test_corpus_round_trip(tmp_path):
    rng = random.Random(9)
    config = GeneratorConfig(profiles=("provenance",), families=("line",))
    case = random_case(rng, config, 0)
    meta = {"invariant": "differential", "run_seed": 0, "iteration": 3, "p": 4}
    path = save_case(case, meta, str(tmp_path))
    assert corpus_files(str(tmp_path)) == [path]

    loaded, loaded_meta = load_case(path)
    assert loaded.query == case.query
    assert loaded.skeleton == case.skeleton
    assert loaded.profile == "provenance"
    assert loaded_meta["invariant"] == "differential"

    document = case_to_document(case, meta)
    round_tripped, _ = case_from_document(json.loads(json.dumps(document)))
    assert round_tripped.skeleton == case.skeleton


def test_corpus_rejects_foreign_documents():
    with pytest.raises(ValueError):
        case_from_document({"format": "something-else"})


def test_replay_green_on_a_healthy_tree():
    rng = random.Random(21)
    config = GeneratorConfig()
    case = random_case(rng, config, 0)
    replay_case(case, {"invariant": "differential", "p": 4})


# -------------------------------------------------------------- determinism


def test_same_seed_same_bytes():
    config = FuzzConfig(iterations=12, seed=5)
    first = fuzz(config).to_json()
    second = fuzz(FuzzConfig(iterations=12, seed=5)).to_json()
    assert first == second
    assert fuzz(FuzzConfig(iterations=12, seed=6)).to_json() != first


def test_default_run_covers_the_acceptance_grid():
    """One default-budget run must touch all five query families and at
    least three semirings including counting, provenance and opaque."""
    summary = fuzz(FuzzConfig(iterations=25, seed=0))
    assert summary.ok, [f.message for f in summary.failures]
    assert set(summary.coverage["family"]) == set(QUERY_FAMILIES)
    assert {"counting", "provenance", "opaque"} <= set(
        summary.coverage["semiring"]
    )
    # The default catalog, exactly: opt-in registrations (the chaos tier,
    # the planner-choice, columnar-identity and ivm-identity
    # invariants) must not leak into default campaigns.
    assert set(summary.coverage["invariant"]) == set(DEFAULT_INVARIANTS)
    assert set(DEFAULT_INVARIANTS) | {
        "chaos",
        "planner-choice",
        "columnar-identity",
        "ivm-identity",
    } == set(INVARIANTS)
    assert not any("process" in name for name in INVARIANTS)


def test_seconds_budget_checks_at_least_one_case():
    summary = fuzz(FuzzConfig(seconds=0.0, seed=0))
    assert summary.checked >= 1


# ------------------------------------------------------- mutation smoke test


def test_planted_bug_is_caught_shrunk_and_replayable(tmp_path):
    """The acceptance criterion: a planted off-by-one in the exchange step
    is detected by `repro fuzz --seed 0` within a bounded budget; the
    shrinker emits a serialized repro of ≤ 8 tuples whose replay is red
    under the bug and green without it."""
    corpus = str(tmp_path / "corpus")
    config = FuzzConfig(
        iterations=30,
        seed=0,
        invariants=("differential",),
        corpus=corpus,
        fail_fast=True,
    )
    with planted_exchange_off_by_one():
        summary = fuzz(config)
    assert not summary.ok, "planted bug escaped a 30-iteration budget"
    failure = summary.failures[0]
    assert failure.invariant == "differential"
    assert failure.shrunk_tuples <= 8, failure
    assert failure.shrunk_tuples <= failure.original_tuples

    entries = corpus_files(corpus)
    assert failure.corpus_file in entries
    case, meta = load_case(failure.corpus_file)
    assert skeleton_size(case) == failure.shrunk_tuples

    # Red while the bug is planted...
    with planted_exchange_off_by_one():
        with pytest.raises(Exception):
            replay_case(case, meta)
    # ...green once reverted.
    replay_case(case, meta)


def test_invariant_violation_formats_its_origin():
    error = InvariantViolation("differential", "star", "boom")
    assert str(error) == "[differential/star] boom"
    assert error.invariant == "differential"
    assert error.algorithm == "star"


def test_failing_predicate_counts_crashes_as_failures():
    def crashing_check(case, config):
        raise RuntimeError("kaboom")

    predicate = failing_predicate(crashing_check, FuzzConfig())
    assert predicate(_counting_case()) is True


def test_fuzz_failure_serialization_is_stable():
    corpus_free = FuzzConfig(iterations=10, seed=0, invariants=("differential",))
    with planted_exchange_off_by_one():
        first = fuzz(corpus_free).to_json()
        second = fuzz(corpus_free).to_json()
    assert first == second
    document = json.loads(first)
    assert document["ok"] is False
    assert document["failures"][0]["invariant"] == "differential"


# ------------------------------------------------ oracle sanity (meta-test)


def test_oracle_agrees_with_itself_across_profiles():
    """materialize() must re-annotate the same tuples for every profile."""
    rng = random.Random(2)
    config = GeneratorConfig(families=("star",))
    case = random_case(rng, config, 0)
    keys = {
        profile: set(evaluate(materialize(case, profile="counting")).tuples)
        for profile in ("counting", "boolean")
    }
    assert keys["counting"] == keys["boolean"]
