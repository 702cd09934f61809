"""Top-level run_query: dispatch, metering, result canonicalization."""

import random

import pytest

from repro import MPCCluster, run_query
from repro.config import ExecutionConfig
from repro.data import Instance, Relation, TreeQuery
from repro.ram import evaluate
from repro.semiring import COUNTING
from repro.workloads import (
    line_instance,
    planted_out_matmul,
    star_instance,
    starlike_instance,
    twig_instance,
)
from tests.conftest import GENERAL_TREE_QUERY, MATMUL_QUERY, random_instance

_BACKEND = "pytuple"


@pytest.fixture(autouse=True)
def _sweep_backends(backend):
    """Run every test in this module under both kernel backends."""
    global _BACKEND
    _BACKEND = backend
    yield
    _BACKEND = "pytuple"


def test_auto_dispatch_matches_oracle_per_class():
    cases = [
        (planted_out_matmul(n=150, out=900), "matmul", "line"),
        (line_instance(3, 60, 10, seed=1), "line", "line"),
        (star_instance(3, 45, 10, 5, seed=2), "star", "star"),
        (starlike_instance([1, 2, 2], 30, 7, seed=3), "star-like", "star-like"),
        (twig_instance(25, 6, seed=4), "twig", "tree"),
    ]
    for instance, expected_class, expected_algorithm in cases:
        result = run_query(instance, ExecutionConfig(p=8, backend=_BACKEND))
        assert result.query_class == expected_class
        assert result.algorithm == expected_algorithm
        assert result.relation.tuples == evaluate(instance).tuples
        assert result.out_size == len(result.relation)
        assert result.report.rounds > 0


def test_free_connex_goes_to_yannakakis():
    query = TreeQuery(MATMUL_QUERY.relations, frozenset({"A", "B", "C"}))
    rng = random.Random(1)
    instance = random_instance(query, 40, 6, rng, COUNTING, lambda r: 1)
    result = run_query(instance, ExecutionConfig(p=4, backend=_BACKEND))
    assert result.query_class == "free-connex"
    assert result.algorithm == "yannakakis"
    assert result.relation.tuples == evaluate(instance).tuples


def test_general_tree_dispatch():
    rng = random.Random(2)
    instance = random_instance(
        GENERAL_TREE_QUERY, 30, 6, rng, COUNTING, lambda r: r.randint(1, 3)
    )
    result = run_query(instance, ExecutionConfig(p=8, backend=_BACKEND))
    assert result.query_class == "tree"
    assert result.algorithm == "tree"
    assert result.relation.tuples == evaluate(instance).tuples


def test_forced_baseline_agrees_with_auto():
    instance = star_instance(3, 40, 9, 5, seed=7)
    auto = run_query(instance, ExecutionConfig(p=8, algorithm="auto", backend=_BACKEND))
    baseline = run_query(
        instance, ExecutionConfig(p=8, algorithm="yannakakis", backend=_BACKEND)
    )
    assert auto.relation.tuples == baseline.relation.tuples
    assert baseline.algorithm == "yannakakis"


def test_forced_wrong_algorithm_raises():
    instance = star_instance(3, 20, 6, 4, seed=8)
    with pytest.raises(ValueError):
        run_query(instance, ExecutionConfig(p=4, algorithm="line", backend=_BACKEND))
    line = line_instance(3, 20, 6, seed=9)
    with pytest.raises(ValueError):
        run_query(line, ExecutionConfig(p=4, algorithm="star", backend=_BACKEND))


def test_result_schema_is_sorted_output():
    instance = twig_instance(20, 5, seed=10)
    result = run_query(instance, ExecutionConfig(p=4, backend=_BACKEND))
    assert result.relation.schema == tuple(sorted(instance.query.output))


def test_supplied_cluster_is_used_and_metered():
    cluster = MPCCluster(4, backend=_BACKEND)
    instance = planted_out_matmul(n=100, out=400)
    result = run_query(instance, cluster=cluster)
    assert result.report.total_communication == cluster.report().total_communication
    assert cluster.report().total_communication > 0


def test_single_server_execution():
    instance = starlike_instance([1, 1, 2], 20, 6, seed=11)
    result = run_query(instance, ExecutionConfig(p=1, backend=_BACKEND))
    assert result.relation.tuples == evaluate(instance).tuples


def test_unknown_algorithm_rejected():
    instance = planted_out_matmul(n=50, out=100)
    with pytest.raises(ValueError):
        run_query(instance, ExecutionConfig(p=2, algorithm="quantum", backend=_BACKEND))


def test_validate_flag_passes_on_correct_runs():
    instance = planted_out_matmul(n=60, out=240)
    result = run_query(instance, ExecutionConfig(p=4, validate=True, backend=_BACKEND))
    assert result.out_size == len(result.relation)


def test_validate_flag_is_a_real_check():
    # Sanity: an intentionally broken "instance" (oracle differs) trips it.
    import repro.core.executor as executor_module

    instance = planted_out_matmul(n=40, out=160)
    original = executor_module._dispatch

    def sabotaged(chosen, inst, view):
        result = original(chosen, inst, view)
        return type(result)(result.schema, result.data.filter_items(lambda _i: False))

    executor_module._dispatch = sabotaged
    try:
        with pytest.raises(AssertionError):
            run_query(instance, ExecutionConfig(p=4, validate=True, backend=_BACKEND))
    finally:
        executor_module._dispatch = original


# ---------------------------------------------------------- the front door


def test_one_front_door():
    """``repro.run_query``, the facade's and the executor's are one
    function with one signature: every knob travels in the config."""
    import inspect

    import repro
    from repro import api
    from repro.core import executor

    assert repro.run_query is api.run_query is executor.run_query
    parameters = inspect.signature(run_query).parameters
    assert [(name, p.kind, p.default) for name, p in parameters.items()] == [
        ("instance", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("config", inspect.Parameter.POSITIONAL_OR_KEYWORD, None),
        ("cluster", inspect.Parameter.KEYWORD_ONLY, None),
    ]
    instance = planted_out_matmul(n=40, out=80)
    for loose in ({"p": 4}, {"algorithm": "yannakakis"}, {"validate": False},
                  {"backend": _BACKEND}):
        with pytest.raises(TypeError):
            run_query(instance, **loose)


def test_supplied_cluster_runs_as_built():
    """With ``cluster``, the run uses that cluster's servers and meters;
    the config supplies the algorithm and the validation switch."""
    instance = planted_out_matmul(n=40, out=80)
    cluster = MPCCluster(4, backend=_BACKEND)
    result = run_query(
        instance,
        ExecutionConfig(p=16, algorithm="yannakakis", validate=True),
        cluster=cluster,
    )
    assert result.algorithm == "yannakakis"
    assert result.report.max_load == cluster.report().max_load > 0
    alone = run_query(
        instance, ExecutionConfig(p=4, algorithm="yannakakis", backend=_BACKEND)
    )
    assert result.report.max_load == alone.report.max_load
