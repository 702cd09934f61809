"""The ``repro.api`` facade and :class:`ExecutionConfig`.

One import surface for everything the CLI can do: versioned ``__all__``
contract, config-object signatures only (facade 2.0 removed the loose
keywords and the deprecated ``reporting``/``testing`` forwarders), and
eager :class:`~repro.errors.ConfigError` validation at construction.
"""

import pytest

from repro import ExecutionConfig
from repro import api
from repro.conformance import FuzzConfig
from repro.data import Relation
from repro.workloads import planted_out_matmul

# ------------------------------------------------------------------ surface


def test_facade_exposes_every_entrypoint():
    for name in ("run_query", "compare", "explain", "sweep", "table1",
                 "fuzz", "chaos"):
        assert callable(getattr(api, name)), name
        assert name in api.__all__


def test_facade_all_contract_is_exact():
    """``__all__`` is the surface: every name resolves, and the facade
    carries the package release's version."""
    import repro

    for name in api.__all__:
        assert hasattr(api, name), name
    assert api.__version__ == repro.__version__ == "3.0.0"
    # The 1.x transitional paths are gone.
    from repro import reporting, testing

    assert not hasattr(reporting, "table1_report")
    assert not hasattr(reporting, "compare_on")
    assert not hasattr(testing, "fuzz_differential")


def test_execution_config_validates():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        ExecutionConfig(p=0)
    with pytest.raises(ConfigError):
        ExecutionConfig(backend="fortran")
    config = ExecutionConfig(p=4, backend="pytuple")
    assert config.with_backend("auto").backend == "auto"
    cluster = config.make_cluster()
    assert cluster.p == 4 and cluster.backend == "pytuple"
    # Frozen: configs are safe to share across runs.
    with pytest.raises(AttributeError):
        config.p = 2


# ---------------------------------------------------------------- run_query


def test_run_query_accepts_config():
    instance = planted_out_matmul(n=40, out=160)
    result = api.run_query(instance, ExecutionConfig(p=4))
    assert result.algorithm == "line"
    assert result.out_size == len(result.relation)


def test_run_query_rejects_loose_kwargs():
    """Facade 2.0: every knob travels in the config object."""
    instance = planted_out_matmul(n=20, out=40)
    with pytest.raises(TypeError):
        api.run_query(instance, p=4)
    with pytest.raises(TypeError):
        api.run_query(instance, processors=4)


# ----------------------------------------------------- compare/sweep/table1


def test_compare_packages_both_runs():
    instance = planted_out_matmul(n=60, out=240)
    outcome = api.compare(instance, ExecutionConfig(p=8))
    assert outcome.baseline.algorithm == "yannakakis"
    assert outcome.ours.algorithm == "line"
    assert outcome.baseline.relation.tuples == outcome.ours.relation.tuples
    assert outcome.speedup > 0
    row = outcome.row("matmul")
    assert row.label == "matmul"
    assert row.input_size == instance.total_size
    assert row.new_load == outcome.ours.report.max_load


def test_sweep_labels_points_in_order():
    config = ExecutionConfig(p=4)
    series = [
        ("n=30", planted_out_matmul(n=30, out=60)),
        ("n=50", planted_out_matmul(n=50, out=100)),
    ]
    results = api.sweep(series, config)
    assert [label for label, _ in results] == ["n=30", "n=50"]
    assert all(done.speedup > 0 for _, done in results)


def test_table1_family_selection():
    rows = api.table1(scale=40, config=ExecutionConfig(p=4), families=["matmul"])
    assert [row.label for row in rows] == ["matmul"]
    assert api.table1(scale=40, families=[]) == []
    with pytest.raises(ValueError):
        api.table1(scale=40, families=["matmul", "pentagon"])


def _lookalike_matmul(seed=5):
    """A 400-tuple matmul whose ``B`` values spell 1 and 0 three ways each
    (``1``/``1.0``/``True``, ``0``/``0.0``/``False``): equal as dict keys,
    distinct to ``stable_hash``."""
    import random

    from repro.data.query import Instance
    from repro.semiring.standard import COUNTING
    from repro.workloads.matrices import MATMUL_QUERY

    rng = random.Random(seed)
    spellings = {1: (1, 1.0, True), 0: (0, 0.0, False)}

    def relation(name, schema):
        rel = Relation(name, schema)
        while len(rel) < 200:
            b = rng.randrange(30)
            b, other = rng.choice(spellings.get(b, (b,))), rng.randrange(40)
            values = (other, b) if schema[1] == "B" else (b, other)
            if values not in rel:
                rel.add(values, 1)
        return rel

    return Instance(MATMUL_QUERY, {"R1": relation("R1", ("A", "B")),
                                   "R2": relation("R2", ("B", "C"))}, COUNTING)


def test_in_model_explain_is_backend_invariant_on_lookalike_values():
    """In-model statistics of an instance the codec would conflate are
    collected on the tuple kernels, as ``run_query`` runs it: the columnar
    plan's statistics (distinct ``B`` counts, metered load, OUT estimate)
    are the pytuple plan's."""
    instance = _lookalike_matmul()
    plans = [
        api.explain(instance, ExecutionConfig(p=8, backend=backend),
                    stats_mode="in-model").to_dict()
        for backend in ("pytuple", "columnar")
    ]
    assert plans[0]["statistics"] == plans[1]["statistics"]
    runs = [api.run_query(instance, ExecutionConfig(p=8, backend=backend))
            for backend in ("pytuple", "columnar")]
    assert runs[0].report.to_dict() == runs[1].report.to_dict()


# ------------------------------------------------------------ fuzz / chaos


def test_fuzz_override_kwargs():
    summary = api.fuzz(iterations=2, seed=5, p=2, p_large=4)
    assert summary.checked >= 2
    assert summary.to_dict()["seed"] == 5


def test_chaos_pins_invariants():
    summary = api.chaos(FuzzConfig(iterations=2, seed=3, p=2, p_large=4))
    coverage = summary.to_dict()["coverage"]["invariant"]
    assert set(coverage) <= {"differential", "chaos"}


# ------------------------------------------------- deprecated import paths


def test_reporting_keeps_row_type_and_markdown():
    """``repro.reporting`` is rows + rendering only; measurement lives on
    the facade."""
    from repro import reporting

    rows = api.table1(scale=30, config=ExecutionConfig(p=4), families=["matmul"])
    markdown = reporting.render_markdown(rows)
    assert "| matmul |" in markdown
    assert reporting.TABLE1_FAMILIES == api.TABLE1_FAMILIES


# ----------------------------------------------------- Relation memoization


def test_relation_indexes_memoize_and_invalidate():
    relation = Relation("R", ("A", "B"))
    for i in range(20):
        relation.add((i % 4, i), 1)
    assert relation.degree("A", 0) == 5
    assert relation.active_domain("A") == {0, 1, 2, 3}
    column_before = relation.column("B")
    # The returned column is a copy — mutating it must not corrupt the index.
    column_before.append("junk")
    assert relation.column("B") == [i for i in range(20)]
    # add() invalidates: counts and domains reflect the new tuple.
    relation.add((99, 99), 1)
    assert relation.degree("A", 99) == 1
    assert 99 in relation.active_domain("A")
    assert relation.degree("A", 0) == 5
