"""The ``repro.api`` facade and :class:`ExecutionConfig`.

One import surface for everything the CLI can do: versioned ``__all__``
contract, config-object signatures only (facade 2.0 removed the loose
keywords and the deprecated ``reporting``/``testing`` forwarders; the
executor itself and ``fuzz`` followed), and eager
:class:`~repro.errors.ConfigError` validation at construction.
"""

import pytest

from repro import ExecutionConfig
from repro import api
from repro.conformance import FuzzConfig
from repro.data import Relation
from repro.workloads import planted_out_matmul

# ------------------------------------------------------------------ surface


def test_facade_exposes_every_entrypoint():
    for name in ("run_query", "compare", "explain", "table1", "fuzz",
                 "materialize"):
        assert callable(getattr(api, name)), name
        assert name in api.__all__
    # Duplicate doors are closed: ``view.apply``, ``fuzz`` with chaos
    # invariants, and a loop over ``compare`` do what these did.
    for name in ("sweep", "chaos", "apply_delta"):
        assert not hasattr(api, name), name


def test_facade_all_contract_is_exact():
    """``__all__`` is the surface: every name resolves, and the facade
    carries the package release's version."""
    import repro

    for name in api.__all__:
        assert hasattr(api, name), name
    assert api.__version__ == repro.__version__ == "3.0.0"
    # The 1.x transitional paths are gone, and so is ``repro.reporting``;
    # ``repro.testing`` keeps only the opaque semiring.
    from repro import testing

    with pytest.raises(ImportError):
        import repro.reporting  # noqa: F401
    assert testing.__all__ == ["OpaqueSemiring"]


def test_execution_config_validates():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        ExecutionConfig(p=0)
    with pytest.raises(ConfigError):
        ExecutionConfig(backend="fortran")
    # Values from outside the program: p is an int (not a bool), validate
    # a bool.
    for bad in ({"p": "4"}, {"p": 2.5}, {"p": True}, {"validate": "yes"}):
        with pytest.raises(ConfigError):
            ExecutionConfig(**bad)
    config = ExecutionConfig(p=4, backend="pytuple")
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


def test_explain_is_backend_invariant_on_lookalike_values():
    """The §2.2 OUT estimate of an instance the codec would conflate runs
    on the tuple kernels, as ``run_query`` runs it: the columnar plan's
    statistics (distinct ``B`` counts, OUT estimate) are the pytuple
    plan's."""
    instance = _lookalike_matmul()
    plans = [
        api.explain(instance, ExecutionConfig(p=8, backend=backend)).to_dict()
        for backend in ("pytuple", "columnar")
    ]
    assert plans[0]["statistics"] == plans[1]["statistics"]
    runs = [api.run_query(instance, ExecutionConfig(p=8, backend=backend))
            for backend in ("pytuple", "columnar")]
    assert runs[0].report.to_dict() == runs[1].report.to_dict()


def test_cli_p_and_backend_defaults_per_command():
    """``--p`` and ``--backend`` are declared once for every command; each
    command keeps its own ``--p`` default."""
    from repro import cli

    expected_p = {"compare": 16, "sweep": 16, "explain": 16, "trace": 16,
                  "profile": 16, "table1": 16, "fuzz": 4, "ivm": 8, "serve": 8}
    assert set(expected_p) == set(cli._COMMANDS)
    parser = cli._build_parser()
    for command, p in expected_p.items():
        argv = [command] + (["--instance", "x.json"] if command == "ivm" else [])
        args = parser.parse_args(argv)
        assert (args.p, args.backend) == (p, "pytuple"), command


# ------------------------------------------------------------ fuzz / chaos


def test_fuzz_override_kwargs():
    """Knobs travel in the :class:`FuzzConfig`; loose keyword overrides
    are rejected like ``run_query``'s."""
    summary = api.fuzz(FuzzConfig(iterations=2, seed=5, p=2, p_large=4))
    assert summary.checked >= 2
    assert summary.to_dict()["seed"] == 5
    with pytest.raises(TypeError):
        api.fuzz(iterations=2)


def test_chaos_pins_invariants():
    summary = api.fuzz(FuzzConfig(iterations=2, seed=3, p=2, p_large=4,
                                  invariants=("differential", "chaos")))
    coverage = summary.to_dict()["coverage"]["invariant"]
    assert set(coverage) <= {"differential", "chaos"}


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
