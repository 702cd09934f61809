"""Absolute pins for ``core/``: answers, meters and traces against digests
captured at a known-good commit.

The differential grid proves the two backends agree *with each other*; a
refactor of a shared step shifts both in lockstep and passes it.  Here one
instance per query family runs under every applicable algorithm (plus
``auto``) on both backends, and blake2b over the serialized
:class:`~repro.mpc.stats.CostReport`, the full trace stream and the answer
rows *in emitted order* must equal the digest committed in
``core_golden.json``.

The digests are regenerated only on purpose::

    PYTHONPATH=src python tests/test_core_golden.py --regenerate

(run it on the commit whose behaviour is the reference, say so in the PR).
Three extra matmul instances force the §3.2 / unbalanced paths that no
ledger workload enters; :func:`test_forced_paths_are_entered` checks they
really run there.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.api import run_query
from repro.backends.dispatch import HAS_NUMPY
from repro.config import ExecutionConfig
from repro.core.executor import applicable_algorithms
from repro.data import Instance, Relation, TreeQuery
from repro.obs import RingBufferSink, Tracer, event_to_dict
from repro.semiring import COUNTING
from repro.workloads import (
    MATMUL_QUERY,
    caterpillar_instance,
    line_instance,
    planted_out_line,
    planted_out_star,
    random_binary_relation,
    star_instance,
    starlike_instance,
    twig_instance,
)

GOLDEN_PATH = Path(__file__).with_name("core_golden.json")
P = 8
BACKENDS = ("pytuple", "columnar")
MATMUL_ALGORITHMS = ("auto", "matmul", "matmul-worst-case", "matmul-output-sensitive")


def _matmul(r1_rows, r2_rows) -> Instance:
    r1 = Relation("R1", ("A", "B"), r1_rows)
    r2 = Relation("R2", ("B", "C"), r2_rows)
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)


def _near_diagonal(n: int) -> Instance:
    """R1(i, i) ⋈ R2(i, i+1): every join value has one neighbour a side."""
    return _matmul(
        [((i, i), 1 + i % 7) for i in range(n)],
        [((i, (i + 1) % n), 1 + i % 5) for i in range(n)],
    )


def _hub_column(n: int) -> Instance:
    """Every row reaches column −1 and every third a private column: under
    §3.2 column −1 is group-heavy (a dedicated task), the rest are packed."""
    return _matmul(
        [((a, a), 1) for a in range(n)],
        [((a, -1), 2) for a in range(n)]
        + [((a, a + 1), 3) for a in range(0, n, 3)],
    )


def _hub_row_and_column(n: int) -> Instance:
    """A heavy row −2 and a heavy column −1 beside a diagonal: all four
    subqueries of §3.1 are non-empty."""
    return _matmul(
        [((a, a), 1) for a in range(n)] + [((-2, b), 2) for b in range(n)],
        [((b, b), 3) for b in range(n)] + [((b, -1), 1) for b in range(n)],
    )


def _random_instance(specs, output, tuples: int, domain: int, seed: int) -> Instance:
    rng = random.Random(seed)
    relations = {
        name: random_binary_relation(name, pair, tuples, domain, domain, rng)
        for name, pair in specs
    }
    return Instance(TreeQuery(tuple(specs), frozenset(output)), relations, COUNTING)


def _general_tree() -> Instance:
    """E is a private non-output leaf (§7 reduction) and C a non-leaf output
    (two twigs, joined free-connex)."""
    specs = (
        ("R1", ("A", "B")), ("R2", ("B", "C")), ("R3", ("C", "D")), ("R4", ("C", "E")),
    )
    return _random_instance(specs, {"A", "C", "D"}, tuples=60, domain=10, seed=11)


def _branching_skeleton() -> Instance:
    """Three two-legged hubs around one skeleton node K: Algorithm 1 merges
    several child factors at K."""
    specs = [(f"S{i}", ("K", f"B{i}")) for i in range(3)]
    specs += [(f"R{i}_{leg}", (f"L{i}_{leg}", f"B{i}")) for i in range(3) for leg in range(2)]
    output = {f"L{i}_{leg}" for i in range(3) for leg in range(2)}
    return _random_instance(specs, output, tuples=12, domain=5, seed=4)


def _dense_aggregation() -> Instance:
    """4 × 100 × 4: OUT = 16 ≤ N/p, LinearSparseMM's case."""
    return _matmul(
        [((a, b), 1) for a in range(4) for b in range(100)],
        [((b, c), 2) for b in range(100) for c in range(4)],
    )


def _unbalanced() -> Instance:
    """N1 · p < N2: sort-by-output + broadcast."""
    return _matmul(
        [((a, a), 1) for a in range(3)],
        [((b, c), 2) for b in range(3) for c in range(40)],
    )


#: label → (instance factory, algorithms); None = every applicable + auto.
CASES = {
    "line": (lambda: planted_out_line(length=3, n=120, out=1200), None),
    "star": (lambda: planted_out_star(arms=3, n=60, out=2000), None),
    "star-like": (lambda: starlike_instance((2, 1, 1), tuples=80, domain=12, seed=5), None),
    "twig": (lambda: twig_instance(tuples=60, domain=12, seed=2020), None),
    "line-random": (lambda: line_instance(4, tuples=80, domain=10, seed=3), None),
    "star-random": (lambda: star_instance(3, 60, 10, 8, seed=1), None),
    "caterpillar": (lambda: caterpillar_instance(3, 2, tuples=16, domain=6, seed=4), ("tree",)),
    "tree": (_general_tree, None),
    "twig-branching": (_branching_skeleton, ("tree",)),
    "matmul": (lambda: _near_diagonal(300), None),
    "matmul-hubs": (lambda: _hub_row_and_column(120), MATMUL_ALGORITHMS),
    "matmul-hub-column": (lambda: _hub_column(300), MATMUL_ALGORITHMS),
    "matmul-dense": (_dense_aggregation, MATMUL_ALGORITHMS),
    "matmul-unbalanced": (_unbalanced, MATMUL_ALGORITHMS),
}


def _cells():
    for label, (factory, algorithms) in CASES.items():
        if algorithms is None:
            # ``yannakakis`` is always applicable; ``auto`` is the dispatcher.
            algorithms = ["auto"] + applicable_algorithms(factory().query)
        for algorithm in algorithms:
            yield label, algorithm


CELLS = list(_cells())


def _digest(label: str, algorithm: str, backend: str) -> str:
    instance = CASES[label][0]()
    sink = RingBufferSink()
    result = run_query(
        instance,
        ExecutionConfig(p=P, algorithm=algorithm, backend=backend, tracer=Tracer((sink,))),
    )
    document = {
        "report": result.report.to_dict(),
        "trace": [event_to_dict(event) for event in sink.events],
        "rows": [[list(values), annotation] for values, annotation in result.relation],
    }
    text = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy unavailable")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label,algorithm", CELLS, ids=["/".join(c) for c in CELLS])
def test_core_matches_golden_digest(label, algorithm, backend):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest(label, algorithm, backend) == golden[f"{label}/{algorithm}"]


def test_golden_file_has_exactly_the_cells():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(f"{label}/{algorithm}" for label, algorithm in CELLS)


def _count_entries(monkeypatch, module_name: str, function: str, log: list) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, function)

    def counted(*args, **kwargs):
        log.append((function, kwargs.get("salt", args[-1] if args else None)))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, function, counted)


def test_forced_paths_are_entered(monkeypatch):
    """The §3.2 heavy-column and light-column stanzas, LinearSparseMM and
    the unbalanced case each carry at least one golden cell."""
    log: list = []
    sensitive = "repro.core.matmul_output_sensitive"
    _count_entries(monkeypatch, sensitive, "join_tasked", log)
    _count_entries(monkeypatch, sensitive, "linear_sparse_mm", log)
    _count_entries(monkeypatch, "repro.core.matmul_worst_case", "matmul_unbalanced", log)

    def run(label: str, algorithm: str):
        del log[:]
        return run_query(
            CASES[label][0](), ExecutionConfig(p=P, algorithm=algorithm, backend="pytuple")
        ).report

    report = run("matmul-hub-column", "matmul-output-sensitive")
    # salt + 8 joins the group-heavy columns' tasks, salt + 12 the bundles'.
    assert [entry for entry in log if entry[0] == "join_tasked"] == [
        ("join_tasked", 8), ("join_tasked", 12)
    ]
    assert report.elementary_products == 400

    run("matmul-dense", "matmul-output-sensitive")
    # LinearSparseMM is one task spanning the view, reduced with salt + 1.
    assert log == [("linear_sparse_mm", 0), ("join_tasked", 1)]

    report = run("matmul-unbalanced", "matmul-worst-case")
    assert [name for name, _ in log] == ["matmul_unbalanced"]
    assert report.phases == () and report.elementary_products == 120


def _regenerate() -> None:
    golden = {}
    for label, algorithm in CELLS:
        digests = {backend: _digest(label, algorithm, backend) for backend in BACKENDS}
        if len(set(digests.values())) != 1:
            raise SystemExit(f"backends disagree on {label}/{algorithm}: {digests}")
        golden[f"{label}/{algorithm}"] = digests["pytuple"]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_core_golden.py --regenerate")
    _regenerate()
