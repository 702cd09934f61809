"""E4 — Table 1, row "Tree".

Baseline: O(N/p + N·OUT/p).  New algorithm (§7):
O(N·OUT^{2/3}/p + (N+OUT)/p).  Measured on the Figure-3 twig family
(two high-degree attributes joined by a bridge) and on star-like twigs,
sweeping the output size through the domain width.
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.theory import new_algorithm_load, yannakakis_load
from repro.workloads import starlike_instance, twig_instance

from harness import registry

P = 16
TUPLES = 250


def _measure(instance):
    baseline = run_query(instance, ExecutionConfig(p=P, algorithm="yannakakis"))
    ours = run_query(instance, ExecutionConfig(p=P, algorithm="auto"))
    assert baseline.relation.tuples == ours.relation.tuples
    return baseline, ours


@pytest.mark.parametrize("domain", [24, 48, 96])
def test_table1_tree_row(benchmark, domain):
    table = registry.table(
        "E4",
        f"Table 1 / tree (twig) queries (Figure-3 family, N={TUPLES}/relation, p={P})",
        ["domain", "OUT", "L(yann)", "L(ours)", "th.yann", "th.ours"],
    )
    instance = twig_instance(tuples=TUPLES, domain=domain, seed=domain)
    baseline, ours = benchmark.pedantic(
        _measure, args=(instance,), rounds=1, iterations=1
    )
    n = instance.total_size
    out = baseline.out_size
    table.add(
        domain,
        out,
        baseline.report.max_load,
        ours.report.max_load,
        yannakakis_load("tree", n, out, P),
        new_algorithm_load("tree", n, out, P),
    )
    assert ours.report.max_load <= 20 * new_algorithm_load("tree", n, out, P) + 8 * n / P


def test_table1_starlike_row(benchmark):
    table = registry.table(
        "E4b",
        f"Star-like twigs (arms 1-2-2, N={TUPLES}/relation, p={P})",
        ["domain", "OUT", "L(yann)", "L(ours)"],
    )

    def run():
        rows = []
        for domain in (16, 40):
            instance = starlike_instance(
                [1, 2, 2], tuples=TUPLES, domain=domain, seed=domain
            )
            baseline, ours = _measure(instance)
            rows.append(
                (domain, baseline.out_size, baseline.report.max_load,
                 ours.report.max_load)
            )
        return rows

    for row in benchmark.pedantic(run, rounds=1, iterations=1):
        table.add(*row)


def test_table1_tree_dense_twig_beats_baseline(benchmark):
    """A fat twig (small domain ⇒ huge intermediates) is where §7 wins."""

    def run():
        instance = twig_instance(tuples=TUPLES, domain=24, seed=7)
        return _measure(instance)

    baseline, ours = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ours.report.max_load < baseline.report.max_load


def test_table1_caterpillar_row(benchmark):
    """Deeper skeletons: a 3-hub caterpillar (V* of size 3, two recursion
    levels of §7.1)."""
    from repro.workloads import caterpillar_instance

    table = registry.table(
        "E4c",
        f"Caterpillar twigs (3 hubs × 2 legs, p={P})",
        ["tuples", "OUT", "L(yann)", "L(ours)"],
    )

    def run():
        rows = []
        for tuples, domain in ((20, 8), (30, 12)):
            instance = caterpillar_instance(
                spine=3, legs_per_hub=2, tuples=tuples, domain=domain, seed=tuples,
            )
            baseline, ours = _measure(instance)
            rows.append((tuples, baseline.out_size, baseline.report.max_load,
                         ours.report.max_load))
        return rows

    for row in benchmark.pedantic(run, rounds=1, iterations=1):
        table.add(*row)
