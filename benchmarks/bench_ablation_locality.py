"""E7 — ablation: *locality* is where the matmul win comes from (§1.5).

The paper: "our algorithm performs the same amount of computation as the
Yannakakis algorithm and computes all the O(N·√OUT) elementary products …
The key to the reduction in load is locality: we arrange these elementary
products to be computed on the servers in such a way that most of them can
be aggregated locally.  The standard Yannakakis algorithm has no locality
at all, and all the elementary products are shuffled around."

We therefore measure, for both algorithms on the same instances:
  * elementary products computed (must be ≈ equal — same work), and
  * total communication (the baseline's must scale with the product count,
    ours must not).
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.workloads import planted_out_matmul

from harness import registry

N = 800
P = 16


@pytest.mark.parametrize("out", [3200, 25600, 204800])
def test_locality_ablation(benchmark, out):
    table = registry.table(
        "E7",
        f"Locality ablation — same products, different shuffling (N={N}, p={P})",
        ["OUT", "products(yann)", "products(ours)", "comm(yann)", "comm(ours)",
         "L(yann)", "L(ours)"],
    )
    instance = planted_out_matmul(n=N, out=out)

    def run():
        baseline = run_query(instance, ExecutionConfig(p=P, algorithm="yannakakis"))
        ours = run_query(instance, ExecutionConfig(p=P, algorithm="auto"))
        assert baseline.relation.tuples == ours.relation.tuples
        return baseline, ours

    baseline, ours = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add(
        out,
        baseline.report.elementary_products,
        ours.report.elementary_products,
        baseline.report.total_communication,
        ours.report.total_communication,
        baseline.report.max_load,
        ours.report.max_load,
    )
    # Same semiring work, within a small constant (both must compute every
    # product of the planted family at least once).
    assert ours.report.elementary_products >= baseline.report.elementary_products / 2
    assert ours.report.elementary_products <= 4 * baseline.report.elementary_products
    if out >= 25600:
        # The baseline ships ≈ every product; ours aggregates locally.
        assert ours.report.total_communication < baseline.report.total_communication


def test_baseline_comm_tracks_products(benchmark):
    """Communication of the baseline grows ≈ linearly with the product count
    (it shuffles the intermediate join); ours stays near-flat."""

    def run():
        rows = []
        for out in (3200, 204800):
            instance = planted_out_matmul(n=N, out=out)
            baseline = run_query(instance, ExecutionConfig(p=P, algorithm="yannakakis"))
            ours = run_query(instance, ExecutionConfig(p=P, algorithm="auto"))
            rows.append(
                (baseline.report.total_communication, ours.report.total_communication)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline_growth = rows[1][0] / rows[0][0]
    ours_growth = rows[1][1] / rows[0][1]
    assert baseline_growth > 4 * ours_growth
