"""Two-hop counting on a skewed social graph — where locality pays.

Counts, for every (follower, celebrity-of-celebrity) pair, the number of
2-hop follow paths on a power-law graph.  A handful of celebrities have
enormous in-degree, so the number of elementary products (2-hop path
instances) dwarfs both the input and the distinct output pairs.  The
baseline — even with its skew-resilient join — must *shuffle* every product
to aggregate it; the paper's algorithm arranges the products so most
aggregate where they are computed, and its load stays lower the skewer the
graph gets.

Run:  python examples/social_two_hop.py
"""

from repro import Instance, Relation, TreeQuery, run_query
from repro.config import ExecutionConfig
from repro.semiring import COUNTING
from repro.workloads import power_law_edges


def main() -> None:
    query = TreeQuery(
        (("Follows1", ("A", "B")), ("Follows2", ("B", "C"))),
        output=frozenset({"A", "C"}),
    )
    p = 16
    print(f"{'alpha':>6} {'max deg':>8} {'paths':>8} {'OUT':>8} "
          f"{'L(base)':>8} {'L(ours)':>8} {'speedup':>8}")
    for alpha in (0.8, 1.2, 1.6):
        edges = power_law_edges(
            "E", ("U", "V"), nodes=150, edges=3000, alpha=alpha, seed=7
        )
        max_degree = max(
            edges.degree("V", v) for v in edges.active_domain("V")
        )
        instance = Instance(
            query,
            {
                "Follows1": Relation("Follows1", ("A", "B"), list(edges)),
                "Follows2": Relation("Follows2", ("B", "C"), list(edges)),
            },
            COUNTING,
        )
        baseline = run_query(instance, ExecutionConfig(p=p, algorithm="yannakakis"))
        ours = run_query(instance, ExecutionConfig(p=p, algorithm="auto"))
        assert baseline.relation.tuples == ours.relation.tuples
        print(
            f"{alpha:>6} {max_degree:>8} "
            f"{baseline.report.elementary_products:>8} {ours.out_size:>8} "
            f"{baseline.report.max_load:>8} {ours.report.max_load:>8} "
            f"{baseline.report.max_load / max(1, ours.report.max_load):>8.2f}"
        )
    print("\n(Both algorithms compute the same 2-hop path instances; the "
          "baseline ships them all to aggregate, the paper's algorithm "
          "aggregates most of them in place — the gap widens with skew.)")


if __name__ == "__main__":
    main()
