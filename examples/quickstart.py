"""Quickstart: sparse matrix multiplication as a join-aggregate query.

Multiplies two sparse 0/1 matrices over the counting semiring — i.e.
computes, for every (a, c), the number of length-2 paths a → b → c — on a
simulated 16-server MPC cluster, with both the distributed Yannakakis
baseline and the paper's optimal algorithm, and prints the measured loads.

Run:  python examples/quickstart.py
"""

from repro import Instance, Relation, TreeQuery, run_query
from repro.config import ExecutionConfig
from repro.semiring import COUNTING


def main() -> None:
    # The query ∑_B R1(A,B) ⋈ R2(B,C): a tree with two binary relations,
    # output attributes {A, C}, aggregation over B.
    query = TreeQuery(
        (("R1", ("A", "B")), ("R2", ("B", "C"))),
        output=frozenset({"A", "C"}),
    )

    # A banded sparse matrix: entry (i, j) present when j ∈ {i, i+1, i+2}.
    size = 300
    r1 = Relation("R1", ("A", "B"))
    r2 = Relation("R2", ("B", "C"))
    for i in range(size):
        for offset in (0, 1, 2):
            r1.add((i, (i + offset) % size), 1)
            r2.add(((i + offset) % size, i), 1)

    instance = Instance(query, {"R1": r1, "R2": r2}, COUNTING)

    print(f"N = {instance.total_size} input tuples, p = 16 servers\n")
    for algorithm in ("yannakakis", "auto"):
        result = run_query(instance, ExecutionConfig(p=16, algorithm=algorithm))
        label = "baseline (distributed Yannakakis)" if algorithm == "yannakakis" \
            else f"paper algorithm ({result.algorithm})"
        print(f"{label}:")
        print(f"  output size     : {result.out_size}")
        print(f"  max load L      : {result.report.max_load}")
        print(f"  communication   : {result.report.total_communication}")
        print(f"  rounds          : {result.report.rounds}")
        print(f"  ⊗-products      : {result.report.elementary_products}\n")

    result = run_query(instance, ExecutionConfig(p=16))
    sample = sorted(result.relation.tuples.items())[:5]
    print("first few results (a, c) → #paths:")
    for key, count in sample:
        print(f"  {key} → {count}")


if __name__ == "__main__":
    main()
