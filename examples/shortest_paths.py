"""Shortest paths via tropical matrix multiplication.

The semiring framework means "matrix multiplication" computes far more than
numeric products: over (min, +), ∑_B R(A,B) ⋈ R(B,C) yields, for every pair
(a, c), the cheapest 2-hop route a → b → c.  This example runs it on a grid
road network and cross-checks a few entries against networkx's Dijkstra on
the 2-hop-restricted graph.

Run:  python examples/shortest_paths.py
"""

import math

import networkx as nx

from repro import Instance, Relation, TreeQuery, run_query
from repro.config import ExecutionConfig
from repro.semiring import TROPICAL_MIN_PLUS
from repro.workloads import grid_road_network


def main() -> None:
    side = 12
    roads = grid_road_network("E", ("U", "V"), side=side, seed=42)
    print(f"road network: {side}×{side} grid, {len(roads)} directed segments")

    query = TreeQuery(
        (("Hop1", ("A", "B")), ("Hop2", ("B", "C"))),
        output=frozenset({"A", "C"}),
    )
    hop1 = Relation("Hop1", ("A", "B"), list(roads))
    hop2 = Relation("Hop2", ("B", "C"), list(roads))
    instance = Instance(query, {"Hop1": hop1, "Hop2": hop2}, TROPICAL_MIN_PLUS)

    result = run_query(instance, ExecutionConfig(p=16))
    print(f"2-hop distance pairs computed: {result.out_size}")
    print(f"cluster load L = {result.report.max_load}, "
          f"rounds = {result.report.rounds}\n")

    # Cross-check against networkx: min over b of cost(a,b) + cost(b,c).
    graph = nx.DiGraph()
    for (u, v), cost in roads.tuples.items():
        graph.add_edge(u, v, weight=cost)

    checked = 0
    for (a, c), distance in sorted(result.relation.tuples.items())[:200]:
        best = math.inf
        for b in graph.successors(a):
            if graph.has_edge(b, c):
                best = min(best, graph[a][b]["weight"] + graph[b][c]["weight"])
        assert best == distance, ((a, c), best, distance)
        checked += 1
    print(f"verified {checked} entries against networkx adjacency ✓")

    source = (0, 0)
    reachable = sorted(
        (dist, dest) for (src, dest), dist in result.relation.tuples.items()
        if src == source
    )[:5]
    print(f"\ncheapest 2-hop destinations from {source}:")
    for dist, dest in reachable:
        print(f"  {dest}: cost {dist}")

    # Bonus: swap the semiring and the same query returns the THREE
    # cheapest routes per pair instead of one (top-k semiring).
    from repro.semiring import top_k_smallest

    top3 = top_k_smallest(3)
    hop1_k = Relation("Hop1", ("A", "B"), [(k, (w,)) for k, w in roads.tuples.items()])
    hop2_k = Relation("Hop2", ("B", "C"), [(k, (w,)) for k, w in roads.tuples.items()])
    ranked = run_query(
        Instance(query, {"Hop1": hop1_k, "Hop2": hop2_k}, top3), ExecutionConfig(p=16)
    )
    a, c = next(iter(sorted(ranked.relation.tuples)))
    print(f"\ntop-3 route costs {a} → {c}: {ranked.relation.tuples[(a, c)]}")


if __name__ == "__main__":
    main()
