"""Distributed transitive closure and all-pairs shortest paths.

One more consequence of the semiring view: the Kleene closure
``R ⊕ R² ⊕ R³ ⊕ …`` is a loop of the paper's sparse matrix
multiplications.  Path doubling (``C ← C ⊕ C·C``) converges in
⌈log₂ diameter⌉ distributed rounds of matmul — reachability over the
boolean semiring, all-pairs shortest paths over (min, +), with the same
code.

Run:  python examples/transitive_closure.py
"""

import networkx as nx

from repro.config import ExecutionConfig
from repro.data import Relation
from repro.linalg import transitive_closure
from repro.semiring import BOOLEAN, TROPICAL_MIN_PLUS
from repro.workloads import power_law_edges


def main() -> None:
    edges = power_law_edges("E", ("A", "B"), nodes=60, edges=150, seed=11)
    print(f"graph: 60 nodes, {len(edges)} edges\n")

    # Reachability (boolean semiring).
    boolean_edges = Relation("E", ("A", "B"), [(k, True) for k, _ in edges])
    config = ExecutionConfig(p=16)
    reach, report = transitive_closure(boolean_edges, BOOLEAN, config=config)
    print(f"reachable pairs: {len(reach)}  "
          f"(closure load={report.max_load}, rounds={report.rounds})")

    # All-pairs shortest paths (tropical semiring, unit edge costs).
    unit_edges = Relation("E", ("A", "B"), [(k, 1.0) for k, _ in edges])
    distances, report = transitive_closure(unit_edges, TROPICAL_MIN_PLUS,
                                           config=config)
    print(f"shortest-path pairs: {len(distances)}  "
          f"(load={report.max_load}, rounds={report.rounds})")

    # Cross-check against networkx BFS distances.
    graph = nx.DiGraph(list(boolean_edges.tuples))
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    checked = 0
    for (u, v), distance in distances:
        if u != v:
            assert lengths[u][v] == distance, ((u, v), lengths[u][v], distance)
            checked += 1
    print(f"verified {checked} distances against networkx ✓")

    farthest = max(
        ((u, v, d) for (u, v), d in distances.tuples.items() if u != v),
        key=lambda t: t[2],
    )
    print(f"\ngraph 'diameter' witness: {farthest[0]} → {farthest[1]} "
          f"in {int(farthest[2])} hops")


if __name__ == "__main__":
    main()
