"""Maintenance-vs-recompute benchmark for the IVM subsystem.

Measures the metered MPC load of keeping a materialized join-aggregate
view live under deltas (``repro.ivm``, docs/ivm.md) against recomputing
the answer from scratch on the mutated instance, over a sparse
near-diagonal matmul family where a tuple's join neighbourhood is O(1):

* **n sweep** — a fixed small delta applied at growing instance sizes N:
  maintenance load must stay flat (it is |Δ|-proportional) while
  recompute load grows with N, so the advantage ratio widens;
* **delta sweep** — growing batch sizes at fixed N: maintenance load
  scales with |Δ|, closing the gap from the other direction.

Both runs are deterministic (the simulator is seeded and the workload is
constructed, not sampled), so every number in the committed
``BENCH_ivm.json`` is reproducible bit for bit and CI requires the
regenerated document to be byte-identical to it.  Every row also
re-checks the metamorphic contract: the incremental answer must equal the
recompute answer exactly.

The committed full-scale document gates the headline claim: small-delta
maintenance must beat recompute by at least :data:`ADVANTAGE_GATE` (5x).
``--tiny`` runs a CI-sized sweep where the gate is reported, not
enforced.

Run::

    PYTHONPATH=src python benchmarks/bench_ivm.py --out BENCH_ivm.json
    PYTHONPATH=src python benchmarks/bench_ivm.py --tiny
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from repro.config import ExecutionConfig
from repro.core.executor import run_query
from repro.data import Instance, Relation, TreeQuery
from repro.ivm import DeltaBatch, delete, insert, materialize, mutate_instance
from repro.semiring import COUNTING

MATMUL_QUERY = TreeQuery(
    (("R1", ("A", "B")), ("R2", ("B", "C"))), frozenset({"A", "C"})
)

#: Full-scale small-delta advantage the committed document must show.
ADVANTAGE_GATE = 5.0

#: The fixed "small delta" of the n sweep.
SMALL_DELTA = 4

FULL_NS = (1000, 4000, 16000)
TINY_NS = (200, 400)
FULL_DELTAS = (4, 16, 64)
TINY_DELTAS = (4, 8)


def sparse_matmul(n: int) -> Instance:
    """Near-diagonal counting matmul: every join value has O(1)
    neighbours, so a delta's neighbourhood never grows with N."""
    r1 = Relation("R1", ("A", "B"))
    r2 = Relation("R2", ("B", "C"))
    for i in range(n):
        r1.add((i, i), 2)
        r2.add((i, (i + 1) % n), 3)
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)


def make_batch(n: int, changes: int) -> DeltaBatch:
    """A deterministic batch of ``changes`` changes: inserts of new keys
    that join existing diagonal tuples, plus deletions of existing keys —
    all O(1) neighbourhoods, all disjoint."""
    out: List[Any] = []
    for i in range(changes):
        kind = i % 4
        if kind == 0:
            out.append(insert("R1", (n + i, 2 * i), 5))
        elif kind == 1:
            out.append(insert("R2", (2 * i + 1, n + i), 7))
        elif kind == 2:
            out.append(delete("R1", (n // 2 + i, n // 2 + i)))
        else:
            out.append(delete("R2", (n // 4 + i, (n // 4 + i + 1) % n)))
    return DeltaBatch(tuple(out))


def _answer_map(relation) -> Dict[Any, Any]:
    order = sorted(range(len(relation.schema)),
                   key=lambda i: relation.schema[i])
    return {tuple(values[i] for i in order): annotation
            for values, annotation in relation}


def measure(sweep: str, n: int, changes: int, p: int) -> Dict[str, Any]:
    """One row: apply a batch incrementally, recompute from scratch,
    compare loads and answers."""
    instance = sparse_matmul(n)
    batch = make_batch(n, changes)
    config = ExecutionConfig(p=p)
    view = materialize(instance, config)
    result = view.apply(batch)
    recompute = run_query(mutate_instance(instance, batch), config=config)
    identical = _answer_map(view.answer()) == _answer_map(recompute.relation)
    recompute_load = recompute.report.max_load
    advantage = recompute_load / max(1, result.load)
    return {
        "sweep": sweep,
        "family": "matmul-sparse",
        "n": n,
        "changes": changes,
        "runs": result.runs,
        "maintenance_load": result.load,
        "recompute_load": recompute_load,
        "advantage": round(advantage, 3),
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke scale (gate reported, not enforced)")
    parser.add_argument("--p", type=int, default=8, help="number of servers")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON document here")
    args = parser.parse_args(argv)

    ns = TINY_NS if args.tiny else FULL_NS
    deltas = TINY_DELTAS if args.tiny else FULL_DELTAS
    rows = [measure("n", n, SMALL_DELTA, args.p) for n in ns]
    rows += [measure("delta", ns[-1], changes, args.p) for changes in deltas]

    small = [row for row in rows if row["sweep"] == "n"]
    document = {
        "scale": "tiny" if args.tiny else "full",
        "p": args.p,
        "small_delta": SMALL_DELTA,
        "gate_advantage": ADVANTAGE_GATE,
        "min_small_delta_advantage": min(row["advantage"] for row in small),
        "rows": rows,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(f"IVM maintenance vs recompute (p={args.p}, "
          f"scale={document['scale']}); loads are metered\n")
    print(f"{'sweep':>6} {'N':>7} {'|delta|':>8} {'L(maint)':>9} "
          f"{'L(recomp)':>10} {'advantage':>10} {'identical':>9}")
    for row in rows:
        print(f"{row['sweep']:>6} {row['n']:>7} {row['changes']:>8} "
              f"{row['maintenance_load']:>9} {row['recompute_load']:>10} "
              f"{row['advantage']:>9.1f}x {str(row['identical']):>9}")
    if args.out:
        print(f"\ndocument written to {args.out}")

    failures = [f"{row['sweep']} n={row['n']}: answers differ"
                for row in rows if not row["identical"]]
    if not args.tiny:
        for row in small:
            if row["advantage"] < ADVANTAGE_GATE:
                failures.append(
                    f"n={row['n']}: small-delta advantage "
                    f"{row['advantage']:.1f}x below the "
                    f"{ADVANTAGE_GATE:.0f}x gate")
    if failures:
        for message in failures:
            print(f"GATE FAILURE: {message}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
