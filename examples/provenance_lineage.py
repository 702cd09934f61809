"""Why-provenance through a line query: which base tuples explain a result?

Annotated relations carry their answers' derivations when the semiring is a
provenance semiring.  Here a 3-step supply chain — supplier → part →
assembly → product — is queried for (supplier, product) connections, and
every answer arrives with its *witness sets*: the minimal combinations of
base tuples that produce it.  The MPC algorithms never look inside the
annotations, so provenance rides through the whole distributed pipeline.

Run:  python examples/provenance_lineage.py
"""

from repro import Instance, Relation, TreeQuery, run_query
from repro.config import ExecutionConfig
from repro.semiring import WHY_PROVENANCE


def witness(tag: str):
    """The why-provenance annotation of one base tuple."""
    return frozenset({frozenset({tag})})


def main() -> None:
    query = TreeQuery(
        (
            ("Supplies", ("Supplier", "Part")),
            ("UsedIn", ("Part", "Assembly")),
            ("BuildInto", ("Assembly", "Product")),
        ),
        output=frozenset({"Supplier", "Product"}),
    )

    supplies = Relation("Supplies", ("Supplier", "Part"))
    used_in = Relation("UsedIn", ("Part", "Assembly"))
    build_into = Relation("BuildInto", ("Assembly", "Product"))

    for supplier, part in [
        ("acme", "bolt"), ("acme", "gear"), ("globex", "gear"),
        ("globex", "spring"), ("initech", "bolt"),
    ]:
        supplies.add((supplier, part), witness(f"S:{supplier}->{part}"))
    for part, assembly in [
        ("bolt", "frame"), ("gear", "motor"), ("spring", "motor"),
        ("gear", "frame"),
    ]:
        used_in.add((part, assembly), witness(f"U:{part}->{assembly}"))
    for assembly, product in [("frame", "bike"), ("motor", "bike"),
                              ("motor", "scooter")]:
        build_into.add((assembly, product), witness(f"B:{assembly}->{product}"))

    instance = Instance(
        query,
        {"Supplies": supplies, "UsedIn": used_in, "BuildInto": build_into},
        WHY_PROVENANCE,
    )
    result = run_query(instance, ExecutionConfig(p=8))

    print("supplier → product connections with their witness sets:\n")
    for (product, supplier), witnesses in sorted(result.relation.tuples.items()):
        print(f"{supplier} → {product}:")
        for witness_set in sorted(witnesses, key=sorted):
            chain = " , ".join(sorted(witness_set))
            print(f"    via {{{chain}}}")
        print()
    print(f"(computed on a simulated cluster: load {result.report.max_load}, "
          f"{result.report.rounds} rounds)")


if __name__ == "__main__":
    main()
