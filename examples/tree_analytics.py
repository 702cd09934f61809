"""A general tree query end-to-end: the §7 pipeline on a retail schema.

The query joins five relations shaped exactly like the paper's Figure 3
twig — two "hub" attributes (customer segment, product line) each fanning
out to output attributes, connected by a bridge — and asks for total sales
grouped by (region, channel, brand, category), aggregating the hubs away.
The shape is neither free-connex, a line, nor a star: it exercises the full
§7 machinery (statistics, heavy/light split, branch materialization).

Run:  python examples/tree_analytics.py
"""

import random

from repro import Instance, Relation, TreeQuery, run_query
from repro.config import ExecutionConfig
from repro.semiring import COUNTING


def main() -> None:
    rng = random.Random(2024)
    segments = [f"seg{i}" for i in range(12)]
    lines = [f"line{i}" for i in range(12)]
    regions = [f"region{i}" for i in range(8)]
    channels = ["web", "store", "phone", "partner"]
    brands = [f"brand{i}" for i in range(10)]
    categories = [f"cat{i}" for i in range(6)]

    query = TreeQuery(
        (
            ("RegionOf", ("Region", "Segment")),
            ("ChannelOf", ("Channel", "Segment")),
            ("Buys", ("Segment", "Line")),
            ("BrandOf", ("Brand", "Line")),
            ("CategoryOf", ("Category", "Line")),
        ),
        output=frozenset({"Region", "Channel", "Brand", "Category"}),
    )

    def random_relation(name, schema, left, right, tuples):
        relation = Relation(name, schema)
        seen = set()
        while len(seen) < tuples:
            entry = (rng.choice(left), rng.choice(right))
            if entry not in seen:
                seen.add(entry)
                relation.add(entry, rng.randint(1, 9))  # sales count
        return relation

    instance = Instance(
        query,
        {
            "RegionOf": random_relation("RegionOf", ("Region", "Segment"), regions, segments, 40),
            "ChannelOf": random_relation("ChannelOf", ("Channel", "Segment"), channels, segments, 30),
            "Buys": random_relation("Buys", ("Segment", "Line"), segments, lines, 60),
            "BrandOf": random_relation("BrandOf", ("Brand", "Line"), brands, lines, 45),
            "CategoryOf": random_relation("CategoryOf", ("Category", "Line"), categories, lines, 35),
        },
        COUNTING,
    )

    print(f"query class: {query.classify()} "
          f"(two hubs: Segment, Line — the Figure-3 shape)")
    result = run_query(instance, ExecutionConfig(p=16))
    print(f"N = {instance.total_size}, OUT = {result.out_size}, "
          f"load = {result.report.max_load}, rounds = {result.report.rounds}\n")

    top = sorted(
        result.relation.tuples.items(), key=lambda kv: -kv[1]
    )[:8]
    print(f"{'brand':>8} {'category':>9} {'channel':>8} {'region':>8} {'sales':>6}")
    for (brand, category, channel, region), sales in top:
        print(f"{brand:>8} {category:>9} {channel:>8} {region:>8} {sales:>6}")

    baseline = run_query(instance, ExecutionConfig(p=16, algorithm="yannakakis"))
    assert baseline.relation.tuples == result.relation.tuples
    print(f"\nbaseline load {baseline.report.max_load} vs "
          f"paper algorithm {result.report.max_load}")


if __name__ == "__main__":
    main()
