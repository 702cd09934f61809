"""Relational analytics with the high-level query API.

A miniature ratings warehouse — users rate movies, movies have genres,
users live in cities — queried three ways without constructing a
``TreeQuery`` by hand:

* COUNT(*) GROUP BY (city, genre): how many rating events connect a city
  to a genre (`repro.queries.count_group_by`);
* join-project: which (city, genre) pairs co-occur at all
  (`repro.queries.join_project`);
* and the same grouped count through the full annotated-relation API with
  rating values summed instead of counted.

Run:  python examples/movie_analytics.py
"""

import random

from repro import Instance, Relation, TreeQuery, run_query
from repro.config import ExecutionConfig
from repro.queries import count_group_by, join_project
from repro.semiring import COUNTING


def build_warehouse(seed: int = 7):
    rng = random.Random(seed)
    cities = ["oslo", "lima", "pune", "kyoto", "quito"]
    genres = ["drama", "comedy", "scifi", "noir"]
    users = [f"u{i}" for i in range(40)]
    movies = [f"m{i}" for i in range(25)]

    lives_in = Relation("LivesIn", ("City", "User"))
    for user in users:
        lives_in.add((rng.choice(cities), user), 1)

    rated = Relation("Rated", ("User", "Movie"))
    seen = set()
    while len(seen) < 150:
        pair = (rng.choice(users), rng.choice(movies))
        if pair not in seen:
            seen.add(pair)
            rated.add(pair, rng.randint(1, 5))  # the star rating

    genre_of = Relation("GenreOf", ("Movie", "Genre"))
    for movie in movies:
        genre_of.add((movie, rng.choice(genres)), 1)

    schemas = [
        ("LivesIn", ("City", "User")),
        ("Rated", ("User", "Movie")),
        ("GenreOf", ("Movie", "Genre")),
    ]
    return schemas, {"LivesIn": lives_in, "Rated": rated, "GenreOf": genre_of}


def main() -> None:
    schemas, relations = build_warehouse()

    # 1. COUNT(*) GROUP BY (City, Genre): a line query under the hood.
    counts = count_group_by(
        relations, schemas, group_by=["City", "Genre"], config=ExecutionConfig(p=8)
    )
    print(f"rating events per (city, genre) — {counts.out_size} groups, "
          f"algorithm: {counts.algorithm}, load {counts.report.max_load}")
    top = sorted(counts.relation.tuples.items(), key=lambda kv: -kv[1])[:5]
    for (city, genre), count in top:
        print(f"  {city:>6} × {genre:<7} {count:>3} ratings")

    # 2. Which pairs co-occur at all (join-project / conjunctive query).
    pairs = join_project(
        relations, schemas, output=["City", "Genre"], config=ExecutionConfig(p=8)
    )
    print(f"\ndistinct (city, genre) connections: {len(pairs)}")

    # 3. Sum of stars instead of counts: keep the annotations.
    query = TreeQuery(tuple(schemas), frozenset({"City", "Genre"}))
    stars = run_query(Instance(query, relations, COUNTING), ExecutionConfig(p=8))
    loudest = max(stars.relation.tuples.items(), key=lambda kv: kv[1])
    print(f"most stars overall: {loudest[0][0]} × {loudest[0][1]} "
          f"with {loudest[1]} total stars")


if __name__ == "__main__":
    main()
