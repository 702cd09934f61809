"""Loading and saving relations and instances.

Plain-text formats so instances can come from anywhere:

* **TSV** — one tuple per line, attribute columns then an annotation
  column; values are kept as strings unless a ``parse`` hook converts them
  (``int``/``float`` are built in);
* **JSON** — a whole :class:`~repro.data.query.Instance` (query shape,
  output attributes, relations, named semiring) in one document, the
  interchange format used to pin down benchmark inputs;
* **delta JSON** (``repro-delta/v1``) — a :class:`~repro.ivm.DeltaBatch`
  as one document, so change streams are replayable corpus artifacts
  alongside the instances they mutate.

Only the standard semirings can be named in JSON (annotations must be JSON
values); arbitrary semirings still work through the TSV path with a custom
``parse_annotation``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union

from .data.query import Instance, TreeQuery
from .data.relation import Relation
from .semiring import STANDARD_SEMIRINGS, Semiring

__all__ = [
    "write_relation_tsv",
    "read_relation_tsv",
    "instance_to_json",
    "instance_from_json",
    "write_instance_json",
    "read_instance_json",
    "delta_to_json",
    "delta_from_json",
    "write_delta_json",
    "read_delta_json",
    "jsonify",
]

#: Format tag stamped into every serialized delta document.
DELTA_FORMAT = "repro-delta/v1"

_SEMIRINGS_BY_NAME: Dict[str, Semiring] = {s.name: s for s in STANDARD_SEMIRINGS}


def write_relation_tsv(relation: Relation, target: Union[str, IO[str]]) -> None:
    """Write ``relation`` as TSV: a header row of attribute names plus
    ``__annotation``, then one row per tuple."""

    def dump(handle: IO[str]) -> None:
        handle.write("\t".join([*relation.schema, "__annotation"]) + "\n")
        for values, annotation in relation:
            row = [str(value) for value in values] + [str(annotation)]
            handle.write("\t".join(row) + "\n")

    if isinstance(target, str):
        with open(target, "w") as handle:
            dump(handle)
    else:
        dump(target)


def read_relation_tsv(
    source: Union[str, IO[str]],
    name: str = "R",
    parse_value: Callable[[str], Any] = None,
    parse_annotation: Callable[[str], Any] = None,
    semiring: Optional[Semiring] = None,
) -> Relation:
    """Read a TSV written by :func:`write_relation_tsv` (or hand-made).

    ``parse_value``/``parse_annotation`` convert the string cells; the
    defaults try ``int`` then ``float`` then keep the string.  Duplicate
    tuples are ⊕-combined when a semiring is supplied.
    """
    parse_value = parse_value or _auto_parse
    parse_annotation = parse_annotation or _auto_parse

    def load(handle: IO[str]) -> Relation:
        header = handle.readline().rstrip("\n").split("\t")
        if not header or header[-1] != "__annotation":
            raise ValueError("TSV must end with an __annotation column")
        schema = tuple(header[:-1])
        relation = Relation(name, schema)
        for line_number, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise ValueError(f"line {line_number}: expected {len(header)} cells")
            values = tuple(parse_value(cell) for cell in cells[:-1])
            relation.add(values, parse_annotation(cells[-1]), semiring)
        return relation

    if isinstance(source, str):
        with open(source) as handle:
            return load(handle)
    return load(source)


def _auto_parse(cell: str) -> Any:
    for converter in (int, float):
        try:
            return converter(cell)
        except ValueError:
            continue
    return cell


def instance_to_json(instance: Instance) -> str:
    """Serialize an instance (query + data + semiring name) to JSON.

    Annotations and attribute values must be JSON-serializable; tuples are
    stored in the :func:`jsonify` form and restored as tuples.
    """
    if instance.semiring.name not in _SEMIRINGS_BY_NAME:
        raise ValueError(
            f"only standard semirings can be serialized, not "
            f"{instance.semiring.name!r}"
        )
    document = {
        "semiring": instance.semiring.name,
        "output": sorted(instance.query.output),
        "relations": [
            {
                "name": name,
                "schema": list(attrs),
                "tuples": [
                    [jsonify(v) for v in values] + [jsonify(w)]
                    for values, w in instance.relation(name)
                ],
            }
            for name, attrs in instance.query.relations
        ],
    }
    return json.dumps(document)


def instance_from_json(document: Union[str, dict]) -> Instance:
    """Inverse of :func:`instance_to_json`."""
    data = json.loads(document) if isinstance(document, str) else document
    semiring = _SEMIRINGS_BY_NAME.get(data["semiring"])
    if semiring is None:
        raise ValueError(f"unknown semiring {data['semiring']!r}")
    specs: List[Tuple[str, Tuple[str, str]]] = []
    relations: Dict[str, Relation] = {}
    for entry in data["relations"]:
        schema = tuple(entry["schema"])
        specs.append((entry["name"], schema))
        relation = Relation(entry["name"], schema)
        for row in entry["tuples"]:
            values = tuple(_unjsonify(v) for v in row[:-1])
            relation.add(values, _unjsonify(row[-1]), semiring)
        relations[entry["name"]] = relation
    query = TreeQuery(tuple(specs), frozenset(data["output"]))
    return Instance(query, relations, semiring)


def write_instance_json(instance: Instance, path: str, indent: int = 2) -> None:
    """Write :func:`instance_to_json` output to ``path`` (pretty-printed,
    stable key order — suitable for checked-in fixtures and fuzz corpora)."""
    document = json.loads(instance_to_json(instance))
    with open(path, "w") as handle:
        json.dump(document, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def read_instance_json(path: str) -> Instance:
    """Load an instance written by :func:`write_instance_json`."""
    with open(path) as handle:
        return instance_from_json(json.load(handle))


def delta_to_json(batch: "DeltaBatch") -> str:
    """Serialize a :class:`~repro.ivm.DeltaBatch` to JSON.

    Annotations and attribute values must be JSON-serializable (the same
    constraint as :func:`instance_to_json`); tuples are stored in the
    :func:`jsonify` form and restored as tuples.
    """
    document = {
        "format": DELTA_FORMAT,
        "changes": [
            {
                "relation": change.relation,
                "op": change.op,
                "values": [jsonify(v) for v in change.values],
                **(
                    {"annotation": jsonify(change.annotation)}
                    if change.annotation is not None
                    else {}
                ),
            }
            for change in batch
        ],
    }
    return json.dumps(document)


def delta_from_json(document: Union[str, dict]) -> "DeltaBatch":
    """Inverse of :func:`delta_to_json`."""
    from .ivm.delta import DeltaBatch, DeltaChange

    data = json.loads(document) if isinstance(document, str) else document
    if data.get("format") != DELTA_FORMAT:
        raise ValueError(
            f"not a delta document: format {data.get('format')!r}, "
            f"expected {DELTA_FORMAT!r}"
        )
    return DeltaBatch(
        tuple(
            DeltaChange(
                relation=entry["relation"],
                op=entry["op"],
                values=tuple(_unjsonify(v) for v in entry["values"]),
                annotation=_unjsonify(entry.get("annotation")),
            )
            for entry in data["changes"]
        )
    )


def write_delta_json(batch: "DeltaBatch", path: str, indent: int = 2) -> None:
    """Write :func:`delta_to_json` output to ``path`` (pretty-printed,
    stable key order — the mirror of :func:`write_instance_json`)."""
    document = json.loads(delta_to_json(batch))
    with open(path, "w") as handle:
        json.dump(document, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def read_delta_json(path: str) -> "DeltaBatch":
    """Load a delta batch written by :func:`write_delta_json`."""
    with open(path) as handle:
        return delta_from_json(json.load(handle))


def jsonify(value: Any) -> Any:
    """The JSON form of an attribute value or annotation: tuples, at any
    depth, become ``{"__tuple__": [...]}``; everything else is unchanged.
    The one definition of the convention, for documents and service bodies."""
    if isinstance(value, tuple):
        return {"__tuple__": [jsonify(v) for v in value]}
    return value


def _unjsonify(value: Any) -> Any:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_unjsonify(v) for v in value["__tuple__"])
    return value
