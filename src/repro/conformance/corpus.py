"""Failing-case corpus: serialize minimal repros, replay them as tests.

A corpus entry is one JSON file::

    {
      "format": "repro-conformance-case/v1",
      "meta": {"invariant": ..., "profile": ..., "family": ..., "skew": ...,
               "p": ..., "p_large": ..., "seed": ..., "message": ...},
      "instance": { ... repro.io instance document, counting semiring ... }
    }

The data rides in :mod:`repro.io`'s instance interchange format — always
over the counting semiring (the skeleton's integer weights), because the
semiring *profile* in ``meta`` re-annotates deterministically at replay
time (see :func:`repro.conformance.generators.materialize`).  That is what
lets a provenance- or opaque-semiring failure round-trip through JSON.

``pytest`` replays every entry under ``tests/corpus/`` automatically
(tests/test_corpus_replay.py), so a shrunk fuzz failure checked in there
becomes a permanent regression test.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from ..io import instance_from_json, instance_to_json
from .generators import FuzzCase, materialize, skeleton_size
from .invariants import INVARIANTS

__all__ = [
    "FORMAT",
    "case_to_document",
    "case_from_document",
    "save_case",
    "corpus_files",
    "load_case",
    "replay_case",
]

FORMAT = "repro-conformance-case/v1"


def case_to_document(case: FuzzCase, meta: Dict[str, object]) -> Dict[str, object]:
    """The JSON document for one corpus entry."""
    skeleton_instance = materialize(case, profile="counting")
    merged = {
        "invariant": meta.get("invariant", "differential"),
        "profile": case.profile,
        "family": case.family,
        "skew": case.skew,
        "seed": case.seed,
        "tuples": skeleton_size(case),
        **meta,
    }
    return {
        "format": FORMAT,
        "meta": merged,
        "instance": json.loads(instance_to_json(skeleton_instance)),
    }


def case_from_document(document: Dict[str, object]) -> Tuple[FuzzCase, Dict[str, object]]:
    """Inverse of :func:`case_to_document`."""
    if document.get("format") != FORMAT:
        raise ValueError(f"not a conformance case document: {document.get('format')!r}")
    meta = dict(document["meta"])
    instance = instance_from_json(json.dumps(document["instance"]))
    skeleton = {
        name: [(values, weight) for values, weight in instance.relation(name)]
        for name, _attrs in instance.query.relations
    }
    case = FuzzCase(
        query=instance.query,
        skeleton=skeleton,
        profile=str(meta.get("profile", "counting")),
        family=str(meta.get("family", "unknown")),
        skew=str(meta.get("skew", "uniform")),
        seed=int(meta.get("seed", 0)),
    )
    return case, meta


def save_case(
    case: FuzzCase, meta: Dict[str, object], directory: str
) -> str:
    """Write one corpus entry; returns its path.

    File names are deterministic in (run seed, iteration, invariant) so a
    rerun of the same fuzz configuration overwrites rather than piles up.
    """
    os.makedirs(directory, exist_ok=True)
    name = (
        f"case-s{meta.get('run_seed', case.seed)}"
        f"-i{meta.get('iteration', 0)}"
        f"-{meta.get('invariant', 'differential')}.json"
    )
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(case_to_document(case, meta), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def corpus_files(directory: str) -> List[str]:
    """Sorted corpus entry paths under ``directory`` (empty if absent)."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


def load_case(path: str) -> Tuple[FuzzCase, Dict[str, object]]:
    """Load one corpus entry from disk."""
    with open(path) as handle:
        return case_from_document(json.load(handle))


def replay_case(
    case: FuzzCase,
    meta: Dict[str, object],
    p: Optional[int] = None,
) -> None:
    """Re-run the failing invariant on a corpus case.

    Raises :class:`~repro.conformance.invariants.InvariantViolation` (or
    whatever the algorithms raise) while the underlying bug is present;
    passes silently once it is fixed.
    """
    invariant = str(meta.get("invariant", "differential"))
    check = INVARIANTS.get(invariant)
    if check is None:
        raise ValueError(f"unknown invariant {invariant!r} in corpus entry")
    from .runner import FuzzConfig

    config = FuzzConfig(
        p=int(p if p is not None else meta.get("p", 4)),
        p_large=int(meta.get("p_large", 8)),
    )
    check(case, config)
