"""Benchmark harness result files: latest + dated history, JSON export."""

import importlib.util
import itertools
import json
import os
import sys

HARNESS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "harness.py"
)
_counter = itertools.count()


def _load(path, stem):
    name = f"{stem}_under_test_{next(_counter)}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations via sys.modules
    spec.loader.exec_module(module)
    return module


def _fresh_harness():
    """Load benchmarks/harness.py as an isolated module (fresh registry)."""
    return _load(HARNESS_PATH, "bench_harness")


def _record(harness, value):
    table = harness.registry.table("exp1", "demo experiment", ("knob", "load"))
    table.add("a", value)


def test_write_results_keeps_latest_plus_history(tmp_path):
    harness = _fresh_harness()
    _record(harness, 10)
    path = str(tmp_path / "results.md")

    harness.write_results(path, now="2026-08-05T10:00:00")
    first = open(path).read()
    assert "## Latest run — 2026-08-05T10:00:00" in first
    assert "## History" not in first

    harness.write_results(path, now="2026-08-06T10:00:00")
    second = open(path).read()
    assert "## Latest run — 2026-08-06T10:00:00" in second
    assert "## History" in second
    assert "### Run — 2026-08-05T10:00:00" in second
    # The tables appear in both the latest block and the history entry.
    assert second.count("== exp1: demo experiment ==") == 2


def test_write_results_folds_legacy_format_into_history(tmp_path):
    harness = _fresh_harness()
    _record(harness, 7)
    path = str(tmp_path / "results.md")
    with open(path, "w") as handle:
        handle.write("== old: legacy table ==\nknob  load\na  1\n")
    harness.write_results(path, now="2026-08-06T11:00:00")
    text = open(path).read()
    assert "## Latest run — 2026-08-06T11:00:00" in text
    assert "### Run — (undated earlier run)" in text
    assert "legacy table" in text


def test_history_is_capped(tmp_path):
    harness = _fresh_harness()
    _record(harness, 1)
    path = str(tmp_path / "results.md")
    for day in range(1, harness.HISTORY_LIMIT + 4):
        harness.write_results(path, now=f"2026-07-{day:02d}T00:00:00")
    text = open(path).read()
    assert text.count("### Run — ") == harness.HISTORY_LIMIT


def test_write_results_json(tmp_path):
    harness = _fresh_harness()
    _record(harness, 42)
    harness.registry.table("exp1", "demo experiment", ("knob", "load")).add("b", 3.5)
    path = str(tmp_path / "results.json")
    harness.write_results_json(path, now="2026-08-06T12:00:00")
    document = json.load(open(path))
    assert document["generated"] == "2026-08-06T12:00:00"
    table = document["tables"]["exp1"]
    assert table["header"] == ["knob", "load"]
    assert table["rows"] == [["a", 42], ["b", 3.5]]


def test_empty_registry_emits_valid_empty_json(tmp_path):
    """A zero-row run (e.g. an empty family selection) must still produce a
    loadable results.json; results.md is skipped so an empty run does not
    churn real tables down the capped history."""
    harness = _fresh_harness()
    md = tmp_path / "results.md"
    harness.write_results(str(md), now="2026-08-06T00:00:00")
    path = tmp_path / "results.json"
    harness.write_results_json(str(path), now="2026-08-06T00:00:00")
    assert not md.exists()
    document = json.load(open(path))
    assert document == {"generated": "2026-08-06T00:00:00", "tables": {}}


def test_write_results_json_accepts_bare_filename(tmp_path, monkeypatch):
    """A path with no directory component must not crash makedirs."""
    harness = _fresh_harness()
    monkeypatch.chdir(tmp_path)
    harness.write_results_json("results.json", now="2026-08-06T00:00:00")
    assert json.load(open("results.json"))["tables"] == {}


def test_table1_empty_family_selection():
    from repro.api import TABLE1_FAMILIES, table1
    from repro.config import ExecutionConfig

    config = ExecutionConfig(p=4)
    assert table1(scale=40, config=config, families=()) == []
    rows = table1(scale=40, config=config, families=("matmul",))
    assert [row.label for row in rows] == ["matmul"]
    assert set(TABLE1_FAMILIES) >= {"matmul", "line", "star", "tree"}

    import pytest
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        table1(scale=40, config=config, families=("nope",))


def test_every_ledger_span_target_resolves():
    """The end-to-end ledger times the library by replacing the public
    callables named in ``benchmarks/e2e/spans.py::TARGETS``.  One that was
    renamed or folded away only warns there (its layer reads null), and
    the ledger's own selfcheck is outside tier-1, so pin the names here."""
    spans = _load(os.path.join(os.path.dirname(HARNESS_PATH), "e2e", "spans.py"),
                  "ledger_spans")
    for name, module_name, path, _tag_of in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert spans._expand(module, path), (name, module_name, path)
