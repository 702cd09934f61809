"""Self-check of the ledger: ``python -m pytest benchmarks/e2e/test_selfcheck.py``.

Not part of tier-1 (``testpaths`` is ``tests``); run it after touching
anything under ``benchmarks/e2e/``.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, manifest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_tiny_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "tiny.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny", "--traced",
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:]
    assert "not comparable" in done.stdout
    runs = json.loads(out.read_text())["runs"]
    for name in WORKLOADS:
        for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
            (run,) = [r for r in runs if r["workload"] == name and r["trace"] == trace]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
            assert list(run["metrics"]) == [m.name for m in declared]
            for metric in declared:
                reading = run["metrics"][metric.name]
                assert reading["unit"] == metric.unit
                assert isinstance(reading["value"], (int, float)), (name, metric.name)
                if trace == 0:
                    assert reading["value"] > 0, (name, metric.name)


def test_manifest_is_the_tables_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == manifest(), "run `run.py --write-manifest`"
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in committed[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    for entry in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in committed["end_to_end"])
    setup = [e for e in committed["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in committed["end_to_end"])}]
    # 4 + 22 runs per workload, set-up and checks included, within the cap.
    assert (4 + 22 * len(committed["workloads"])) * (committed["run_seconds"] + 12) < 3420


def test_readme_names_every_workload_and_metric():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for name in list(WORKLOADS) + [m.name for m in END_TO_END + PER_LAYER]:
        assert f"`{name}`" in readme, name


def _runs(path, workload, **metrics):
    runs = [
        {"workload": workload, "seed": i, "trace": 0, "correct": True,
         "attempted": 1, "failed": 0,
         "metrics": {name: {"value": values[i], "unit": "x"}
                     for name, values in metrics.items()}}
        for i in range(4)
    ]
    path.write_text(json.dumps({"tiny": False, "seconds": 1, "runs": runs}))
    return str(path)


def test_compare_applies_bound_direction_and_spread(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.0]
    base = _runs(tmp_path / "a.json", "w", primary_ms_p50=steady, capacity_rps=steady)
    same = _runs(tmp_path / "b.json", "w", primary_ms_p50=steady, capacity_rps=steady)
    assert compare.main([base, same]) == 0
    slower = _runs(tmp_path / "c.json", "w", primary_ms_p50=[v * 1.4 for v in steady],
                   capacity_rps=[v * 1.4 for v in steady])
    assert compare.main([base, slower]) == 1  # latency up 40 %: worse
    faster = _runs(tmp_path / "d.json", "w", primary_ms_p50=steady,
                   capacity_rps=[v * 0.6 for v in steady])
    assert compare.main([base, faster]) == 1  # capacity down 40 %: worse
    capsys.readouterr()
    noisy = _runs(tmp_path / "e.json", "w", primary_ms_p50=[90.0, 150.0, 100.0, 160.0],
                  capacity_rps=steady)
    assert compare.main([base, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
