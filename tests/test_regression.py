"""Perf-regression observatory: schema normalization, thresholds, trend file."""

import importlib.util
import itertools
import json
import os
import sys

import pytest

_REGRESSION_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "regression.py"
)
_counter = itertools.count()


def _load():
    name = f"regression_under_test_{next(_counter)}"
    spec = importlib.util.spec_from_file_location(name, _REGRESSION_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _kernels_doc(**overrides):
    doc = {
        "scale": "full",
        "repeats": 5,
        "kernels": [
            {"kernel": "reduce-by-key", "n": 200000,
             "pytuple_s": 0.070, "numpy_s": 0.010, "speedup": 7.0},
        ],
        "end_to_end": [
            {"family": "matmul", "n": 1000, "out": 16000, "p": 16,
             "input_size": 2000, "max_load": 500,
             "pytuple_s": 0.10, "columnar_s": 0.09, "columnar_speedup": 1.11,
             "reports_identical": True},
        ],
    }
    doc.update(overrides)
    return doc


def _planner_doc(**overrides):
    doc = {
        "scale": "full", "p": 8, "max_tuples": 160, "domain": 14,
        "sweep_seed": 2020, "worst_regret": 1.18, "worst_vs_auto": 1.0,
        "rows": [
            {"family": "matmul", "skew": "uniform", "measured_auto": 82,
             "regret": 1.08},
        ],
    }
    doc.update(overrides)
    return doc


def test_normalize_kernels_names_and_kinds():
    regression = _load()
    metrics = {m.name: m for m in regression.normalize_kernels(_kernels_doc())}
    assert metrics["kernels/reduce-by-key/pytuple_s"].kind == "wall"
    assert metrics["kernels/reduce-by-key/speedup"].direction == "higher"
    assert metrics["end_to_end/matmul-n1000-out16000-p16/max_load"].kind == "load"


def test_normalize_planner_names_and_kinds():
    regression = _load()
    metrics = {m.name: m for m in regression.normalize_planner(_planner_doc())}
    assert metrics["planner/worst_vs_auto"].kind == "ratio"
    assert metrics["planner/matmul-uniform/load_auto"].kind == "load"
    assert metrics["planner/matmul-uniform/regret"].value == 1.08


def test_committed_baselines_normalize_and_validate():
    regression = _load()
    kernels = json.load(open(regression.KERNELS_BASELINE))
    planner = json.load(open(regression.PLANNER_BASELINE))
    assert regression.normalize_kernels(kernels)
    assert regression.normalize_planner(planner)
    assert regression.validate_baseline("kernels", kernels) == []
    assert regression.validate_baseline("planner", planner) == []


def test_wall_thresholds_warn_and_fail():
    regression = _load()
    base = [regression.Metric("x/wall_s", 0.100, "wall")]

    def status(value):
        fresh = [regression.Metric("x/wall_s", value, "wall")]
        (finding,) = regression.compare_metrics(base, fresh)
        return finding.status

    assert status(0.105) == "ok"          # within noise
    assert status(0.120) == "warn"        # > 1.1x, <= 1.3x
    assert status(0.200) == "fail"        # > 1.3x
    assert status(0.080) == "improved"


def test_wall_jitter_floor_never_flags():
    regression = _load()
    base = [regression.Metric("x/wall_s", 0.001, "wall")]
    fresh = [regression.Metric("x/wall_s", 0.004, "wall")]  # 4x but tiny
    (finding,) = regression.compare_metrics(base, fresh)
    assert finding.status == "ok" and finding.factor is None


def test_deterministic_metrics_warn_on_any_increase():
    regression = _load()
    base = [regression.Metric("x/max_load", 500, "load")]

    def status(value):
        fresh = [regression.Metric("x/max_load", value, "load")]
        (finding,) = regression.compare_metrics(base, fresh)
        return finding.status

    assert status(500) == "ok"
    assert status(501) == "warn"      # any increase of a seeded metric
    assert status(600) == "fail"      # > 1.1x
    assert status(499) == "improved"


def test_higher_is_better_direction_folds_into_factor():
    regression = _load()
    base = [regression.Metric("x/speedup", 10.0, "ratio", "higher")]
    fresh = [regression.Metric("x/speedup", 5.0, "ratio", "higher")]
    (finding,) = regression.compare_metrics(base, fresh)
    assert finding.factor == pytest.approx(2.0)
    assert finding.status == "fail"


def test_missing_and_new_metrics_are_reported():
    regression = _load()
    base = [regression.Metric("gone", 1.0, "wall")]
    fresh = [regression.Metric("added", 1.0, "wall")]
    statuses = {f.name: f.status for f in regression.compare_metrics(base, fresh)}
    assert statuses == {"gone": "missing", "added": "new"}


def test_scale_mismatch_is_incomparable():
    regression = _load()
    base = [regression.Metric("x/wall_s", 0.1, "wall")]
    fresh = [regression.Metric("x/wall_s", 9.9, "wall")]
    (finding,) = regression.compare_metrics(base, fresh, comparable=False)
    assert finding.status == "incomparable" and finding.factor is None


def test_validate_baseline_gates():
    regression = _load()
    bad_kernels = _kernels_doc()
    bad_kernels["end_to_end"][0]["reports_identical"] = False
    bad_kernels["end_to_end"][0]["columnar_speedup"] = 0.7
    problems = regression.validate_baseline("kernels", bad_kernels)
    assert len(problems) == 2
    assert regression.validate_baseline(
        "planner", _planner_doc(worst_vs_auto=1.5)
    ) != []


def _write(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return str(path)


def test_main_green_on_identical_fresh_docs(tmp_path, capsys):
    regression = _load()
    baseline_k = _write(tmp_path / "bk.json", _kernels_doc())
    baseline_p = _write(tmp_path / "bp.json", _planner_doc())
    code = regression.main([
        "--baseline-kernels", baseline_k,
        "--baseline-planner", baseline_p,
        "--fresh-kernels", _write(tmp_path / "k.json", _kernels_doc()),
        "--fresh-planner", _write(tmp_path / "p.json", _planner_doc()),
        "--results", str(tmp_path / "results.md"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok=" in out


def test_main_fails_on_regression_and_report_only_passes(tmp_path, capsys):
    regression = _load()
    baseline = _write(tmp_path / "bk.json", _kernels_doc())
    bad = _kernels_doc()
    bad["kernels"][0]["numpy_s"] = 0.020  # 2x wall regression
    bad_path = _write(tmp_path / "bad.json", bad)
    results = str(tmp_path / "results.md")

    code = regression.main(["--suites", "kernels",
                            "--baseline-kernels", baseline,
                            "--fresh-kernels", bad_path,
                            "--results", results])
    assert code == 1
    capsys.readouterr()

    code = regression.main(["--suites", "kernels",
                            "--baseline-kernels", baseline,
                            "--fresh-kernels", bad_path,
                            "--results", results, "--report-only"])
    assert code == 0
    assert "report-only" in capsys.readouterr().err


def test_main_writes_trend_table(tmp_path):
    regression = _load()
    results = tmp_path / "results.md"
    code = regression.main([
        "--suites", "kernels",
        "--baseline-kernels", _write(tmp_path / "bk.json", _kernels_doc()),
        "--fresh-kernels", _write(tmp_path / "k.json", _kernels_doc()),
        "--results", str(results),
    ])
    assert code == 0
    text = results.read_text()
    assert "bench-regression" in text
    assert "kernels/reduce-by-key/pytuple_s" in text
    assert "## Latest run" in text


def test_main_baseline_only_mode_is_green(tmp_path, capsys):
    regression = _load()
    code = regression.main(["--results", str(tmp_path / "results.md")])
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline" in out


def test_main_json_output(tmp_path, capsys):
    regression = _load()
    code = regression.main([
        "--suites", "planner",
        "--baseline-planner", _write(tmp_path / "bp.json", _planner_doc()),
        "--fresh-planner", _write(tmp_path / "p.json", _planner_doc()),
        "--no-results", "--json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert all(f["status"] == "ok" for f in document["findings"])


def test_main_scale_mismatch_reports_only(tmp_path, capsys):
    regression = _load()
    tiny = _kernels_doc(scale="tiny")
    tiny["kernels"][0]["numpy_s"] = 99.0  # would fail hard if comparable
    code = regression.main([
        "--suites", "kernels",
        "--baseline-kernels", _write(tmp_path / "bk.json", _kernels_doc()),
        "--fresh-kernels", _write(tmp_path / "k.json", tiny),
        "--no-results",
    ])
    assert code == 0
    assert "thresholds not applied" in capsys.readouterr().out
