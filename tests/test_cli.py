"""Command-line interface."""

import json

import pytest

from repro.cli import main


def test_compare_runs_and_reports(capsys):
    code = main(["compare", "--family", "matmul", "--tuples", "120",
                 "--out", "600", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "load speedup" in captured.out
    assert "distributed Yannakakis" in captured.out


@pytest.mark.parametrize(
    "family", ["line", "line-bowtie", "star", "star-overlap", "starlike", "twig",
               "matmul-zipf"]
)
def test_compare_all_families(capsys, family):
    code = main(["compare", "--family", family, "--tuples", "60",
                 "--domain", "8", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "OUT=" in captured.out


def test_sweep(capsys):
    code = main(["sweep", "--tuples", "100", "--points", "2", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [line for line in captured.out.splitlines() if line.strip()]
    assert len(lines) == 3  # header + 2 points


@pytest.mark.parametrize("family", ["star", "line", "twig"])
def test_sweep_other_families_sweep_tuples(capsys, family):
    code = main(["sweep", "--family", family, "--tuples", "40", "--domain", "10",
                 "--points", "2", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    lines = [line for line in captured.out.splitlines() if line.strip()]
    assert len(lines) == 3  # header + 2 points
    assert "tuples" in lines[0]


def test_sweep_json(capsys):
    code = main(["sweep", "--family", "line", "--tuples", "40", "--domain", "10",
                 "--points", "2", "--p", "4", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["family"] == "line" and document["knob"] == "tuples"
    assert len(document["points"]) == 2
    assert document["points"][1]["tuples"] == 80
    for point in document["points"]:
        assert point["baseline_load"] > 0 and point["new_load"] > 0


def test_unknown_family_rejected():
    with pytest.raises(SystemExit):
        main(["compare", "--family", "nope"])


def test_table1(capsys):
    code = main(["table1", "--scale", "100", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 0
    for label in ("matmul", "line", "star", "tree"):
        assert label in captured.out


def test_compare_json_and_trace_out(capsys, tmp_path):
    trace_path = tmp_path / "compare.jsonl"
    code = main(["compare", "--family", "matmul", "--tuples", "120",
                 "--out", "600", "--p", "4", "--json",
                 "--trace-out", str(trace_path)])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["baseline"]["max_load"] > 0
    assert document["ours"]["max_load"] > 0
    assert document["speedup"] == pytest.approx(
        document["baseline"]["max_load"] / document["ours"]["max_load"]
    )
    from repro.obs import read_trace, trace_aggregates

    aggregates = trace_aggregates(read_trace(str(trace_path)))
    assert aggregates["max_load"] == document["ours"]["max_load"]


def test_table1_json(capsys):
    code = main(["table1", "--scale", "80", "--p", "4", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert [row["label"] for row in document["rows"]] == [
        "matmul", "line", "star", "tree"
    ]
    for row in document["rows"]:
        assert row["speedup"] > 0


def test_trace_smoke(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = main(["trace", "--family", "line", "--tuples", "60", "--domain", "8",
                 "--p", "4", "--trace-out", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "scale:" in captured.out        # the heatmap legend
    assert "peak round" in captured.out
    assert trace_path.exists()
    for line in trace_path.read_text().splitlines():
        json.loads(line)  # every line is a valid JSON event


def test_trace_json(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = main(["trace", "--family", "star", "--tuples", "60", "--domain", "8",
                 "--p", "4", "--json", "--trace-out", str(trace_path)])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["report"]["max_load"] > 0
    assert document["events"] > 0
    assert len(document["per_round"]) == document["report"]["rounds"]
    assert document["overall_skew"]["max"] == document["report"]["max_load"]


def test_fuzz_smoke(capsys):
    code = main(["fuzz", "--iterations", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert "OK: no invariant violations" in captured.out
    assert "family" in captured.out and "invariant" in captured.out


def test_fuzz_json_is_deterministic_per_seed(capsys):
    code = main(["fuzz", "--iterations", "8", "--seed", "4", "--json"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["fuzz", "--iterations", "8", "--seed", "4", "--json"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    document = json.loads(first)
    assert document["ok"] is True and document["checked"] == 8


def test_fuzz_restricted_families_and_invariants(capsys):
    code = main(["fuzz", "--iterations", "4", "--families", "star",
                 "--invariants", "differential", "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(document["coverage"]["family"]) == {"star"}
    assert set(document["coverage"]["invariant"]) == {"differential"}


def test_fuzz_rejects_unknown_selection(capsys):
    code = main(["fuzz", "--families", "pentagon"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown --families value" in captured.err


def test_fuzz_seconds_budget(capsys):
    code = main(["fuzz", "--seconds", "0.5", "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["checked"] >= 1


def test_fuzz_reports_planted_bug_with_corpus(capsys, tmp_path):
    from repro.conformance import corpus_files, planted_exchange_off_by_one

    corpus = str(tmp_path / "corpus")
    with planted_exchange_off_by_one():
        code = main(["fuzz", "--iterations", "30", "--invariants",
                     "differential", "--fail-fast", "--corpus", corpus])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILURES: 1" in captured.err
    assert "shrunk" in captured.err
    assert len(corpus_files(corpus)) == 1


def test_table1_families_subset_cli(capsys):
    code = main(["table1", "--scale", "40", "--p", "4",
                 "--families", "star", "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["label"] for row in document["rows"]] == ["star"]


def test_table1_unknown_family_cli(capsys):
    code = main(["table1", "--scale", "40", "--p", "4", "--families", "bogus"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown Table-1 families" in captured.err


# -- wall-clock profiling -------------------------------------------------------

def test_profile_command_smoke(capsys, tmp_path):
    out = str(tmp_path / "p.speedscope.json")
    code = main(["profile", "--family", "matmul", "--tuples", "100",
                 "--p", "8", "--profile-out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "self_s" in captured.out and "run:" in captured.out
    from repro.obs import replay_speedscope
    document = json.load(open(out))
    assert document["$schema"].endswith("file-format-schema.json")
    replay_speedscope(document)  # balanced, schema-valid


def test_profile_command_json_and_exports(capsys, tmp_path):
    out = str(tmp_path / "p.speedscope.json")
    chrome = str(tmp_path / "p.chrome.json")
    metrics = str(tmp_path / "p.prom")
    code = main(["profile", "--family", "line", "--tuples", "60",
                 "--domain", "8", "--p", "4", "--profile-out", out,
                 "--chrome-out", chrome, "--metrics-out", metrics,
                 "--top", "5", "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(document) == [
        "family", "p", "backend", "algorithm", "query_class", "input_size",
        "out_size", "report", "total_wall_s", "hotspots", "tree",
        "profile_out", "chrome_out", "metrics_out",
    ]
    assert document["total_wall_s"] > 0
    assert len(document["hotspots"]) <= 5
    assert document["tree"][0]["label"].startswith("run:")
    trace = json.load(open(chrome))
    assert trace["traceEvents"][0]["ph"] == "B"
    exposition = open(metrics).read()
    assert "repro_span_seconds_total" in exposition
    assert 'repro_last_max_load{scope="line"}' in exposition


def test_profile_command_rejects_bad_algorithm(capsys, tmp_path):
    code = main(["profile", "--family", "matmul", "--tuples", "60",
                 "--algorithm", "nope",
                 "--profile-out", str(tmp_path / "p.json")])
    assert code == 2
    assert "ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compare", "--family", "matmul", "--tuples", "40"],
    ["sweep", "--family", "matmul", "--tuples", "40", "--points", "1"],
    ["table1", "--scale", "40"],
])
@pytest.mark.parametrize("flag", [["--profile"], ["--profile-out", "p.json"]])
def test_profile_is_the_only_profiling_entry(command, flag, capsys):
    """``repro profile`` is the one way to ask the CLI for a profile."""
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--p", "4"] + flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- trace filters and per-phase table ------------------------------------------

def test_trace_phase_and_op_filters(capsys, tmp_path):
    trace_out = str(tmp_path / "t.jsonl")
    code = main(["trace", "--family", "matmul", "--tuples", "60",
                 "--domain", "8", "--p", "4", "--trace-out", trace_out,
                 "--op", "exchange", "--phase", "matmul-wc", "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["filters"] == {"phase": "matmul-wc", "op": "exchange"}
    # The JSONL file keeps everything; the analysis saw a subset.
    full_events = sum(1 for _ in open(trace_out))
    assert 0 < document["events"] < full_events


def test_trace_top_phase_table(capsys, tmp_path):
    trace_out = str(tmp_path / "t.jsonl")
    code = main(["trace", "--family", "matmul", "--tuples", "60",
                 "--domain", "8", "--p", "4", "--trace-out", trace_out,
                 "--top", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "phase paths by max per-server load" in captured.out

    code = main(["trace", "--family", "matmul", "--tuples", "60",
                 "--domain", "8", "--p", "4", "--trace-out", trace_out,
                 "--top", "2", "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    loads = document["phase_loads"]
    assert 0 < len(loads) <= 2
    assert loads == sorted(loads, key=lambda r: (-r["max_load"], r["phase"]))


def test_trace_json_has_no_filter_keys_by_default(capsys, tmp_path):
    code = main(["trace", "--family", "line", "--tuples", "40",
                 "--domain", "8", "--p", "4",
                 "--trace-out", str(tmp_path / "t.jsonl"), "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "filters" not in document and "phase_loads" not in document


def test_serve_preloads_instances_and_configures_state(capsys, tmp_path,
                                                       monkeypatch):
    """`repro serve` builds a ServiceState from its flags and registers
    every --preload file before binding (the server loop is stubbed)."""
    import repro.service
    from repro.io import instance_to_json
    from repro.workloads import planted_out_matmul

    path = tmp_path / "mm.json"
    path.write_text(instance_to_json(planted_out_matmul(n=20, out=40)))
    captured = {}
    monkeypatch.setattr(
        repro.service, "serve",
        lambda state, host, port, verbose: captured.update(
            state=state, host=host, port=port),
    )
    code = main(["serve", "--preload", f"mm={path}", "--port", "0",
                 "--max-concurrent", "2", "--queue-depth", "3",
                 "--load-budget", "9000", "--p", "4"])
    assert code == 0
    assert "preloaded 'mm'" in capsys.readouterr().out
    state = captured["state"]
    assert [e["name"] for e in state.registry.list()] == ["mm"]
    assert state.admission.max_concurrent == 2
    assert state.admission.queue_depth == 3
    assert state.admission.load_budget == 9000
    assert state.default_config.p == 4


def test_serve_rejects_malformed_preload_specs(capsys, tmp_path):
    assert main(["serve", "--preload", "no-equals-sign"]) == 2
    assert "NAME=PATH" in capsys.readouterr().err
    assert main(["serve", "--preload", f"x={tmp_path}/missing.json"]) == 2
    assert "cannot preload" in capsys.readouterr().err
