"""The chaos tier (src/repro/conformance/chaos.py and the `repro chaos` CLI).

The acceptance checks: under every derived recoverable schedule all
applicable algorithms still equal the sequential oracle with base meters
untouched; a planted unrecoverable schedule fails loudly naming the round;
the chaos tier stays out of default fuzz summaries; and a planted
recovery bug (a drop whose retransmission never arrives) is caught by a
short chaos campaign, shrunk, and serialized into a corpus entry that
replays red under the bug and green without it.
"""

import json
import random

import pytest

from repro.conformance import (
    CHAOS_FAULTS,
    CHAOS_SCHEDULES,
    DEFAULT_INVARIANTS,
    INVARIANTS,
    FuzzConfig,
    GeneratorConfig,
    check_chaos,
    corpus_files,
    fuzz,
    load_case,
    planted_drop_blackhole,
    random_case,
    replay_case,
    skeleton_size,
)
from repro.conformance.chaos import delivery_cells, recoverable_schedules
from repro.core.executor import run_query
from repro.mpc import MPCCluster
from repro.workloads import planted_out_matmul


def _case(family="matmul", seed=17):
    rng = random.Random(seed)
    config = GeneratorConfig(profiles=("counting",), families=(family,))
    return random_case(rng, config, 0)


# ----------------------------------------------------------- building blocks


def test_delivery_cells_reflect_actual_movement():
    cluster = MPCCluster(4)
    run_query(planted_out_matmul(n=40, out=160), cluster=cluster)
    cells = delivery_cells(cluster)
    assert cells and cells == sorted(set(cells))
    loads = cluster.tracker.load_cells()
    assert all(loads[r][s] > 0 for r, s in cells)


def test_recoverable_schedules_are_deterministic_per_algorithm():
    cells = [(r, s) for r in range(5) for s in range(4)]
    first = recoverable_schedules(11, 0, cells, schedules=3, faults=2)
    again = recoverable_schedules(11, 0, cells, schedules=3, faults=2)
    assert [s.faults for s in first] == [s.faults for s in again]
    assert len(first) == 3 and all(len(s) == 2 for s in first)
    other_alg = recoverable_schedules(11, 1, cells, schedules=3, faults=2)
    assert [s.faults for s in other_alg] != [s.faults for s in first]


# ------------------------------------------------------- the invariant itself


@pytest.mark.parametrize("family", ["matmul", "star", "line", "tree", "star-like"])
def test_chaos_invariant_green_on_healthy_code(family):
    check_chaos(_case(family), FuzzConfig(iterations=1))


def test_chaos_registered_but_not_default():
    assert INVARIANTS["chaos"] is check_chaos
    assert "chaos" not in DEFAULT_INVARIANTS
    # Default summaries never cycle chaos: same seed, same bytes as a
    # chaos-free build.
    summary = fuzz(FuzzConfig(iterations=8, seed=2))
    assert "chaos" not in summary.coverage.get("invariant", {})


def test_chaos_campaign_cycles_the_chaos_invariant():
    summary = fuzz(
        FuzzConfig(
            iterations=4, seed=3, invariants=("differential", "chaos"),
            chaos_schedules=1, chaos_faults=2,
        )
    )
    assert summary.ok, [f.message for f in summary.failures]
    assert summary.coverage["invariant"]["chaos"] == 4


def test_chaos_respects_config_knobs():
    # chaos_schedules=0 still runs the planted unrecoverable check and the
    # clean differential pass; it must stay green on healthy code.
    check_chaos(_case(), FuzzConfig(chaos_schedules=0, chaos_faults=1))


# ------------------------------------------------------- mutation smoke test


def test_planted_recovery_bug_caught_shrunk_and_replayable(tmp_path):
    """A drop whose retransmission silently never arrives is invisible to
    the fault-free tiers but must be caught by a short chaos campaign,
    shrunk, and serialized into a replayable corpus entry — on the item
    exchange and on the batch exchange alike."""
    for backend in ("pytuple", "columnar"):
        corpus = str(tmp_path / backend)
        config = FuzzConfig(
            iterations=12,
            seed=11,
            invariants=("chaos",),
            corpus=corpus,
            fail_fast=True,
            chaos_schedules=2,
            chaos_faults=3,
            backend=backend,
        )
        with planted_drop_blackhole():
            summary = fuzz(config)
        assert not summary.ok, (
            f"planted recovery bug escaped a 12-iteration budget on {backend}"
        )
        failure = summary.failures[0]
        assert failure.invariant == "chaos"
        assert failure.shrunk_tuples <= failure.original_tuples

        entries = corpus_files(corpus)
        assert failure.corpus_file in entries
        case, meta = load_case(failure.corpus_file)
        assert skeleton_size(case) == failure.shrunk_tuples

        # Red while the blackhole is planted...
        with planted_drop_blackhole():
            with pytest.raises(Exception):
                replay_case(case, meta)
        # ...green once reverted.
        replay_case(case, meta)


def test_committed_chaos_corpus_entry_exists():
    # Satellite: at least one shrunk chaos failure lives in tests/corpus/
    # (picked up by test_corpus_replay.py like every other corpus entry).
    import os

    here = os.path.dirname(__file__)
    chaos_entries = [
        path for path in corpus_files(os.path.join(here, "corpus"))
        if load_case(path)[1].get("invariant") == "chaos"
    ]
    assert chaos_entries, "no chaos corpus entry committed"


# ------------------------------------------------------------------ CLI tier


def test_cli_chaos_smoke(capsys):
    from repro.cli import main

    code = main(["fuzz", "--chaos", "--invariants", "differential",
                 "--iterations", "3", "--seed", "5", "--json",
                 "--schedules", "1", "--faults", "2"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True
    assert summary["coverage"]["invariant"]["chaos"] == 3


def test_cli_fuzz_chaos_flag(capsys):
    from repro.cli import main

    code = main(["fuzz", "--chaos", "--iterations", "6", "--seed", "1",
                 "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True
    assert "chaos" in summary["coverage"]["invariant"]


def test_cli_fuzz_default_summary_has_no_chaos(capsys):
    from repro.cli import main

    code = main(["fuzz", "--iterations", "6", "--seed", "1", "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert "chaos" not in summary["coverage"]["invariant"]


def test_cli_rejects_unknown_invariant(capsys):
    from repro.cli import main

    assert main(["fuzz", "--invariants", "nope", "--json"]) == 2
    assert "unknown --invariants" in capsys.readouterr().err
