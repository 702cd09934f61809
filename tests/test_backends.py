"""Backend equivalence: columnar kernels vs the reference tuple kernels.

The columnar backend is a pure wall-clock optimization — every observable
(answer relations including annotation *types*, cost reports, trace event
streams, fuzz summaries) must be bit-identical to the pytuple reference.
These tests pin that contract at three levels: the codec, the individual
kernels (against the dict/loop folds they replace, including output
*order*), and full ``run_query`` executions across algorithm × query
family × semiring profile, with and without fault injection.
"""

import random

import pytest

from repro.backends.dispatch import (
    AUTO_MIN_TUPLES,
    BACKENDS,
    np,
    resolve_backend,
)
from repro.config import ExecutionConfig
from repro.core.executor import applicable_algorithms, run_query
from repro.errors import ConfigError
from repro.mpc import FaultInjector, FaultSchedule, MPCCluster, RecoveryPolicy
from repro.mpc.hashing import hash_to_bucket, hash_to_unit, stable_hash
from repro.obs import RingBufferSink, Tracer
from repro.semiring import COUNTING, REAL, TROPICAL_MIN_PLUS
from repro.workloads import planted_out_matmul
from tests.conftest import (
    GENERAL_TREE_QUERY,
    LINE3_QUERY,
    MATMUL_QUERY,
    SEMIRING_SAMPLERS,
    STAR3_QUERY,
    TWIG_QUERY,
    random_instance,
)

from repro.backends import kernels
from repro.backends.columnar import (
    ValueCodec,
    encode_annotations,
    profile_of,
)


# ------------------------------------------------------- backend resolution


def test_resolve_backend_default_is_pytuple():
    assert resolve_backend(None) == "pytuple"
    assert resolve_backend(None, total_size=10**9) == "pytuple"


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ConfigError):
        resolve_backend("fortran")
    # The removed middle tier gets pointed at its replacement.
    with pytest.raises(ConfigError, match="use \"columnar\""):
        resolve_backend("numpy")


def test_resolve_backend_auto_thresholds_on_size():
    assert resolve_backend("auto", AUTO_MIN_TUPLES - 1) == "pytuple"
    assert resolve_backend("auto", AUTO_MIN_TUPLES) == "columnar"
    assert resolve_backend("auto", 10_000) == "columnar"
    assert resolve_backend("auto", None) == "columnar"


def test_backends_tuple_matches_config_validation():
    assert BACKENDS == ("pytuple", "columnar", "auto")
    for backend in BACKENDS:
        ExecutionConfig(backend=backend)
    with pytest.raises(ConfigError):
        ExecutionConfig(backend="fortran")


# ------------------------------------------------------------------- codec


def test_codec_round_trip_preserves_identity():
    codec = ValueCodec()
    values = [3, "x", (1, 2), None, 3, True, 3.5, "x"]
    ids = codec.encode_many(values)
    assert codec.decode_many(ids) == values
    # Same value, same code — interning is stable across calls.
    again = codec.encode_many(values)
    assert ids.tolist() == again.tolist()


def test_codec_hashes_match_scalar_hashing_incrementally():
    codec = ValueCodec()
    first = ["a", "b", 7]
    ids = codec.encode_many(first)
    for salt in (0, 3, 11):
        assert codec.hashes(ids, salt).tolist() == [
            stable_hash(value, salt) for value in first
        ]
    # New values interned *after* a salt's table exists must still hash
    # correctly (the table grows and back-fills lazily).
    more = ["c", "a", (2, 3)]
    more_ids = codec.encode_many(more)
    for salt in (0, 3, 11):
        assert codec.hashes(more_ids, salt).tolist() == [
            stable_hash(value, salt) for value in more
        ]


def test_codec_buckets_and_units_match_scalar():
    codec = ValueCodec()
    values = list(range(50)) + ["k%d" % i for i in range(20)]
    ids = codec.encode_many(values)
    assert codec.buckets(ids, 7, salt=5).tolist() == [
        hash_to_bucket(value, 7, 5) for value in values
    ]
    assert codec.units(ids, salt=2).tolist() == [
        hash_to_unit(value, 2) for value in values
    ]


# ------------------------------------------------- kernels vs dict kernels


def _dict_fold(pairs, combine):
    acc = {}
    for key, value in pairs:
        acc[key] = combine(acc[key], value) if key in acc else value
    return acc


@pytest.mark.parametrize("n,domain", [(40, 7), (3000, 17), (5000, 4000)])
def test_group_reduce_matches_dict_fold_order_and_values(n, domain):
    # n >= 1024 with a dense domain exercises the bincount fast path; the
    # sparse/small cases exercise the argsort path.  Both must reproduce
    # the dict fold exactly, first-occurrence order included.
    rng = random.Random(n)
    ids = np.asarray([rng.randrange(domain) for _ in range(n)], dtype=np.int64)
    values = np.asarray([rng.randint(-9, 9) for _ in range(n)], dtype=np.int64)
    unique, reduced = kernels.group_reduce(ids, values, np.add)
    expected = _dict_fold(zip(ids.tolist(), values.tolist()), lambda a, b: a + b)
    assert unique.tolist() == list(expected)
    assert reduced.tolist() == list(expected.values())


def test_group_reduce_float_min_matches_dict_fold():
    rng = random.Random(1)
    ids = np.asarray([rng.randrange(9) for _ in range(200)], dtype=np.int64)
    values = np.asarray([float(rng.randint(0, 50)) for _ in range(200)])
    unique, reduced = kernels.group_reduce(ids, values, np.minimum)
    expected = _dict_fold(zip(ids.tolist(), values.tolist()), min)
    assert unique.tolist() == list(expected)
    assert reduced.tolist() == list(expected.values())


def test_group_reduce_bincount_guard_rejects_huge_sums():
    # Values near 2^53 make the float64 bincount inexact; the guard must
    # route to the sort path, which stays exact in int64.
    big = (1 << 52) + 1
    ids = np.asarray([0, 1] * 1024, dtype=np.int64)
    values = np.asarray([big, 1] * 1024, dtype=np.int64)
    unique, reduced = kernels.group_reduce(ids, values, np.add)
    assert unique.tolist() == [0, 1]
    assert reduced.tolist() == [1024 * big, 1024]


def test_first_occurrence_unique_matches_fromkeys():
    rng = random.Random(2)
    raw = [rng.randrange(12) for _ in range(300)]
    ids = np.asarray(raw, dtype=np.int64)
    assert kernels.first_occurrence_unique(ids).tolist() == list(dict.fromkeys(raw))


def test_hash_join_replays_nested_probe_loops():
    rng = random.Random(3)
    left = [rng.randrange(8) for _ in range(40)]
    right = [rng.randrange(8) for _ in range(30)]
    l_ids = np.asarray(left, dtype=np.int64)
    r_ids = np.asarray(right, dtype=np.int64)
    l_pos, r_pos = kernels.hash_join(l_ids, r_ids, outer="right")
    expected = [
        (i, j)
        for j, rv in enumerate(right)
        for i, lv in enumerate(left)
        if lv == rv
    ]
    assert list(zip(l_pos.tolist(), r_pos.tolist())) == expected


def test_combine_split_round_trip():
    cols = [
        np.asarray([0, 3, 1, 2], dtype=np.int64),
        np.asarray([2, 1, 0, 3], dtype=np.int64),
    ]
    packed, base = kernels.combine_columns(cols, base=4, size=4)
    back = kernels.split_codes(packed, base, 2)
    assert [c.tolist() for c in back] == [c.tolist() for c in cols]
    # Zero columns pack to the constant empty-tuple key.
    packed0, _ = kernels.combine_columns([], base=4, size=3)
    assert packed0.tolist() == [0, 0, 0]


def test_select_splitters_matches_python_slicing():
    samples = np.arange(100, dtype=np.int64)
    for p in (2, 3, 7, 64, 200):
        step = max(1, 100 // p)
        assert kernels.select_splitters(samples, p).tolist() == \
            samples.tolist()[step::step][: p - 1]


# ------------------------------------------------------- annotation coding


def test_encode_annotations_counting_profile():
    profile = profile_of(COUNTING)
    assert encode_annotations([1, 2, 3], profile).tolist() == [1, 2, 3]
    assert encode_annotations([], profile).tolist() == []
    assert encode_annotations([1, True, 2], profile) is None  # bools never coerce
    assert encode_annotations([1, 2.0], profile) is None
    assert encode_annotations([1, 1 << 40], profile) is None  # over _INT_LIMIT
    assert encode_annotations([1, -(1 << 80)], profile) is None  # over int64


def test_encode_annotations_number_profile():
    profile = profile_of(TROPICAL_MIN_PLUS)
    assert encode_annotations([1.5, 2.0], profile).dtype == np.float64
    assert encode_annotations([1, 2], profile).dtype == np.int64
    assert encode_annotations([1, 2.0], profile) is None  # mixed batch
    assert encode_annotations([1.0, float("nan")], profile) is None
    assert encode_annotations([True], profile) is None


def test_real_semiring_has_no_profile():
    # Float ⊕=+ is order-sensitive; it must never vectorize.
    assert profile_of(REAL) is None


# ------------------------------------- run_query equivalence across backends


def _exact_tuples(relation):
    """Annotation values *and their types* — True and 1 must not conflate."""
    return {values: (type(ann), ann) for values, ann in relation.tuples.items()}


def _run(instance, algorithm, backend, faults=None):
    ring = RingBufferSink()
    cluster = MPCCluster(
        4, tracer=Tracer([ring]), faults=faults, backend=backend
    )
    result = run_query(instance, cluster=cluster, algorithm=algorithm)
    return result, ring.events


QUERY_SHAPES = [
    ("matmul", MATMUL_QUERY),
    ("line", LINE3_QUERY),
    ("star", STAR3_QUERY),
    ("twig", TWIG_QUERY),
    ("tree", GENERAL_TREE_QUERY),
]


@pytest.mark.parametrize("shape_name,query", QUERY_SHAPES)
@pytest.mark.parametrize(
    "semiring,sampler", SEMIRING_SAMPLERS,
    ids=[s.name for s, _ in SEMIRING_SAMPLERS],
)
def test_every_algorithm_is_backend_invariant(shape_name, query, semiring, sampler):
    rng = random.Random(hash((shape_name, semiring.name)) & 0xFFFF)
    instance = random_instance(query, 25, 6, rng, semiring, sampler)
    for algorithm in applicable_algorithms(query):
        reference, ref_events = _run(instance, algorithm, "pytuple")
        vectorized, vec_events = _run(instance, algorithm, "columnar")
        assert _exact_tuples(reference.relation) == _exact_tuples(
            vectorized.relation
        ), (shape_name, semiring.name, algorithm)
        assert reference.report.to_dict() == vectorized.report.to_dict(), (
            shape_name, semiring.name, algorithm,
        )
        assert ref_events == vec_events, (shape_name, semiring.name, algorithm)


def test_real_semiring_runs_identically_via_fallback():
    # REAL has no annotation profile: the columnar backend must fall back to
    # the tuple kernels wherever annotations flow, and still agree.
    rng = random.Random(9)
    instance = random_instance(
        MATMUL_QUERY, 30, 5, rng, REAL, lambda r: r.random()
    )
    reference, ref_events = _run(instance, "auto", "pytuple")
    vectorized, vec_events = _run(instance, "auto", "columnar")
    assert _exact_tuples(reference.relation) == _exact_tuples(vectorized.relation)
    assert reference.report.to_dict() == vectorized.report.to_dict()
    assert ref_events == vec_events


def test_backend_invariant_under_recoverable_faults():
    # Fault injection forces the tuple kernels (columnar_enabled is False with
    # an injector attached), so a columnar-configured faulted run must equal
    # the pytuple faulted run *exactly* — recovery metering included.
    instance = planted_out_matmul(n=60, out=240)
    clean_cluster = MPCCluster(4)
    clean = run_query(instance, cluster=clean_cluster, algorithm="matmul")
    cells = sorted(
        (r, s)
        for r, row in clean_cluster.tracker.load_cells().items()
        for s, count in row.items() if count > 0
    )
    schedule = FaultSchedule.random(seed=3, cells=cells, count=4)

    def faulted_run(backend):
        injector = FaultInjector(schedule, RecoveryPolicy(spares=4))
        return _run(instance, "matmul", backend, faults=injector)

    reference, ref_events = faulted_run("pytuple")
    vectorized, vec_events = faulted_run("columnar")
    assert _exact_tuples(reference.relation) == _exact_tuples(vectorized.relation)
    assert reference.report.to_dict() == vectorized.report.to_dict()
    assert ref_events == vec_events
    assert reference.relation.tuples == clean.relation.tuples


def test_executor_resolves_auto_backend_by_size():
    small = planted_out_matmul(n=20, out=40)
    result = run_query(small, config=ExecutionConfig(p=4, backend="auto"))
    # Below the threshold auto resolves to pytuple; the answer is the same
    # either way, so pin the resolution itself at the cluster level.
    cluster = ExecutionConfig(p=4, backend="auto").make_cluster(
        small.total_size
    )
    assert cluster.backend == "pytuple"
    big_cluster = ExecutionConfig(p=4, backend="auto").make_cluster(
        AUTO_MIN_TUPLES * 2
    )
    assert big_cluster.backend == "columnar"
    assert result.out_size == len(result.relation)
