"""The documentation's code must run.

Executes the README quickstart block, the package docstring example, and
checks EXPERIMENTS/DESIGN cross-references so the docs cannot silently rot.
"""

import os
import re

import repro

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _python_blocks(path):
    text = open(path).read()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_quickstart_runs():
    blocks = _python_blocks(os.path.join(ROOT, "README.md"))
    assert blocks, "README lost its quickstart block"
    namespace = {}
    exec(blocks[0], namespace)  # noqa: S102 - executing our own docs
    assert "result" in namespace
    assert namespace["result"].relation is not None


def test_package_docstring_example_runs():
    match = re.search(r"Quickstart::\n\n(.*?)\n\"\"\"", '"""' + repro.__doc__ + '"""',
                      flags=re.DOTALL)
    assert match, "package docstring lost its example"
    code = "\n".join(line[4:] for line in match.group(1).splitlines())
    namespace = {}
    exec(code, namespace)  # noqa: S102
    assert "result" in namespace


def test_extending_doc_semiring_example_runs():
    blocks = _python_blocks(os.path.join(ROOT, "docs", "extending.md"))
    assert blocks
    namespace = {}
    exec(blocks[0], namespace)  # noqa: S102  (the clearance semiring)
    exec(blocks[1], {**namespace})  # noqa: S102  (check_axioms on it)


def test_extending_doc_validation_loop_runs():
    from repro.workloads import planted_out_matmul

    blocks = _python_blocks(os.path.join(ROOT, "docs", "extending.md"))
    namespace = {"instance": planted_out_matmul(n=30, out=60)}
    exec(blocks[2], namespace)  # noqa: S102  (every algorithm, validated)
    assert {"yannakakis", "line", "star"} <= set(namespace["reports"])


def test_extending_doc_algorithm_walkthrough_runs():
    """The five-step walkthrough is a correct algorithm on both sides of
    its heavy/light split, whatever the input orientation."""
    from repro.data import DistRelation
    from repro.mpc import MPCCluster
    from repro.ram import evaluate
    from repro.workloads import zipf_matmul

    blocks = _python_blocks(os.path.join(ROOT, "docs", "extending.md"))
    (walkthrough,) = [block for block in blocks if "def matmul_heavy_rows" in block]
    namespace = {}
    exec(walkthrough, namespace)  # noqa: S102
    instance = zipf_matmul(120, 120, 10, seed=1)
    cluster = MPCCluster(4)
    view = cluster.view()
    r1 = DistRelation.load(view, instance.relation("R1")).reordered(("B", "A"))
    r2 = DistRelation.load(view, instance.relation("R2"))
    for load in (1, 10 ** 6):  # every row heavy, every row light
        result = namespace["matmul_heavy_rows"](r1, r2, instance.semiring, load)
        assert result.collect("out", instance.semiring).tuples == evaluate(instance).tuples
    assert cluster.report().elementary_products > 0


def test_experiments_file_references_real_benches():
    text = open(os.path.join(ROOT, "EXPERIMENTS.md")).read()
    for match in re.findall(r"`(bench_[a-z0-9_]+\.py)`", text):
        assert os.path.exists(os.path.join(ROOT, "benchmarks", match)), match


def test_design_file_references_real_modules():
    text = open(os.path.join(ROOT, "DESIGN.md")).read()
    for match in re.findall(r"`(repro/[a-z_/]+\.py)`", text):
        assert os.path.exists(os.path.join(ROOT, "src", match)), match
    for match in re.findall(r"`(benchmarks/[a-z0-9_]+\.py)`", text):
        assert os.path.exists(os.path.join(ROOT, match)), match


def test_api_doc_mentions_every_public_module():
    text = open(os.path.join(ROOT, "docs", "api.md")).read()
    for module in ("repro.semiring", "repro.data", "repro.mpc", "repro.primitives",
                   "repro.core", "repro.ram", "repro.workloads", "repro.queries",
                   "repro.linalg", "repro.interop", "repro.io", "repro.testing",
                   "repro.obs"):
        assert module in text, module
