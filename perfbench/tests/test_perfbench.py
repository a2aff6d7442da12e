"""The benchmark's own checks: statistics, span arithmetic, tracing and inputs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Percentiles and the sample-count rule


def test_p90_reported_with_ten_samples_above_it():
    summary = run.timing_summary([float(i) for i in range(1, 101)])
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    assert summary["p90"] == 90.0
    assert summary["above_p90"] == 10


def test_p90_dropped_with_fewer_than_ten_samples_above_it():
    summary = run.timing_summary([float(i) for i in range(1, 100)])
    assert summary["p90"] is None
    assert summary["above_p90"] == 9
    assert run.timing_summary([2.0, 1.0, 3.0]) == {"n": 3, "p50": 2.0, "p90": None, "above_p90": 0}


def test_ties_at_p90_do_not_count_as_above_it():
    summary = run.timing_summary([1.0] * 95 + [2.0] * 105)
    assert summary["above_p90"] == 0
    assert summary["p90"] is None


def test_nearest_rank_percentile():
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([5.0], 90) == 5.0
    assert run.percentile([float(i) for i in range(1, 11)], 90) == 9.0


# ---------------------------------------------------------------------------
# Self time


def span(i, start, end, parent=None, thread=1):
    return Span(i, f"s{i}", float(start), float(end), parent, 0, thread, {})


def test_self_time_of_nested_spans():
    spans = [span(1, 0, 10), span(2, 1, 4, 1), span(3, 2, 3, 2), span(4, 5, 6, 1)]
    assert self_times(spans) == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_with_overlapping_children_in_threads():
    # Two pool-thread children overlap on [3, 6]: the union [1, 8] is covered
    # once. A child that outlives its parent only covers up to the parent's end.
    spans = [span(1, 0, 10), span(2, 1, 6, 1, thread=2), span(3, 3, 8, 1, thread=3),
             span(4, 9, 12, 1, thread=2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 7 - 1)
    assert own[2] == pytest.approx(5.0)


def test_pool_thread_spans_keep_their_parent():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: 2 * x)

    def fan_out():
        with tracing.ContextThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(6)))

    assert tracer.wrap("root", fan_out)() == [0, 2, 4, 6, 8, 10]
    (root,) = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 6
    assert all(s.parent == root.id for s in leaves)
    assert root.parent is None


# ---------------------------------------------------------------------------
# Inputs


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    def generate(seed, name):
        d = tmp_path / name
        d.mkdir()
        ops = workloads.write_inputs(workload, seed, d)
        return [[a.replace(str(d), "") for a in argv] for argv in ops], run.tree_digests(d)

    assert generate(5, "a") == generate(5, "b")
    assert generate(5, "a2")[1] != generate(6, "c")[1]


def test_default_seed_inputs_match_the_record(tmp_path):
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))["workloads"]
    assert sorted(recorded) == sorted(workloads.GENERATORS)
    for workload, record in recorded.items():
        d = tmp_path / workload
        d.mkdir()
        workloads.write_inputs(workload, run.DEFAULT_SEED, d)
        assert run.tree_digests(d) == record["inputs"], workload


def test_degree_sequences_are_kept():
    import random

    rng = random.Random(3)
    out_deg = workloads.mixed_degrees(rng, 40, 2, 20)
    in_deg = workloads.mixed_degrees(rng, 40, 2, 20)
    edges = workloads.random_simple_digraph(rng, out_deg, in_deg)
    assert len(set(edges)) == len(edges) == 60
    assert all(u != v and (v, u) not in set(edges) for u, v in edges)
    assert [sum(u == w for u, _ in edges) for w in range(40)] == out_deg
    assert [sum(v == w for _, v in edges) for w in range(40)] == in_deg


# ---------------------------------------------------------------------------
# Metric names


def test_reported_metrics_match_benchmark_json():
    loop = {"untraced": [1.0, 2.0], "traced": [1.5], "failures": [], "attempted": 3}
    e2e = run.end_to_end([0.5], loop, 10.0)
    assert {k: unit for k, (_, unit, _) in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e["ops_per_s"][0] == pytest.approx(1.0)  # 3 completed ops in 3 s of ops
    layers = run.per_layer(tracing.Tracer(), loop)
    assert {k: unit for k, (_, unit, _) in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers["trace.overhead_ratio"][0] == 1.0


def test_default_run_length_is_benchmark_json_run_seconds():
    assert run.RUN_SECONDS == SPEC["run_seconds"]


def test_missing_program_exits_nonzero(monkeypatch, tmp_path):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "small-mixed", "--seconds", "1"]) == 2


# ---------------------------------------------------------------------------
# One traced round of every workload on the default seed

# The spans each workload must produce; together they cover every target.
EXERCISED = {
    "molecule-grid": {
        "rational.preimage_basis", "rational.column_space_basis", "persistence.stage_build",
        "persistence.auxiliary_complex", "persistence.persistent_dirac",
        "persistence.feature_grid", "molecules.parse_xyz", "molecules.bond_digraph",
        "molecules.distance_filtration", "fileio.write_csv", "heatmap.grid_heatmap_svg",
    },
    "small-mixed": {
        "rational.rref", "rational.rank", "rational.kernel_basis", "rational.solve",
        "rational.intersection_basis", "rational.QMatrix.matmul", "rational.QMatrix.to_float",
        "graphs.anchor_path_table", "chain.split_boundary", "chain.build_complex",
        "chain.orthonormal_basis", "chain.build_digraph_complex",
        "chain.build_hypergraph_complex", "operators.laplacian", "operators.down_laplacian",
        "operators.dirac", "operators.eigen_spectrum", "operators.float_rank",
        "persistence.persistent_laplacian", "checks.graph_check_suite",
        "checks.filtration_check_suite", "fileio.load_graph", "fileio.load_manifest",
        "fileio.write_json", "fileio.atomic_write_text", "cli.main",
    },
}


# Runs in a child process, which pins the BLAS threads before numpy loads,
# as the benchmark does: output bytes depend on the thread count.
TRACE_ROUNDS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, tracing, workloads
run.pin_threads()
run.OUT = Path(sys.argv[2])
cli = run.load_cli()
summary = {"float_fingerprint": run.float_fingerprint()}
for workload in sorted(workloads.GENERATORS):
    with run.Workspace(workload, run.DEFAULT_SEED) as workspace:
        plain = workspace.warm_up(cli)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workspace.warm_up(cli)
        finally:
            tracer.uninstall()
    tracer.write_jsonl(run.OUT / f"{workload}.spans.jsonl")
    summary[workload] = {"plain": plain, "traced": traced, "ops": len(workspace.ops)}
(run.OUT / "summary.json").write_text(json.dumps(summary))
"""


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One untraced and one traced round of every workload on the default seed."""
    out = tmp_path_factory.mktemp("perfbench")
    subprocess.run([sys.executable, "-c", TRACE_ROUNDS, str(BENCH), str(out)],
                   check=True, timeout=600)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    for workload in workloads.GENERATORS:
        summary[workload]["spans"] = tracing.read_jsonl(out / f"{workload}.spans.jsonl")
    return summary


def test_every_target_is_exercised_by_some_workload():
    assert set().union(*EXERCISED.values()) == {t.span for t in tracing.targets()}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_each_wrapped_name_yields_spans(traced, workload):
    names = {s.name for s in traced[workload]["spans"]}
    assert EXERCISED[workload] <= names


def test_traced_outputs_are_byte_identical_to_untraced(traced):
    for workload in workloads.GENERATORS:
        plain, outcomes = traced[workload]["plain"], traced[workload]["traced"]
        assert outcomes == plain, workload
        assert not any(run.op_failed(o, None) for o in outcomes), workload


def test_default_seed_outputs_match_the_record(traced):
    record = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    if traced["float_fingerprint"] != record["float_fingerprint"]:
        pytest.skip("float kernels differ from those the digests were recorded with")
    for workload, recorded in record["workloads"].items():
        assert traced[workload]["plain"] == recorded["outputs"], workload


def test_uninstall_restores_the_program():
    import pathdirac.cli
    import pathdirac.rational

    def current():
        return (pathdirac.cli.main, pathdirac.rational.rref,
                pathdirac.rational.QMatrix.__matmul__, pathdirac.cli.eigen_spectrum)

    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    assert pathdirac.cli.eigen_spectrum is not before[3]
    tracer.uninstall()
    assert current() == before


def test_walk_counter_on_a_regular_digraph():
    import pathdirac.chain
    import pathdirac.graphs

    degs = [2] * 12
    edges = workloads.random_simple_digraph(random.Random(1), degs, degs)
    g = pathdirac.graphs.Digraph.of(range(12), edges)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pathdirac.chain.build_digraph_complex(g, 3)
    finally:
        tracer.uninstall()
    # 12 vertices of out-degree 2, walks of degree 0..3.
    assert tracing.layer_metrics(tracer.spans, 1)["graphs.walks"][0] == 12 * (1 + 2 + 4 + 8)


def test_grid_cells_in_pool_threads_keep_their_parent():
    from pathdirac import molecules, persistence

    atoms, bond_lines = workloads.parse_template(
        workloads.MOLECULE_TEMPLATE.read_text(encoding="utf-8"))
    mol = molecules.load_molecule(workloads.MOLECULE_TEMPLATE)
    filtration = molecules.distance_filtration(
        molecules.bond_digraph(mol), workloads.molecule_thresholds(atoms, bond_lines, 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        persistence.feature_grid(persistence.StageComplexes(filtration, 2), 1, jobs=2)
    finally:
        tracer.uninstall()
    by_id = {s.id: s for s in tracer.spans}
    aux = [s for s in tracer.spans if s.name == "persistence.auxiliary_complex"]
    assert len(aux) == 6  # 3 stages
    assert {by_id[s.parent].name for s in aux} == {"persistence.feature_grid"}
    grid_threads = {s.thread for s in tracer.spans if s.name == "persistence.feature_grid"}
    assert grid_threads.isdisjoint(s.thread for s in aux)  # --jobs 2 runs cells in pool threads


def test_counters_and_thread_parents(traced):
    mixed = traced["small-mixed"]
    metrics = tracing.layer_metrics(mixed["spans"], mixed["ops"])
    assert metrics["rational.rref.calls"][0] > 0
    assert 0 < metrics["rational.rank.repeat_ratio"][0] < 1

    spans = traced["molecule-grid"]["spans"]
    by_id = {s.id: s for s in spans}
    aux = [s for s in spans if s.name == "persistence.auxiliary_complex"]
    assert len(aux) == 28  # 7 stages
    assert {by_id[s.parent].name for s in aux} == {"persistence.feature_grid"}
