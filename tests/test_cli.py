"""End-to-end command-line behavior, exit codes, and output determinism."""

import json

import numpy as np
import pytest

from pathdirac import Digraph, build_digraph_complex, dirac, down_laplacian, laplacian
from pathdirac.cli import main

CYCLIC = "0 1\n1 2\n2 0\n"
WATER = """3
water
O 0.0 0.0 0.0
H 0.97 0.0 0.0
H 0.0 0.97 0.0
BOND 0 1
BOND 0 2
"""


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.txt"
    path.write_text(CYCLIC, encoding="utf-8")
    return path


def test_complex_command(cyclic_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["complex", str(cyclic_file), "--p", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "cyclic.complex.json").read_text())
    assert doc["betti"] == [1, 1]
    assert doc["dims"] == [3, 3, 0]
    assert doc["schema_version"] == "1"


def test_complex_dump_matrices(cyclic_file, tmp_path):
    out = tmp_path / "out"
    assert main(["complex", str(cyclic_file), "--dump-matrices", "--out", str(out)]) == 0
    doc = json.loads((out / "cyclic.complex.json").read_text())
    assert doc["boundaries"][0][0] == ["-1", "0", "1"]


def test_dirac_command(cyclic_file, tmp_path):
    out = tmp_path / "out"
    assert main(["dirac", str(cyclic_file), "--p", "0", "--out", str(out)]) == 0
    doc = json.loads((out / "cyclic.dirac.json").read_text())
    spec = doc["operators"]["dirac_0"]["spectrum"]
    assert len(spec) == 6
    assert doc["operators"]["dirac_0"]["exact_nullity"] == 2


def test_dirac_hypergraph_kind(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 1 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["dirac", str(path), "--kind", "hypergraph", "--p", "0", "--out", str(out)]) == 0
    doc = json.loads((out / "h.dirac.json").read_text())
    assert doc["operators"]["laplacian_0"]["exact_nullity"] == 1


def test_empty_graph_dirac(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# vertices: 0 1 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["dirac", str(path), "--p", "0", "--out", str(out)]) == 0
    doc = json.loads((out / "g.dirac.json").read_text())
    assert doc["operators"]["dirac_0"]["spectrum"] == [0.0, 0.0, 0.0]


def test_persist_command(tmp_path):
    (tmp_path / "s1.txt").write_text("# vertices: 0 1 2 3\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("# vertices: 0 1 2 3\n0 1\n2 3\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\ns2.txt\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["persist", str(manifest), "--p", "1", "--out", str(out)]) == 0
    csv_lines = (out / "filt.grid.csv").read_text().splitlines()
    assert csv_lines[0] == "n,m,nullity,mean_pos,gen_mean"
    cells = {tuple(line.split(",")[:2]): line.split(",")[2] for line in csv_lines[1:]}
    assert cells[("1", "1")] == "4"
    assert cells[("1", "2")] == "2"
    assert (out / "filt.nullity.svg").exists()


def test_persist_outputs_bit_stable(tmp_path):
    (tmp_path / "s1.txt").write_text("# vertices: 0 1 2\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\ns2.txt\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["persist", str(manifest), "--out", str(out), "--jobs", "2"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["persist", str(manifest), "--out", str(out), "--jobs", "2"]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_molecule_command(tmp_path):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(WATER, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["molecule", str(xyz), "--thresholds", "0", "0.97", "--out", str(out)]) == 0
    csv_lines = (out / "water.grid.csv").read_text().splitlines()
    assert csv_lines[1].startswith("1,1,3")


def test_molecule_bad_thresholds_exit_code(tmp_path, capsys):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(WATER, encoding="utf-8")
    code = main(["molecule", str(xyz), "--thresholds", "1", "0.5", "--out", str(tmp_path)])
    assert code == 4  # structural violation of the threshold contract


def test_check_command_passes(cyclic_file, capsys):
    assert main(["check", str(cyclic_file)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_negative_control(cyclic_file, capsys, shifted_laplacian):
    assert main(["check", str(cyclic_file)]) == 4
    out = capsys.readouterr().out
    assert "FAIL dirac-square-p0:" in out


def test_check_filtration(tmp_path, capsys):
    (tmp_path / "s1.txt").write_text("# vertices: 0 1 2\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("0 1\n1 2\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\ns2.txt\n", encoding="utf-8")
    assert main(["check", str(manifest), "--kind", "filtration"]) == 0
    assert "persistent-nullity(1,2)" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["complex"])  # missing input positional
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc2:
        main(["nonsense"])
    assert exc2.value.code == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2 3\n", encoding="utf-8")
    assert main(["complex", str(bad)]) == 2


def test_resource_cap_exit_code(tmp_path):
    path = tmp_path / "dense.txt"
    edges = [f"{u} {v}" for u in range(6) for v in range(6) if u != v]
    path.write_text("\n".join(edges) + "\n", encoding="utf-8")
    assert main(["complex", str(path), "--p", "3", "--cap", "10"]) == 3


def test_unknown_feature_is_usage_error(tmp_path):
    (tmp_path / "s1.txt").write_text("# vertices: 0 1\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["persist", str(manifest), "--features", "volume", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_complex_hypergraph_kind(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 1 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["complex", str(path), "--kind", "hypergraph", "--out", str(out)]) == 0
    doc = json.loads((out / "h.complex.json").read_text())
    assert doc["betti"][0] == 1


def test_broken_nesting_manifest_exit(tmp_path):
    (tmp_path / "s1.txt").write_text("0 1\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("1 0\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\ns2.txt\n", encoding="utf-8")
    assert main(["persist", str(manifest), "--out", str(tmp_path)]) == 4


def test_dirac_dump_matrices_match_library(cyclic_file, tmp_path):
    out = tmp_path / "out"
    assert main(["dirac", str(cyclic_file), "--p", "1", "--dump-matrices", "--out", str(out)]) == 0
    c = build_digraph_complex(Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)]), 2)
    expected = {
        "laplacian_0": laplacian(c, 0).matrix,
        "laplacian_1": laplacian(c, 1).matrix,
        "down_laplacian_2": down_laplacian(c, 2).matrix,
        "dirac_1": dirac(c, 1).matrix,
    }
    for name, matrix in expected.items():
        lines = (out / f"cyclic.{name}.csv").read_text().splitlines()
        assert lines[0] == ",".join(f"c{j}" for j in range(matrix.shape[1]))
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == matrix.shape[0] and all(len(r) == matrix.shape[1] for r in rows), name
        rounded = [[float(f"{v:.12g}") for v in row] for row in matrix]
        assert rows == rounded, name


def test_weighted_manifest_bad_vertex_declaration(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text("# thresholds: 0 1\n# vertices: 0 x\n0 1 1\n", encoding="utf-8")
    assert main(["persist", str(manifest), "--out", str(tmp_path)]) == 2
    assert "m.txt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["persist", "check"])
def test_non_finite_manifest_threshold_exit_code(tmp_path, capsys, command):
    manifest = tmp_path / "m.txt"
    manifest.write_text("# thresholds: 0 nan 2\n# vertices: 0 1 2\n0 1 1\n", encoding="utf-8")
    extra = ["--kind", "filtration"] if command == "check" else []
    assert main([command, str(manifest), *extra, "--out", str(tmp_path)]) == 2
    assert "m.txt:1:" in capsys.readouterr().err


def test_non_finite_manifest_weight_exit_code(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text("# thresholds: 0 1 2\n0 1 1\n1 2 nan\n", encoding="utf-8")
    assert main(["persist", str(manifest), "--out", str(tmp_path)]) == 2
    assert "m.txt:3:" in capsys.readouterr().err


def test_molecule_non_finite_threshold_exit_code(tmp_path):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(WATER, encoding="utf-8")
    code = main(["molecule", str(xyz), "--thresholds", "0.5", "nan", "2", "--out", str(tmp_path)])
    assert code == 4  # structural violation of the threshold contract


@pytest.mark.parametrize(
    "kind, stages, detail",
    [
        ("digraph", ["# vertices: 0 1\n0 1\n", "# vertices: 0 1 2\n0 1\n1 2\n"],
         "PASS beta0-pair(1,2): auxiliary 2, stage-m 1"),
        ("hypergraph", ["0 1\n", "0 1\n0 1 2\n2 3\n"],
         "PASS beta0-pair(1,2): auxiliary 3, stage-m 1"),
    ],
    ids=["digraph", "hypergraph"],
)
def test_check_filtration_growing_vertex_set(tmp_path, capsys, kind, stages, detail):
    # stage-2 vertices missing from stage 1 stay isolated in the auxiliary complex
    for i, text in enumerate(stages, start=1):
        (tmp_path / f"s{i}.txt").write_text(text, encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text(f"# kind: {kind}\ns1.txt\ns2.txt\n", encoding="utf-8")
    assert main(["check", str(manifest), "--kind", "filtration"]) == 0
    out = capsys.readouterr().out
    assert detail in out.splitlines() and "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["complex", "{graph}", "--p", "-1"],
        ["dirac", "{graph}", "--p", "-1"],
        ["check", "{graph}", "--p", "-1"],
        ["persist", "{manifest}", "--p", "-2"],
        ["persist", "{manifest}", "--jobs", "0"],
        ["persist", "{manifest}", "--jobs", "-3"],
        ["molecule", "{xyz}", "--thresholds", "1", "--jobs", "0"],
        ["molecule", "{xyz}", "--thresholds", "1", "--p", "-1"],
        ["complex", "{graph}", "--cap", "-1"],
        ["dirac", "{graph}", "--max-dense", "-1"],
        ["persist", "{manifest}", "--cap", "-1"],
        ["molecule", "{xyz}", "--thresholds", "1", "--max-dense", "-1"],
    ],
)
def test_negative_degree_and_jobs_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(_usage_argv(tmp_path, argv))
    assert exc.value.code == 1
    assert f"argument {argv[-2]}: must be at least" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _usage_argv(tmp_path, argv):
    """argv with {graph}, {manifest} and {xyz} written under tmp_path, plus --out."""
    (tmp_path / "g.txt").write_text(CYCLIC, encoding="utf-8")
    (tmp_path / "m.txt").write_text("g.txt\n", encoding="utf-8")
    (tmp_path / "w.xyz").write_text(WATER, encoding="utf-8")
    paths = {"graph": tmp_path / "g.txt", "manifest": tmp_path / "m.txt", "xyz": tmp_path / "w.xyz"}
    return [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "argv",
    [
        ["complex", "{graph}", "--tol", "1e-9"],
        ["dirac", "{graph}", "--tol", "1e-9"],
        ["persist", "{manifest}", "--tol", "1e-9"],
        ["molecule", "{xyz}", "--thresholds", "1", "--tol", "1e-9"],
        ["check", "{graph}", "--tol", "1e-9"],
        ["complex", "{graph}", "--max-dense", "10"],
        ["check", "{graph}", "--max-dense", "10"],
    ],
)
def test_options_that_change_no_result_are_usage_errors(tmp_path, capsys, argv):
    """--tol could not move the zero class, which is pinned to the exact nullity; complex
    builds no dense operator and check keeps the default guard, so neither takes --max-dense."""
    with pytest.raises(SystemExit) as exc:
        main(_usage_argv(tmp_path, argv))
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["complex", "{missing}"],
        ["persist", "{missing}"],
        ["molecule", "{missing}", "--thresholds", "1", "2"],
        ["complex", "{binary}"],
        ["check", "{binary}", "--kind", "filtration"],
        ["molecule", "{binary}", "--thresholds", "1", "2"],
    ],
)
def test_unreadable_input_is_parse_error(tmp_path, capsys, argv):
    (tmp_path / "binary.txt").write_bytes(b"0 1\n\xff\xfe\n")
    paths = {"missing": tmp_path / "missing.txt", "binary": tmp_path / "binary.txt"}
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(tmp_path)]) == 2
    assert str(paths[argv[1][1:-1]]) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["persist"], ["check", "--kind", "filtration"]],
                         ids=["persist", "check-filtration"])
def test_overlong_stage_name_is_parse_error(tmp_path, capsys, argv):
    manifest = tmp_path / "m.txt"
    manifest.write_text("a" * 300 + "\n", encoding="utf-8")
    assert main([argv[0], str(manifest), *argv[1:], "--out", str(tmp_path)]) == 2
    assert f"error: {manifest}:1: cannot look up stage file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, out",
    [
        (["complex", "{graph}"], "{graph}"),
        (["dirac", "{graph}"], "{graph}"),
        (["persist", "{manifest}"], "{manifest}"),
        (["complex", "{graph}"], "{graph}/sub"),
    ],
    ids=["complex", "dirac", "persist", "complex-below-a-file"],
)
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, argv, out):
    (tmp_path / "g.txt").write_text(CYCLIC, encoding="utf-8")
    (tmp_path / "m.txt").write_text("g.txt\n", encoding="utf-8")
    paths = {"graph": tmp_path / "g.txt", "manifest": tmp_path / "m.txt"}
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv] + ["--out", out.format(**paths)])
    assert exc.value.code == 1
    file = paths[argv[1][1:-1]]
    assert f"error: argument --out: {file} exists and is not a directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_out_name_too_long_is_usage_error(cyclic_file, tmp_path, capsys):
    out = tmp_path / ("a" * 300)
    with pytest.raises(SystemExit) as exc:
        main(["complex", str(cyclic_file), "--out", str(out)])
    assert exc.value.code == 1
    assert f"error: argument --out: {out}: File name too long" in capsys.readouterr().err


def test_eigensolver_failure_is_identity_error(cyclic_file, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["dirac", str(cyclic_file), "--p", "0", "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "error: eigvalsh failed on the 3x3 operator: Eigenvalues did not converge" in err
    assert "Traceback" not in err
