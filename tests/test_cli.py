"""End-to-end command-line behavior, exit codes, and output determinism."""

import contextlib
import errno
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdirac import (Digraph, build_digraph_complex, chain, cli, dirac, down_laplacian,
                       fileio, laplacian)
from conftest import MOLECULE, molecule_thresholds
from pathdirac.cli import main
from pathdirac.molecules import bond_digraph, load_molecule
from pathdirac.rational import QMatrix

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


def weighted_manifest(mol, thresholds) -> str:
    """A molecule's bond digraph as a weighted manifest; repr keeps every float exact."""
    wd = bond_digraph(mol)
    lines = [f"# thresholds: {' '.join(map(repr, thresholds))}",
             f"# vertices: {' '.join(map(str, wd.digraph.vertices))}"]
    lines += [f"{u} {v} {wd.weights[(u, v)]!r}" for u, v in wd.digraph.edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["water", "cage"])
def test_molecule_and_its_weighted_manifest_write_the_same_grid(tmp_path, name):
    """`molecule` and `persist` stage a weighted digraph by one rule, so the bond digraph
    written as a weighted manifest gives the same grid CSV and heatmap bytes."""
    xyz = tmp_path / f"{name}.xyz"
    if name == "water":
        xyz.write_text(WATER, encoding="utf-8")
        thresholds = [0.5, 1.0]
    else:
        xyz.write_bytes(MOLECULE.read_bytes())
        thresholds = molecule_thresholds()
    manifest = tmp_path / f"{name}.txt"
    manifest.write_text(weighted_manifest(load_molecule(xyz), thresholds), encoding="utf-8")
    features = ["--features", "nullity", "max"]
    assert main(["molecule", str(xyz), "--thresholds", *map(repr, thresholds), *features,
                 "--out", str(tmp_path / "mol")]) == 0
    assert main(["persist", str(manifest), *features, "--out", str(tmp_path / "man")]) == 0
    for file in (f"{name}.grid.csv", f"{name}.nullity.svg", f"{name}.max.svg"):
        assert (tmp_path / "mol" / file).read_bytes() == (tmp_path / "man" / file).read_bytes()


def test_molecule_bad_thresholds_exit_code(tmp_path, capsys):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(WATER, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:  # a usage error, found before any input is read
        main(["molecule", str(xyz), "--thresholds", "1", "0.5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "thresholds, problem",
    [(["2", "1"], "strictly increasing"), (["1", "nan"], "finite"), (["1", "1"], "strictly increasing")],
    ids=["decreasing", "nan", "repeated"],
)
def test_molecule_thresholds_are_usage_errors(tmp_path, capsys, thresholds, problem):
    """The weighted-manifest form rejects the same thresholds as a parse error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(_usage_argv(tmp_path, ["molecule", "{xyz}", "--thresholds", *thresholds]))
    assert exc.value.code == 1
    assert f"error: argument --thresholds: thresholds must be {problem}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_molecule_zero_length_bond_is_parse_error(tmp_path, capsys):
    xyz = tmp_path / "dup.xyz"
    xyz.write_text("2\ndup\nC 0 0 0\nC 0 0 0\n", encoding="utf-8")
    assert main(["molecule", str(xyz), "--thresholds", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {xyz}: atoms on rows 3 and 4 are bonded at distance 0" in err


def test_second_command_sees_option_defaults(tmp_path):
    """The parser is built once per process; options given to one command must
    not become the defaults of the next."""
    (tmp_path / "s1.txt").write_text("0 1\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\n", encoding="utf-8")
    xyz = tmp_path / "water.xyz"
    xyz.write_text(WATER, encoding="utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["persist", str(manifest), "--annotate", "--features", "min_pos",
                 "--out", str(first)]) == 0
    cell_label = 'font-size="9"'  # only annotated heatmap cells carry one
    assert cell_label in (first / "filt.min_pos.svg").read_text()
    assert main(["molecule", str(xyz), "--thresholds", "1", "--out", str(second)]) == 0
    assert (second / "water.grid.csv").read_text().splitlines()[0] == "n,m,nullity,mean_pos,gen_mean"
    svgs = sorted(p.name for p in second.glob("*.svg"))
    assert svgs == ["water.gen_mean.svg", "water.mean_pos.svg", "water.nullity.svg"]
    assert all(cell_label not in (second / name).read_text() for name in svgs)


def test_check_command_passes(cyclic_file, capsys):
    assert main(["check", str(cyclic_file)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_negative_control(cyclic_file, capsys, shifted_laplacian):
    assert main(["check", str(cyclic_file)]) == 4
    out = capsys.readouterr().out
    assert "FAIL dirac-square-p0:" in out


def test_check_p0_runs_no_degree2_check(cyclic_file, capsys):
    """A complex built to degree 1 has no degree-2 data, so neither degree-2 line prints."""
    assert main(["check", str(cyclic_file), "--p", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if "h1-closed-form" in line or "degree2-fast-path" in line]
    assert lines[-1] == "7/7 checks passed"


@pytest.mark.parametrize("kind, text", [("digraph", CYCLIC), ("hypergraph", "0 1 2\n2 3\n")])
def test_check_h1_negative_control(tmp_path, capsys, monkeypatch, kind, text):
    # both kinds reach the one degree-1 closed form, so a miscounted component fails both
    real = Digraph.components
    monkeypatch.setattr(Digraph, "components", lambda self: real(self) + [set()])
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--kind", kind]) == 4
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in fails] == ["FAIL h1-closed-form"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["persist", "{manifest}", "--features", "nullity", "nullity"],
        ["molecule", "{xyz}", "--thresholds", "1.2", "5", "--features", "nullity", "nullity"],
        ["molecule", "{xyz}", "--thresholds", "1", "--features", "max", "min_pos", "max"],
    ],
)
def test_repeated_feature_is_usage_error(tmp_path, capsys, argv):
    """A repeated name would head two CSV columns alike and write its heatmap twice."""
    with pytest.raises(SystemExit) as exc:
        main(_usage_argv(tmp_path, argv))
    assert exc.value.code == 1
    assert f"argument --features: repeated {argv[-1]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert main(["persist", str(manifest), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [["persist"], ["check", "--kind", "filtration"]],
                         ids=["persist", "check-filtration"])
@pytest.mark.parametrize(
    "kind, stages, missing",
    [
        ("digraph", ["0 1\n", "1 0\n"], "stage 2 (s2.txt) lacks edge `0 1` of stage 1"),
        ("digraph", ["# vertices: 0 1 2 3\n0 1\n", "0 1\n1 2\n"],
         "stage 2 (s2.txt) lacks vertex `3` of stage 1"),
        ("hypergraph", ["0 1 2\n", "0 1 2\n0 1\n", "# vertices: 4\n0 1 2\n"],
         "stage 3 (s3.txt) lacks hyperedge `0 1` of stage 2"),
    ],
    ids=["edge", "vertex", "hyperedge"],
)
def test_broken_nesting_names_manifest_line(tmp_path, capsys, argv, kind, stages, missing):
    """Stages that do not nest are bad input: a parse error at the later stage's line,
    naming the first element it lacks; nothing is written."""
    names = [f"s{i}.txt" for i in range(1, len(stages) + 1)]
    for name, text in zip(names, stages):
        (tmp_path / name).write_text(text, encoding="utf-8")
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"# kind: {kind}\n" + "".join(f"{n}\n" for n in names), encoding="utf-8")
    out = tmp_path / "out"
    assert main([argv[0], str(manifest), *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {manifest}:{len(stages) + 1}: stages do not nest: {missing}\n" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, text, repeated",
    [
        ("digraph", "0 1\n1 2\n2 0\n0 2\n", "0 1\n1 2\n2 0\n1 2\n0 2\n0 1\n"),
        ("hypergraph", "0 1 2\n2 3\n3 0\n", "0 1 2\n2 3\n0 1 2\n3 0\n2 3\n"),
    ],
)
def test_repeated_input_line_changes_no_result(tmp_path, kind, text, repeated):
    """A graph file is read as a set of edges or hyperedges, so repeating a line
    changes no written byte but the input digest."""
    written = []
    for name, body in (("once", text), ("twice", repeated)):
        graph = tmp_path / name / "g.txt"
        graph.parent.mkdir()
        graph.write_text(body, encoding="utf-8")
        out = tmp_path / name / "out"
        for command in ("complex", "dirac"):
            argv = [command, str(graph), "--kind", kind, "--dump-matrices", "--out", str(out)]
            assert main(argv) == 0
        docs = {p.name: json.loads(p.read_text()) for p in out.glob("*.json")}
        digests = {name: doc.pop("input_digest") for name, doc in docs.items()}
        csvs = {p.name: p.read_text() for p in out.glob("*.csv")}
        written.append((docs, csvs, digests))
    (docs, csvs, digests), (docs2, csvs2, digests2) = written
    assert sorted(docs) == ["g.complex.json", "g.dirac.json"] and csvs
    assert docs == docs2 and csvs == csvs2
    assert all(digests[name] != digests2[name] for name in digests)


CATALOGUE_FILES = {
    "loop.txt": "0 1\n1 1\n",
    "token.txt": "0 1\n1 x\n",
    "negative.txt": "0 1\n1 -2\n",
    "missing.txt": "g.txt\nno-such-stage.txt\n",
    "s1.txt": "0 1\n",
    "s2.txt": "1 0\n",
    "nesting.txt": "s1.txt\ns2.txt\n",
    "nan.txt": "# thresholds: 0 1\n0 1 0.5\n1 2 nan\n",
    "bond.xyz": WATER.replace("BOND 0 2", "BOND 0 3"),
    "zero.xyz": "2\ndup\nC 0 0 0\nC 0 0 0\nBOND 0 1\n",
    "weight.txt": "# thresholds: 0 1\n0 1 abc\n",
    "nan.xyz": WATER.replace("H 0.97", "H nan"),
    "link.xyz": WATER + "LINK 0 1\n",
    "index.xyz": WATER + "BOND 0 x\n",
    "g.txt": CYCLIC,
    "w.xyz": WATER,
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["complex", "loop.txt"], 2),
        (["complex", "token.txt"], 2),
        (["complex", "negative.txt"], 2),
        (["complex", "binary.txt"], 2),
        (["persist", "missing.txt"], 2),
        (["persist", "nesting.txt"], 2),
        (["persist", "nan.txt"], 2),
        (["molecule", "bond.xyz", "--thresholds", "1", "2"], 2),
        (["molecule", "zero.xyz", "--thresholds", "1"], 2),
        (["persist", "weight.txt"], 2),
        (["molecule", "nan.xyz", "--thresholds", "1"], 2),
        (["molecule", "link.xyz", "--thresholds", "1"], 2),
        (["molecule", "index.xyz", "--thresholds", "1"], 2),
        (["complex", "g.txt", "--cap", "0"], 3),
        (["dirac", "g.txt", "--max-dense", "0"], 3),
        (["molecule", "w.xyz", "--thresholds", "2", "1"], 1),
    ],
    ids=["loop", "non-integer", "negative-id", "non-utf8", "missing-stage", "broken-nesting",
         "nan-weight", "bad-bond-index", "zero-length-bond", "bad-weighted-edge",
         "nan-coordinate", "non-bond-trailer", "non-integer-bond-index", "cap-0", "max-dense-0",
         "bad-thresholds"],
)
def test_exit_code_catalogue(tmp_path, capsys, argv, code):
    """Each documented bad input ends with its exit code, one `error:` line, no
    traceback, and no result file under --out."""
    for name, text in CATALOGUE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "binary.txt").write_bytes(b"0 1\n\xff\xfe\n")
    out = tmp_path / "out"
    try:
        got = main([argv[0], str(tmp_path / argv[1]), *argv[2:], "--out", str(out)])
    except SystemExit as exc:  # usage errors leave through argparse
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("error:"), err
    assert "Traceback" not in err
    assert not out.exists()


XYZ_ARGV = ["molecule", "g.txt", "--thresholds", "1"]


@pytest.mark.parametrize(
    "argv, text, error",
    [
        (["complex", "g.txt"], "0 1\n1 1\n", "g.txt:2: loop edge 1->1 is not permitted"),
        (["dirac", "g.txt"], "0 1\n1 -2\n", "g.txt:2: vertex ids must be non-negative integers"),
        (["complex", "g.txt", "--kind", "hypergraph"], "0 1 2\n3 -1\n",
         "g.txt:2: vertex ids must be non-negative integers"),
        (["complex", "g.txt"], "0 1\n# vertices: 0 x\n",
         "g.txt:2: vertex declaration must list integers"),
        (["persist", "g.txt"], "# thresholds: 0 1\n# vertices: 0 x\n0 1 1\n",
         "g.txt:2: vertex declaration must list integers"),
        (["check", "g.txt"], "# vertices: 0 -1\n0 1\n",
         "g.txt:1: vertex ids must be non-negative integers"),
        (["check", "g.txt", "--kind", "hypergraph"], "0 1 2\n# vertices: -3\n",
         "g.txt:2: vertex ids must be non-negative integers"),
        (["persist", "g.txt"], "# thresholds: 1 2\n# vertices: -2\n0 1 1\n",
         "g.txt:2: vertex ids must be non-negative integers"),
        (["persist", "g.txt"], "# thresholds: 1 x\n0 1 1\n", "g.txt:1: thresholds must be numbers"),
        (["check", "g.txt", "--kind", "filtration"], "0 1 1\n# thresholds:\n",
         "g.txt:2: threshold list is empty"),
        (["persist", "g.txt"], "# kind: simplicial\ns1.txt\n",
         "g.txt:1: manifest kind must be digraph or hypergraph, got 'simplicial'"),
        # XYZ files: the count line, the atom rows and the `BOND i j` trailer
        (XYZ_ARGV, "two\nwater\n", "g.txt:1: first line must be the atom count"),
        (XYZ_ARGV, "0\nwater\n", "g.txt:1: atom count must be positive"),
        (XYZ_ARGV, "1\nc\nH 0 0\n", "g.txt:3: atom row needs `Element x y z`"),
        (XYZ_ARGV, "1\nc\nXx 0 0 0\n", "g.txt:3: unknown element 'Xx'"),
        (XYZ_ARGV, "1\nc\nH 0 zero 0\n", "g.txt:3: coordinates must be numeric"),
        (XYZ_ARGV, "2\nc\nH 0 0 0\nH 0 inf 0\n", "g.txt:4: coordinates must be finite"),
        (XYZ_ARGV, WATER + "\n# note\nLINK 0 1\n", "g.txt:10: trailer lines must be `BOND i j`"),
        (XYZ_ARGV, WATER + "BOND 0 x\n", "g.txt:8: bond indices must be integers"),
        (XYZ_ARGV, WATER + "BOND 0 3\n", "g.txt:8: bond index out of range in `BOND 0 3`"),
        (XYZ_ARGV, WATER + "BOND 1 1\n", "g.txt:8: an atom cannot bond to itself"),
        # a repeated directive, or one the file's form does not read
        (["complex", "g.txt"], "0 1\n# vertices: 0 1\n# vertices: 7\n",
         "g.txt:3: repeated `# vertices:` directive"),
        (["persist", "g.txt"], "# thresholds: 1 2\n# kind: bogus\n0 1 1\n",
         "g.txt:2: a weighted manifest does not read `# kind:`"),
        (["persist", "g.txt"], "# vertices: 0 1 9\ns1.txt\n",
         "g.txt:1: a stage-list manifest does not read `# vertices:`"),
        (["persist", "g.txt"], "# kind: hypergraph\n# kind: digraph\ns1.txt\n",
         "g.txt:2: repeated `# kind:` directive"),
    ],
    ids=["loop-row", "negative-digraph-row", "negative-hypergraph-row",
         "non-integer-vertices", "non-integer-manifest-vertices", "negative-vertices",
         "negative-hypergraph-vertices", "negative-manifest-vertices", "non-number-threshold",
         "empty-thresholds", "bad-kind", "xyz-count", "xyz-count-positive", "xyz-short-row",
         "xyz-element", "xyz-coordinate", "xyz-non-finite", "xyz-trailer", "xyz-bond-index",
         "xyz-bond-range", "xyz-self-bond", "repeated-vertices", "weighted-kind",
         "stage-list-vertices", "repeated-kind"],
)
def test_parse_fault_names_its_line(tmp_path, monkeypatch, capsys, argv, text, error):
    """A fault of a data line or a directive exits 2 with `error: path:line: message`."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(text, encoding="utf-8")
    (tmp_path / "s1.txt").write_text("0 1\n", encoding="utf-8")
    assert main([*argv, "--out", "out"]) == 2
    assert f"error: {error}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()


def test_xyz_trailer_skips_blank_and_comment_lines(tmp_path):
    """A blank line and a `#` line in the trailer are skipped: the grid is the plain file's."""
    grids = []
    for name, text in (("plain", WATER), ("noted", WATER + "\n# note\n")):
        (tmp_path / name).mkdir()
        xyz = tmp_path / name / "w.xyz"
        xyz.write_text(text, encoding="utf-8")
        out = tmp_path / name / "out"
        assert main(["molecule", str(xyz), "--thresholds", "1", "2", "--out", str(out)]) == 0
        grids.append((out / "w.grid.csv").read_text(encoding="utf-8"))
    assert grids[0] == grids[1]


# Valid inputs, as files (the input is "in") and the argv that follows the command.
@st.composite
def digraph_input(draw):
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    text = f"# vertices: {' '.join(map(str, range(n)))}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    return {"in": text.encode()}, ["--kind", "digraph"]


@st.composite
def hypergraph_input(draw):
    n = draw(st.integers(2, 5))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
                          max_size=4))
    text = f"# vertices: {' '.join(map(str, range(n)))}\n"
    return {"in": (text + "".join(" ".join(map(str, e)) + "\n" for e in edges)).encode()}, [
        "--kind", "hypergraph"]


@st.composite
def stage_list_input(draw):
    """Two digraph stages on one vertex set, the second with at least one more edge."""
    n = draw(st.integers(2, 4))
    pairs = draw(st.permutations([(u, v) for u in range(n) for v in range(n) if u != v]))
    k = draw(st.integers(0, len(pairs) - 1))
    m = draw(st.integers(k + 1, len(pairs)))
    head = f"# vertices: {' '.join(map(str, range(n)))}\n"
    files = {f"s{i}.txt": (head + "".join(f"{u} {v}\n" for u, v in pairs[:cut])).encode()
             for i, cut in ((1, k), (2, m))}
    return {**files, "in": b"s1.txt\ns2.txt\n"}, []


@st.composite
def weighted_input(draw):
    n = draw(st.integers(2, 4))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(["0.5", "1", "1.5"])),
                          max_size=6))
    text = f"# thresholds: 0.5 1.5\n# vertices: {' '.join(map(str, range(n)))}\n"
    return {"in": (text + "".join(f"{u} {v} {w}\n" for (u, v), w in edges)).encode()}, []


@st.composite
def molecule_input(draw):
    """A chain of 2-4 atoms along x, each bond declared."""
    atoms = draw(st.lists(st.sampled_from("CHNO"), min_size=2, max_size=4))
    gaps = draw(st.lists(st.sampled_from([0.9, 1.1, 1.4]), min_size=len(atoms) - 1,
                         max_size=len(atoms) - 1))
    xs = [0.0, *np.cumsum(gaps)]
    rows = "".join(f"{a} {x:.2f} 0.0 0.0\n" for a, x in zip(atoms, xs))
    bonds = "".join(f"BOND {i} {i + 1}\n" for i in range(len(atoms) - 1))
    return {"in": f"{len(atoms)}\nchain\n{rows}{bonds}".encode()}, ["--thresholds", "1.0", "1.5"]


INPUTS = {
    "complex": {"digraph": digraph_input(), "hypergraph": hypergraph_input()},
    "dirac": {"digraph": digraph_input(), "hypergraph": hypergraph_input()},
    "persist": {"stage-list": stage_list_input(), "weighted": weighted_input()},
    "molecule": {"xyz": molecule_input()},
    "check": {"digraph": digraph_input(), "hypergraph": hypergraph_input(),
              "stage-list": stage_list_input(), "weighted": weighted_input()},
}


def _append(line: bytes, name: str = "in"):
    return lambda files, argv: ({**files, name: files[name] + line}, argv)


def _options(*extra: str):
    return lambda files, argv: (files, [*argv, *extra])


def _replace(old: bytes, new: bytes):
    return lambda files, argv: ({**files, "in": files["in"].replace(old, new, 1)}, argv)


def _zero_length_bond(files, argv):
    lines = files["in"].decode().splitlines(keepends=True)
    lines[3] = lines[2].replace(lines[2].split()[0], lines[3].split()[0], 1)
    return {**files, "in": "".join(lines).encode()}, argv


def _molecule_thresholds(files, argv):
    return files, ["--thresholds", "1.5", "1.0"]


# The README's exit-code catalogue as mutations: name -> (exit code, mutation),
# by the input kind they fit and then by the options each subcommand takes.
FILE_MUTATIONS = {
    "digraph": {"loop": (2, _append(b"1 1\n")), "non-integer": (2, _append(b"0 x\n")),
                "negative-id": (2, _append(b"0 -2\n"))},
    "hypergraph": {"non-integer": (2, _append(b"0 x\n")), "negative-id": (2, _append(b"0 -2\n"))},
    "stage-list": {"missing-stage": (2, _append(b"no-such-stage.txt\n")),
                   "broken-nesting": (2, _replace(b"s1.txt\ns2.txt", b"s2.txt\ns1.txt")),
                   "stage-loop": (2, _append(b"1 1\n", "s2.txt")),
                   "stage-non-utf8": (2, _append(b"\xff\xfe\n", "s1.txt"))},
    "weighted": {"loop": (2, _append(b"1 1 0.5\n")), "negative-id": (2, _append(b"0 -2 0.5\n")),
                 "nan-weight": (2, _append(b"0 1 nan\n")),
                 "nan-threshold": (2, _replace(b"0.5 1.5", b"0.5 nan")),
                 "unordered-thresholds": (2, _replace(b"0.5 1.5", b"1.5 0.5"))},
    "xyz": {"bad-bond-index": (2, _replace(b"BOND 0 1", b"BOND 0 9")),
            "zero-length-bond": (2, _zero_length_bond)},
}
for kind in FILE_MUTATIONS.values():
    kind["non-utf8"] = (2, _append(b"\xff\xfe\n"))
    kind["missing-input"] = (2, lambda files, argv: ({k: v for k, v in files.items() if k != "in"},
                                                     argv))
OPTION_MUTATIONS = {
    "cap-0": (3, _options("--cap", "0")),
    "negative-p": (1, _options("--p", "-1")),
    "tol": (1, _options("--tol", "1e-9")),
    "jobs-0": (1, _options("--jobs", "0")),
}
MAX_DENSE_0 = {"dirac": 3, "persist": 3, "molecule": 3, "complex": 1, "check": 1}


def mutations(command: str, kind: str) -> dict:
    """Every catalogue mutation that fits this subcommand and input kind."""
    found = {**FILE_MUTATIONS[kind], **OPTION_MUTATIONS,
             "max-dense-0": (MAX_DENSE_0[command], _options("--max-dense", "0"))}
    if command == "molecule":
        found["bad-thresholds"] = (1, _molecule_thresholds)
    return found


CASES = [(command, kind, name) for command in sorted(INPUTS) for kind in sorted(INPUTS[command])
         for name in sorted(mutations(command, kind))]


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command, kind, mutation", CASES, ids=["-".join(c) for c in CASES])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_valid_input_exits_as_documented(tmp_path_factory, command, kind, mutation, data):
    """A drawn valid input runs clean; one mutation from the exit-code catalogue
    then ends it with the documented code, exactly one `error:` line, no
    traceback, and no --out directory."""
    files, options = data.draw(INPUTS[command][kind], label="input")
    if command == "check" and kind in ("stage-list", "weighted"):
        options = ["--kind", "filtration"]
    code, mutate = mutations(command, kind)[mutation]
    base = tmp_path_factory.mktemp(command)

    def argv(files, options, out):
        for file, body in files.items():
            (base / file).write_bytes(body)
        return [command, str(base / "in"), *options, "--out", str(base / out)]

    valid = _run(argv(files, options, "valid-out"))
    assert valid[0] == 0, valid[1]
    for file in files:
        (base / file).unlink()
    got, err = _run(argv(*mutate(files, options), "out"))
    assert got == code, err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("error:"), err
    assert "Traceback" not in err
    assert not (base / "out").exists()


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
    with pytest.raises(SystemExit) as exc:  # a usage error, like an unordered list
        main(["molecule", str(xyz), "--thresholds", "0.5", "nan", "2", "--out", str(tmp_path)])
    assert exc.value.code == 1


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


def test_check_filtration_noise_block_has_float_rank_zero(tmp_path, capsys):
    # the auxiliary degree-1 basis is (0,3)+(3,0); its QR column is not exactly
    # symmetric, so its boundary block holds only ±2.2e-16 rounding noise
    stages = ["# vertices: 0\n", "# vertices: 0 1 2 3\n3 0\n", "# vertices: 0 1 2 3\n3 0\n0 3\n"]
    for i, text in enumerate(stages, start=1):
        (tmp_path / f"s{i}.txt").write_text(text, encoding="utf-8")
    manifest = tmp_path / "m.txt"
    manifest.write_text("s1.txt\ns2.txt\ns3.txt\n", encoding="utf-8")
    assert main(["check", str(manifest), "--kind", "filtration"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "PASS persistent-nullity(1,3): exact 5, zeros 5, float 5" in out
    assert not any(line.startswith("FAIL") for line in out)


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


@pytest.fixture
def k10_file(tmp_path):
    """The complete digraph on 10 vertices: 7,110 invariant 3-paths, a 8,010-wide Dirac at p=2."""
    path = tmp_path / "k10.txt"
    path.write_text("".join(f"{u} {v}\n" for u in range(10) for v in range(10) if u != v),
                    encoding="utf-8")
    return path


def refuse(*args, **kwargs):
    raise AssertionError("a float block was formed")


def test_complex_forms_no_float_block(k10_file, tmp_path, monkeypatch):
    monkeypatch.setattr(chain, "orthonormal_basis", refuse)
    monkeypatch.setattr(QMatrix, "to_float", refuse)
    out = tmp_path / "out"
    assert main(["complex", str(k10_file), "--p", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "k10.complex.json").read_text())
    assert doc["dims"] == [10, 90, 800, 7110]
    assert doc["betti"] == [1, 0, 0]


@pytest.mark.parametrize("command", ["dirac", "check"])
def test_dense_guard_fires_before_any_float_block(k10_file, tmp_path, capsys, monkeypatch,
                                                  command):
    monkeypatch.setattr(chain, "orthonormal_basis", refuse)
    assert main([command, str(k10_file), "--p", "2", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert "error: dense operator of size 8010 exceeds the limit of 4000" in captured.err
    assert captured.out == ""


def test_persist_guard_fires_before_any_orthonormal_basis(tmp_path, capsys, monkeypatch):
    (tmp_path / "s1.txt").write_text("# vertices: 0 1 2 3\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("# vertices: 0 1 2 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\ns2.txt\n", encoding="utf-8")
    monkeypatch.setattr(chain, "orthonormal_basis", refuse)
    # the smallest Dirac, stage pair (1, 1) at p=1, has size 4
    argv = ["persist", str(manifest), "--p", "1", "--max-dense", "3", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "exceeds the limit of 3" in capsys.readouterr().err


def test_persist_guard_converts_no_block_of_the_refused_stage(tmp_path, capsys, monkeypatch):
    (tmp_path / "s1.txt").write_text("0 1\n0 2\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    manifest = tmp_path / "filt.txt"
    manifest.write_text("s1.txt\ns2.txt\n", encoding="utf-8")
    built, converted = [], []

    class Recorded(cli.StageComplexes):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    real = QMatrix.to_float

    def recording(self):
        converted.append(self)
        return real(self)

    monkeypatch.setattr(cli, "StageComplexes", Recorded)
    monkeypatch.setattr(QMatrix, "to_float", recording)
    # cell (1, 1) has size 5 and runs; cell (1, 2) has size 6, so its guard refuses it
    argv = ["persist", str(manifest), "--p", "1", "--max-dense", "5", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "error: dense operator of size 6 exceeds the limit of 5" in capsys.readouterr().err
    stage_1, stage_2 = (built[0].stage(i).degrees for i in (1, 2))
    assert any(m is stage_1[1].allowed for m in converted)
    blocks_2 = [m for d in stage_2 for m in (d.allowed, d.omega)]
    assert not any(m is b for m in converted for b in blocks_2)


def test_refused_allocation_is_resource_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 395. MiB for an array with shape (7290, 7110)")

    path = tmp_path / "square.txt"  # its invariant 2-path is a difference, so it takes a QR
    path.write_text("0 1\n0 3\n1 2\n3 2\n", encoding="utf-8")
    monkeypatch.setattr(np.linalg, "qr", no_memory)
    assert main(["dirac", str(path), "--p", "1", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "error: out of memory: Unable to allocate 395. MiB" in err
    assert "Traceback" not in err


def test_refused_result_write_is_resource_error(cyclic_file, tmp_path, capsys, monkeypatch):
    def disk_full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(fileio.os, "replace", disk_full)
    # the directories this write makes go with it; one that was already there stays
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "fullout" / "nested", kept):
        assert main(["complex", str(cyclic_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: cannot write {out / 'cyclic.complex.json'}: No space left on device"]
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp"))
    assert not (tmp_path / "fullout").exists()
    assert kept.is_dir() and not list(kept.iterdir())
