"""File parsing, manifests, serialization determinism, and the SVG writer."""

import json
import os
import stat

import pytest

from pathdirac import Digraph, Filtration, StageComplexes
from pathdirac.errors import ParseError
from pathdirac.fileio import (
    atomic_write_text,
    format_cell,
    grid_csv,
    grid_payload,
    load_graph,
    load_manifest,
    parse_digraph,
    parse_hypergraph,
    parse_manifest,
    result_document,
    round_floats,
    sig12,
    write_csv,
    write_json,
)
from pathdirac.heatmap import grid_heatmap_svg, ramp_color
from pathdirac.molecules import load_molecule
from pathdirac.persistence import feature_grid


def test_parse_digraph_basic():
    g = parse_digraph("0 1\n1 2\n# comment\n2 0\n")
    assert g == Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])


def test_parse_digraph_vertices_directive():
    g = parse_digraph("# vertices: 0 1 2 3\n0 1\n")
    assert g.vertices == (0, 1, 2, 3)


def test_parse_digraph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_digraph("0 1\n0 1 2\n", path="g.txt")
    assert "g.txt:2" in str(err.value)
    with pytest.raises(ParseError):
        parse_digraph("0 x\n")
    with pytest.raises(ParseError):
        parse_digraph("3 3\n")  # loop


def test_parse_errors_without_a_path_name_the_line():
    with pytest.raises(ParseError, match="^line 2: expected `u v`, got '1 2 3'$"):
        parse_digraph("0 1\n1 2 3\n")
    with pytest.raises(ParseError, match="^g.txt:2: expected `u v`, got '1 2 3'$"):
        parse_digraph("0 1\n1 2 3\n", path="g.txt")
    with pytest.raises(ParseError, match="^loop edge 3->3 is not permitted$"):
        parse_digraph("3 3\n")
    with pytest.raises(ParseError, match="^g.txt: loop edge 3->3 is not permitted$"):
        parse_digraph("3 3\n", path="g.txt")


def test_parse_hypergraph():
    h = parse_hypergraph("0 1 2\n3 4 5\n")
    assert h.hyperedges == ((0, 1, 2), (3, 4, 5))
    with pytest.raises(ParseError):
        parse_hypergraph("0 a\n")


def test_manifest_stage_list(tmp_path):
    (tmp_path / "s1.txt").write_text("# vertices: 0 1 2\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("# vertices: 0 1 2\n0 1\n", encoding="utf-8")
    manifest = tmp_path / "stages.txt"
    manifest.write_text("# kind: digraph\ns1.txt\ns2.txt\n", encoding="utf-8")
    f = load_manifest(manifest)
    assert len(f) == 2
    assert f.stages[1].edges == ((0, 1),)


def test_manifest_missing_stage_file(tmp_path):
    manifest = tmp_path / "stages.txt"
    manifest.write_text("nope.txt\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_manifest(manifest)


def test_manifest_stage_name_too_long_to_stat(tmp_path):
    """A name the OS refuses to look up (ENAMETOOLONG) is a ParseError naming the
    manifest line; a merely missing file keeps its not-found message."""
    manifest = tmp_path / "stages.txt"
    manifest.write_text("# kind: digraph\n" + "a" * 300 + "\nnope.txt\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}:2: cannot look up stage file: File name too long"
    manifest.write_text("nope.txt\n" + "a" * 300 + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}:1: stage file not found: nope.txt"


@pytest.mark.parametrize(
    "load",
    [lambda path: load_graph(path, "digraph"), load_manifest, load_molecule],
    ids=["load_graph", "load_manifest", "load_molecule"],
)
def test_loaders_name_unreadable_files(tmp_path, load):
    missing = tmp_path / "missing.txt"
    with pytest.raises(ParseError) as err:
        load(missing)
    assert str(err.value).startswith(f"{missing}: cannot read file")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"0 1\n\xff\n")
    with pytest.raises(ParseError) as err:
        load(binary)
    assert str(err.value) == f"{binary}: not UTF-8 text (byte 4)"
    with pytest.raises(ParseError) as err:
        load(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: cannot read file")


def test_manifest_weighted_form(tmp_path):
    text = "# thresholds: 0 1.0 2.0\n# vertices: 0 1 2 3\n0 1 0.5\n1 2 1.5\n"
    f = parse_manifest(text, tmp_path)
    assert len(f) == 3
    assert f.stages[0].edges == ()
    assert f.stages[1].edges == ((0, 1),)
    assert f.stages[2].edges == ((0, 1), (1, 2))
    assert f.stages[0].vertices == (0, 1, 2, 3)


def test_manifest_weighted_edge_listed_twice_enters_at_smaller_weight(tmp_path):
    f = parse_manifest("# thresholds: 1 2 3\n0 1 2.5\n1 2 3\n0 1 1.5\n", tmp_path)
    assert [s.edges for s in f.stages] == [(), ((0, 1),), ((0, 1), (1, 2))]


def test_manifest_weighted_form_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_manifest("# thresholds: 1 2\n0 1\n", tmp_path)
    with pytest.raises(ParseError):
        parse_manifest("# thresholds: x\n0 1 0.5\n", tmp_path)
    with pytest.raises(ParseError, match="^m.txt: "):
        parse_manifest("# thresholds: 0 1\n# vertices: 0 x\n0 1 1\n", tmp_path, "m.txt")
    with pytest.raises(ParseError, match="^m.txt:2: "):
        parse_manifest("# vertices: 0 1\n# thresholds: 0 1 inf\n0 1 1\n", tmp_path, "m.txt")
    with pytest.raises(ParseError, match="^m.txt:2: "):
        parse_manifest("# thresholds: 0 1\n0 1 -inf\n", tmp_path, "m.txt")
    with pytest.raises(ParseError, match="^m.txt:1: thresholds must be strictly increasing"):
        parse_manifest("# thresholds: 0 0\n0 1 1\n", tmp_path, "m.txt")
    with pytest.raises(ParseError, match="^m.txt:3: loop edge 1->1 is not permitted"):
        parse_manifest("# thresholds: 1 2\n0 1 1\n1 1 2\n", tmp_path, "m.txt")
    with pytest.raises(ParseError, match="^m.txt:2: vertex ids must be non-negative"):
        parse_manifest("# thresholds: 1 2\n0 -1 1\n", tmp_path, "m.txt")
    with pytest.raises(ParseError, match="^m.txt: vertex ids must be non-negative"):
        parse_manifest("# thresholds: 1 2\n# vertices: -2\n0 1 1\n", tmp_path, "m.txt")


def test_manifest_broken_nesting_is_parse_error(tmp_path):
    (tmp_path / "s1.txt").write_text("0 1\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("1 0\n", encoding="utf-8")
    manifest = tmp_path / "stages.txt"
    manifest.write_text("s1.txt\n# comment\ns2.txt\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"stages.txt:3: stages do not nest: stage 2 \(s2.txt\) "
                                         r"lacks edge `0 1` of stage 1$"):
        load_manifest(manifest)


def test_sig12_and_round_floats():
    assert sig12(0.0) == 0.0
    assert sig12(1 / 3) == float(f"{1 / 3:.12g}")
    nested = round_floats({"a": [1 / 3, {"b": 2.0}]})
    assert nested == {"a": [float(f"{1 / 3:.12g}"), {"b": 2.0}]}


def test_format_cell():
    assert format_cell(3) == "3"
    assert format_cell(2.5) == "2.5"
    assert format_cell(1 / 3) == "0.333333333333"
    assert format_cell(-0.0) == "0"  # `sig12` maps every zero to 0.0


def test_result_document_digest_and_determinism(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n", encoding="utf-8")
    doc1 = result_document("complex", src, {"x": 0.1234567890123456})
    doc2 = result_document("complex", src, {"x": 0.1234567890123456})
    assert doc1 == doc2
    assert len(doc1["input_digest"]) == 64
    out = tmp_path / "doc.json"
    write_json(out, doc1)
    first = out.read_bytes()
    write_json(out, doc2)
    assert out.read_bytes() == first
    parsed = json.loads(first)
    assert parsed["schema_version"] == "1"


def test_write_csv_bytes_stable(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, ["a", "b"], [[1, 0.5], [2, 1 / 3]])
    b1 = out.read_bytes()
    write_csv(out, ["a", "b"], [[1, 0.5], [2, 1 / 3]])
    assert out.read_bytes() == b1
    assert b1.decode().splitlines()[0] == "a,b"


def _small_grid():
    s1 = Digraph.of([0, 1, 2], [])
    s2 = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    stages = StageComplexes(Filtration.of([s1, s2]), 2)
    return feature_grid(stages, 1)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_result_file_takes_the_umask_mode(tmp_path, umask, mode):
    """A result file gets the mode a plain write would, and no temp file stays."""
    previous = os.umask(umask)
    try:
        write_json(tmp_path / "r.json", {"a": 1})
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "r.json").stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_failed_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        atomic_write_text(tmp_path / "r.json", None)
    assert list(tmp_path.iterdir()) == []


def test_grid_csv_layout(tmp_path):
    grid = _small_grid()
    out = tmp_path / "grid.csv"
    grid_csv(out, grid)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,nullity,mean_pos,gen_mean"
    assert len(lines) == 1 + 3  # pairs (1,1), (1,2), (2,2)
    assert lines[1].startswith("1,1,")


def test_grid_payload_shape():
    payload = grid_payload(_small_grid())
    assert payload["stages"] == 2
    assert [c["n"] for c in payload["cells"]] == [1, 1, 2]


def test_ramp_color_endpoints():
    assert ramp_color(0.0) == "#440154"
    assert ramp_color(1.0) == "#fde725"
    assert ramp_color(-5.0) == "#440154"
    mid = ramp_color(0.5)
    assert mid.startswith("#") and len(mid) == 7


def test_heatmap_svg_deterministic_and_wellformed():
    grid = _small_grid()
    svg1 = grid_heatmap_svg(grid, "nullity")
    svg2 = grid_heatmap_svg(grid, "nullity")
    assert svg1 == svg2
    assert svg1.count("<rect") >= 3 + 1  # three cells plus background
    assert svg1.startswith("<svg ")
    assert svg1.rstrip().endswith("</svg>")
    annotated = grid_heatmap_svg(grid, "nullity", annotate=True)
    assert annotated.count("<text") > svg1.count("<text")


def test_heatmap_constant_grid_uses_mid_color():
    grid = _small_grid()
    for cell in grid.cells.values():
        cell.nullity = 2
    svg = grid_heatmap_svg(grid, "nullity")
    assert svg.count(ramp_color(0.5)) >= 3
