"""File parsing, manifests, serialization determinism, and the SVG writer."""

import hashlib
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import round_floats
from pathdirac import Digraph, Filtration, StageComplexes
from pathdirac.errors import ParseError
from pathdirac.fileio import (
    atomic_write_text,
    format_cell,
    grid_csv,
    grid_payload,
    input_digest,
    load_graph,
    load_manifest,
    parse_graph,
    parse_manifest,
    result_document,
    sig12,
    write_csv,
    write_json,
)
from pathdirac.heatmap import grid_heatmap_svg, ramp_color
from pathdirac.molecules import load_molecule
from pathdirac.persistence import feature_grid

BOM = "\ufeff".encode()  # the UTF-8 byte-order mark


def test_parse_digraph_basic():
    g = parse_graph("0 1\n1 2\n# comment\n2 0\n", "digraph")
    assert g == Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])


def test_parse_digraph_vertices_directive():
    g = parse_graph("# vertices: 0 1 2 3\n0 1\n", "digraph")
    assert g.vertices == (0, 1, 2, 3)


def test_parse_digraph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("0 1\n0 1 2\n", "digraph", "g.txt")
    assert "g.txt:2" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph("0 x\n", "digraph")
    with pytest.raises(ParseError):
        parse_graph("3 3\n", "digraph")  # loop


def test_parse_errors_without_a_path_name_the_line():
    with pytest.raises(ParseError, match="^line 2: expected `u v`, got '1 2 3'$"):
        parse_graph("0 1\n1 2 3\n", "digraph")
    with pytest.raises(ParseError, match="^g.txt:2: expected `u v`, got '1 2 3'$"):
        parse_graph("0 1\n1 2 3\n", "digraph", "g.txt")
    with pytest.raises(ParseError, match="^line 1: loop edge 3->3 is not permitted$"):
        parse_graph("3 3\n", "digraph")
    with pytest.raises(ParseError, match="^g.txt:1: loop edge 3->3 is not permitted$"):
        parse_graph("3 3\n", "digraph", "g.txt")
    # the directives are read before the rows, and the rows in order
    with pytest.raises(ParseError, match="^line 3: vertex declaration must list integers$"):
        parse_graph("0 x\n1 1\n# vertices: 0 x\n", "digraph")
    with pytest.raises(ParseError, match="^line 1: loop edge 1->1 is not permitted$"):
        parse_graph("1 1\n0 x\n", "digraph")


def test_parse_hypergraph():
    h = parse_graph("0 1 2\n3 4 5\n", "hypergraph")
    assert h.hyperedges == ((0, 1, 2), (3, 4, 5))
    with pytest.raises(ParseError):
        parse_graph("0 a\n", "hypergraph")


def test_manifest_stage_list(tmp_path):
    (tmp_path / "s1.txt").write_text("# vertices: 0 1 2\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("# vertices: 0 1 2\n0 1\n", encoding="utf-8")
    manifest = tmp_path / "stages.txt"
    manifest.write_text("# kind: digraph\ns1.txt\ns2.txt\n", encoding="utf-8")
    f = load_manifest(manifest)
    assert len(f) == 2
    assert f.stages[1].edges == ((0, 1),)
    # an empty `# kind:` leaves the default, and a second `# kind:` line is refused
    f = parse_manifest("# kind:\ns1.txt\n", tmp_path)
    assert f.stages == (Digraph.of([0, 1, 2], []),)
    with pytest.raises(ParseError, match=r"^m\.txt:2: repeated `# kind:` directive$"):
        parse_manifest("# kind:\n# kind: bogus\ns1.txt\n", tmp_path, "m.txt")


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
    binary.write_bytes(BOM + b"0 1\n\xff\n")  # the byte is counted in the file, mark included
    with pytest.raises(ParseError) as err:
        load(binary)
    assert str(err.value) == f"{binary}: not UTF-8 text (byte 7)"
    with pytest.raises(ParseError) as err:
        load(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: cannot read file")


INPUTS = {  # each kind of input file, starting with a line that a mark would spoil
    "digraph": (lambda path: load_graph(path, "digraph"), "# vertices: 0 1 2 3\n0 1\n1 2\n"),
    "hypergraph": (lambda path: load_graph(path, "hypergraph"), "0 1 2\n2 3\n"),
    "manifest": (load_manifest, "# thresholds: 0.5 1\n# vertices: 0 1 2\n1 0 0.97\n2 0 0.97\n"),
    "xyz": (load_molecule, "2\nCO\nC 0 0 0\nO 1.13 0 0\n"),
}


@pytest.mark.parametrize("kind", INPUTS)
def test_inputs_read_past_a_byte_order_mark(tmp_path, kind):
    """A file that starts with a UTF-8 byte-order mark reads like its copy without
    one; the input digest still hashes the file's bytes."""
    load, text = INPUTS[kind]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    assert load(marked) == load(plain)
    assert input_digest(marked) == hashlib.sha256(BOM + text.encode()).hexdigest()


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
    with pytest.raises(ParseError, match="^m.txt:2: "):
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
    with pytest.raises(ParseError, match="^m.txt:2: vertex ids must be non-negative"):
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


FLOATS = st.one_of(
    st.floats(),  # NaN, ±inf and subnormals among them
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1 / 3, 1e16]),
    st.floats().map(np.float64),
)
STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "\u2028", "🜁"]))
SCALARS = st.one_of(STRINGS, st.integers(), st.booleans(), st.none(), FLOATS)
DOCUMENTS = st.dictionaries(STRINGS, st.recursive(
    st.one_of(SCALARS, st.lists(STRINGS, min_size=1)),  # a row of strings, as a matrix dump has
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(STRINGS, inner)),
    max_leaves=12))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
def test_write_json_is_json_dumps_of_the_rounded_document(tmp_path_factory, document):
    """write_json writes the bytes `json.dumps` writes for the document's `sig12` copy."""
    out = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(out, document)
    expected = json.dumps(round_floats(document), indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("document", [{"n": np.int64(3)}, {"a": [{1: "x"}]}, {"a": {None: 1}}],
                         ids=["np-int64", "int-key", "none-key"])
def test_write_json_refuses_what_json_cannot_write(tmp_path, document):
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", document)
    assert list(tmp_path.iterdir()) == []


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
