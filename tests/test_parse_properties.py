"""Property tests for the input parsers: malformed text fails only as ParseError.

Generated token soup (directives, numbers, non-finite floats, element
symbols, stray text) is fed to each parser; any exception other than
ParseError would reach the CLI as a misleading exit code or a traceback.
Stage-list manifests are generated from real, missing, over-long and
directory names; stages that do not nest are a ParseError too.
Derandomized, so every run checks the same examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdirac import Digraph
from pathdirac.cli import main
from pathdirac.errors import ParseError
from pathdirac.fileio import parse_digraph, parse_hypergraph, parse_manifest
from pathdirac.molecules import parse_xyz

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

WORDS = ["#", "# vertices:", "# thresholds:", "# kind:", "BOND", "bond", "H", "C", "O", "Xx",
         "nan", "inf", "-inf", "1e400", "x", "-1", "0", "1", "2", "3", "0.5", "1.5", "2.5"]
TOKEN = st.one_of(
    st.sampled_from(WORDS),
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
LINE = st.lists(TOKEN, max_size=5).map(" ".join)
SOUP = st.lists(LINE, max_size=8).map("\n".join)


def parses_or_parse_error(parse, text: str) -> None:
    try:
        parse(text)
    except ParseError:
        pass


@SETTINGS
@given(SOUP)
def test_parse_digraph_raises_only_parse_error(text):
    parses_or_parse_error(parse_digraph, text)


@SETTINGS
@given(SOUP)
def test_parse_hypergraph_raises_only_parse_error(text):
    parses_or_parse_error(parse_hypergraph, text)


@SETTINGS
@given(LINE, SOUP)
def test_weighted_manifest_raises_only_parse_error(tmp_path_factory, thresholds, body):
    base = tmp_path_factory.getbasetemp()
    parses_or_parse_error(lambda t: parse_manifest(t, base, "m.txt"),
                          f"# thresholds: {thresholds}\n{body}")


@SETTINGS
@given(st.one_of(SOUP, st.tuples(st.integers(-1, 4), SOUP).map(lambda h: f"{h[0]}\n{h[1]}")))
def test_parse_xyz_raises_only_parse_error(text):
    parses_or_parse_error(parse_xyz, text)


@st.composite
def digraphs(draw):
    vertices = draw(st.sets(st.integers(0, 9), max_size=8))
    pairs = [(u, v) for u in sorted(vertices) for v in sorted(vertices) if u != v]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=12)) if pairs else set()
    return Digraph.of(vertices, edges)


@SETTINGS
@given(digraphs())
def test_digraph_text_round_trip(g):
    lines = ["# vertices: " + " ".join(map(str, g.vertices))]
    lines += [f"{u} {v}" for u, v in g.edges]
    assert parse_digraph("\n".join(lines) + "\n") == g


STAGE_FILES = {
    "s1.txt": "# vertices: 0 1 2\n",
    "s2.txt": "# vertices: 0 1 2\n0 1\n",
    "s3.txt": "0 1\n1 2\n2 0\n",
    "triple.txt": "0 1 2\n",  # a hyperedge, but not a digraph edge
    "junk.txt": "x y\n",
}
MANIFEST_LINES = [*STAGE_FILES, "missing.txt", "a" * 300, "sub/" + "b" * 300, "stages",
                  "# kind: digraph", "# kind: hypergraph", "# kind: simplicial", "# note", ""]


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("stage-list")
    for name, text in STAGE_FILES.items():
        (base / name).write_text(text, encoding="utf-8")
    (base / "stages").mkdir()
    return base


@SETTINGS
@given(st.lists(st.sampled_from(MANIFEST_LINES), max_size=6).map("\n".join))
def test_stage_list_manifest_fails_only_as_documented(stage_dir, text):
    """parse_manifest raises only ParseError, and the filtration check ends with
    exit 0 or 2, never with a traceback."""
    parses_or_parse_error(lambda t: parse_manifest(t, stage_dir, "m.txt"), text)
    manifest = stage_dir / "m.txt"
    manifest.write_text(text, encoding="utf-8")
    assert main(["check", str(manifest), "--kind", "filtration"]) in (0, 2)
