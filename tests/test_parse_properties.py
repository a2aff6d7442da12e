"""Property tests for the input parsers: malformed text fails only as ParseError.

Generated token soup (directives, numbers, non-finite floats, element
symbols, stray text) is fed to each parser; any exception other than
ParseError would reach the CLI as a misleading exit code or a traceback.
Derandomized, so every run checks the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pathdirac import Digraph
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
