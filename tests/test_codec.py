import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstage import (
    WeightKind,
    build_graph,
    extract_file_path,
    extract_graph,
    extract_parameters,
    extract_tool_name,
    graphs_equal,
    read_el_graph_file,
    render_edge_list,
)
from graphstage.codec import EDGE_PATTERNS, MalformedLine, format_el_graph
from graphstage.serialize import atomic_write_text
from graphstage.toolset import default_registry

from conftest import random_test_graph

REGISTRY = default_registry()


def test_render_unweighted_triangle():
    g = build_graph(False, 3, [(0, 1), (1, 2), (0, 2)])
    assert render_edge_list(g) == "(0, 1), (1, 2), (0, 2)"


def test_render_weight_and_capacity():
    g = build_graph(False, 2, [(0, 1, 3)], WeightKind.WEIGHT)
    assert render_edge_list(g) == "(0, 1, {'weight': 3})"
    g = build_graph(True, 2, [(0, 1, 7)], WeightKind.CAPACITY)
    assert render_edge_list(g) == "(0, 1, {'capacity': 7})"


def test_extract_graph_from_prose():
    res = extract_graph("the edges are (0, 1), (1, 2) in this graph", WeightKind.NONE)
    assert res.ok
    assert res.graph.edges == ((0, 1, None), (1, 2, None))
    assert res.graph.node_count == 3


def test_extract_weighted_edge():
    res = extract_graph("(0, 1, {'weight': 3})", WeightKind.WEIGHT)
    assert res.ok
    assert res.graph.edges == ((0, 1, 3),)


def test_extract_graph_no_match_is_failure():
    res = extract_graph("no edges here", WeightKind.NONE)
    assert not res.ok
    assert res.reason


def test_patterns_mutually_exclusive_on_renders():
    unweighted = build_graph(False, 3, [(0, 1), (1, 2)])
    weighted = build_graph(False, 3, [(0, 1, 4), (1, 2, 2)], WeightKind.WEIGHT)
    capacity = build_graph(False, 3, [(0, 1, 4), (1, 2, 2)], WeightKind.CAPACITY)
    renders = {
        WeightKind.NONE: render_edge_list(unweighted),
        WeightKind.WEIGHT: render_edge_list(weighted),
        WeightKind.CAPACITY: render_edge_list(capacity),
    }
    for render_kind, text in renders.items():
        for pattern_kind, pattern in EDGE_PATTERNS.items():
            matches = pattern.findall(text)
            assert bool(matches) == (render_kind is pattern_kind), (render_kind, pattern_kind)


def test_extract_tool_name_variants():
    assert extract_tool_name("API_name: shortest_path").name == "shortest_path"
    assert extract_tool_name("API_name:\n  maximum_flow").name == "maximum_flow"
    assert not extract_tool_name("I will use Dijkstra").ok


def test_extract_parameters_named_in_order():
    spec = REGISTRY.get("shortest_path")
    res = extract_parameters("source=3, target=7", spec)
    assert res.params == (3, 7)


def test_extract_parameters_named_out_of_order_returns_spec_order():
    spec = REGISTRY.get("shortest_path")
    res = extract_parameters("target=7 and source=3", spec)
    assert res.params == (3, 7)


def test_extract_parameters_positional_fallback():
    spec = REGISTRY.get("shortest_path")
    res = extract_parameters("(G, 3, 7)", spec)
    assert res.params == (3, 7)


def test_extract_parameters_named_form_wins_over_positional():
    spec = REGISTRY.get("shortest_path")
    assert extract_parameters("source=1, target=2, as in (G, 3, 4)", spec).params == (1, 2)


def test_extract_parameters_positional_form_needs_its_g_anchor():
    spec = REGISTRY.get("shortest_path")
    assert extract_parameters("target=7, G, 3, 9", spec).params == (3, 9)
    assert not extract_parameters("target=7, 3, 9", spec).ok


def test_extract_parameters_arity_failure():
    spec = REGISTRY.get("shortest_path")
    res = extract_parameters("target=7", spec)
    assert not res.ok
    assert "arity" in res.reason


def test_extract_parameters_single():
    spec = REGISTRY.get("degree_count")
    assert extract_parameters("node=4", spec).params == (4,)
    assert extract_parameters("(G, 4)", spec).params == (4,)


@pytest.mark.parametrize("text", ["node=" + "9" * 5000, "(G, " + "9" * 5000 + ")"])
def test_extract_parameters_past_int_digit_limit_is_failure(text):
    res = extract_parameters(text, REGISTRY.get("degree_count"))
    assert not res.ok
    assert "parameter value" in res.reason


def test_extract_file_path():
    res = extract_file_path("graph at /data/g_17.edges today")
    assert res.path == "/data/g_17.edges"
    assert not extract_file_path("no separators here").ok
    two = extract_file_path("use graphs/a.edges not graphs/b.edges")
    assert two.path == "graphs/a.edges"


def test_el_file_roundtrip(tmp_path, rng):
    g = random_test_graph(rng, True, WeightKind.CAPACITY, n_max=50, n_min=40, p=0.1)
    path = tmp_path / "g.edges"
    atomic_write_text(path, format_el_graph(g))
    back = read_el_graph_file(path, WeightKind.CAPACITY)
    assert graphs_equal(back, g)


def test_el_file_malformed_lines(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("undirected\n0, 0\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        read_el_graph_file(path, WeightKind.NONE)
    path.write_text("0, 1\n1, 2\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        read_el_graph_file(path, WeightKind.NONE)
    assert exc.value.line_number == 1


def test_el_format_header():
    g = build_graph(True, 3, [(0, 1), (1, 2)])
    assert format_el_graph(g).splitlines()[0] == "directed"
    g = build_graph(False, 3, [(0, 1)])
    assert format_el_graph(g).splitlines()[0] == "undirected"


# free-form prose drawn from characters that cannot form any extractable token
_SAFE_PROSE = st.text(
    alphabet=string.ascii_lowercase + " .,;!?'\"-",
    max_size=120,
)


@st.composite
def coverage_graph(draw):
    """Graphs shaped like generator output: at least one edge and the top
    node id covered, so extraction can reconstruct them exactly."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    directed = draw(st.booleans())
    kind = draw(st.sampled_from([WeightKind.NONE, WeightKind.WEIGHT, WeightKind.CAPACITY]))
    rng = random.Random(seed)
    while True:
        g = random_test_graph(rng, directed, kind, n_max=9)
        if g.edges:
            break
    top = max(max(u, v) for u, v, _ in g.edges)
    return build_graph(directed, top + 1, g.edges, kind)


@settings(max_examples=150, deadline=None)
@given(coverage_graph(), _SAFE_PROSE, _SAFE_PROSE)
def test_roundtrip_survives_surrounding_prose(g, prefix, suffix):
    text = f"{prefix}{render_edge_list(g)}{suffix}"
    res = extract_graph(text, g.weight_kind, g.directed)
    assert res.ok
    assert graphs_equal(res.graph, g)
    assert res.graph.node_count == g.node_count


def _reverse_first_edge(text):
    header, first, rest = text.split("\n", 2)
    u, v, *w = first.split(", ")
    return "\n".join([header, ", ".join([v, u, *w]), rest])


def _flip_header(text):
    header, rest = text.split("\n", 1)
    return ("undirected" if header == "directed" else "directed") + "\n" + rest


# edits after which a file no longer holds exactly the graph that format_el_graph wrote
_NEAR_MISSES = {
    "one edge reversed": _reverse_first_edge,
    "header flipped": _flip_header,
    "CRLF line ends": lambda text: text.replace("\n", "\r\n"),
    "a leading zero": lambda text: text.replace("\n", "\n0", 1),
    "a trailing blank line": lambda text: text + "\n",
}


def _read_outcome(path, weight_kind, expected=None):
    try:
        return "ok", read_el_graph_file(path, weight_kind, expected)
    except ValueError as exc:
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("directed, weight_kind", [(False, WeightKind.NONE), (True, WeightKind.NONE),
                                                   (False, WeightKind.WEIGHT), (True, WeightKind.CAPACITY)])
@pytest.mark.parametrize("edit", [*_NEAR_MISSES, "another graph's file"])
def test_a_near_miss_of_the_expected_graph_reads_as_without_it(tmp_path, directed, weight_kind, edit):
    rng = random.Random(f"{directed} {weight_kind.value} {edit}")
    g, other = (build_graph(directed, None, random_test_graph(rng, directed, weight_kind, n_min=6).edges, weight_kind)
                for _ in range(2))
    assert g.edges and other.edges and other.edges != g.edges
    path = tmp_path / "g.edges"
    path.write_bytes(format_el_graph(g).encode("utf-8"))
    assert read_el_graph_file(path, weight_kind, g) is g
    if edit in _NEAR_MISSES:
        path.write_bytes(_NEAR_MISSES[edit](format_el_graph(g)).encode("utf-8"))
    else:
        path.write_bytes(format_el_graph(other).encode("utf-8"))
    want = _read_outcome(path, weight_kind)
    assert _read_outcome(path, weight_kind, g) == want
    if want[0] == "ok":
        assert read_el_graph_file(path, weight_kind, g) is not g


def test_a_file_of_the_expected_numbers_at_another_width_is_validated(tmp_path):
    # a weighted 2-edge graph and a 3-line unweighted file hold the same six numbers
    g = build_graph(False, None, [(0, 1, 2), (3, 4, 5)], WeightKind.WEIGHT)
    path = tmp_path / "g.edges"
    path.write_bytes(b"undirected\n0, 1\n2, 3\n4, 5\n")
    with pytest.raises(ValueError, match="is missing a weight"):
        read_el_graph_file(path, WeightKind.WEIGHT, g)
    assert _read_outcome(path, WeightKind.WEIGHT, g) == _read_outcome(path, WeightKind.WEIGHT)
