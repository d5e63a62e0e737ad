import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstage import WeightKind, build_graph, canonical_edge_set, graphs_equal
from graphstage.graphs import InvalidEdge, WeightMismatch, flat_columns, holds, trusted_graph
from graphstage.serialize import edges_to_json

from conftest import random_test_graph
from oracles import max_referenced_node


def test_triangle_builds():
    g = build_graph(False, 3, [(0, 1), (1, 2), (0, 2)])
    assert g.node_count == 3
    assert len(g.edges) == 3
    assert g.weight_kind is WeightKind.NONE


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("weight_kind", list(WeightKind))
def test_trusted_graph_is_what_build_graph_makes_of_the_same_columns(directed, weight_kind):
    """The columns of a corpus line's edges, which build_graph accepted when
    they were written, edgeless ones included, give one graph either way."""
    rng = random.Random(19)
    width = 2 if weight_kind is WeightKind.NONE else 3
    for p in (0.0, 0.3, 0.7) * 10:
        written = random_test_graph(rng, directed, weight_kind, n_min=1, p=p)
        columns = flat_columns(edges_to_json(written), width)
        built = build_graph(directed, None, columns, weight_kind, columns=True)
        assert trusted_graph(directed, columns, weight_kind) == built
        assert built.node_count == (1 + max(max(e[:2]) for e in written.edges) if written.edges else 0)


@pytest.mark.parametrize(
    "edges, columns, count",
    [
        ([(0, 4), (2, 1)], False, 5),
        ([(3, 1), (1, 2, None)], False, 4),  # mixed row widths take the per-edge path
        (([0, 2], [4, 1]), True, 5),
        ([], False, 0),
    ],
)
def test_node_count_none_is_the_highest_id_plus_one(edges, columns, count):
    g = build_graph(False, None, edges, columns=columns)
    assert g.node_count == count
    assert g == build_graph(False, count, edges, columns=columns)


def test_derived_node_count_still_rejects_a_negative_id():
    with pytest.raises(InvalidEdge, match="outside 0..inf"):
        build_graph(True, None, [(0, 1), (-1, 2)])


def test_self_loop_rejected():
    with pytest.raises(InvalidEdge):
        build_graph(False, 2, [(0, 0)])


def test_weighted_path_builds():
    g = build_graph(False, 4, [(0, 1, 3), (1, 2, 5)], WeightKind.WEIGHT)
    assert g.edges == ((0, 1, 3), (1, 2, 5))


def test_out_of_range_rejected():
    with pytest.raises(InvalidEdge):
        build_graph(False, 3, [(0, 3)])


def test_duplicate_rejected_directed_and_undirected():
    with pytest.raises(InvalidEdge):
        build_graph(True, 3, [(0, 1), (0, 1)])
    # reversed orientation is a duplicate only on undirected graphs
    build_graph(True, 3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidEdge):
        build_graph(False, 3, [(0, 1), (1, 0)])


def test_weight_presence_must_match_kind():
    with pytest.raises(WeightMismatch):
        build_graph(False, 3, [(0, 1, 2)], WeightKind.NONE)
    with pytest.raises(WeightMismatch):
        build_graph(False, 3, [(0, 1)], WeightKind.WEIGHT)
    with pytest.raises(WeightMismatch):
        build_graph(False, 3, [(0, 1, 0)], WeightKind.WEIGHT)


def test_canonical_edge_set_normalizes_undirected():
    g = build_graph(False, 3, [(2, 1), (0, 1)])
    assert canonical_edge_set(g) == {(1, 2), (0, 1)}


def test_canonical_edge_set_keeps_direction():
    g = build_graph(True, 3, [(2, 1)])
    assert canonical_edge_set(g) == {(2, 1)}


def test_canonical_edge_set_carries_weight():
    g = build_graph(False, 3, [(1, 2, 4)], WeightKind.WEIGHT)
    assert canonical_edge_set(g) == {(1, 2, 4)}


def test_graphs_equal_ignores_edge_order():
    a = build_graph(False, 3, [(0, 1), (1, 2), (0, 2)])
    b = build_graph(False, 3, [(2, 0), (1, 0), (2, 1)])
    assert graphs_equal(a, b)


def test_graphs_equal_single_weight_difference():
    a = build_graph(False, 3, [(0, 1, 3), (1, 2, 5)], WeightKind.WEIGHT)
    b = build_graph(False, 3, [(0, 1, 3), (1, 2, 6)], WeightKind.WEIGHT)
    assert not graphs_equal(a, b)


def test_graphs_equal_directedness_matters():
    a = build_graph(False, 3, [(0, 1)])
    b = build_graph(True, 3, [(0, 1)])
    assert not graphs_equal(a, b)


def test_graphs_equal_weight_kind_matters():
    a = build_graph(False, 3, [(0, 1, 3), (1, 2, 5)], WeightKind.WEIGHT)
    b = build_graph(False, 3, [(0, 1, 3), (1, 2, 5)], WeightKind.CAPACITY)
    assert not graphs_equal(a, b)


@pytest.mark.parametrize(
    "flat, held",
    [
        ([0, 1, 3, 1, 2, 5], True),
        ([1, 0, 3, 1, 2, 5], False),  # an edge reversed: the same edge set, not the same graph
        ([1, 2, 5, 0, 1, 3], False),  # the edges in another order
        ([0, 1, 3, 1, 2, 5, 2, 3, 1], False),
        ([0, 1, 3, 1, 2], False),
        ([0, 1, 3.0, 1, 2, 5], False),  # equal to an int, but not one
        ([False, True, 3, True, 2, 5], False),
        ((0, 1, 3, 1, 2, 5), False),  # not a list
    ],
)
def test_holds_is_the_exact_flat_array_of_the_graph(flat, held):
    g = build_graph(False, None, [(0, 1, 3), (1, 2, 5)], WeightKind.WEIGHT)
    assert holds(flat, g) is held


def test_graphs_equal_tolerates_trailing_isolated_nodes():
    # a graph rebuilt from its edge list cannot see node 3
    a = build_graph(False, 4, [(0, 1), (1, 2)])
    b = build_graph(False, 3, [(0, 1), (1, 2)])
    assert graphs_equal(a, b)
    assert max_referenced_node(a) == 2


@st.composite
def graph_strategy(draw):
    directed = draw(st.booleans())
    weighted = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = WeightKind.WEIGHT if weighted else WeightKind.NONE
    return random_test_graph(random.Random(seed), directed, kind, n_max=7)


@settings(max_examples=150, deadline=None)
@given(graph_strategy(), graph_strategy(), graph_strategy())
def test_graphs_equal_is_an_equivalence_relation(a, b, c):
    assert graphs_equal(a, a)
    assert graphs_equal(a, b) == graphs_equal(b, a)
    if graphs_equal(a, b) and graphs_equal(b, c):
        assert graphs_equal(a, c)


@settings(max_examples=150, deadline=None)
@given(graph_strategy())
def test_canonical_set_cardinality_and_roundtrip(g):
    canon = canonical_edge_set(g)
    assert len(canon) == len(g.edges)
    rebuilt = build_graph(
        g.directed,
        g.node_count,
        sorted(canon),
        g.weight_kind,
    )
    assert graphs_equal(rebuilt, g)
