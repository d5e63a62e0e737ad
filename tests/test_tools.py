import random

import pytest

from graphstage import Answer, WeightKind, build_graph, dispatch
from graphstage.tools import (
    ArityMismatch,
    CyclicGraph,
    NoTriangle,
    NotDirected,
    NotUndirected,
    SameSourceSink,
    UnknownNode,
    UnknownTool,
    Unreachable,
    cycle_detection,
    degree_count,
    edge_existence,
    max_triangle_sum,
    maximum_flow,
    node_existence,
    path_existence,
    shortest_path,
    topological_sort,
)

from conftest import random_test_graph
from oracles import (
    has_unique_topological_order,
    oracle_cycle,
    oracle_degree,
    oracle_edge_exists,
    oracle_max_triangle_sum,
    oracle_min_cut,
    oracle_path_exists,
    oracle_shortest,
    oracle_topological_orders,
)

TRIANGLE = build_graph(False, 3, [(0, 1), (1, 2), (0, 2)])


def test_cycle_triangle_true():
    assert cycle_detection(TRIANGLE) == Answer.bool_(True)


def test_cycle_directed_path_false():
    g = build_graph(True, 3, [(0, 1), (1, 2)])
    assert cycle_detection(g) == Answer.bool_(False)


def test_cycle_directed_two_cycle():
    g = build_graph(True, 2, [(0, 1), (1, 0)])
    assert cycle_detection(g) == Answer.bool_(True)


def test_cycle_matches_oracle(rng):
    for _ in range(60):
        g = random_test_graph(rng, rng.random() < 0.5, n_max=7)
        assert cycle_detection(g).value == oracle_cycle(g), g


def test_triangle_single():
    g = build_graph(False, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], WeightKind.WEIGHT)
    assert max_triangle_sum(g) == Answer.value(6)


def test_triangle_k4_matches_enumeration(rng):
    for _ in range(30):
        edges = [(u, v, rng.randint(1, 10)) for u in range(4) for v in range(u + 1, 4)]
        g = build_graph(False, 4, edges, WeightKind.WEIGHT)
        assert max_triangle_sum(g).value == oracle_max_triangle_sum(g)


def test_triangle_rejects_directed():
    g = build_graph(True, 3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], WeightKind.WEIGHT)
    with pytest.raises(NotUndirected):
        max_triangle_sum(g)


def test_triangle_free_errors():
    g = build_graph(False, 3, [(0, 1, 1), (1, 2, 1)], WeightKind.WEIGHT)
    with pytest.raises(NoTriangle):
        max_triangle_sum(g)


def test_edge_and_node_count():
    empty = build_graph(False, 1, [])
    assert dispatch("edge_count", empty, ()) == Answer.count(0)
    assert dispatch("edge_count", TRIANGLE, ()) == Answer.count(3)
    isolated = build_graph(False, 5, [(0, 1)])
    assert dispatch("node_count", isolated, ()) == Answer.count(5)
    assert dispatch("node_count", build_graph(True, 1, []), ()) == Answer.count(1)


def test_topological_sort_chain():
    g = build_graph(True, 3, [(0, 1), (1, 2)])
    assert topological_sort(g) == Answer.node_seq([0, 1, 2])


def test_topological_sort_valid_on_non_unique():
    g = build_graph(True, 3, [(0, 1), (0, 2)])
    order = topological_sort(g).value
    assert sorted(order) == [0, 1, 2]
    position = {n: i for i, n in enumerate(order)}
    assert position[0] < position[1] and position[0] < position[2]
    assert not has_unique_topological_order(g)


def test_topological_sort_errors():
    with pytest.raises(NotDirected):
        topological_sort(TRIANGLE)
    cyc = build_graph(True, 2, [(0, 1), (1, 0)])
    with pytest.raises(CyclicGraph):
        topological_sort(cyc)


def test_topo_agrees_with_cycle_detection(rng):
    # a directed graph has a topological order exactly when it is acyclic
    for _ in range(60):
        g = random_test_graph(rng, True, n_max=7)
        has_cycle = cycle_detection(g).value
        if has_cycle:
            with pytest.raises(CyclicGraph):
                topological_sort(g)
        else:
            order = topological_sort(g).value
            assert order in [tuple(o) for o in map(tuple, oracle_topological_orders(g))] or list(
                order
            ) in oracle_topological_orders(g)


def test_degree_count_examples():
    assert degree_count(TRIANGLE, 0) == Answer.count(2)
    g = build_graph(True, 3, [(0, 1), (2, 1)])
    assert degree_count(g, 1) == Answer.count(2)
    with pytest.raises(UnknownNode):
        degree_count(g, 5)


def test_degree_matches_scan(rng):
    for _ in range(40):
        g = random_test_graph(rng, rng.random() < 0.5)
        node = rng.randrange(g.node_count)
        assert degree_count(g, node).value == oracle_degree(g, node)


def test_edge_existence_examples():
    assert edge_existence(TRIANGLE, 0, 1) == Answer.bool_(True)
    directed = build_graph(True, 2, [(0, 1)])
    assert edge_existence(directed, 1, 0) == Answer.bool_(False)


def test_edge_existence_matches_scan(rng):
    for _ in range(40):
        g = random_test_graph(rng, rng.random() < 0.5)
        u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
        if u == v:
            continue
        assert edge_existence(g, u, v).value == oracle_edge_exists(g, u, v)


def test_node_existence_boundaries():
    g = build_graph(False, 5, [(0, 1)])
    assert node_existence(g, 4) == Answer.bool_(True)
    assert node_existence(g, 7) == Answer.bool_(False)
    assert node_existence(g, 5) == Answer.bool_(False)


def test_maximum_flow_single_edge_and_disconnected():
    g = build_graph(True, 2, [(0, 1, 7)], WeightKind.CAPACITY)
    assert maximum_flow(g, 0, 1) == Answer.value(7)
    disconnected = build_graph(True, 3, [(0, 1, 5)], WeightKind.CAPACITY)
    assert maximum_flow(disconnected, 0, 2) == Answer.value(0)


def test_maximum_flow_errors():
    g = build_graph(True, 2, [(0, 1, 7)], WeightKind.CAPACITY)
    with pytest.raises(SameSourceSink):
        maximum_flow(g, 0, 0)
    with pytest.raises(UnknownNode):
        maximum_flow(g, 0, 5)


def test_maximum_flow_equals_min_cut(rng):
    for _ in range(40):
        g = random_test_graph(rng, rng.random() < 0.5, WeightKind.CAPACITY, n_max=7)
        if g.node_count < 2:
            continue
        s, t = rng.sample(range(g.node_count), 2)
        assert maximum_flow(g, s, t).value == oracle_min_cut(g, s, t)


def test_path_existence_chain():
    g = build_graph(True, 3, [(0, 1), (1, 2)])
    assert path_existence(g, 0, 2) == Answer.bool_(True)
    assert path_existence(g, 2, 0) == Answer.bool_(False)


def test_path_existence_matches_bfs(rng):
    for _ in range(40):
        g = random_test_graph(rng, rng.random() < 0.5)
        u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
        assert path_existence(g, u, v).value == oracle_path_exists(g, u, v)


def test_shortest_path_basics():
    g = build_graph(False, 2, [(0, 1, 5)], WeightKind.WEIGHT)
    assert shortest_path(g, 0, 1) == Answer.value(5)
    assert shortest_path(g, 0, 0) == Answer.value(0)
    apart = build_graph(False, 3, [(0, 1, 5)], WeightKind.WEIGHT)
    with pytest.raises(Unreachable):
        shortest_path(apart, 0, 2)


def test_shortest_path_matches_enumeration(rng):
    for _ in range(40):
        g = random_test_graph(rng, rng.random() < 0.5, WeightKind.WEIGHT, n_max=7)
        u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
        expected = oracle_shortest(g, u, v)
        if expected is None:
            with pytest.raises(Unreachable):
                shortest_path(g, u, v)
        else:
            assert shortest_path(g, u, v).value == expected


def test_shortest_path_symmetric_on_undirected(rng):
    for _ in range(20):
        g = random_test_graph(rng, False, WeightKind.WEIGHT, n_max=7)
        u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
        if oracle_shortest(g, u, v) is None:
            continue
        assert shortest_path(g, u, v) == shortest_path(g, v, u)


def test_dispatch_routing_and_errors():
    weighted = build_graph(False, 4, [(0, 1, 2), (1, 3, 4), (0, 3, 9)], WeightKind.WEIGHT)
    assert dispatch("shortest_path", weighted, (0, 3)).value == 6
    assert dispatch("cycle_detection", TRIANGLE, ()) == Answer.bool_(True)
    with pytest.raises(ArityMismatch):
        dispatch("shortest_path", weighted, (0,))
    with pytest.raises(UnknownTool):
        dispatch("banana", TRIANGLE, ())
    # dispatch folds case the way template retrieval does
    assert dispatch("Cycle_Detection", TRIANGLE, ()) == Answer.bool_(True)
