import random

import pytest

from graphstage import (
    ALL_KINDS,
    GenConfig,
    SizeClass,
    TaskKind,
    WeightKind,
    classify_size,
    dispatch,
    extract_graph,
    generate_corpus,
    generate_instance,
    graphs_equal,
)
from graphstage.generator import render_task_text
from graphstage.serialize import dump_line, instance_to_json

from oracles import has_unique_topological_order, max_referenced_node


def test_exactly_twenty_kinds():
    assert len(ALL_KINDS) == 20
    labels = {k.label for k in ALL_KINDS}
    assert "max_triangle_sum:undirected" in labels
    assert "topological_sort:directed" in labels


def test_invalid_kinds_unrepresentable():
    with pytest.raises(ValueError):
        TaskKind("max_triangle_sum", True)
    with pytest.raises(ValueError):
        TaskKind("topological_sort", False)
    with pytest.raises(ValueError):
        TaskKind("dijkstra", True)


def test_kind_label_roundtrip():
    for kind in ALL_KINDS:
        assert TaskKind.parse(kind.label) == kind


def test_classify_size_boundaries():
    assert classify_size("x" * 100) is SizeClass.WL
    assert classify_size("x" * 20_000) is SizeClass.EL
    assert classify_size("x" * (4 * 4096)) is SizeClass.WL
    assert classify_size("x" * (4 * 4096 + 1)) is SizeClass.EL


def test_generated_graph_bounds_and_weights(rng):
    for kind in ALL_KINDS:
        for size in (SizeClass.WL, SizeClass.EL):
            g = generate_instance(kind, size, rng).graph
            lo, hi = (2, 40) if size is SizeClass.WL else (41, 100)
            cap = 300 if size is SizeClass.WL else 1000
            assert lo <= g.node_count <= hi
            assert 1 <= len(g.edges) <= cap
            assert g.weight_kind is kind.weight_kind
            assert g.directed == kind.directed


def test_generated_graphs_cover_top_node(rng):
    for kind in ALL_KINDS:
        g = generate_instance(kind, SizeClass.WL, rng).graph
        assert max_referenced_node(g) == g.node_count - 1


def test_gold_answer_rechecks_through_dispatch(rng):
    for kind in ALL_KINDS:
        for index in range(3):
            inst = generate_instance(kind, SizeClass.WL, rng, index=index)
            assert dispatch(inst.gold_tool, inst.gold_graph, inst.gold_params) == inst.gold_answer


def test_param_free_kinds_have_empty_params(rng):
    param_free = {"cycle_detection", "max_triangle_sum", "edge_count", "node_count", "topological_sort"}
    for kind in ALL_KINDS:
        inst = generate_instance(kind, SizeClass.WL, rng, index=0)
        assert kind.parametric is (kind.tool not in param_free)
        if kind.tool in param_free:
            assert inst.params == ()
        else:
            assert len(inst.params) == kind.arity


def test_pair_queries_are_distinct(rng):
    for kind in ALL_KINDS:
        if kind.arity != 2:
            continue
        for index in range(5):
            inst = generate_instance(kind, SizeClass.WL, rng, index=index)
            assert inst.params[0] != inst.params[1]


def test_wl_task_text_roundtrips(rng):
    for kind in ALL_KINDS:
        inst = generate_instance(kind, SizeClass.WL, rng, index=0)
        res = extract_graph(inst.task_text, kind.weight_kind, kind.directed)
        assert res.ok, (kind.label, inst.task_text)
        assert graphs_equal(res.graph, inst.graph)
        assert res.graph.node_count == inst.graph.node_count


def test_el_task_text_has_path_and_no_inline_edges(rng):
    inst = generate_instance(TaskKind.parse("shortest_path:directed"), SizeClass.EL, rng, index=0)
    assert inst.graph_file is not None
    assert inst.graph_file in inst.task_text
    assert not extract_graph(inst.task_text, WeightKind.WEIGHT).ok


def test_variants_change_surface_not_content(rng):
    kind = TaskKind.parse("cycle_detection:undirected")
    inst = generate_instance(kind, SizeClass.WL, random.Random(5), index=0)
    texts = [
        render_task_text(kind, inst.graph, inst.params, variant, SizeClass.WL, None) for variant in (0, 1)
    ]
    assert texts[0] == inst.task_text != texts[1]
    a = extract_graph(texts[0], WeightKind.NONE).graph
    b = extract_graph(texts[1], WeightKind.NONE).graph
    assert graphs_equal(a, b)


def test_topological_instances_have_unique_order(rng):
    kind = TaskKind.parse("topological_sort:directed")
    for index in range(10):
        inst = generate_instance(kind, SizeClass.WL, rng, index=index)
        assert has_unique_topological_order(inst.graph)


def test_corpus_is_deterministic():
    config = GenConfig(count=6, seed=11, sizes="both", kinds=("cycle_detection:directed", "maximum_flow:undirected"))
    first = [dump_line(instance_to_json(i)) for i in generate_corpus(config)]
    second = [dump_line(instance_to_json(i)) for i in generate_corpus(config)]
    assert first == second
    assert len(first) == 12


def test_corpus_counts_variants_and_balance():
    config = GenConfig(count=20, seed=2, kinds=("cycle_detection:undirected", "path_existence:directed"))
    instances = list(generate_corpus(config))
    assert len(instances) == 40
    for label in ("cycle_detection:undirected", "path_existence:directed"):
        group = [i for i in instances if i.kind.label == label]
        variants = sorted(i.description_variant for i in group)
        assert variants == sorted(list(range(5)) * 4)
        trues = sum(1 for i in group if i.gold_answer.value is True)
        assert trues == 10  # alternating targets give an exact split


def test_existence_queries_balanced():
    config = GenConfig(count=16, seed=4, kinds=("node_existence:directed", "edge_existence:undirected"))
    instances = list(generate_corpus(config))
    for label in ("node_existence:directed", "edge_existence:undirected"):
        group = [i for i in instances if i.kind.label == label]
        assert sum(1 for i in group if i.gold_answer.value) == 8


def test_triangle_instances_contain_triangle(rng):
    kind = TaskKind.parse("max_triangle_sum:undirected")
    for index in range(5):
        inst = generate_instance(kind, SizeClass.WL, rng, index=index)
        assert inst.gold_answer.kind == "value"
        assert inst.gold_answer.value >= 3  # three weights of at least 1


def test_el_instances_record_relative_graph_file(rng):
    inst = generate_instance(TaskKind.parse("edge_count:directed"), SizeClass.EL, rng, index=3)
    assert inst.graph_file == "graphs/edge_count-d-el-00003.edges"
    assert inst.size_class is SizeClass.EL


def test_render_task_text_mentions_parameters(rng):
    kind = TaskKind.parse("maximum_flow:directed")
    inst = generate_instance(kind, SizeClass.WL, rng, index=0)
    s, t = inst.params
    assert f"node {s}" in inst.task_text
    assert f"node {t}" in inst.task_text
