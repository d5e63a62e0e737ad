"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import os
import random
import string
import time

import pytest

from graphstage import (
    ALL_KINDS,
    Category,
    CompletionConfig,
    FaultBackend,
    FaultPlan,
    GenConfig,
    HttpBackend,
    OracleBackend,
    SizeClass,
    TaskKind,
    WeightKind,
    aggregate,
    build_dataset,
    default_registry,
    dispatch,
    evaluate_traces,
    export_alpaca,
    extract_graph,
    extract_parameters,
    extract_tool_name,
    generate_corpus,
    graphs_equal,
    pair_traces,
    render_edge_list,
    run_corpus,
    score_trace,
)
from graphstage.codec import format_el_graph
from graphstage.generator import BOOLEAN_TOOLS, SIZE_EDGE_CAP, SIZE_NODE_RANGE
from graphstage.pipeline import StageKind
from graphstage.serialize import atomic_write_text, dump_line, instance_to_json
from graphstage.tools import (
    CyclicGraph,
    NoTriangle,
    ToolError,
    Unreachable,
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

REGISTRY = default_registry()


def _passed(line: str) -> None:
    print(f"PASS {line}")


def _kind_graph(kind: TaskKind, rng: random.Random):
    n_max = 7 if kind.tool == "topological_sort" else 8
    n_min = 3 if kind.tool == "max_triangle_sum" else 2
    return random_test_graph(rng, kind.directed, kind.weight_kind, n_max=n_max, n_min=n_min)


def _check_against_oracle(kind: TaskKind, g, rng: random.Random) -> None:
    tool = kind.tool
    if tool == "cycle_detection":
        assert dispatch(tool, g, ()).value == oracle_cycle(g)
    elif tool == "max_triangle_sum":
        expected = oracle_max_triangle_sum(g)
        if expected is None:
            with pytest.raises(NoTriangle):
                dispatch(tool, g, ())
        else:
            assert dispatch(tool, g, ()).value == expected
    elif tool == "edge_count":
        assert dispatch(tool, g, ()).value == len(g.edges)
    elif tool == "node_count":
        assert dispatch(tool, g, ()).value == g.node_count
    elif tool == "topological_sort":
        valid = oracle_topological_orders(g)
        if not valid:
            with pytest.raises(CyclicGraph):
                dispatch(tool, g, ())
        else:
            assert list(dispatch(tool, g, ()).value) in valid
    elif tool == "degree_count":
        node = rng.randrange(g.node_count)
        assert dispatch(tool, g, (node,)).value == oracle_degree(g, node)
    elif tool == "edge_existence":
        u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
        if u == v:
            v = (v + 1) % max(g.node_count, 2)
        if u == v:
            return
        assert dispatch(tool, g, (u, v)).value == oracle_edge_exists(g, u, v)
    elif tool == "node_existence":
        node = rng.randrange(g.node_count + 3)
        assert dispatch(tool, g, (node,)).value == (node < g.node_count)
    elif tool == "maximum_flow":
        if g.node_count < 2:
            return
        s, t = rng.sample(range(g.node_count), 2)
        assert dispatch(tool, g, (s, t)).value == oracle_min_cut(g, s, t)
    elif tool == "path_existence":
        u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
        assert dispatch(tool, g, (u, v)).value == oracle_path_exists(g, u, v)
    elif tool == "shortest_path":
        if g.node_count < 2:
            return
        u, v = rng.sample(range(g.node_count), 2)
        expected = oracle_shortest(g, u, v)
        if expected is None:
            with pytest.raises(Unreachable):
                dispatch(tool, g, (u, v))
        else:
            assert dispatch(tool, g, (u, v)).value == expected
    else:
        raise AssertionError(tool)


def test_criterion_1_tool_oracle_equivalence():
    start = time.perf_counter()
    for kind in ALL_KINDS:
        rng = random.Random(f"criterion1:{kind.label}")
        for _ in range(200):
            g = _kind_graph(kind, rng)
            _check_against_oracle(kind, g, rng)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _passed(f"criterion 1: 20 kinds x 200 graphs agree with brute-force oracles ({elapsed:.1f}s)")


def test_criterion_2_maxflow_mincut_duality():
    start = time.perf_counter()
    rng = random.Random("criterion2")
    checked = 0
    while checked < 100:
        directed = rng.random() < 0.5
        g = random_test_graph(rng, directed, WeightKind.CAPACITY, n_max=8)
        if g.node_count < 2:
            continue
        s, t = rng.sample(range(g.node_count), 2)
        assert dispatch("maximum_flow", g, (s, t)).value == oracle_min_cut(g, s, t)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _passed(f"criterion 2: max flow equals enumerated min cut on 100 networks ({elapsed:.1f}s)")


def _has_triangle(g) -> bool:
    neighbors = [set() for _ in range(g.node_count)]
    for u, v, _ in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return any(neighbors[u] & neighbors[v] for u, v, _ in g.edges)


def _corpus_digest(config: GenConfig, checker=None) -> str:
    digest = hashlib.sha256()
    for inst in generate_corpus(config):
        digest.update(dump_line(instance_to_json(inst)).encode())
        digest.update(b"\n")
        if inst.size_class is SizeClass.EL:
            digest.update(format_el_graph(inst.graph).encode())
        if checker is not None:
            checker(inst)
    return digest.hexdigest()


# SHA-256 over the corpus lines and EL graph files of
# GenConfig(count=3, sizes="both") for all 20 kinds. A change that moves a
# single byte of seeded output must re-pin this and say why. Last re-pinned
# for corpus format 2, whose lines drop every field the loader derives: the
# digest of the earlier output with each line cut down to the format-2 keys
# equals this one, so nothing else moved.
GOLDEN_CORPUS_DIGEST = "bdc6df9df4020b72f1259fb2e630d79028c225e1924a8e5bc2eefeafef484bda"


def test_seeded_corpus_matches_golden_digest():
    assert _corpus_digest(GenConfig(count=3, sizes="both")) == GOLDEN_CORPUS_DIGEST


def test_criterion_3_generator_constraints():
    start = time.perf_counter()
    config = GenConfig(count=2000, seed=101, sizes="both")
    true_counts = {}
    totals = {}

    def checker(inst):
        lo, hi = SIZE_NODE_RANGE[inst.size_class]
        assert lo <= inst.graph.node_count <= hi, inst.id
        assert len(inst.graph.edges) <= SIZE_EDGE_CAP[inst.size_class], inst.id
        totals[inst.kind.label] = totals.get(inst.kind.label, 0) + 1
        if inst.kind.tool in BOOLEAN_TOOLS:
            if inst.gold_answer.value is True:
                true_counts[inst.kind.label] = true_counts.get(inst.kind.label, 0) + 1
        if inst.kind.tool == "topological_sort":
            assert has_unique_topological_order(inst.graph), inst.id
        if inst.kind.tool == "max_triangle_sum":
            assert _has_triangle(inst.graph), inst.id

    first = _corpus_digest(config, checker)
    assert sum(totals.values()) == 2000 * 20
    for label, total in totals.items():
        if TaskKind.parse(label).tool in BOOLEAN_TOOLS:
            fraction = true_counts.get(label, 0) / total
            assert abs(fraction - 0.5) <= 0.025, (label, fraction)

    second = _corpus_digest(config)
    assert first == second, "seeded regeneration is not byte-identical"
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _passed(
        "criterion 3: 40,000-instance corpus satisfies size bounds, balance, "
        f"uniqueness and triangle constraints; regeneration byte-identical ({elapsed:.1f}s)"
    )


_SAFE_CHARS = string.ascii_letters + " .,;:!?'-"


def _safe_prose(rng: random.Random) -> str:
    return "".join(rng.choice(_SAFE_CHARS) for _ in range(rng.randrange(0, 80)))


def test_criterion_4_codec_roundtrip():
    start = time.perf_counter()
    for weight_kind in (WeightKind.NONE, WeightKind.WEIGHT, WeightKind.CAPACITY):
        rng = random.Random(f"criterion4:{weight_kind.value}")
        for _ in range(1000):
            directed = rng.random() < 0.5
            g = random_test_graph(rng, directed, weight_kind, n_max=12)
            if not g.edges:
                continue
            text = f"{_safe_prose(rng)}{render_edge_list(g)}{_safe_prose(rng)}"
            res = extract_graph(text, weight_kind, directed)
            assert res.ok
            assert graphs_equal(res.graph, g)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _passed(f"criterion 4: render/extract round trip with prose fuzz, 1000 per weight kind ({elapsed:.1f}s)")


def test_criterion_5_end_to_end_oracle_soundness(tmp_path):
    start = time.perf_counter()
    config = GenConfig(count=50, seed=55, sizes="both")
    corpus = list(generate_corpus(config))
    assert len(corpus) == 1000
    for inst in corpus:
        if inst.graph_file is not None:
            atomic_write_text(tmp_path / inst.graph_file, format_el_graph(inst.graph))
    backend = OracleBackend(corpus)
    traces = list(run_corpus(corpus, backend, workers=4, base_dir=tmp_path))
    records = evaluate_traces(pair_traces(traces, corpus))
    assert all(r["category"] == Category.CORRECT for r in records)
    report = aggregate(records)
    for row in report["rows"]:
        assert row["answer_acc"] == 100.0
        assert row["graph_acc"] == 100.0
        assert row["name_acc"] == 100.0
        assert row["param_acc"] in (None, 100.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _passed(f"criterion 5: oracle pipeline is 100% sound over 20 kinds x 50 instances ({elapsed:.1f}s)")


def _reexecute_matches(trace, instance) -> bool:
    """Independent survival check: parse the raw stage text afresh and re-run."""
    graph_stage = trace.stage(StageKind.GRAPH)
    name_stage = trace.stage(StageKind.NAME)
    g = extract_graph(graph_stage.raw_output, instance.graph.weight_kind, instance.kind.directed)
    if not g.ok or not graphs_equal(g.graph, instance.gold_graph):
        return False
    name = extract_tool_name(name_stage.raw_output)
    if not name.ok or name.name.strip().lower() != instance.gold_tool:
        return False
    params = ()
    if instance.kind.parametric:
        param_stage = trace.stage(StageKind.PARAMS)
        parsed = extract_parameters(param_stage.raw_output, REGISTRY.get(instance.gold_tool))
        if not parsed.ok or parsed.params != instance.gold_params:
            return False
        params = parsed.params
    try:
        return dispatch(name.name, g.graph, params) == instance.gold_answer
    except ToolError:
        return False


@pytest.fixture(scope="module")
def fault_run(tmp_path_factory):
    config = GenConfig(count=60, seed=66, sizes="wl")
    corpus = list(generate_corpus(config))
    oracle = OracleBackend(corpus)
    plan = FaultPlan(drop_graph_edges=0.2, wrong_tool_name=0.2, swap_parameters=0.2)
    fault = FaultBackend(oracle, plan, seed=66)
    traces = list(run_corpus(corpus, fault, workers=4))
    entries, stats = build_dataset(pair_traces(traces, corpus))
    return corpus, traces, entries, stats


def _entries_by_instance(corpus, traces):
    """Instance id -> the entries that build_dataset keeps from its trace alone."""
    by_id = {inst.id: inst for inst in corpus}
    return {t.instance_id: build_dataset(pair_traces([t], [by_id[t.instance_id]]))[0] for t in traces}


def test_criterion_6_dataset_filter_soundness(fault_run):
    start = time.perf_counter()
    corpus, traces, entries, stats = fault_run
    assert len(corpus) >= 1000
    by_id = {inst.id: inst for inst in corpus}
    retained_ids = {i for i, own in _entries_by_instance(corpus, traces).items() if own}
    for instance_id in retained_ids:
        assert _reexecute_matches(
            next(t for t in traces if t.instance_id == instance_id), by_id[instance_id]
        ), f"false retention: {instance_id}"
    survival = sum(_reexecute_matches(t, by_id[t.instance_id]) for t in traces) / len(traces)
    assert abs(stats["retained_fraction"] - survival) <= 0.05
    assert stats["retained_instances"] < stats["traces"]  # faults did land
    elapsed = time.perf_counter() - start
    assert elapsed < 180, f"took {elapsed:.1f}s"
    _passed(
        f"criterion 6: zero false retentions over {stats['traces']} instances; retained "
        f"fraction {stats['retained_fraction']:.3f} matches re-executed survival {survival:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_7_error_taxonomy_fidelity():
    expected = {
        "drop_graph_edges": Category.GRAPH,
        "wrong_tool_name": Category.NAME,
        "swap_parameters": Category.PARA,
        "emit_garbage": Category.SYNTAX,
    }
    plans = {
        "drop_graph_edges": (FaultPlan(drop_graph_edges=1.0), 15, None),
        "wrong_tool_name": (FaultPlan(wrong_tool_name=1.0), 18, None),
        "swap_parameters": (FaultPlan(swap_parameters=1.0), 45, 2),
        "emit_garbage": (FaultPlan(emit_garbage=1.0, garbage_stages=("graph",)), 12, None),
    }
    for mode, (plan, per_kind, arity) in plans.items():
        kinds = tuple(
            k.label for k in ALL_KINDS if arity is None or k.arity == arity
        )
        config = GenConfig(count=per_kind, seed=77, sizes="wl", kinds=kinds)
        corpus = list(generate_corpus(config))
        fault = FaultBackend(OracleBackend(corpus), plan, seed=7)
        traces = list(run_corpus(corpus, fault, workers=4))
        by_id = {inst.id: inst for inst in corpus}
        labeled = 0
        for trace in traces:
            injected = fault.injected.get(trace.instance_id, {})
            if len(injected) != 1:
                continue
            labeled += 1
            record = score_trace(trace, by_id[trace.instance_id])
            assert record["category"] == expected[mode], (mode, trace.instance_id, record)
        assert labeled >= 200, (mode, labeled)
        _passed(f"criterion 7[{mode}]: {labeled} single-fault traces all classified {expected[mode].value}")


def test_criterion_8_alpaca_export_validity(fault_run, tmp_path):
    corpus, traces, entries, stats = fault_run
    out = tmp_path / "alpaca.json"
    export_alpaca(entries, out)
    first = out.read_bytes()
    payload = json.loads(first)
    assert isinstance(payload, list)
    assert len(payload) == len(entries)
    for item in payload:
        assert set(item) == {"instruction", "input", "output"}
    # all-or-nothing: every retained instance contributes one entry per stage,
    # and the dataset lists them by instance id
    by_id = {inst.id: inst for inst in corpus}
    per_instance = _entries_by_instance(corpus, traces)
    for instance_id, own in per_instance.items():
        assert len(own) in (0, 2 if not by_id[instance_id].kind.parametric else 3), instance_id
    assert [e for _, own in sorted(per_instance.items()) for e in own] == entries
    export_alpaca(entries, out)
    assert out.read_bytes() == first
    _passed(
        f"criterion 8: Alpaca export of {len(entries)} entries is valid, all-or-nothing, "
        "and byte-identical on re-export"
    )


@pytest.mark.skipif(
    not os.environ.get("GRAPHSTAGE_ENDPOINT"),
    reason="live check needs GRAPHSTAGE_ENDPOINT",
)
def test_criterion_9_live_endpoint_run(tmp_path):
    config = GenConfig(count=5, seed=9, sizes="wl")
    corpus = list(generate_corpus(config))
    backend = HttpBackend(
        CompletionConfig(
            endpoint=os.environ["GRAPHSTAGE_ENDPOINT"],
            model=os.environ.get("GRAPHSTAGE_MODEL", "local-model"),
            api_key=os.environ.get("GRAPHSTAGE_API_KEY", ""),
        )
    )
    traces = list(run_corpus(corpus, backend, workers=4))
    records = evaluate_traces(pair_traces(traces, corpus))
    report = aggregate(records)
    assert len(report["rows"]) == 20
    _passed(
        "criterion 9: live 100-instance run completed; overall answer accuracy "
        f"{report['overall']['wl']['answer_acc']:.1f} (informational)"
    )
