"""Output checks. Each raises :class:`CheckFailed` on the first wrong output.

The checks read the files the CLI steps wrote through the package's own
loaders, so an on-disk format change does not break them, and then verify
the content a second way: gold answers are recomputed by dispatching the
gold tool, EL graph files are parsed here rather than by the codec, and
pipeline outcomes are re-derived from the raw stage text of each trace.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from graphstage.codec import extract_file_path, extract_graph, extract_parameters, extract_tool_name
from graphstage.generator import SizeClass
from graphstage.graphs import build_graph, graphs_equal
from graphstage.pipeline import StageKind
from graphstage.serialize import load_corpus, load_traces
from graphstage.tools import ToolError, dispatch
from graphstage.toolset import default_registry

# category each single injected fault must produce (acceptance criterion 7)
FAULT_CATEGORY = {
    "drop_graph_edges": "GraphMismatch",
    "wrong_tool_name": "NameMismatch",
    "swap_parameters": "ParaMismatch",
    "emit_garbage": "SyntaxError",
}
_STAGE_RANK = {StageKind.GRAPH: 0, StageKind.NAME: 1, StageKind.PARAMS: 2}
_REGISTRY = default_registry()


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_el_file(path: Path) -> Tuple[bool, List[tuple]]:
    """(directed, edges as (u, v, w-or-None)) of an EL graph file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] not in ("directed", "undirected"):
        raise CheckFailed(f"{path.name}: bad header")
    edges = []
    for line in lines[1:]:
        try:
            nums = [int(part) for part in line.split(", ")]
        except ValueError:
            nums = []
        if len(nums) not in (2, 3):
            raise CheckFailed(f"{path.name}: bad edge line {line!r}")
        edges.append((nums[0], nums[1], nums[2] if len(nums) == 3 else None))
    return lines[0] == "directed", edges


def _inside(base: Path, relative: str) -> Optional[Path]:
    target = (base / relative).resolve()
    return target if target.is_relative_to(base.resolve()) else None


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def output_digest(out: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``out``
    except ``traces.jsonl``, whose per-call latencies differ from pass to
    pass even when everything derived from the traces repeats exactly."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "traces.jsonl"):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    return digest.hexdigest()


def check_corpus(corpus_dir: Path, expected: int) -> None:
    """Every gold answer re-dispatches to itself and every EL file holds its
    instance's graph."""
    corpus_path = corpus_dir / "corpus.jsonl"
    corpus = load_corpus(corpus_path)
    _require(len(corpus) == expected, f"corpus has {len(corpus)} instances, expected {expected}")
    _require(len({i.id for i in corpus}) == len(corpus), "duplicate instance ids")
    graph_files = set()
    for inst in corpus:
        answer = dispatch(inst.gold_tool, inst.gold_graph, inst.gold_params)
        _require(answer == inst.gold_answer, f"{inst.id}: gold answer {inst.gold_answer} but the tool gives {answer}")
        if inst.size_class is SizeClass.EL:
            path = _inside(corpus_dir, inst.graph_file or "")
            _require(path is not None and path.is_file(), f"{inst.id}: graph file {inst.graph_file!r} missing")
            directed, edges = parse_el_file(path)
            _require(directed == inst.graph.directed and edges == list(inst.graph.edges),
                     f"{inst.id}: {inst.graph_file} does not hold the instance graph")
            graph_files.add(path)
    on_disk = {p.resolve() for p in corpus_dir.rglob("*.edges")}
    _require(on_disk == graph_files, f"{len(on_disk - graph_files)} graph files that no instance names")


def reexecute(trace, inst, corpus_dir: Path) -> bool:
    """Whether the raw stage text alone, parsed afresh and executed, gives
    the gold graph, tool, parameters and answer."""
    stage = {record.stage: record for record in trace.stages}
    graph_text = stage[StageKind.GRAPH].raw_output
    if inst.size_class is SizeClass.EL:
        found = extract_file_path(graph_text)
        path = _inside(corpus_dir, found.path) if found.ok else None
        if path is None or not path.is_file():
            return False
        try:
            directed, edges = parse_el_file(path)
            node_count = 1 + max(max(u, v) for u, v, _ in edges)
            graph = build_graph(directed, node_count, edges, inst.graph.weight_kind)
        except (CheckFailed, ValueError):  # unreadable file or empty or invalid edge list
            return False
    else:
        found = extract_graph(graph_text, inst.graph.weight_kind, inst.kind.directed)
        if not found.ok:
            return False
        graph = found.graph
    if not graphs_equal(graph, inst.gold_graph):
        return False
    name = extract_tool_name(stage[StageKind.NAME].raw_output)
    if not name.ok or name.name.strip().lower() != inst.gold_tool:
        return False
    params: tuple = ()
    if inst.kind.parametric:
        found = extract_parameters(stage[StageKind.PARAMS].raw_output, _REGISTRY.get(inst.gold_tool))
        if not found.ok or found.params != tuple(inst.gold_params):
            return False
        params = found.params
    try:
        return dispatch(name.name, graph, params) == dispatch(inst.gold_tool, inst.gold_graph, inst.gold_params)
    except ToolError:
        return False


def _read_jsonl(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_pipeline(corpus_dir: Path, out: Path, labels: Optional[Dict[str, Dict[str, str]]]) -> int:
    """Checks one ``run`` / ``build-dataset`` / ``evaluate`` pass.

    ``labels`` is None for the oracle backend: then every trace must be
    retained and Correct. With fault labels, the Alpaca file must hold
    exactly the instances that survive re-execution (no false retentions),
    every unlabeled instance must be Correct, and every single-fault instance
    must carry its fault's category. Returns the number of retained instances.
    """
    corpus = load_corpus(corpus_dir / "corpus.jsonl")
    traces = load_traces(out / "traces.jsonl")
    _require([t.instance_id for t in traces] == [i.id for i in corpus], "traces do not follow the corpus")
    by_id = {inst.id: inst for inst in corpus}
    survivors = [t for t in traces if reexecute(t, by_id[t.instance_id], corpus_dir)]

    expected = []
    for trace in sorted(survivors, key=lambda t: t.instance_id):
        inst = by_id[trace.instance_id]
        _require(len(trace.stages) == (3 if inst.kind.parametric else 2), f"{inst.id}: wrong stage count")
        for record in sorted(trace.stages, key=lambda r: _STAGE_RANK[r.stage]):
            expected.append({"instruction": record.instruction_text, "input": inst.task_text,
                             "output": record.raw_output})
    alpaca = json.loads((out / "alpaca.json").read_text(encoding="utf-8"))
    _require(alpaca == expected, f"Alpaca file holds {len(alpaca)} entries; the {len(survivors)} instances "
             f"that survive re-execution give {len(expected)}, or the entries differ")
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    _require(stats["traces"] == len(corpus) and stats["retained_instances"] == len(survivors),
             f"stats report {stats['retained_instances']}/{stats['traces']} retained, "
             f"re-execution gives {len(survivors)}/{len(corpus)}")

    records = _read_jsonl(out / "eval" / "records.jsonl")
    _require([r["instance_id"] for r in records] == [i.id for i in corpus], "records do not follow the corpus")
    survived = {t.instance_id for t in survivors}
    for record in records:
        instance_id, category = record["instance_id"], record["category"]
        injected = {} if labels is None else labels.get(instance_id, {})
        if not injected:
            _require(category == "Correct" and record["answer_match"] and instance_id in survived,
                     f"{instance_id}: no fault injected but category {category}, "
                     f"{'retained' if instance_id in survived else 'not retained'}")
        elif len(injected) == 1:
            (mode,) = injected.values()
            _require(category == FAULT_CATEGORY[mode], f"{instance_id}: fault {mode} scored {category}")

    return len(survivors)


def backend_calls(out: Path) -> Tuple[int, int]:
    """(backend calls, calls that ended in a backend error) of a pass."""
    stages = [r for t in load_traces(out / "traces.jsonl") for r in t.stages]
    errors = sum(1 for r in stages if not r.parsed.ok and r.parsed.reason.startswith("backend error"))
    return sum(1 for r in stages if r.prompt), errors
