"""Three-stage instruction pipeline: graph extraction, tool-name
identification, then (for parametric tasks only) parameter extraction.

Prompt layout is instruction text, a bracketed metadata line naming the
instance id and stage, then the task text. The metadata line is transport
plumbing: it lets self-contained backends (oracle, fault injection) look up
which instance and stage a prompt belongs to without a side channel, and it
carries no gold labels.

Each stage is attempted exactly once; a parse failure in any stage
short-circuits tool execution but the trace still records every stage.
"""

from __future__ import annotations

import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .codec import (
    ExtractionResult,
    MalformedLine,
    extract_file_path,
    extract_graph,
    extract_parameters,
    extract_tool_name,
    read_el_graph_file,
)
from .generator import SizeClass, TaskInstance
from .graphs import WeightKind
from .tools import Answer, ToolError, UnknownTool, dispatch
from .toolset import ToolRegistry, ToolSpec


class StageKind(str, Enum):
    GRAPH = "graph"
    NAME = "name"
    PARAMS = "params"


_STAGE_LETTER = {StageKind.GRAPH: "G", StageKind.NAME: "N", StageKind.PARAMS: "P"}
_META_PATTERN = re.compile(r"\[task (\S+) \| stage ([GNP])\]")


@dataclass
class StageRecord:
    stage: StageKind
    instruction_text: str
    prompt: str
    raw_output: str
    parsed: ExtractionResult
    latency_ms: float
    file_path: Optional[str] = None


@dataclass
class PipelineTrace:
    instance_id: str
    stages: List[StageRecord]
    tool_result: Optional[Answer]
    tool_error: Optional[str]
    skipped_parameter_stage: bool

    def stage(self, kind: StageKind) -> Optional[StageRecord]:
        for record in self.stages:
            if record.stage is kind:
                return record
        return None


def assemble_prompt(instruction_text: str, instance: TaskInstance, stage: StageKind) -> str:
    meta = f"[task {instance.id} | stage {_STAGE_LETTER[stage]}]"
    return f"{instruction_text}\n\n{meta}\n{instance.task_text}"


def parse_prompt_meta(prompt: str) -> Optional[Tuple[str, StageKind]]:
    m = _META_PATTERN.search(prompt)
    if not m:
        return None
    letter = m.group(2)
    stage = {v: k for k, v in _STAGE_LETTER.items()}[letter]
    return m.group(1), stage


_WL_EXEMPLAR_UNWEIGHTED = (
    "Task: You are given an undirected graph. Its edges are: (0, 1), (1, 2). "
    "Count the total number of edges in the graph.\n"
    "Answer: The edges are: (0, 1), (1, 2)"
)

_WL_EXEMPLAR_WEIGHTED = {
    WeightKind.WEIGHT: (
        "Task: You are given an undirected graph. Its weighted edges are: "
        "(0, 1, {'weight': 4}), (1, 2, {'weight': 2}). Determine the minimum "
        "total weight of a path from node 0 to node 2.\n"
        "Answer: The edges are: (0, 1, {'weight': 4}), (1, 2, {'weight': 2})"
    ),
    WeightKind.CAPACITY: (
        "Task: You are given a directed graph. Its capacity-weighted edges are: "
        "(0, 1, {'capacity': 4}), (1, 2, {'capacity': 2}). Determine the largest "
        "amount of flow that can be routed from source node 0 to sink node 2.\n"
        "Answer: The edges are: (0, 1, {'capacity': 4}), (1, 2, {'capacity': 2})"
    ),
}

_EL_EXEMPLAR = (
    "Task: You are given a directed graph. Its edges are listed in the file: "
    "data/sample_graph.edges. Count the total number of edges in the graph.\n"
    "Answer: data/sample_graph.edges"
)


def graph_instruction_text(size_class: SizeClass, weight_kind: WeightKind) -> str:
    if size_class is SizeClass.EL:
        return (
            "The task below names a file that stores the graph's edge list. "
            "Identify that file path and reply with one line containing only "
            "the path.\n\n"
            "Example:\n" + _EL_EXEMPLAR
        )
    weighted = _WL_EXEMPLAR_WEIGHTED.get(weight_kind, _WL_EXEMPLAR_WEIGHTED[WeightKind.WEIGHT])
    return (
        "Extract the graph structure from the task below. Reply with one line "
        "that lists every edge of the graph, formatted exactly like the "
        "examples.\n\n"
        "Example 1 (unweighted):\n"
        f"{_WL_EXEMPLAR_UNWEIGHTED}\n\n"
        "Example 2 (weighted):\n"
        f"{weighted}"
    )


def serialize_registry(registry: ToolRegistry) -> str:
    blocks = []
    for spec in registry:
        params = (
            ", ".join(f"{name} ({kind})" for name, kind in spec.parameters)
            or "(none beyond the graph)"
        )
        blocks.append(
            f"- Tool Name: {spec.name}\n"
            f"  Description: {spec.description}\n"
            f"  Parameters: {params}\n"
            f"  Returns: {spec.returns}"
        )
    return "\n".join(blocks)


def task_instruction_text(registry: ToolRegistry) -> str:
    return (
        "Choose the single most suitable tool for the task below from this "
        "tool set.\n\n"
        f"{serialize_registry(registry)}\n\n"
        "Reply with exactly one line in this format:\n"
        "API_name: <tool_name>"
    )


def required_parameter_format(spec: ToolSpec) -> str:
    return ", ".join(f"{name}=<{kind}>" for name, kind in spec.parameters)


def parameter_instruction_text(spec: ToolSpec) -> str:
    return (
        "Extract the tool parameter values for the task below.\n"
        f"Tool template: {spec.name}\n"
        f"Required format: {required_parameter_format(spec)}\n"
        "Reply with exactly one line in the required format, filled with the "
        "values taken from the task."
    )


def _call_backend(backend, prompt: str) -> Tuple[str, Optional[str], float]:
    start = time.perf_counter()
    try:
        raw = backend.complete(prompt)
        error = None
    except Exception as exc:  # transport errors become data, never escape
        raw = ""
        error = f"backend error: {exc}"
    return raw, error, (time.perf_counter() - start) * 1000.0


def run_pipeline(
    instance: TaskInstance,
    backend,
    registry: ToolRegistry,
    base_dir: str | Path = ".",
) -> PipelineTrace:
    """Execute the staged pipeline for one instance and return the full trace."""
    base_dir = Path(base_dir)
    stages: List[StageRecord] = []

    # stage G: graph (or file path) extraction
    g_text = graph_instruction_text(instance.size_class, instance.graph.weight_kind)
    g_prompt = assemble_prompt(g_text, instance, StageKind.GRAPH)
    raw, error, latency = _call_backend(backend, g_prompt)
    file_path = None
    if error is not None:
        parsed = ExtractionResult.failure(error)
    elif instance.size_class is SizeClass.EL:
        parsed = extract_file_path(raw)
        if parsed.ok:
            file_path = parsed.path
            # the path is model output: it may name only files inside base_dir.
            # Resolved lexically: the model writes text, not symlinks.
            relative = Path(os.path.normpath(file_path))
            if relative.anchor or relative.parts[:1] == ("..",):
                parsed = ExtractionResult.failure(f"file path escapes the corpus directory: {file_path}")
            else:
                try:
                    loaded = read_el_graph_file(base_dir / relative, instance.graph.weight_kind)
                    parsed = ExtractionResult.of_graph(loaded)
                except (OSError, MalformedLine, ValueError) as exc:
                    parsed = ExtractionResult.failure(f"file read: {exc}")
    else:
        parsed = extract_graph(raw, instance.graph.weight_kind, instance.kind.directed)
    stages.append(StageRecord(StageKind.GRAPH, g_text, g_prompt, raw, parsed, latency, file_path))

    # stage N: tool name identification
    n_text = task_instruction_text(registry)
    n_prompt = assemble_prompt(n_text, instance, StageKind.NAME)
    raw, error, latency = _call_backend(backend, n_prompt)
    parsed = ExtractionResult.failure(error) if error is not None else extract_tool_name(raw)
    stages.append(StageRecord(StageKind.NAME, n_text, n_prompt, raw, parsed, latency))
    name_record = stages[-1]

    # stage P: parameter extraction, parametric tasks only
    skipped = not instance.kind.parametric
    if not skipped:
        spec = None
        if not name_record.parsed.ok:
            reason = "tool template unavailable: name stage failed"
        else:
            try:
                spec = registry.get(name_record.parsed.name)
                reason = f"tool template for {spec.name!r} takes no parameters"
            except UnknownTool as exc:
                reason = f"tool template unavailable: {exc}"
        if spec is None or not spec.parameters:
            stages.append(
                StageRecord(StageKind.PARAMS, "", "", "", ExtractionResult.failure(reason), 0.0)
            )
        else:
            p_text = parameter_instruction_text(spec)
            p_prompt = assemble_prompt(p_text, instance, StageKind.PARAMS)
            raw, error, latency = _call_backend(backend, p_prompt)
            parsed = (
                ExtractionResult.failure(error)
                if error is not None
                else extract_parameters(raw, spec)
            )
            stages.append(StageRecord(StageKind.PARAMS, p_text, p_prompt, raw, parsed, latency))

    # tool execution over the three parsed values
    tool_result = None
    tool_error = None
    failures = [s for s in stages if not s.parsed.ok]
    if failures:
        tool_error = f"stage {failures[0].stage.value} parse failure: {failures[0].parsed.reason}"
    else:
        graph = stages[0].parsed.graph
        name = stages[1].parsed.name
        params: Sequence[int] = stages[2].parsed.params if not skipped else ()
        try:
            tool_result = dispatch(name, graph, params)
        except ToolError as exc:
            tool_error = f"tool dispatch error: {exc}"

    return PipelineTrace(
        instance_id=instance.id,
        stages=stages,
        tool_result=tool_result,
        tool_error=tool_error,
        skipped_parameter_stage=skipped,
    )


def run_corpus(
    instances: Sequence[TaskInstance],
    backend,
    registry: ToolRegistry,
    workers: int = 1,
    base_dir: str | Path = ".",
) -> List[PipelineTrace]:
    """Run the pipeline over many instances, preserving corpus order."""
    if workers <= 1:
        return [run_pipeline(i, backend, registry, base_dir) for i in instances]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i: run_pipeline(i, backend, registry, base_dir), instances))
