"""Three-stage instruction pipeline: graph extraction, tool-name
identification, then (for parametric tasks only) parameter extraction.

Prompt layout is instruction text, a bracketed metadata line naming the
instance id and stage, then the task text. The metadata line is transport
plumbing: it lets self-contained backends (oracle, fault injection) look up
which instance and stage a prompt belongs to without a side channel. It
carries a gold label: the id names the tool (``shortest_path-d-wl-00003``),
so the name stage's answer is in every prompt (ROADMAP item 4). A prompt is
thus a function of the instruction text, the instance id, the stage and the
task text (:func:`layout_prompt`). The instruction texts are few, and each
has a key (:data:`INSTRUCTION_TEXTS`): a stage record names the instruction
it sent by its key.

Each stage is attempted exactly once; a parse failure in any stage
short-circuits tool execution but the trace still records every stage. The
stage sequence is written once, in the coroutine :func:`run_stages`, and
:func:`execute` then makes the tool call. A run answers the stages from a
backend and the corpus directory's files, where an EL instance's own graph
file reads as the instance's graph while its bytes are the ones ``generate``
wrote; the trace loader replays the stages on a stored trace. Over a
blocking backend, or a replay, the coroutine never suspends, and
:func:`run_blocking` runs it to the end in one step. With an HTTP backend,
:func:`run_corpus` awaits it on an event loop, one coroutine per connection,
and :func:`run_pipeline` is a one-instance :func:`run_corpus`. That loop, and
the one each blocking HTTP call runs on, starts in :func:`run_on_loop`.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .codec import (
    ExtractionResult,
    extract_file_path,
    extract_graph,
    extract_parameters,
    extract_tool_name,
    read_el_graph_file,
)
from .generator import SizeClass, TaskInstance, TaskKind
from .graphs import WeightKind
from .tools import TOOLS, Answer, ToolError, ToolRegistry, ToolSpec, UnknownTool, dispatch


class StageKind(str, Enum):
    GRAPH = "graph"
    NAME = "name"
    PARAMS = "params"


_STAGE_LETTER = {StageKind.GRAPH: "G", StageKind.NAME: "N", StageKind.PARAMS: "P"}
_STAGE_OF_LETTER = {letter: stage for stage, letter in _STAGE_LETTER.items()}
_META_PATTERN = re.compile(r"\[task (\S+) \| stage ([GNP])\]")


@dataclass
class StageRecord:
    stage: StageKind
    # the key of INSTRUCTION_TEXTS that was sent; "" for a parameter stage
    # that made no call
    instruction: str
    prompt: str
    raw_output: str
    parsed: ExtractionResult
    latency_ms: float

    @property
    def instruction_text(self) -> str:
        return INSTRUCTION_TEXTS[self.instruction] if self.instruction else ""


@dataclass
class PipelineTrace:
    instance_id: str
    # the instance's task text, which every prompt of the trace ends with
    task_text: str
    stages: List[StageRecord]
    tool_result: Optional[Answer]
    tool_error: Optional[str]

    def stage(self, kind: StageKind) -> Optional[StageRecord]:
        return next((record for record in self.stages if record.stage is kind), None)


def layout_prompt(instruction_text: str, instance_id: str, stage: StageKind, task_text: str) -> str:
    meta = f"[task {instance_id} | stage {_STAGE_LETTER[stage]}]"
    return f"{instruction_text}\n\n{meta}\n{task_text}"


def assemble_prompt(instruction_text: str, instance: TaskInstance, stage: StageKind) -> str:
    return layout_prompt(instruction_text, instance.id, stage, instance.task_text)


def parse_prompt_meta(prompt: str) -> Optional[Tuple[str, StageKind]]:
    m = _META_PATTERN.search(prompt)
    if not m:
        return None
    return m.group(1), _STAGE_OF_LETTER[m.group(2)]


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


def task_instruction_text(registry: ToolRegistry) -> str:
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
    tool_set = "\n".join(blocks)
    return (
        "Choose the single most suitable tool for the task below from this "
        "tool set.\n\n"
        f"{tool_set}\n\n"
        "Reply with exactly one line in this format:\n"
        "API_name: <tool_name>"
    )


def parameter_instruction_text(spec: ToolSpec) -> str:
    required = ", ".join(f"{name}=<{kind}>" for name, kind in spec.parameters)
    return (
        "Extract the tool parameter values for the task below.\n"
        f"Tool template: {spec.name}\n"
        f"Required format: {required}\n"
        "Reply with exactly one line in the required format, filled with the "
        "values taken from the task."
    )


# key -> instruction text, one key per distinct text that the pipeline sends
# (WL graphs without weights get the weighted text).
# The keys are part of the trace file format: a changed text needs a new
# format version, or stored traces would load with the new text.
INSTRUCTION_TEXTS: Dict[str, str] = {
    "G:wl": graph_instruction_text(SizeClass.WL, WeightKind.WEIGHT),
    "G:wl:capacity": graph_instruction_text(SizeClass.WL, WeightKind.CAPACITY),
    "G:el": graph_instruction_text(SizeClass.EL, WeightKind.NONE),
    "N": task_instruction_text(TOOLS),
    **{f"P:{spec.name}": parameter_instruction_text(spec) for spec in TOOLS if spec.parameters},
}


def run_blocking(coroutine):
    """The result of a coroutine that never suspends, such as a pipeline over
    a blocking backend: it runs to the end in one step, on any thread, inside
    a running event loop or not."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("a blocking call suspended")


BACKEND_ERROR = "backend error: "  # a failed call's reason, then the error
FILE_READ_ERROR = "file read: "  # an EL graph file's read failure, then the error


def parse_reply(key: str, raw: str, kind: TaskKind, read_file) -> ExtractionResult:
    """What the pipeline makes of the reply ``raw`` to the instruction ``key``
    on a task of ``kind``. A path inside the corpus directory that an EL graph
    reply names goes to ``read_file``, which gives the file's graph or failure."""
    if key == "G:el":
        found = extract_file_path(raw)
        if not found.ok:
            return found
        # the path is model output: it may name only files inside the corpus
        # directory. Resolved lexically: the model writes text, not symlinks.
        relative = Path(os.path.normpath(found.path))
        if relative.anchor or relative.parts[:1] == ("..",):
            return ExtractionResult(reason=f"file path escapes the corpus directory: {found.path}")
        return read_file(relative)
    if key.startswith("G:"):
        return extract_graph(raw, kind.weight_kind, kind.directed)
    if key == "N":
        return extract_tool_name(raw)
    return extract_parameters(raw, TOOLS.get(key[2:]))


def parameter_stage(name: ExtractionResult) -> Tuple[str, str]:
    """``(key, "")`` with the instruction key that the parameter stage sends
    after the name stage gave ``name``, or ``("", why it makes no call)``."""
    if not name.ok:
        return "", "tool template unavailable: name stage failed"
    try:
        spec = TOOLS.get(name.name)
    except UnknownTool as exc:
        return "", f"tool template unavailable: {exc}"
    if not spec.parameters:
        return "", f"tool template for {spec.name!r} takes no parameters"
    return f"P:{spec.name}", ""


async def run_stages(
    instance_id: str, kind: TaskKind, size_class: SizeClass, task_text: str, complete, read_file
) -> List[StageRecord]:
    """The stage records of one instance: graph, name, then, for a kind with
    parameters, the parameter stage that the name reply leads to. ``complete``
    is the coroutine function that answers a prompt; ``read_file`` goes to
    :func:`parse_reply`."""
    stages: List[StageRecord] = []

    async def ask(key: str) -> ExtractionResult:
        """Send the instruction ``key``, and record the reply with what the
        pipeline makes of it."""
        stage = _STAGE_OF_LETTER[key[0]]
        prompt = layout_prompt(INSTRUCTION_TEXTS[key], instance_id, stage, task_text)
        start = time.perf_counter()
        try:
            raw, error = await complete(prompt), None
        except Exception as exc:  # transport errors become data, never escape
            raw, error = "", f"{BACKEND_ERROR}{exc}"
        latency_ms = (time.perf_counter() - start) * 1000.0
        parsed = parse_reply(key, raw, kind, read_file) if error is None else ExtractionResult(reason=error)
        stages.append(StageRecord(stage, key, prompt, raw, parsed, latency_ms))
        return parsed

    # stage G: graph (or file path) extraction
    if size_class is SizeClass.EL:
        await ask("G:el")
    else:
        await ask("G:wl:capacity" if kind.weight_kind is WeightKind.CAPACITY else "G:wl")

    # stage N: tool name identification
    name = await ask("N")

    # stage P: parameter extraction, parametric tasks only
    if kind.parametric:
        key, reason = parameter_stage(name)
        if key:
            await ask(key)
        else:
            stages.append(StageRecord(StageKind.PARAMS, "", "", "", ExtractionResult(reason=reason), 0.0))
    return stages


def execute(stages: List[StageRecord]) -> Tuple[Optional[Answer], Optional[str]]:
    """``(tool_result, tool_error)``: the tool that the name stage named, run
    on the parsed graph and parameters, or why it did not run."""
    failed = next((s for s in stages if not s.parsed.ok), None)
    if failed is not None:
        return None, f"stage {failed.stage.value} parse failure: {failed.parsed.reason}"
    params = stages[2].parsed.params if len(stages) > 2 else ()
    try:
        return dispatch(stages[1].parsed.name, stages[0].parsed.graph, params), None
    except ToolError as exc:
        return None, f"tool dispatch error: {exc}"


async def _pipeline(instance: TaskInstance, complete, base_dir: Path) -> PipelineTrace:
    """The staged pipeline for one instance, then its tool call. The
    instance's own EL graph file reads as its graph while its bytes are the
    ones ``generate`` wrote (:func:`~graphstage.codec.read_el_graph_file`)."""
    weight_kind = instance.kind.weight_kind

    def read_file(relative: Path) -> ExtractionResult:
        expected = instance.graph if relative.as_posix() == instance.graph_file else None
        try:
            return ExtractionResult(graph=read_el_graph_file(base_dir / relative, weight_kind, expected))
        except (OSError, ValueError) as exc:
            return ExtractionResult(reason=f"{FILE_READ_ERROR}{exc}")

    stages = await run_stages(instance.id, instance.kind, instance.size_class, instance.task_text, complete, read_file)
    return PipelineTrace(instance.id, instance.task_text, stages, *execute(stages))


def run_pipeline(instance: TaskInstance, backend, *, base_dir: str | Path = ".") -> PipelineTrace:
    """Execute the staged pipeline for one instance and return the full trace.

    An EL graph file that a reply names is read under ``base_dir``. The
    instance's own file, while its bytes are the ones ``generate`` wrote for
    the instance's graph, reads as that graph object; any other file is
    parsed and validated.

    An :class:`~graphstage.backends.HttpBackend` answers its stages as a
    one-instance :func:`run_corpus`: over one keep-alive connection, on an
    event loop of its own. Each call starts that loop and connection anew,
    so a caller with many instances should use :func:`run_corpus`, which
    keeps one of each for the whole list: over a local stub, a loop of ``run_pipeline``
    took 2.01 ms per WL instance against 0.35 ms through ``run_corpus``."""
    from .backends import HttpBackend  # backends imports this module

    if isinstance(backend, HttpBackend):
        return run_corpus([instance], backend, base_dir=base_dir)[0]

    async def complete(prompt: str) -> str:  # blocks, so the pipeline never suspends
        return backend.complete(prompt)

    return run_blocking(_pipeline(instance, complete, Path(base_dir)))


def run_corpus(
    instances: Sequence[TaskInstance],
    backend,
    *,
    workers: int = 1,
    base_dir: str | Path = ".",
) -> List[PipelineTrace]:
    """Run the pipeline over many instances, preserving corpus order. EL
    graph files are read under ``base_dir`` as :func:`run_pipeline` reads them.

    An :class:`~graphstage.backends.HttpBackend` runs the pipelines as
    coroutines on one event loop in the calling thread, over ``workers``
    keep-alive connections with as many requests in flight. Any other backend
    runs serially in the calling thread, whatever ``workers`` says: its work
    is pure Python, which threads would only slow down. Each of its instances
    goes through :func:`run_pipeline`, looked up by this module's name, where
    the benchmark's tracer times it.
    """
    from .backends import HttpBackend  # backends imports this module

    if not isinstance(backend, HttpBackend):
        return [run_pipeline(i, backend, base_dir=base_dir) for i in instances]
    import asyncio  # only HTTP runs need it, and it takes tens of ms to import

    traces: List[Optional[PipelineTrace]] = [None] * len(instances)
    todo = iter(enumerate(instances))

    async def lane():
        # one connection, one request in flight; the lanes share the queue
        connection = backend.connection()
        try:
            for index, instance in todo:
                traces[index] = await _pipeline(instance, connection.complete, Path(base_dir))
        finally:
            connection.close()

    async def run_lanes():
        await asyncio.gather(*(lane() for _ in range(min(max(workers, 1), len(instances)))))

    run_on_loop(run_lanes())
    return traces


def run_on_loop(coroutine):
    """The result of a coroutine run to the end on an event loop of its own:
    in the calling thread, or, when that thread already runs an event loop
    (a notebook's) on which :func:`asyncio.run` cannot start, in a thread of
    its own."""
    import asyncio
    from concurrent.futures import ThreadPoolExecutor

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coroutine)
    with ThreadPoolExecutor(max_workers=1) as side:
        return side.submit(asyncio.run, coroutine).result()
