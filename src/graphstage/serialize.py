"""JSON codecs for corpus, trace and record files, plus atomic file writing.

Corpus and trace files are line-delimited JSON, one object per line, with a
fixed key order so that regeneration under the same seed is byte-identical.
Each loader reads the one format that its writer writes, and requires every
key that the writer writes. A line of another format is rejected; a line
without a ``format`` key is format 1.

A graph's ``edges`` is one flat array of exact integers, ``[u0, v0, u1, v1,
…]`` unweighted and ``[u0, v0, w0, u1, v1, w1, …]`` otherwise. The loader
(:func:`graph_from_edges`) validates it column-wise through
:func:`~graphstage.graphs.build_graph` without building a row per edge.

Corpus lines (format 2) store the instance id, params, task text, the gold
graph's ``edges`` and the gold answer. The loader derives the rest: kind,
size class, description variant and EL graph file from the id, the graph's
direction and weight kind from the kind, and its node count from its edges.

``generate`` writes a manifest beside the corpus, ``corpus.sha256`` in the
format of ``sha256sum``, with the SHA-256 of ``corpus.jsonl`` and of each EL
graph file. Only the corpus entry is read here: a corpus whose bytes match it
holds the graphs that ``generate`` validated, and :func:`load_corpus` builds
them without validating them again; any other corpus is validated in full. A
manifest rebuilt by hand (``sha256sum corpus.jsonl``) after an edit therefore
turns graph validation off for the corpus. The graph file entries are for
``sha256sum -c``: a run reads a graph file as its instance's graph while the
file's bytes are the ones ``generate`` wrote for that graph, and parses any
other (:func:`~graphstage.codec.read_el_graph_file`).

Trace lines (format 5) store the task text once per trace. A stage stores
its instruction as a key of :data:`~graphstage.pipeline.INSTRUCTION_TEXTS`
(``""`` when it made no call), its raw output, its latency, and what the
loader cannot rebuild: a failed call's ``error`` and what reading an EL graph
``file`` gave. The loader replays them through the pipeline's own stages,
and rejects a line whose stored keys are not the ones that the replay sends.
Given the corpus, a ``file`` record that holds exactly its instance's graph,
which the corpus load validated, loads as that graph without building it again.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import tempfile
from functools import partial
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional

from .codec import ExtractionResult
from .generator import TaskInstance, TaskKind, parse_instance_id
from .graphs import Graph, WeightKind, build_graph, flat_columns, holds, trusted_graph
from .pipeline import BACKEND_ERROR, FILE_READ_ERROR, PipelineTrace, StageRecord, run_blocking, run_stages
from .tools import Answer

CORPUS_FORMAT = 2
TRACE_FORMAT = 5


def edges_to_json(g: Graph) -> list:
    """``g``'s edges as one flat array ``[u0, v0, (w0,) u1, v1, …]``, two
    values per edge when the graph is unweighted and three otherwise."""
    rows = g.edges if g.weighted else map(itemgetter(0, 1), g.edges)
    return list(chain.from_iterable(rows))


def graph_from_edges(edges: list, directed: bool, weight_kind: WeightKind, trusted: bool = False) -> Graph:
    """The graph whose flat edge array :func:`edges_to_json` wrote; its node
    count is derived. A value other than an exact integer is named before
    any other fault. A ``trusted`` array is one that ``build_graph`` accepted
    when it was written, and is not validated again."""
    if type(edges) is not list:
        raise ValueError(f"edges must be an array, got {type(edges).__name__}")
    width = 2 if weight_kind is WeightKind.NONE else 3
    if len(edges) % width:
        odd = [x for x in edges if type(x) is not int]
        if odd:
            raise ValueError(f"edges must be a flat integer array, found {odd[0]!r}")
        raise ValueError(
            f"flat edge array of a {weight_kind.value} graph holds {len(edges)} values, not a multiple of {width}"
        )
    columns = flat_columns(edges, width)
    if trusted:
        return trusted_graph(directed, columns, weight_kind)
    return build_graph(directed, None, columns, weight_kind, columns=True)


def answer_to_json(a: Answer) -> dict:
    value = list(a.value) if a.kind == "node_seq" else a.value
    return {"kind": a.kind, "value": value}


# answer kind -> whether a stored value is of the kind's exact JSON type, and that type
_ANSWER_VALUES = {
    "bool": (lambda v: type(v) is bool, "true or false"),
    "count": (lambda v: type(v) is int, "an integer"),
    "value": (lambda v: type(v) is int, "an integer"),
    "node_seq": (lambda v: type(v) is list and all(type(x) is int for x in v), "an array of integers"),
}


def answer_from_json(obj: dict) -> Answer:
    """The answer that :func:`answer_to_json` wrote. A value that is not of
    its kind's exact JSON type raises ``ValueError``: nothing is converted, so
    ``2.5``, ``"3"`` and ``true`` are no count, and ``"no"`` is no bool."""
    kind, value = obj["kind"], obj["value"]
    if kind not in _ANSWER_VALUES:
        raise ValueError(f"unknown answer kind {kind!r}")
    exact, noun = _ANSWER_VALUES[kind]
    if not exact(value):
        raise ValueError(f"a {kind} answer holds {noun}, got {value!r}")
    return Answer(kind, tuple(value) if kind == "node_seq" else value)


def instance_to_json(inst: TaskInstance) -> dict:
    return {
        "format": CORPUS_FORMAT,
        "id": inst.id,
        "params": list(inst.params),
        "task_text": inst.task_text,
        "edges": edges_to_json(inst.graph),
        "gold_answer": answer_to_json(inst.gold_answer),
    }


def instance_from_json(obj: dict, trusted: bool = False) -> TaskInstance:
    """A format-2 corpus line; another format (a line without ``format`` is
    format 1), a malformed id, params that are not as many integers as the
    kind's tool takes, or a graph without edges raises ``ValueError``. The
    graph of a ``trusted`` line is not validated (:func:`graph_from_edges`)."""
    version = obj["format"] if "format" in obj else 1
    if version != CORPUS_FORMAT:
        raise ValueError(f"unknown corpus format {version!r}")
    ident = obj["id"]
    kind, size, _, variant, graph_file = parse_instance_id(ident)
    params = obj["params"]
    if type(params) is not list or len(params) != kind.arity or any(type(p) is not int for p in params):
        noun = "parameter" if kind.arity == 1 else "parameters"
        raise ValueError(f"{kind.tool} takes {kind.arity} integer {noun}, got {params!r}")
    graph = graph_from_edges(obj["edges"], kind.directed, kind.weight_kind, trusted)
    if not graph.edges:
        raise ValueError("a corpus graph has at least one edge, got none")
    return TaskInstance(
        id=ident,
        kind=kind,
        graph=graph,
        params=tuple(params),
        description_variant=variant,
        size_class=size,
        task_text=obj["task_text"],
        graph_file=graph_file,
        gold_answer=answer_from_json(obj["gold_answer"]),
    )


def dump_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


def write_jsonl(path: str | Path, objects: Iterable[dict], sha256=None) -> int:
    """Atomically write one JSON object per line; returns the line count. A
    ``hashlib.sha256()`` object given as ``sha256`` is fed the bytes written."""
    count = 0

    def emit(handle):
        nonlocal count
        for obj in objects:
            line = dump_line(obj) + "\n"
            handle.write(line)
            if sha256 is not None:
                sha256.update(line.encode("utf-8"))
            count += 1

    atomic_write_text(path, emit)
    return count


def read_jsonl(path: str | Path, convert: Callable[[dict], object] | None = None) -> Iterator:
    """Each non-blank line's object, passed through ``convert`` if given. A
    line that is not JSON, or that ``convert`` rejects with ``ValueError``,
    ``TypeError`` or ``KeyError`` (a missing key, which is named), raises
    ``ValueError`` prefixed with ``<path>:<line number>:``."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from _objects(path, handle, convert)


def _objects(path: str | Path, lines: Iterable[str], convert: Callable[[dict], object] | None) -> Iterator:
    """:func:`read_jsonl` over the text lines of the file ``path``."""
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                obj = json.loads(line)
                if convert is not None:
                    obj = convert(obj)
            except KeyError as exc:
                raise ValueError(f"{path}:{number}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
            yield obj


def atomic_write_text(path: str | Path, writer: Callable | str) -> None:
    """Write via a temp file in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:  # the bytes are the text's UTF-8
            if callable(writer):
                writer(handle)
            else:
                handle.write(writer)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def unique_ids(convert: Callable, id_of: Callable[[object], str]) -> Callable:
    """``convert``, rejecting a result whose instance id an earlier one had:
    every lookup by instance id would keep only one of them."""
    seen = set()

    def checked(obj):
        item = convert(obj)
        ident = id_of(item)
        if ident in seen:
            raise ValueError(f"duplicate instance id {ident!r}")
        seen.add(ident)
        return item

    return checked


MANIFEST_NAME = "corpus.sha256"
# a line of sha256sum's output: the digest, then a space and " " (text) or
# "*" (binary), then the path
_MANIFEST_LINE = re.compile(r"([0-9a-f]{64}) [ *](.+)")


def manifest_text(digests: Dict[str, str]) -> str:
    """The manifest listing ``digests``, path relative to the corpus
    directory -> SHA-256 hex digest, in the format of ``sha256sum``."""
    return "".join(f"{digest}  {name}\n" for name, digest in digests.items())


def matches_digest(data: bytes, digest: Optional[str]) -> bool:
    """Whether ``data`` has the SHA-256 hex ``digest``; never without one."""
    return digest is not None and hashlib.sha256(data).hexdigest() == digest


def read_manifest(corpus_dir: str | Path) -> Dict[str, str]:
    """Path -> SHA-256 hex digest, from the manifest in ``corpus_dir``. A
    missing or unreadable manifest lists nothing, and a malformed line is
    skipped: a corpus file without an entry is validated in full when read."""
    try:
        text = (Path(corpus_dir) / MANIFEST_NAME).read_text(encoding="utf-8")
    except (OSError, ValueError):  # ValueError: not UTF-8
        return {}
    found = (_MANIFEST_LINE.fullmatch(line) for line in text.split("\n"))
    return {m.group(2): m.group(1) for m in found if m}


def load_corpus(path: str | Path) -> list:
    """The instances of a corpus file; a line that repeats an earlier line's
    instance id is rejected. When the file's bytes have the SHA-256 that the
    manifest beside it lists for its name, each graph, which ``generate``
    validated as it wrote it, is built without validating it again; every
    other check runs. A file without a matching entry is validated in full."""
    with open(path, "rb") as handle:
        data = handle.read()
    where = Path(path)
    trusted = matches_digest(data, read_manifest(where.parent).get(where.name))
    convert = partial(instance_from_json, trusted=True) if trusted else instance_from_json
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")  # as a text-mode file iterates
    return list(_objects(path, lines, unique_ids(convert, attrgetter("id"))))


def _stage_to_json(record: StageRecord) -> dict:
    """A stage's line. From its parse it keeps a failed call's ``error`` and
    what reading an EL graph ``file`` gave: the corpus directory may change
    after a run."""
    key, reason, graph = record.instruction, record.parsed.reason or "", record.parsed.graph
    line = {"instruction": key, "raw_output": record.raw_output, "latency_ms": round(record.latency_ms, 3)}
    if reason.startswith(BACKEND_ERROR):
        line["error"] = reason[len(BACKEND_ERROR):]
    elif key == "G:el" and graph is not None:
        line["file"] = {"directed": graph.directed, "edges": edges_to_json(graph)}
    elif key == "G:el" and reason.startswith(FILE_READ_ERROR):
        line["file"] = {"error": reason[len(FILE_READ_ERROR):]}
    return line


def trace_to_json(trace: PipelineTrace) -> dict:
    return {
        "format": TRACE_FORMAT,
        "instance_id": trace.instance_id,
        "task_text": trace.task_text,
        "stages": [_stage_to_json(r) for r in trace.stages],
        "tool_result": None if trace.tool_result is None else answer_to_json(trace.tool_result),
        "tool_error": trace.tool_error,
    }


def _file_graph(file: dict, kind: TaskKind, gold: Optional[Graph]) -> ExtractionResult:
    """What reading an EL graph file gave, from what a stage line stores. A
    record that holds exactly the instance's graph ``gold`` (None when the
    corpus is not known) gives that graph itself; any other is validated."""
    if type(file) is not dict:
        raise ValueError(f"file must be an object, got {type(file).__name__}")
    if "error" in file:
        error = file["error"]
        if type(error) is not str:
            raise ValueError(f"file error must be a string, got {type(error).__name__}")
        return ExtractionResult(reason=FILE_READ_ERROR + error)
    directed = file["directed"]
    if type(directed) is not bool:
        raise ValueError(f"directed must be true or false, got {directed!r}")
    edges = file["edges"]
    if gold is not None and directed is gold.directed and holds(edges, gold):
        return ExtractionResult(graph=gold)
    return ExtractionResult(graph=graph_from_edges(edges, directed, kind.weight_kind))


def trace_from_json(obj: dict, graphs: Optional[Mapping[str, Graph]] = None) -> PipelineTrace:
    """A format-5 trace line, replayed through the pipeline's own
    stages (:func:`~graphstage.pipeline.run_stages`) on its stored replies,
    errors and ``file`` records. Another format (a line without ``format`` is
    format 1), or stored instruction keys other than the ones the replay
    sends, raise ValueError.

    ``graphs`` maps instance ids to the corpus graphs, which were validated
    when the corpus was loaded. A ``file`` record whose direction and flat
    edge array of exact ints are those of its instance's graph gives that
    graph object instead of a rebuilt one; with or without ``graphs``, a
    line loads as the same trace or fails with the same message."""
    version = obj["format"] if "format" in obj else 1
    if version != TRACE_FORMAT:
        raise ValueError(f"unknown trace format {version!r}")
    instance_id = obj["instance_id"]
    kind, size = parse_instance_id(instance_id)[:2]
    gold = None if graphs is None else graphs.get(instance_id)  # a well-formed id: a hashable str
    task_text = obj["task_text"]
    if type(task_text) is not str:
        raise ValueError(f"task_text must be a string, got {type(task_text).__name__}")
    recs = obj["stages"]
    stored = [rec["instruction"] for rec in recs]
    # the pipeline records what the replay's complete raises as a backend
    # error, so each field that complete reads is checked before the replay
    for rec in recs:
        for field, value in (("raw_output", rec["raw_output"]), ("error", rec.get("error", ""))):
            if type(value) is not str:
                raise ValueError(f"{field} must be a string, got {type(value).__name__}")
    replies = iter(recs)
    current = {}

    async def complete(prompt: str) -> str:  # the next stored reply, or its stored error
        nonlocal current
        current = next(replies, {"raw_output": ""})  # a call too many: the keys differ
        if "error" in current:
            raise RuntimeError(current["error"])
        return current["raw_output"]

    def read_file(relative) -> ExtractionResult:  # the stage's stored read stands in for the file
        return _file_graph(current["file"], kind, gold)

    stages = run_blocking(run_stages(instance_id, kind, size, task_text, complete, read_file))
    sent = [r.instruction for r in stages]
    if sent != stored:
        raise ValueError(
            f"the stages store the instruction keys {stored!r}, but on these replies the pipeline sends {sent!r}"
        )
    for record, rec in zip(stages, recs):
        latency_ms = rec["latency_ms"]
        if not (type(latency_ms) is int or type(latency_ms) is float and math.isfinite(latency_ms)):
            raise ValueError(f"latency_ms must be a finite number, got {latency_ms!r}")
        record.latency_ms = latency_ms
    result, tool_error = obj["tool_result"], obj["tool_error"]
    if tool_error is not None and type(tool_error) is not str:
        raise ValueError(f"tool_error must be a string or null, got {type(tool_error).__name__}")
    return PipelineTrace(
        instance_id=instance_id,
        task_text=task_text,
        stages=stages,
        tool_result=None if result is None else answer_from_json(result),
        tool_error=tool_error,
    )


def load_traces(path: str | Path, corpus: Optional[Iterable[TaskInstance]] = None) -> list:
    """The traces of a trace file; a line that repeats an earlier line's
    instance id is rejected.

    ``corpus``, the loaded instances that the traces will be scored against,
    lets an EL graph stage's ``file`` record that holds exactly its
    instance's graph load as that graph, without building and validating it
    again (:func:`trace_from_json`); the traces, and every error, are the
    same without it. It is optional only until trace lines store a digest of
    the file in place of its edges (ROADMAP item 5), which makes it required."""
    graphs = None if corpus is None else {instance.id: instance.graph for instance in corpus}
    convert = partial(trace_from_json, graphs=graphs)
    return list(read_jsonl(path, unique_ids(convert, attrgetter("instance_id"))))
