"""Rendering graphs into task text and pulling structure back out of model output.

The extraction layer is regex-only by design: the patterns below are the
normative wire format, and renders are formatted so they match exactly
(single space after each comma, straight single quotes). Extraction failures
are returned as values, never raised, because the evaluation layer counts
them as syntax errors.

Exported patterns:

    EDGE_PATTERNS["none"]     = \\((\\d+), (\\d+)\\)
    EDGE_PATTERNS["weight"]   = \\((\\d+), (\\d+), \\{'weight':\\s*(\\d+)\\}\\)
    EDGE_PATTERNS["capacity"] = \\((\\d+), (\\d+), \\{'capacity':\\s*(\\d+)\\}\\)
    TOOL_NAME_PATTERN         = API_name:\\s*(\\w+)
    named parameter           = <name>\\s*=\\s*(\\d+), one search per parameter name
    positional fallback       = G,\\s*(\\d+)(,\\s*(\\d+))...

The published unweighted pattern opens with a stray "$" and the tool-name
pattern closes with a stray double quote; both are typesetting artifacts and
are anchored on the literal parentheses / dropped here. The tool-name
pattern's published second branch, ``\\n\\s*\\w+``, matches nothing the first
does not, and it made a search quadratic in a run of newlines: every
extractor here runs in time linear in the length of the model output.

An EL graph file (:func:`format_el_graph`) is read by one line parser, which
names the first bad line. The one exception is a file whose bytes are exactly
what ``format_el_graph`` writes for the graph that the caller expects, as
``generate`` wrote it: it reads as that graph object, unparsed.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Tuple

from .graphs import Graph, GraphError, WeightKind, build_graph, flat_columns

GRAPH_FILE_SUFFIX = ".edges"

EDGE_PATTERNS = {
    WeightKind.NONE: re.compile(r"\((\d+), (\d+)\)"),
    WeightKind.WEIGHT: re.compile(r"\((\d+), (\d+), \{'weight':\s*(\d+)\}\)"),
    WeightKind.CAPACITY: re.compile(r"\((\d+), (\d+), \{'capacity':\s*(\d+)\}\)"),
}

TOOL_NAME_PATTERN = re.compile(r"API_name:\s*(\w+)")

# a graph reply may name node ids below this bound only. The node count of an
# extracted graph is its highest id + 1, and the tools allocate and loop per
# node, so one reply naming node 10**8 would take gigabytes. Generated graphs
# have at most 100 nodes (generator.SIZE_NODE_RANGE); at the bound the slowest
# tool takes a few ms.
NODE_ID_BOUND = 10_000

# a whitespace-delimited token that holds the graph file suffix; the
# lookbehind lets a search try each token from its start only
_SUFFIX_TOKEN = re.compile(r"(?<!\S)\S*\.edges\S*")


@dataclass(frozen=True)
class ExtractionResult:
    """What an extractor found: one of graph / name / params / path, or the
    ``reason`` it found none."""

    graph: Optional[Graph] = None
    name: Optional[str] = None
    params: Optional[Tuple[int, ...]] = None
    path: Optional[str] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.reason is None


def render_edge_list(g: Graph) -> str:
    """Comma-separated edge entries in the exact format the patterns match."""
    parts = []
    for u, v, w in g.edges:
        if g.weight_kind is WeightKind.NONE:
            parts.append(f"({u}, {v})")
        else:
            parts.append(f"({u}, {v}, {{'{g.weight_kind.value}': {w}}})")
    return ", ".join(parts)


def extract_graph(
    text: str, weight_kind: WeightKind | str, directed: bool = False
) -> ExtractionResult:
    """Collect every edge match and rebuild a graph with node_count = max id + 1.
    A node id of :data:`NODE_ID_BOUND` or more fails the extraction."""
    kind = WeightKind(weight_kind)
    matches = EDGE_PATTERNS[kind].findall(text)
    if not matches:
        return ExtractionResult(reason="no edge matches")
    try:
        numbers = list(map(int, chain.from_iterable(matches)))  # text order: the first bad one is named
    except ValueError as exc:  # a number past int's digit limit
        return ExtractionResult(reason=f"edge number: {exc}")
    columns = flat_columns(numbers, len(matches[0]))
    top = max(max(columns[0]), max(columns[1]))
    if top >= NODE_ID_BOUND:
        return ExtractionResult(reason=f"node id {top} is not below the bound {NODE_ID_BOUND}")
    try:
        g = build_graph(directed, None, columns, kind, columns=True)
    except GraphError as exc:
        return ExtractionResult(reason=f"invalid edge list: {exc}")
    return ExtractionResult(graph=g)


def extract_tool_name(text: str) -> ExtractionResult:
    m = TOOL_NAME_PATTERN.search(text)
    if not m:
        return ExtractionResult(reason="no API_name anchor")
    return ExtractionResult(name=m.group(1))


def extract_parameters(text: str, spec) -> ExtractionResult:
    """Parameter values in spec order.

    The named form is tried first, one search per parameter name so the
    values come back in spec order no matter how the text orders them; the
    positional "G, ..." form is the fallback.
    """
    names = [name for name, _ in spec.parameters]
    if not names:
        return ExtractionResult(reason="tool takes no parameters")
    named = [re.search(rf"{re.escape(name)}\s*=\s*(\d+)", text) for name in names]
    if all(named):
        values = [m.group(1) for m in named]
    else:
        m = re.search(r"(?:G" + r",\s*(\d+)" * len(names) + ")", text)
        values = m.groups() if m else None
    if values is not None:
        try:
            return ExtractionResult(params=tuple(map(int, values)))
        except ValueError as exc:  # a number past int's digit limit
            return ExtractionResult(reason=f"parameter value: {exc}")
    return ExtractionResult(
        reason=f"arity: expected {len(names)} parameter(s) {names}, found neither named nor positional form"
    )


def extract_file_path(text: str) -> ExtractionResult:
    """First token that looks like a graph file path (has a separator, .edges
    suffix): what ``\\S*/\\S*?\\.edges`` matches, found without backtracking."""
    for m in _SUFFIX_TOKEN.finditer(text):
        token = m.group()
        slash = token.rfind("/", 0, token.rfind(GRAPH_FILE_SUFFIX))
        if slash >= 0:
            end = token.index(GRAPH_FILE_SUFFIX, slash) + len(GRAPH_FILE_SUFFIX)
            return ExtractionResult(path=token[:end])
    return ExtractionResult(reason="no file path token")


class MalformedLine(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def format_el_graph(g: Graph) -> str:
    """File body: a directedness header, then one "u, v[, w]" line per edge."""
    lines = ["directed" if g.directed else "undirected"]
    for u, v, w in g.edges:
        lines.append(f"{u}, {v}" if w is None else f"{u}, {v}, {w}")
    return "\n".join(lines) + "\n"


# a graph file's edge line: 2 or 3 comma-separated numbers of ASCII digits, each
# perhaps after a minus sign (\d also takes other scripts' digits), in whitespace
_EL_LINE = re.compile(r"\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*(?:,\s*(-?[0-9]+)\s*)?")


def read_el_graph_file(path: str | Path, weight_kind: WeightKind | str, expected: Optional[Graph] = None) -> Graph:
    """Parse a graph file; node_count is reconstructed as max id + 1.

    weight_kind is the graph's: the file format itself does not record
    whether a third column is a weight or a capacity.

    ``expected`` is a graph of weight_kind that was validated before, with
    its node count derived from its edges, such as the corpus graph of the
    instance whose file this is. A file whose bytes are exactly what
    :func:`format_el_graph` writes for it, as ``generate`` wrote the file,
    gives ``expected`` itself. Any other file goes through the line parser,
    and gives what it gives without ``expected``.
    """
    data = Path(path).read_bytes()
    if expected is not None and data == format_el_graph(expected).encode("ascii"):
        return expected
    return _read_el_lines(data, weight_kind)


def _read_el_lines(data: bytes, weight_kind: WeightKind | str) -> Graph:
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()  # as a text-mode read decodes it
    lines = text.splitlines()
    if not lines or lines[0].strip() not in ("directed", "undirected"):
        raise MalformedLine(1, "expected 'directed' or 'undirected' header")
    directed = lines[0].strip() == "directed"
    edges = []
    widths = set()
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        m = _EL_LINE.fullmatch(line)
        if m is None:
            raise MalformedLine(i, f"expected 'u, v' or 'u, v, w', got {line!r}")
        u, v, w = m.groups()
        try:
            nums = (int(u), int(v)) if w is None else (int(u), int(v), int(w))
        except ValueError as exc:  # a number past int's digit limit
            raise MalformedLine(i, f"edge number: {exc}") from None
        if nums[0] == nums[1]:
            raise MalformedLine(i, f"self-loop ({nums[0]}, {nums[1]})")
        if min(nums[:2]) < 0:
            raise MalformedLine(i, f"negative node id in {line!r}")
        widths.add(len(nums))
        edges.append(nums)
    if len(widths) > 1:
        raise MalformedLine(1, "mixed weighted and unweighted edge lines")
    return build_graph(directed, None, edges, WeightKind(weight_kind))
