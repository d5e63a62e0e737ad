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
    TOOL_NAME_PATTERN         = API_name:\\s*(\\w+|\\n\\s*\\w+)
    named parameter           = <name>\\s*=\\s*(\\d+), one search per parameter name
    positional fallback       = G,\\s*(\\d+)(,\\s*(\\d+))...

The published unweighted pattern opens with a stray "$" and the tool-name
pattern closes with a stray double quote; both are typesetting artifacts and
are anchored on the literal parentheses / dropped here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .graphs import Graph, InvalidEdge, WeightKind, build_graph

GRAPH_FILE_SUFFIX = ".edges"

EDGE_PATTERNS = {
    WeightKind.NONE: re.compile(r"\((\d+), (\d+)\)"),
    WeightKind.WEIGHT: re.compile(r"\((\d+), (\d+), \{'weight':\s*(\d+)\}\)"),
    WeightKind.CAPACITY: re.compile(r"\((\d+), (\d+), \{'capacity':\s*(\d+)\}\)"),
}

TOOL_NAME_PATTERN = re.compile(r"API_name:\s*(\w+|\n\s*\w+)")

FILE_PATH_PATTERN = re.compile(r"\S*/\S*?\.edges")


@dataclass(frozen=True)
class ExtractionResult:
    """Tagged union: graph / name / params / path on success, failure otherwise."""

    kind: str
    graph: Optional[Graph] = None
    name: Optional[str] = None
    params: Optional[Tuple[int, ...]] = None
    path: Optional[str] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.kind != "failure"

    @staticmethod
    def of_graph(g: Graph) -> "ExtractionResult":
        return ExtractionResult("graph", graph=g)

    @staticmethod
    def of_name(name: str) -> "ExtractionResult":
        return ExtractionResult("name", name=name)

    @staticmethod
    def of_params(values: Sequence[int]) -> "ExtractionResult":
        return ExtractionResult("params", params=tuple(int(v) for v in values))

    @staticmethod
    def of_path(path: str) -> "ExtractionResult":
        return ExtractionResult("path", path=path)

    @staticmethod
    def failure(reason: str) -> "ExtractionResult":
        if not reason:
            raise ValueError("failure reason must be non-empty")
        return ExtractionResult("failure", reason=reason)


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
    """Collect every edge match and rebuild a graph with node_count = max id + 1."""
    kind = WeightKind(weight_kind)
    pattern = EDGE_PATTERNS[kind]
    edges = []
    for m in pattern.finditer(text):
        if kind is WeightKind.NONE:
            edges.append((int(m.group(1)), int(m.group(2))))
        else:
            edges.append((int(m.group(1)), int(m.group(2)), int(m.group(3))))
    if not edges:
        return ExtractionResult.failure("no edge matches")
    node_count = 1 + max(max(e[0], e[1]) for e in edges)
    try:
        g = build_graph(directed, node_count, edges, kind)
    except InvalidEdge as exc:
        return ExtractionResult.failure(f"invalid edge list: {exc}")
    return ExtractionResult.of_graph(g)


def extract_tool_name(text: str) -> ExtractionResult:
    m = TOOL_NAME_PATTERN.search(text)
    if not m:
        return ExtractionResult.failure("no API_name anchor")
    return ExtractionResult.of_name(m.group(1).strip())


def positional_parameter_template(arity: int) -> str:
    return r"(?:G" + r",\s*(\d+)" * arity + ")"


def extract_parameters(text: str, spec) -> ExtractionResult:
    """Parameter values in spec order.

    The named form is tried first, one search per parameter name so the
    values come back in spec order no matter how the text orders them; the
    positional "G, ..." form is the fallback.
    """
    names = [name for name, _ in spec.parameters]
    if not names:
        return ExtractionResult.failure("tool takes no parameters")
    values = []
    for name in names:
        m = re.search(rf"{re.escape(name)}\s*=\s*(\d+)", text)
        if m is None:
            values = None
            break
        values.append(int(m.group(1)))
    if values is not None:
        return ExtractionResult.of_params(values)
    m = re.search(positional_parameter_template(len(names)), text)
    if m is not None:
        return ExtractionResult.of_params(int(v) for v in m.groups())
    return ExtractionResult.failure(
        f"arity: expected {len(names)} parameter(s) {names}, found neither "
        "named nor positional form"
    )


def extract_file_path(text: str) -> ExtractionResult:
    """First token that looks like a graph file path (has a separator, .edges suffix)."""
    m = FILE_PATH_PATTERN.search(text)
    if not m:
        return ExtractionResult.failure("no file path token")
    return ExtractionResult.of_path(m.group(0))


class MalformedLine(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def write_el_graph_file(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_el_graph(g), encoding="utf-8")


def format_el_graph(g: Graph) -> str:
    """File body: a directedness header, then one "u, v[, w]" line per edge."""
    lines = ["directed" if g.directed else "undirected"]
    for u, v, w in g.edges:
        lines.append(f"{u}, {v}" if w is None else f"{u}, {v}, {w}")
    return "\n".join(lines) + "\n"


def read_el_graph_file(
    path: str | Path, weight_kind: WeightKind | str | None = None
) -> Graph:
    """Parse a graph file; node_count is reconstructed as max id + 1.

    weight_kind disambiguates weight vs capacity for three-column files
    (the file format itself does not record which); when omitted, three
    columns are read as plain weights.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() not in ("directed", "undirected"):
        raise MalformedLine(1, "expected 'directed' or 'undirected' header")
    directed = lines[0].strip() == "directed"
    edges = []
    widths = set()
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3) or not all(p.lstrip("-").isdigit() for p in parts):
            raise MalformedLine(i, f"expected 'u, v' or 'u, v, w', got {line!r}")
        nums = [int(p) for p in parts]
        if nums[0] == nums[1]:
            raise MalformedLine(i, f"self-loop ({nums[0]}, {nums[1]})")
        if min(nums[:2]) < 0:
            raise MalformedLine(i, f"negative node id in {line!r}")
        widths.add(len(parts))
        edges.append(tuple(nums))
    if len(widths) > 1:
        raise MalformedLine(1, "mixed weighted and unweighted edge lines")
    if weight_kind is None:
        kind = WeightKind.NONE if widths == {2} or not widths else WeightKind.WEIGHT
    else:
        kind = WeightKind(weight_kind)
    node_count = 1 + max(max(e[0], e[1]) for e in edges) if edges else 0
    return build_graph(directed, node_count, edges, kind)
