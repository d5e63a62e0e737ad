"""Differential tests for graph ingest.

`build_graph` (on rows, on columns and through the JSON loader's flat
edge arrays), `read_el_graph_file`, `extract_graph`,
`extract_tool_name`, `extract_file_path` and the generator's pair decoder
each have a fast path. The references below are the plain per-edge
validator, the line-by-line EL parser, the per-match edge extractor, the
published tool-name and file-path patterns (which backtrack in polynomial
time) and the closed-form pair decode, kept here verbatim so the fast code is
always compared against them: same result, or the same exception type and
message, on every input. Where the reference extractor raises,
`extract_graph` returns the failure with that message instead.
"""

from __future__ import annotations

import random
import re
import time
from functools import partial
from math import isqrt
from pathlib import Path

import pytest

from graphstage.codec import (
    EDGE_PATTERNS,
    ExtractionResult,
    MalformedLine,
    extract_file_path,
    extract_graph,
    extract_parameters,
    extract_tool_name,
    format_el_graph,
    read_el_graph_file,
    render_edge_list,
)
from graphstage.generator import _bernoulli_indexes, _decode_pairs, _pair_count
from graphstage.graphs import (
    Graph,
    GraphError,
    InvalidEdge,
    WeightKind,
    WeightMismatch,
    _normalize_edge,
    build_graph,
    canonical_edge_set,
    flat_columns,
    graphs_equal,
)
from graphstage.serialize import graph_from_json
from graphstage.toolset import default_registry


# ---------------------------------------------------------------------------
# references


def reference_build_graph(directed, node_count, edges, weight_kind=WeightKind.NONE):
    kind = WeightKind(weight_kind)
    if node_count < 0:
        raise GraphError(f"node_count must be non-negative, got {node_count}")
    normalized = []
    seen = set()
    for raw in edges:
        u, v, w = _normalize_edge(raw)
        if not (0 <= u < node_count) or not (0 <= v < node_count):
            raise InvalidEdge(f"edge ({u}, {v}) references a node outside 0..{node_count - 1}")
        if u == v:
            raise InvalidEdge(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise InvalidEdge(f"duplicate edge ({u}, {v})")
        seen.add(key)
        if kind is WeightKind.NONE:
            if w is not None:
                raise WeightMismatch(f"edge ({u}, {v}) carries a weight but weight_kind is none")
        else:
            if w is None:
                raise WeightMismatch(f"edge ({u}, {v}) is missing a {kind.value}")
            if w < 1:
                raise WeightMismatch(f"edge ({u}, {v}) has non-positive {kind.value} {w}")
        normalized.append((u, v, w))
    return Graph(bool(directed), node_count, tuple(normalized), kind)


def reference_read_el_graph_file(path, weight_kind):
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
    node_count = 1 + max(max(e[0], e[1]) for e in edges) if edges else 0
    return reference_build_graph(directed, node_count, edges, WeightKind(weight_kind))


def reference_extract_graph(text, weight_kind, directed=False):
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
        g = reference_build_graph(directed, node_count, edges, kind)
    except InvalidEdge as exc:
        return ExtractionResult.failure(f"invalid edge list: {exc}")
    return ExtractionResult.of_graph(g)


REFERENCE_TOOL_NAME_PATTERN = re.compile(r"API_name:\s*(\w+|\n\s*\w+)")
REFERENCE_FILE_PATH_PATTERN = re.compile(r"\S*/\S*?\.edges")


def reference_extract_tool_name(text):
    m = REFERENCE_TOOL_NAME_PATTERN.search(text)
    if not m:
        return ExtractionResult.failure("no API_name anchor")
    return ExtractionResult.of_name(m.group(1).strip())


def reference_extract_file_path(text):
    m = REFERENCE_FILE_PATH_PATTERN.search(text)
    if not m:
        return ExtractionResult.failure("no file path token")
    return ExtractionResult.of_path(m.group(0))


def closed_form_decode_pair(k, n, directed):
    if directed:
        u, r = divmod(k, n - 1)
        return u, r + 1 if r >= u else r
    a = 2 * n - 1
    i = (a - isqrt(a * a - 8 * k)) // 2
    while i * (2 * n - i - 1) // 2 > k:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= k:
        i += 1
    j = k - i * (2 * n - i - 1) // 2 + i + 1
    return i, j


def outcome(fn, *args):
    """repr of the result (so True and 1 differ), or the exception's type and text."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:  # every exception is part of the contract
        return ("raised", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# build_graph

KINDS = (WeightKind.NONE, WeightKind.WEIGHT, WeightKind.CAPACITY)
ODD_VALUES = ("2", 1.0, True, "x", None, 2.5, -1, float("inf"), " 3 ")


def _valid_rows(rng, n, directed, kind):
    pairs = set()
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in pairs and (directed or (v, u) not in pairs):
            pairs.add((u, v))
    order = sorted(pairs)
    rng.shuffle(order)
    if kind is WeightKind.NONE:
        return [(u, v) if rng.random() < 0.9 else (u, v, None) for u, v in order]
    return [(u, v, rng.randint(1, 10)) for u, v in order]


def _corrupt(rng, rows, n):
    """One to three faults of the kinds the validator must name."""
    base, rows = rows, list(rows)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(rows) + 1)
        fault = rng.randrange(9)
        if fault == 0:  # out-of-range id
            rows.insert(at, (rng.choice((-1, n, n + 5)), rng.randrange(n)))
        elif fault == 1:  # self-loop
            x = rng.randrange(n)
            rows.insert(at, (x, x) if rng.random() < 0.5 else (x, x, 3))
        elif fault == 2 and base:  # duplicate, either orientation
            u, v, *rest = rng.choice(base)
            rows.insert(at, (v, u, *rest) if rng.random() < 0.5 else (u, v, *rest))
        elif fault == 3 and base:  # weight added, dropped or None
            u, v, *_ = rng.choice(base)
            rows[rng.randrange(len(rows))] = rng.choice(((u, v), (u, v, None), (u, v, 4)))
        elif fault == 4 and base:  # non-positive weight
            u, v, *_ = rng.choice(base)
            rows[rng.randrange(len(rows))] = (u, v, rng.choice((0, -2)))
        elif fault == 5 and rows:  # a value of another type
            i = rng.randrange(len(rows))
            row = list(rows[i])
            if row:
                row[rng.randrange(len(row))] = rng.choice(ODD_VALUES)
                rows[i] = tuple(row)
        elif fault == 6:  # wrong width
            rows.insert(at, rng.choice(((1,), (0, 1, 2, 3), ())))
        elif fault == 7 and rows:  # a list row instead of a tuple, as JSON gives
            i = rng.randrange(len(rows))
            rows[i] = list(rows[i])
        else:  # a valid-looking row with a string id
            rows.insert(at, (str(rng.randrange(n)), str(rng.randrange(n))))
    return rows


def test_build_graph_matches_per_edge_reference():
    rng = random.Random(20240605)
    raised = 0
    flat_raised = [0, 0]  # flat-form cases accepted, rejected
    for case in range(4000):
        n = rng.randint(1, 12)
        directed = rng.random() < 0.5
        kind = rng.choice(KINDS)
        rows = _valid_rows(rng, n, directed, kind)
        if case % 4:
            rows = _corrupt(rng, rows, n)
        node_count = n if rng.random() < 0.95 else rng.choice((0, -1))
        want = outcome(reference_build_graph, directed, node_count, rows, kind)
        got = outcome(build_graph, directed, node_count, rows, kind)
        assert got == want, (directed, node_count, rows, kind)
        raised += want[0] == "raised"
        width = 2 if kind is WeightKind.NONE else 3
        if all(len(row) == width for row in rows):  # the rows the flat form can hold
            flat = [x for row in rows for x in row]
            got = outcome(partial(build_graph, columns=True), directed, node_count, flat_columns(flat, width), kind)
            assert got == want, (directed, node_count, flat, kind)
            obj = {"directed": directed, "node_count": node_count, "weight_kind": kind.value}
            assert outcome(graph_from_json, dict(obj, edges=flat)) == want, (obj, flat)
            flat_raised[want[0] == "raised"] += 1
    # both the accepting and the rejecting paths are exercised, also in the flat form
    assert 1000 < raised < 3500
    assert min(flat_raised) > 500, flat_raised


@pytest.mark.parametrize(
    "rows, kind",
    [
        ([(0, 1), (1, 2, 3)], WeightKind.NONE),  # mixed widths: the weight is named
        ([(0, 1, None), (1, 2)], WeightKind.NONE),  # mixed widths, all unweighted
        ([(0, 1, 2), (1, 2)], WeightKind.WEIGHT),  # mixed widths: the missing weight
        ([(0, 5), (0, "x")], WeightKind.NONE),  # range error precedes the bad value
        ([(0, "x"), (0, 5)], WeightKind.NONE),  # the bad value comes first
        ([(0, 1, 2), (0, 1, float("inf"))], WeightKind.WEIGHT),  # duplicate before overflow
        ([(True, 2), (1, 2)], WeightKind.NONE),  # bool ids convert, then duplicate
        ([("1", "2"), (2.0, 0)], WeightKind.NONE),  # converted ids build a graph
        ([(0, 1, True)], WeightKind.CAPACITY),
        ([(0, 1), 7], WeightKind.NONE),  # a row without a length
        ([iter((0, 1)), iter((1, 2))], WeightKind.NONE),  # iterable rows without a length
        ([], WeightKind.WEIGHT),
    ],
)
def test_build_graph_edge_cases_match_reference(rows, kind):
    for directed in (False, True):
        want = outcome(reference_build_graph, directed, 3, rows, kind)
        assert outcome(build_graph, directed, 3, rows, kind) == want


def test_build_graph_accepts_any_iterable_once():
    rows = [(0, 1, 2), (1, 2, 3)]
    g = build_graph(False, 3, iter(rows), WeightKind.WEIGHT)
    assert g == reference_build_graph(False, 3, rows, WeightKind.WEIGHT)


def test_graphs_equal_ignores_edge_order():
    rng = random.Random(7)
    for _ in range(300):
        directed = rng.random() < 0.5
        kind = rng.choice(KINDS)
        rows = _valid_rows(rng, 8, directed, kind)
        a = build_graph(directed, 8, rows, kind)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        if not directed:
            shuffled = [(v, u, *rest) if rng.random() < 0.5 else (u, v, *rest) for u, v, *rest in shuffled]
        if shuffled and rng.random() < 0.3:
            shuffled.pop()
        b = build_graph(directed, 8, shuffled, kind)
        assert graphs_equal(a, b) == (canonical_edge_set(a) == canonical_edge_set(b))


# ---------------------------------------------------------------------------
# read_el_graph_file

BAD_HEADERS = ("Directed", "directed ", " undirected", "", "﻿directed", "graph", "directed,")


def _el_variant(rng, text):
    """format_el_graph output with zero or more of the deviations a file may have."""
    header, _, body = text.partition("\n")
    lines = body.splitlines()
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        change = rng.randrange(11)
        at = rng.randrange(len(lines) + 1)
        if change == 0:
            lines.insert(at, rng.choice(("", "  ", "\t")))
        elif change == 1 and lines:  # extra spaces
            i = rng.randrange(len(lines))
            lines[i] = rng.choice((" ", "")) + lines[i].replace(", ", " ,  ") + rng.choice((" ", ""))
        elif change == 2 and lines:  # negative id
            i = rng.randrange(len(lines))
            lines[i] = "-" + lines[i]
        elif change == 3:  # self-loop
            x = rng.randrange(5)
            lines.insert(at, rng.choice((f"{x}, {x}", f"{x}, {x}, 2")))
        elif change == 4 and lines:  # width changed on one line
            i = rng.randrange(len(lines))
            parts = lines[i].split(", ")
            lines[i] = ", ".join(parts[:2]) if len(parts) == 3 else lines[i] + ", 5"
        elif change == 5 and lines:  # Unicode digits: decimal ones convert, superscripts do not
            i = rng.randrange(len(lines))
            lines[i] = lines[i].replace("1", rng.choice(("１", "١", "¹")), 1)
        elif change == 6:
            header = rng.choice(BAD_HEADERS)
        elif change == 7:
            lines.insert(at, rng.choice(("a, b", "1, 2, 3, 4", "1", "1,2", "1 2", "+1, 2", "1, 2,")))
        elif change == 8 and lines:  # duplicate line
            lines.insert(at, lines[rng.randrange(len(lines))])
        elif change == 9 and lines:  # zero weight
            i = rng.randrange(len(lines))
            parts = lines[i].split(", ")
            if len(parts) == 3:
                lines[i] = f"{parts[0]}, {parts[1]}, 0"
        else:  # an extra edge, perhaps with a leading zero
            lines.insert(at, f"{rng.choice(('', '0'))}{rng.randrange(9)}, {rng.randrange(9)}")
    ending = rng.choice(("\n", "\n", "\r\n", "\r"))
    out = ending.join([header] + lines)
    return out if rng.random() < 0.2 else out + ending


def test_read_el_graph_file_matches_line_parser(tmp_path):
    rng = random.Random(20240606)
    path = tmp_path / "g.edges"
    raised = 0
    for case in range(1500):
        n = rng.randint(2, 15)
        directed = rng.random() < 0.5
        kind = rng.choice(KINDS)
        g = build_graph(directed, n, _valid_rows(rng, n, directed, kind), kind)
        text = format_el_graph(g) if case % 3 == 0 else _el_variant(rng, format_el_graph(g))
        path.write_bytes(text.encode("utf-8"))
        weight_kind = rng.choice((WeightKind.NONE, WeightKind.WEIGHT, WeightKind.CAPACITY))
        want = outcome(reference_read_el_graph_file, path, weight_kind)
        got = outcome(read_el_graph_file, path, weight_kind)
        assert got == want, (text, weight_kind)
        raised += want[0] == "raised"
    assert 300 < raised < 1200


@pytest.mark.parametrize(
    "text",
    [
        "undirected\n",
        "directed",
        "",
        "undirected\n0, 1\n1, 2\n",
        "undirected\n0, 1\n1, 0\n",  # duplicate, named by build_graph
        "directed\n0, 1, 4\n1, 2, 0\n",  # non-positive weight
        "directed\n0, 1, 4\n1, 2\n",  # mixed widths
        "directed\n0, 1\n\n1, 2\n",  # blank line
        "directed\r\n0, 1\r\n1, 2\r\n",  # CRLF
        "directed\n0, 1\n1, 2",  # no final newline
        "directed\n0,  1\n",  # extra space
        "directed\n-1, 2\n",  # negative
        "directed\n0, 1\n3, 3\n",  # self-loop on line 3
        "directed\n0, 1\n3, 3\n-1, 2\n",  # the first bad line is named
        "directed\n007, 1\n",  # leading zeros
        "directed\n0, 1\n1, 00\n",
        "directed\n０, 1\n",  # fullwidth digit
        "directed\n², 1\n",  # superscript digit
        "Directed\n0, 1\n",
        "undirected \n0, 1\n",
        "directed\n0, 1\n2, 2\n" + "9" * 5000 + ", 1\n",  # self-loop before a too-long number
        "directed\n" + "9" * 5000 + ", 1\n",
    ],
)
def test_read_el_graph_file_edge_cases_match_line_parser(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_bytes(text.encode("utf-8"))
    for weight_kind in (WeightKind.NONE, WeightKind.CAPACITY):
        want = outcome(reference_read_el_graph_file, path, weight_kind)
        assert outcome(read_el_graph_file, path, weight_kind) == want


# ---------------------------------------------------------------------------
# extract_graph

# decimal digits of other scripts match \\d and convert with int(); the
# superscript does neither
DIGITS = ("１", "١", "৩", "٥", "¹")


def _extraction_text(rng, g):
    """A rendered edge list with the deviations a model reply may have."""
    entries = re.findall(r"\(.*?\)", render_edge_list(g))
    for _ in range(rng.choice((0, 1, 2, 3))):
        change = rng.randrange(7)
        at = rng.randrange(len(entries) + 1)
        if change == 0 and entries:  # duplicate entry, maybe reversed
            u, v, *rest = entries[rng.randrange(len(entries))][1:-1].split(", ", 2)
            entries.insert(at, f"({v}, {u}{''.join(', ' + r for r in rest)})" if rng.random() < 0.5
                           else f"({u}, {v}{''.join(', ' + r for r in rest)})")
        elif change == 1:  # self-loop
            x = rng.randrange(g.node_count)
            entries.insert(at, rng.choice((f"({x}, {x})", f"({x}, {x}, {{'weight': 2}})")))
        elif change == 2 and entries:  # a digit of another script
            i = rng.randrange(len(entries))
            digit = rng.choice("0123456789")
            entries[i] = entries[i].replace(digit, rng.choice(DIGITS), 1)
        elif change == 3 and entries:  # zero weight or spacing inside the weight
            i = rng.randrange(len(entries))
            entries[i] = entries[i].replace(": ", rng.choice((": 0", ":", ":\n  ")), 1)
        elif change == 4:  # an entry of the other weight kind, or malformed
            entries.insert(at, rng.choice(("(1, 2)", "(1, 2, {'capacity': 3})", "(1,2)", "(a, b)", "(3, 4, 5)")))
        elif change == 5 and entries:  # leading zeros
            i = rng.randrange(len(entries))
            entries[i] = "(0" + entries[i][1:]
        else:
            rng.shuffle(entries)
    return rng.choice(("The edges are: ", "", "edges: ")) + ", ".join(entries) + rng.choice(("", ".", " (done)"))


def reference_outcome(text, weight_kind, directed):
    """outcome() of the reference extractor, with its raise mapped to the
    failure that extract_graph returns instead: model text never raises."""
    try:
        result = reference_extract_graph(text, weight_kind, directed)
    except GraphError as exc:  # a zero weight
        result = ExtractionResult.failure(f"invalid edge list: {exc}")
    except ValueError as exc:  # a number past int's digit limit
        result = ExtractionResult.failure(f"edge number: {exc}")
    return ("ok", repr(result))


def test_extract_graph_matches_per_match_reference():
    rng = random.Random(20240607)
    failures = 0
    for case in range(1500):
        n = rng.randint(2, 15)
        directed = rng.random() < 0.5
        kind = rng.choice(KINDS)
        g = build_graph(directed, n, _valid_rows(rng, n, directed, kind), kind)
        text = _extraction_text(rng, g)
        as_kind = kind if rng.random() < 0.9 else rng.choice(KINDS)
        as_directed = directed if rng.random() < 0.9 else not directed
        want = reference_outcome(text, as_kind, as_directed)
        assert outcome(extract_graph, text, as_kind, as_directed) == want, (text, as_kind, as_directed)
        failures += "failure" in want[1]
    # extraction succeeds and fails, a zero weight included, on both sides
    assert 150 < failures < 1200


@pytest.mark.parametrize(
    "text, kind",
    [
        ("", WeightKind.NONE),
        ("(0, 1), (1, 0)", WeightKind.NONE),
        ("(0, 1), (1, 0)", WeightKind.WEIGHT),
        ("(０, １), (２, ١)", WeightKind.NONE),
        ("(0, ¹), (0, 2)", WeightKind.NONE),
        ("(1, 2, {'weight':0})", WeightKind.WEIGHT),
        ("(1, 2, {'capacity': 3}), (2, 1, {'capacity':\t4})", WeightKind.CAPACITY),
        ("(1, 1), (2, 2)", WeightKind.NONE),
        # two numbers past int's digit limit: the first in text order is named
        (f"(0, {'7' * 5000}), ({'9' * 4400}, 1)", WeightKind.NONE),
        (f"(0, 1, {{'weight': {'8' * 4500}}}), ({'9' * 4400}, 1, {{'weight': 2}})", WeightKind.WEIGHT),
    ],
)
def test_extract_graph_edge_cases_match_reference(text, kind):
    for directed in (False, True):
        assert outcome(extract_graph, text, kind, directed) == reference_outcome(text, kind, directed)


# ---------------------------------------------------------------------------
# extract_tool_name and extract_file_path

# pieces of a model reply: prose, near misses and nested paths; glued
# together without a separator they make tokens of several pieces
REPLY_PIECES = (
    "The", "graph", "file", "path", "is:", "API_name:", "API_name", "api_name:", "edge_count",
    "shortest_path", "naïve_tool", "٣x", "-", "(", ")", "'", '"', ",", ".", "/", "//", "a/", "/b",
    "graphs/g-00001.edges", "a/b.edges/c.edges", "a/b.edgesc/d.edges.edges", "x.edges", ".edges",
    "/.edges", "a/.edges.edges", ".edges/", "a/b.edge", "a/b.EDGES", "data/sample_graph.edges",
    "../up/x.edges", "/abs/y.edges", "C:\\dir\\z.edges", "a/b.edges,", "(a/b.edges)",
)
REPLY_SPACES = (" ", " ", "\n", "\n\n", "\t", " \n  ", "\r\n", "\xa0", "\u3000", "\u2028", "\x0b", "\x1c", "")


def _reply_text(rng):
    parts = []
    for _ in range(rng.randint(0, 14)):
        parts.append(rng.choice(REPLY_PIECES))
        parts.append(rng.choice(REPLY_SPACES) * rng.choice((1, 1, 2, 5)))
    return "".join(parts)


def test_tool_name_and_file_path_match_the_published_patterns():
    rng = random.Random(20241019)
    found = {"name": 0, "path": 0}
    for _ in range(6000):
        text = _reply_text(rng)
        want = outcome(reference_extract_tool_name, text)
        assert outcome(extract_tool_name, text) == want, text
        found["name"] += "failure" not in want[1]
        want = outcome(reference_extract_file_path, text)
        assert outcome(extract_file_path, text) == want, text
        found["path"] += "failure" not in want[1]
    # both extractors succeed and fail
    assert all(300 < count < 5700 for count in found.values()), found


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a/b.edges/c.edges",
        "see a/b.edges/c.edges.edges, then d/e.edges",
        "x.edges a/b.edgesc/d.edges.edges",
        "/.edges",
        ".edges/.edges",
        "a//b/.edges",
        "API_name:\n\n   node_count",
        "API_name: \n",
        "API_name:\u3000\n edge_count",
        "API_name:API_name: edge_count",
        "API_name:-edge_count API_name: node_count",
        "API_name:\n\n",
    ],
)
def test_tool_name_and_file_path_edge_cases_match_the_published_patterns(text):
    assert outcome(extract_tool_name, text) == outcome(reference_extract_tool_name, text)
    assert outcome(extract_file_path, text) == outcome(reference_extract_file_path, text)


SHORTEST_PATH = default_registry().get("shortest_path")

# 64 KB replies built to make a backtracking pattern retry each position;
# the published file-path and tool-name patterns take minutes on them
ADVERSARIAL_REPLIES = {
    "extract_file_path": (
        "a/" * 32768,
        "/" * 65536,
        ".edges" * 10923,
        "a/.edge" * 9362,
        ("a/" * 127 + "b.edge ") * 246,
    ),
    "extract_tool_name": (
        "API_name:" + "\n" * 65536,
        "API_name:" + " \n" * 32768,
        ("API_name:" + "\n" * 200 + "-") * 312,
        "API_name:" * 7282,
    ),
    "extract_graph": (
        "(1, " * 16384,
        "(1, 2, {'weight':" + " " * 65536,
        "(1, 2, {'weight': " * 3641,
        "(" + "1" * 65536,
        "(1, 2), " * 8192,
    ),
    "extract_parameters": (
        "source=" + " " * 65536,
        "source" + " " * 65536 + "=",
        "source = 1, target =" + " " * 65536,
        "G," + " " * 65536,
        "G, 1," * 13107,
        "target=" + "9" * 65536,
    ),
}
EXTRACTORS = {
    "extract_file_path": extract_file_path,
    "extract_tool_name": extract_tool_name,
    "extract_graph": partial(extract_graph, weight_kind=WeightKind.WEIGHT),
    "extract_parameters": partial(extract_parameters, spec=SHORTEST_PATH),
}


@pytest.mark.parametrize("name", list(ADVERSARIAL_REPLIES))
def test_extractors_take_linear_time_on_adversarial_replies(name):
    for text in ADVERSARIAL_REPLIES[name]:
        assert len(text) >= 64_000
        start = time.perf_counter()
        result = EXTRACTORS[name](text)
        elapsed = time.perf_counter() - start
        assert isinstance(result, ExtractionResult)
        assert elapsed < 2.0, (name, text[:40], elapsed)  # a few ms when linear


# ---------------------------------------------------------------------------
# pair decode


@pytest.mark.parametrize("directed", [False, True])
def test_decode_pairs_matches_closed_form_for_every_index(directed):
    for n in range(2, 101):
        count = _pair_count(n, directed)
        want = [closed_form_decode_pair(k, n, directed) for k in range(count)]
        assert _decode_pairs(range(count), n, directed) == want, n


@pytest.mark.parametrize("directed", [False, True])
def test_decode_pairs_matches_closed_form_on_sparse_draws(directed):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 100)
        picked = _bernoulli_indexes(_pair_count(n, directed), rng.uniform(0.01, 0.3), rng)
        want = [closed_form_decode_pair(k, n, directed) for k in picked]
        assert _decode_pairs(picked, n, directed) == want
