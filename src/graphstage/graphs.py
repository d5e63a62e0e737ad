"""Canonical graph representation shared by every other module.

Graphs are immutable once built: nodes are the dense ids ``0..node_count-1``,
edges are simple (no self-loops, no duplicates) and carry an integer weight
exactly when ``weight_kind`` says they should.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence, Tuple

Edge = Tuple[int, int, Optional[int]]


class WeightKind(str, Enum):
    NONE = "none"
    WEIGHT = "weight"
    CAPACITY = "capacity"


class GraphError(ValueError):
    """Base class for graph construction failures."""


class InvalidEdge(GraphError):
    """Edge references an unknown node, is a self-loop, or repeats another edge."""


class WeightMismatch(GraphError):
    """Weight presence on an edge disagrees with the graph's weight kind."""


@dataclass(frozen=True)
class Graph:
    directed: bool
    node_count: int
    edges: Tuple[Edge, ...]
    weight_kind: WeightKind

    @property
    def weighted(self) -> bool:
        return self.weight_kind is not WeightKind.NONE


def _normalize_edge(raw) -> Edge:
    if len(raw) == 2:
        u, v = raw
        return (int(u), int(v), None)
    if len(raw) == 3:
        u, v, w = raw
        return (int(u), int(v), None if w is None else int(w))
    raise InvalidEdge(f"edge must have 2 or 3 components, got {raw!r}")


def build_graph(
    directed: bool,
    node_count: Optional[int],
    edges: Iterable[Sequence],
    weight_kind: WeightKind | str = WeightKind.NONE,
    *,
    columns: bool = False,
) -> Graph:
    """Validate and freeze a graph.

    ``edges`` is an iterable of ``(u, v)`` / ``(u, v, w)`` rows, or with
    ``columns=True`` the columns ``(us, vs)`` or ``(us, vs, ws)`` of such
    rows: equal-length sequences, e.g. the strided slices ``flat[0::w]``,
    ``flat[1::w]``, ``flat[2::3]`` of a flat edge array. Rows convert their
    values through ``int()``; columns hold exact ints only (not bools), and
    raise GraphError naming the first other value in row order. Otherwise
    both forms give the same graph, or raise the same exception.

    A ``node_count`` of None is derived: the highest node id + 1, or 0
    without edges. That is all a graph read back from its edges can know.

    Raises InvalidEdge for out-of-range ids, self-loops and duplicates
    (undirected duplicates are checked orientation-insensitively), and
    WeightMismatch when weight presence disagrees with ``weight_kind``.

    The checks run column-wise with builtins first (min/max, set sizes,
    counts), which accepts a valid edge list of exact ints at builtin speed.
    If a column check fails or a column holds another value, the per-edge
    loop runs instead and raises for the first bad edge in list order, so the
    exception does not depend on which check saw the fault.
    """
    kind = WeightKind(weight_kind)
    if node_count is not None and node_count < 0:
        raise GraphError(f"node_count must be non-negative, got {node_count}")
    if columns:
        cols = tuple(edges)
        if len(cols) not in (2, 3) or len(set(map(len, cols))) > 1:
            raise InvalidEdge(f"expected 2 or 3 edge columns of one length, got {len(cols)}")
        rows = None
    else:
        rows = list(edges)
    try:
        if rows is not None:
            cols = _columns(rows)
        checked = None if cols is None else _checked_columns(directed, node_count, *cols, kind=kind)
    except (TypeError, ValueError, OverflowError):  # a row without a length, a value that does not convert
        checked = None
    if checked is None:  # edges that pass one by one (mixed row widths) pass the column check too
        if rows is None:
            rows = list(zip(*cols))
            odd = [value for value in chain.from_iterable(rows) if type(value) is not int]
            if odd:
                raise GraphError(f"edges must be a flat integer array, found {odd[0]!r}")
        valid = _checked_edges(directed, node_count, rows, kind)
        checked = _checked_columns(directed, node_count, *zip(*valid), kind=kind)
    return Graph(bool(directed), *checked, kind)


def trusted_graph(directed: bool, columns: tuple, weight_kind: WeightKind) -> Graph:
    """The graph of edge columns (as :func:`build_graph` takes them) that
    ``build_graph`` accepted when they were written, such as those of a corpus
    file whose bytes match their recorded SHA-256: nothing is checked again. The
    node count is derived, as ``build_graph`` derives a ``node_count`` of None."""
    us, vs = columns[0], columns[1]
    ws = columns[2] if weight_kind is not WeightKind.NONE else repeat(None)
    node_count = 1 + max(max(us), max(vs)) if us else 0
    return Graph(bool(directed), node_count, tuple(zip(us, vs, ws)), weight_kind)


def holds(flat, graph: Graph) -> bool:
    """Whether ``flat``, the decoded ``edges`` of a trace's ``file`` record,
    is the flat edge array ``[u0, v0, (w0,) u1, …]`` of ``graph``: its edges
    in order, of exact ints only (a float or a bool may equal an int, but it
    is not one). For a graph whose node count is derived from its edges, as
    that of every corpus graph is, the array then builds ``graph`` with
    ``graph``'s direction and weight kind."""
    if type(flat) is not list or len(flat) != (3 if graph.weighted else 2) * len(graph.edges):
        return False
    values = iter(flat)
    rows = zip(values, values, values if graph.weighted else repeat(None))
    return all(map(operator.eq, rows, graph.edges)) and list(map(type, flat)).count(int) == len(flat)


def flat_columns(flat: list, width: int) -> tuple:
    """The edge columns of a flat ``[u0, v0, (w0,) u1, …]`` list that holds
    ``width`` values per edge, as strided slices."""
    if width == 3:
        return flat[0::3], flat[1::3], flat[2::3]
    return flat[0::2], flat[1::2]


def _columns(rows: list) -> Optional[tuple]:
    """The columns of rows that all have 2 or all have 3 components, else None
    (mixed widths are left to the per-edge loop)."""
    if not rows:
        return ((), ())
    widths = set(map(len, rows))
    return tuple(zip(*rows)) if widths == {2} or widths == {3} else None


def _checked_columns(
    directed: bool,
    node_count: Optional[int],
    us: Sequence,
    vs: Sequence,
    ws: Optional[Sequence] = None,
    *,
    kind: WeightKind,
) -> Optional[Tuple[int, Tuple[Edge, ...]]]:
    """The node count (None is derived here, the one place) and the normalized
    edges when every edge passes, else None. ``ws`` is None without weights."""
    if not us:
        return 0 if node_count is None else node_count, ()
    if set(map(type, us)) != {int} or set(map(type, vs)) != {int}:  # exact ints only, not bools
        return None
    ids = {*us, *vs}
    if min(ids) < 0 or node_count is not None and max(ids) >= node_count:
        return None
    if any(map(operator.eq, us, vs)):
        return None
    if directed:
        distinct = len(set(zip(us, vs)))
    else:
        distinct = len({(u, v) if u < v else (v, u) for u, v in zip(us, vs)})
    if distinct != len(us):
        return None
    if kind is WeightKind.NONE:
        if ws is not None and ws.count(None) != len(ws):
            return None
        ws = repeat(None)
    else:
        if ws is None:
            return None
        if set(map(type, ws)) != {int} or min(ws) < 1:
            return None
    return 1 + max(ids) if node_count is None else node_count, tuple(zip(us, vs, ws))


def _checked_edges(
    directed: bool, node_count: Optional[int], rows: list, kind: WeightKind
) -> Tuple[Edge, ...]:
    """Edge by edge: raises for the first bad edge in list order. A derived
    node count (None) bounds the ids from below only."""
    bound = float("inf") if node_count is None else node_count
    normalized = []
    seen: set[Tuple[int, int]] = set()
    for raw in rows:
        u, v, w = _normalize_edge(raw)
        if not (0 <= u < bound) or not (0 <= v < bound):
            raise InvalidEdge(f"edge ({u}, {v}) references a node outside 0..{bound - 1}")
        if u == v:
            raise InvalidEdge(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise InvalidEdge(f"duplicate edge ({u}, {v})")
        seen.add(key)
        if kind is WeightKind.NONE:
            if w is not None:
                raise WeightMismatch(f"edge ({u}, {v}) carries a weight but weight_kind is none")
        elif w is None:
            raise WeightMismatch(f"edge ({u}, {v}) is missing a {kind.value}")
        elif w < 1:
            raise WeightMismatch(f"edge ({u}, {v}) has non-positive {kind.value} {w}")
        normalized.append((u, v, w))
    return tuple(normalized)


def canonical_edge_set(g: Graph) -> frozenset:
    """Order-insensitive edge set; undirected edges are normalized to (min, max).

    Unweighted graphs yield (u, v) pairs, weighted graphs (u, v, w) triples.
    """
    out = set()
    for u, v, w in g.edges:
        if not g.directed and u > v:
            u, v = v, u
        out.add((u, v) if w is None else (u, v, w))
    return frozenset(out)


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Edge-level equality used for graph-accuracy scoring.

    Two graphs are equal iff they agree on directedness, weight kind and the
    canonical edge set. Node counts are deliberately not compared: a graph
    reconstructed from an edge list cannot know about trailing isolated
    nodes, and edge comparison is what the accuracy metric is defined over.
    """
    return (
        a.directed == b.directed
        and a.weight_kind == b.weight_kind
        and (a.edges == b.edges or canonical_edge_set(a) == canonical_edge_set(b))
    )

