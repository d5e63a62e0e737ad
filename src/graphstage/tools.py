"""The eleven graph tools, the table that declares each of them once, and
the dispatcher that routes a named call to one.

Every tool is a pure function of an immutable Graph (plus scalar parameters)
returning an Answer. Tool failures are raised as ToolError subclasses; the
dispatcher adds name/arity validation on top. The table (:data:`TOOLS`) gives
each tool's function, description, parameters and return type, in the order
the name-identification prompt lists them; names and arities come from it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .graphs import Graph, WeightKind


class ToolError(ValueError):
    """Base class for tool execution failures."""


class UnknownTool(ToolError):
    pass


class ArityMismatch(ToolError):
    pass


class UnknownNode(ToolError):
    pass


class NotUndirected(ToolError):
    pass


class NotDirected(ToolError):
    pass


class CyclicGraph(ToolError):
    pass


class NoTriangle(ToolError):
    pass


class SameSourceSink(ToolError):
    pass


class Unreachable(ToolError):
    pass


class WrongWeightKind(ToolError):
    pass


@dataclass(frozen=True)
class Answer:
    """Tagged tool result: bool / count / node_seq / value."""

    kind: str
    value: object

    @staticmethod
    def bool_(v: bool) -> "Answer":
        return Answer("bool", bool(v))

    @staticmethod
    def count(v: int) -> "Answer":
        return Answer("count", int(v))

    @staticmethod
    def node_seq(v: Sequence[int]) -> "Answer":
        return Answer("node_seq", tuple(int(x) for x in v))

    @staticmethod
    def value(v: int) -> "Answer":
        return Answer("value", int(v))


@dataclass(frozen=True)
class ToolSpec:
    """One row of the tool table; the tool's name is its function's name."""

    function: Callable[..., Answer]
    description: str
    parameters: Tuple[Tuple[str, str], ...]  # (name, semantic type), graph excluded
    returns: str

    @property
    def name(self) -> str:
        return self.function.__name__

    def parameter_names(self) -> List[str]:
        return [n for n, _ in self.parameters]


class ToolRegistry:
    """ToolSpecs in prompt order, looked up by name."""

    def __init__(self, specs: Sequence[ToolSpec]):
        self._specs = tuple(specs)
        self._by_name = {spec.name: spec for spec in self._specs}

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def get(self, name: str) -> ToolSpec:
        """Exact lookup after trim and case-fold; raises UnknownTool on a miss."""
        spec = self._by_name.get(name.strip().lower())
        if spec is None:
            raise UnknownTool(f"no tool named {name!r}")
        return spec


def _check_node(g: Graph, node: int) -> None:
    if not (0 <= node < g.node_count):
        raise UnknownNode(f"node {node} does not exist (node_count={g.node_count})")


def _adjacency(g: Graph) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(g.node_count)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        if not g.directed:
            adj[v].append(u)
    return adj


def cycle_detection(g: Graph) -> Answer:
    """True iff the graph contains a cycle (directed cycle for directed input)."""
    adj = _adjacency(g)
    if g.directed:
        # iterative three-color DFS: a gray successor closes a directed cycle
        color = [0] * g.node_count  # 0 white, 1 gray, 2 black
        for start in range(g.node_count):
            if color[start]:
                continue
            stack: List[Tuple[int, int]] = [(start, 0)]
            color[start] = 1
            while stack:
                node, idx = stack[-1]
                if idx < len(adj[node]):
                    stack[-1] = (node, idx + 1)
                    nxt = adj[node][idx]
                    if color[nxt] == 1:
                        return Answer.bool_(True)
                    if color[nxt] == 0:
                        color[nxt] = 1
                        stack.append((nxt, 0))
                else:
                    color[node] = 2
                    stack.pop()
        return Answer.bool_(False)
    # undirected: DFS where any visited neighbor other than the tree parent
    # closes a cycle (graphs are simple, so the parent edge is unambiguous)
    visited = [False] * g.node_count
    for start in range(g.node_count):
        if visited[start]:
            continue
        visited[start] = True
        stack = [(start, -1)]
        while stack:
            node, parent = stack.pop()
            for nxt in adj[node]:
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, node))
                elif nxt != parent:
                    return Answer.bool_(True)
    return Answer.bool_(False)


def max_triangle_sum(g: Graph) -> Answer:
    """Largest edge-weight sum over all triangles of an undirected weighted graph."""
    if g.directed:
        raise NotUndirected("triangle search is defined for undirected graphs only")
    if not g.weighted:
        raise WrongWeightKind("triangle search needs edge weights")
    weight: Dict[Tuple[int, int], int] = {}
    neighbors: List[set] = [set() for _ in range(g.node_count)]
    for u, v, w in g.edges:
        a, b = (u, v) if u < v else (v, u)
        weight[(a, b)] = w
        neighbors[u].add(v)
        neighbors[v].add(u)
    best = None
    for (a, b), w_ab in weight.items():
        for c in neighbors[a] & neighbors[b]:
            if c <= b:  # count each triangle once via its sorted vertex triple
                continue
            total = w_ab + weight[(a, c)] + weight[(b, c)]
            if best is None or total > best:
                best = total
    if best is None:
        raise NoTriangle("graph contains no triangle")
    return Answer.value(best)


def edge_count(g: Graph) -> Answer:
    return Answer.count(len(g.edges))


def node_count(g: Graph) -> Answer:
    return Answer.count(g.node_count)


def topological_sort(g: Graph) -> Answer:
    """Kahn's algorithm; ties broken toward the smallest node id."""
    if not g.directed:
        raise NotDirected("topological order is defined for directed graphs only")
    indegree = [0] * g.node_count
    adj = _adjacency(g)
    for _, v, _ in g.edges:
        indegree[v] += 1
    ready = [n for n in range(g.node_count) if indegree[n] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in adj[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != g.node_count:
        raise CyclicGraph("graph has no topological order")
    return Answer.node_seq(order)


def degree_count(g: Graph, node: int) -> Answer:
    """Incident edge count; for directed graphs in-degree plus out-degree."""
    _check_node(g, node)
    total = 0
    for u, v, _ in g.edges:
        if u == node:
            total += 1
        if v == node:
            total += 1
    return Answer.count(total)


def edge_existence(g: Graph, u: int, v: int) -> Answer:
    """True iff the edge is present (direction honored on directed graphs)."""
    for a, b, _ in g.edges:
        if (a, b) == (u, v) or (not g.directed and (a, b) == (v, u)):
            return Answer.bool_(True)
    return Answer.bool_(False)


def node_existence(g: Graph, node: int) -> Answer:
    return Answer.bool_(0 <= node < g.node_count)


def maximum_flow(g: Graph, source: int, sink: int) -> Answer:
    """Edmonds-Karp max flow; undirected edges become anti-parallel arcs."""
    if g.weight_kind is not WeightKind.CAPACITY:
        raise WrongWeightKind("maximum flow needs capacity-weighted edges")
    _check_node(g, source)
    _check_node(g, sink)
    if source == sink:
        raise SameSourceSink(f"source and sink are both node {source}")
    cap: List[Dict[int, int]] = [dict() for _ in range(g.node_count)]
    for u, v, w in g.edges:
        cap[u][v] = cap[u].get(v, 0) + w
        cap[v].setdefault(u, 0)
        if not g.directed:
            cap[v][u] += w
    total = 0
    while True:
        parent = [-1] * g.node_count
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] == -1:
            node = queue.popleft()
            for nxt, c in cap[node].items():
                if c > 0 and parent[nxt] == -1:
                    parent[nxt] = node
                    queue.append(nxt)
        if parent[sink] == -1:
            return Answer.value(total)
        bottleneck = None
        node = sink
        while node != source:
            c = cap[parent[node]][node]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            node = parent[node]
        node = sink
        while node != source:
            prev = parent[node]
            cap[prev][node] -= bottleneck
            cap[node][prev] = cap[node].get(prev, 0) + bottleneck
            node = prev
        total += bottleneck


def path_existence(g: Graph, u: int, v: int) -> Answer:
    """Reachability by DFS; directed graphs respect edge direction."""
    if not (0 <= u < g.node_count) or not (0 <= v < g.node_count):
        return Answer.bool_(False)
    if u == v:
        return Answer.bool_(True)
    adj = _adjacency(g)
    seen = [False] * g.node_count
    seen[u] = True
    stack = [u]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt == v:
                return Answer.bool_(True)
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    return Answer.bool_(False)


def shortest_path(g: Graph, u: int, v: int) -> Answer:
    """Dijkstra over positive integer weights; minimum total weight of a u-v path."""
    if g.weight_kind is not WeightKind.WEIGHT:
        raise WrongWeightKind("shortest path needs weighted edges")
    _check_node(g, u)
    _check_node(g, v)
    if u == v:
        return Answer.value(0)
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for a, b, w in g.edges:
        adj[a].append((b, w))
        if not g.directed:
            adj[b].append((a, w))
    dist = [None] * g.node_count
    frontier: List[Tuple[int, int]] = [(0, u)]
    while frontier:
        d, node = heapq.heappop(frontier)
        if dist[node] is not None:
            continue
        dist[node] = d
        if node == v:
            return Answer.value(d)
        for nxt, w in adj[node]:
            if dist[nxt] is None:
                heapq.heappush(frontier, (d + w, nxt))
    raise Unreachable(f"no path from {u} to {v}")


TOOLS = ToolRegistry(
    [
        ToolSpec(
            cycle_detection,
            "Report whether the graph contains at least one cycle.",
            (),
            "boolean",
        ),
        ToolSpec(
            max_triangle_sum,
            "Find the largest total edge weight over all triangles of an "
            "undirected weighted graph.",
            (),
            "integer",
        ),
        ToolSpec(
            edge_count,
            "Count how many edges the graph contains.",
            (),
            "integer",
        ),
        ToolSpec(
            node_count,
            "Count how many nodes the graph contains.",
            (),
            "integer",
        ),
        ToolSpec(
            topological_sort,
            "Order all nodes of a directed acyclic graph so every edge "
            "points forward.",
            (),
            "list of node ids",
        ),
        ToolSpec(
            degree_count,
            "Count the edges attached to one specific node.",
            (("node", "int"),),
            "integer",
        ),
        ToolSpec(
            edge_existence,
            "Report whether an edge is present between two specific nodes.",
            (("node1", "int"), ("node2", "int")),
            "boolean",
        ),
        ToolSpec(
            node_existence,
            "Report whether a specific node is present in the graph.",
            (("node", "int"),),
            "boolean",
        ),
        ToolSpec(
            maximum_flow,
            "Compute the largest feasible flow from a source node to a "
            "sink node over capacity-weighted edges.",
            (("source", "int"), ("sink", "int")),
            "integer",
        ),
        ToolSpec(
            path_existence,
            "Report whether any path connects two specific nodes.",
            (("node1", "int"), ("node2", "int")),
            "boolean",
        ),
        ToolSpec(
            shortest_path,
            "Compute the minimum total weight of a path between two nodes.",
            (("source", "int"), ("target", "int")),
            "integer",
        ),
    ]
)

TOOL_NAMES = tuple(spec.name for spec in TOOLS)


def tool_arity(name: str) -> int:
    return len(TOOLS.get(name).parameters)


def dispatch(name: str, g: Graph, params: Sequence[int]) -> Answer:
    """Run the named tool on (g, params) after name and arity validation."""
    spec = TOOLS.get(name)
    if len(params) != len(spec.parameters):
        raise ArityMismatch(
            f"{spec.name} takes {len(spec.parameters)} parameter(s), got {len(params)}"
        )
    return spec.function(g, *[int(p) for p in params])
