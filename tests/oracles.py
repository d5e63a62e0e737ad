"""Independent brute-force oracles the tool implementations are checked against.

Each oracle enumerates rather than searches: vertex subsets for cycles,
vertex triples for triangles, permutations for topological orders, simple
paths for distances and source-side cuts for flow. None of them share code
with the library's algorithms. Two checks on generated graphs close the
module: a unique topological order, and the highest node id in an edge.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional

from graphstage import Graph


def _edge_pairs(g: Graph) -> set:
    return {(u, v) for u, v, _ in g.edges}


def oracle_cycle(g: Graph) -> bool:
    """Exhaustive simple-cycle search over all vertex subsets."""
    pairs = _edge_pairs(g)

    def connected(a: int, b: int) -> bool:
        return (a, b) in pairs if g.directed else ((a, b) in pairs or (b, a) in pairs)

    min_len = 2 if g.directed else 3
    nodes = range(g.node_count)
    for size in range(min_len, g.node_count + 1):
        for subset in combinations(nodes, size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                ring = (first,) + rest
                if all(connected(ring[i], ring[(i + 1) % size]) for i in range(size)):
                    return True
    return False


def oracle_max_triangle_sum(g: Graph) -> Optional[int]:
    """Enumerate all vertex triples; None when no triple is fully connected."""
    weight = {}
    for u, v, w in g.edges:
        weight[(min(u, v), max(u, v))] = w
    best = None
    for a, b, c in combinations(range(g.node_count), 3):
        try:
            total = weight[(a, b)] + weight[(a, c)] + weight[(b, c)]
        except KeyError:
            continue
        if best is None or total > best:
            best = total
    return best


def oracle_topological_orders(g: Graph) -> list:
    """All valid orders by checking every permutation; intended for n <= 7."""
    orders = []
    for perm in permutations(range(g.node_count)):
        position = {node: i for i, node in enumerate(perm)}
        if all(position[u] < position[v] for u, v, _ in g.edges):
            orders.append(list(perm))
    return orders


def oracle_degree(g: Graph, node: int) -> int:
    """Incidence count by scanning the edge list."""
    return sum((u == node) + (v == node) for u, v, _ in g.edges)


def oracle_edge_exists(g: Graph, u: int, v: int) -> bool:
    for a, b, _ in g.edges:
        if (a, b) == (u, v) or (not g.directed and (a, b) == (v, u)):
            return True
    return False


def oracle_path_exists(g: Graph, u: int, v: int) -> bool:
    """Breadth-first reachability."""
    if u == v:
        return True
    frontier = [u]
    seen = {u}
    while frontier:
        nxt_frontier = []
        for node in frontier:
            for a, b, _ in g.edges:
                for src, dst in ((a, b),) if g.directed else ((a, b), (b, a)):
                    if src == node and dst not in seen:
                        if dst == v:
                            return True
                        seen.add(dst)
                        nxt_frontier.append(dst)
        frontier = nxt_frontier
    return False


def oracle_min_cut(g: Graph, source: int, sink: int) -> int:
    """Minimum cut by enumerating every source-side vertex subset."""
    others = [n for n in range(g.node_count) if n not in (source, sink)]
    best = None
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            side = {source, *extra}
            cut = 0
            for u, v, w in g.edges:
                if g.directed:
                    if u in side and v not in side:
                        cut += w
                else:
                    if (u in side) != (v in side):
                        cut += w
            if best is None or cut < best:
                best = cut
    return best


def oracle_shortest(g: Graph, u: int, v: int) -> Optional[int]:
    """Exhaustive enumeration of simple paths; None when u cannot reach v."""
    if u == v:
        return 0
    adjacency = [[] for _ in range(g.node_count)]
    for a, b, w in g.edges:
        adjacency[a].append((b, w))
        if not g.directed:
            adjacency[b].append((a, w))
    best = None
    stack = [(u, frozenset([u]), 0)]
    while stack:
        node, seen, cost = stack.pop()
        for nxt, w in adjacency[node]:
            if nxt == v:
                if best is None or cost + w < best:
                    best = cost + w
            elif nxt not in seen:
                stack.append((nxt, seen | {nxt}, cost + w))
    return best


def has_unique_topological_order(g: Graph) -> bool:
    """True iff Kahn's frontier holds exactly one node at every step."""
    if not g.directed:
        return False
    successors = [[] for _ in range(g.node_count)]
    indegree = [0] * g.node_count
    for u, v, _ in g.edges:
        successors[u].append(v)
        indegree[v] += 1
    ready = [n for n in range(g.node_count) if indegree[n] == 0]
    taken = 0
    while ready:
        if len(ready) != 1:
            return False
        node = ready.pop()
        taken += 1
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return taken == g.node_count


def max_referenced_node(g: Graph) -> int:
    """Largest node id appearing in any edge, or -1 for an edgeless graph."""
    return max((max(u, v) for u, v, _ in g.edges), default=-1)
