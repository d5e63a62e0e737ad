"""Natural-language task templates, five surface variants per tool.

Every template must embed the graph and any query parameters unambiguously:
the inline edge list is the only place a "(u, v)" shape may appear, and
parameters are always spelled as prose ("node 3", "from node 2 to node 5")
so they never collide with the edge-extraction patterns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

VARIANTS_PER_TOOL = 5

_OPENERS = [
    "You are given {a_gtype} graph.",
    "Consider the following {gtype} graph.",
    "Here is {a_gtype} graph to analyze.",
    "The {gtype} graph below is the subject of this question.",
    "Work with the {gtype} graph described next.",
]

_TASK_CLAUSES: Dict[str, List[str]] = {
    "cycle_detection": [
        "Determine whether the graph contains any cycle.",
        "Does this graph contain at least one cycle?",
        "Check whether a cycle exists anywhere in the graph.",
        "Decide if the graph is cyclic or acyclic.",
        "Report whether any closed loop of edges can be found.",
    ],
    "max_triangle_sum": [
        "Find the maximum sum of edge weights over all triangles in the graph.",
        "Among all triangles formed by three mutually connected nodes, what is the largest total of the three edge weights?",
        "Identify the triangle whose edge weights add up to the largest value and give that value.",
        "Compute the heaviest triangle: the one maximizing the sum of its three edge weights.",
        "What is the greatest possible value of summing the weights of a triangle's three edges here?",
    ],
    "edge_count": [
        "Count the total number of edges in the graph.",
        "How many edges does this graph contain in total?",
        "Report the overall number of edges.",
        "Give the total edge count of the graph.",
        "Determine how many edges the graph has altogether.",
    ],
    "node_count": [
        "Count the total number of nodes in the graph.",
        "How many nodes does this graph contain in total?",
        "Report the overall number of nodes.",
        "Give the total node count of the graph.",
        "Determine how many nodes the graph has altogether.",
    ],
    "topological_sort": [
        "Arrange all nodes of the graph in topological order.",
        "Produce a topological ordering of every node.",
        "List the nodes so that every edge points from an earlier node to a later one.",
        "Sort the nodes topologically and give the resulting sequence.",
        "In what topological order should the nodes be arranged?",
    ],
    "degree_count": [
        "Count the number of edges connected to node {p0}.",
        "How many edges are attached to node {p0}?",
        "Report the degree of node {p0}.",
        "Determine how many edges touch node {p0}.",
        "Give the number of edges incident to node {p0}.",
    ],
    "edge_existence": [
        "Determine whether an edge exists {pair}.",
        "Is there an edge {pair}?",
        "Check if the graph contains an edge {pair}.",
        "Does an edge connect the two, looking {pair}?",
        "Report whether any edge runs {pair}.",
    ],
    "node_existence": [
        "Determine whether node {p0} exists in the graph.",
        "Does node {p0} exist in this graph?",
        "Check if the graph contains a node labeled {p0}.",
        "Is there a node {p0} present here?",
        "Report whether node {p0} is part of the graph.",
    ],
    "maximum_flow": [
        "Determine the largest amount of flow that can be routed from source node {p0} to sink node {p1}.",
        "What is the maximum flow from source node {p0} to sink node {p1}?",
        "Compute the maximum feasible flow sent from node {p0} to node {p1}.",
        "Find the greatest flow value achievable from source node {p0} into sink node {p1}.",
        "How much flow, at most, can travel from node {p0} to node {p1}?",
    ],
    "path_existence": [
        "Determine whether any path exists {pair}.",
        "Is there a path {pair}?",
        "Check if the two nodes are connected by some path, going {pair}.",
        "Can one travel along edges {pair}?",
        "Report whether a route exists {pair}.",
    ],
    "shortest_path": [
        "Determine the minimum total weight of a path from node {p0} to node {p1}.",
        "What is the length of the shortest weighted path from node {p0} to node {p1}?",
        "Compute the smallest possible sum of edge weights along a path from node {p0} to node {p1}.",
        "Find the shortest distance from node {p0} to node {p1}, counting edge weights.",
        "How short can a path from node {p0} to node {p1} be, measured by total edge weight?",
    ],
}

_WEIGHT_NOUN = {"none": "edges", "weight": "weighted edges", "capacity": "capacity-weighted edges"}


def inline_graph_clause(weight_kind: str, edge_list: str) -> str:
    return f"Its {_WEIGHT_NOUN[weight_kind]} are: {edge_list}."

def file_graph_clause(weight_kind: str, path: str) -> str:
    return f"Its {_WEIGHT_NOUN[weight_kind]} are listed in the file: {path}."


def _pair_phrase(directed: bool, params: Sequence[int]) -> str:
    a, b = params[0], params[1]
    if directed:
        return f"from node {a} to node {b}"
    return f"between node {a} and node {b}"


def render_task_clause(
    tool: str, directed: bool, variant: int, params: Sequence[int]
) -> str:
    clause = _TASK_CLAUSES[tool][variant % VARIANTS_PER_TOOL]
    if "{pair}" in clause:
        clause = clause.replace("{pair}", _pair_phrase(directed, params))
    for i, value in enumerate(params):
        clause = clause.replace("{p%d}" % i, str(value))
    return clause


def render_opener(directed: bool, variant: int) -> str:
    gtype = "directed" if directed else "undirected"
    a_gtype = ("a " if directed else "an ") + gtype
    return _OPENERS[variant % VARIANTS_PER_TOOL].format(gtype=gtype, a_gtype=a_gtype)
