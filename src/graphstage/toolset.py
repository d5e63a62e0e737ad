"""Tool specifications: name, description, ordered parameter schema, return type.

The default registry holds exactly the eleven shipped tools; extra tools can
be registered to extend the name-identification prompt without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .tools import UnknownTool


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    parameters: Tuple[Tuple[str, str], ...]  # (name, semantic type), graph excluded
    returns: str

    def parameter_names(self) -> List[str]:
        return [n for n, _ in self.parameters]


class ToolRegistry:
    """Ordered, name-unique collection of ToolSpecs."""

    def __init__(self, specs: List[ToolSpec]):
        self._specs: List[ToolSpec] = []
        self._by_name = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: ToolSpec) -> None:
        key = spec.name.strip().lower()
        if key in self._by_name:
            raise ValueError(f"duplicate tool name {spec.name!r}")
        self._by_name[key] = spec
        self._specs.append(spec)

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def get(self, name: str) -> ToolSpec:
        """Exact lookup after trim and case-fold; raises UnknownTool on a miss."""
        key = name.strip().lower()
        if key not in self._by_name:
            raise UnknownTool(f"no tool named {name!r}")
        return self._by_name[key]

    def contains(self, name: str) -> bool:
        return name.strip().lower() in self._by_name


def default_registry() -> ToolRegistry:
    return ToolRegistry(
        [
            ToolSpec(
                "cycle_detection",
                "Report whether the graph contains at least one cycle.",
                (),
                "boolean",
            ),
            ToolSpec(
                "max_triangle_sum",
                "Find the largest total edge weight over all triangles of an "
                "undirected weighted graph.",
                (),
                "integer",
            ),
            ToolSpec(
                "edge_count",
                "Count how many edges the graph contains.",
                (),
                "integer",
            ),
            ToolSpec(
                "node_count",
                "Count how many nodes the graph contains.",
                (),
                "integer",
            ),
            ToolSpec(
                "topological_sort",
                "Order all nodes of a directed acyclic graph so every edge "
                "points forward.",
                (),
                "list of node ids",
            ),
            ToolSpec(
                "degree_count",
                "Count the edges attached to one specific node.",
                (("node", "int"),),
                "integer",
            ),
            ToolSpec(
                "edge_existence",
                "Report whether an edge is present between two specific nodes.",
                (("node1", "int"), ("node2", "int")),
                "boolean",
            ),
            ToolSpec(
                "node_existence",
                "Report whether a specific node is present in the graph.",
                (("node", "int"),),
                "boolean",
            ),
            ToolSpec(
                "maximum_flow",
                "Compute the largest feasible flow from a source node to a "
                "sink node over capacity-weighted edges.",
                (("source", "int"), ("sink", "int")),
                "integer",
            ),
            ToolSpec(
                "path_existence",
                "Report whether any path connects two specific nodes.",
                (("node1", "int"), ("node2", "int")),
                "boolean",
            ),
            ToolSpec(
                "shortest_path",
                "Compute the minimum total weight of a path between two nodes.",
                (("source", "int"), ("target", "int")),
                "integer",
            ),
        ]
    )
