"""Constrained benchmark-task generation with gold labels for every subtask.

Each instance pins the graph, the tool, the query parameters and the final
answer; the answer is always produced by dispatching the gold tool on the
gold graph, never computed a second way. Generation rules:

  * small (wl) graphs have 2..40 nodes and at most 300 edges, large (el)
    graphs 41..100 nodes and at most 1000 edges
  * boolean-answer tasks alternate their target answer by index, which keeps
    every task corpus balanced to exactly 50/50 (up to an odd final index)
  * topological-sort graphs are built around a random Hamiltonian chain so
    the topological order is unique by construction
  * triangle tasks resample until a triangle exists, path/distance queries
    resample until the target is reachable
  * every graph has at least one edge and its highest node id appears in an
    edge, so the graph survives the render/extract round trip exactly
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import templates
from .codec import GRAPH_FILE_SUFFIX, render_edge_list
from .graphs import Graph, WeightKind, build_graph
from .tools import Answer, NoTriangle, TOOL_NAMES, dispatch, tool_arity

BOOLEAN_TOOLS = frozenset(
    ("cycle_detection", "edge_existence", "node_existence", "path_existence")
)
TOOL_WEIGHT_KIND = {
    "max_triangle_sum": WeightKind.WEIGHT,
    "shortest_path": WeightKind.WEIGHT,
    "maximum_flow": WeightKind.CAPACITY,
}

# tools whose tasks exist in one direction only -> whether that one is directed
_ONE_WAY_TOOLS = {"max_triangle_sum": False, "topological_sort": True}


class ExhaustedRetries(RuntimeError):
    """Constraint resampling hit the retry cap."""


class SizeClass(str, Enum):
    WL = "wl"  # inline: the rendered task fits the token budget
    EL = "el"  # file-backed: the graph lives in a referenced edge file


SIZE_NODE_RANGE = {SizeClass.WL: (2, 40), SizeClass.EL: (41, 100)}
SIZE_EDGE_CAP = {SizeClass.WL: 300, SizeClass.EL: 1000}
EDGE_PROBABILITY = (0.05, 0.25)  # each draw's G(n, p) takes p uniformly from here
WEIGHT_RANGE = (1, 10)  # weights and capacities, inclusive
RETRY_CAP = 10_000  # draws per instance before ExhaustedRetries
GRAPH_DIR = "graphs"  # EL graph files, relative to the corpus directory


@dataclass(frozen=True)
class TaskKind:
    tool: str
    directed: bool

    def __post_init__(self):
        if self.tool not in TOOL_NAMES:
            raise ValueError(f"unknown tool {self.tool!r}")
        if _ONE_WAY_TOOLS.get(self.tool, self.directed) != self.directed:
            direction = "undirected" if self.directed else "directed"
            raise ValueError(f"{self.tool} tasks exist for {direction} graphs only")

    @property
    def label(self) -> str:
        return f"{self.tool}:{'directed' if self.directed else 'undirected'}"

    @property
    def parametric(self) -> bool:
        """True when the task takes query parameters beyond the graph."""
        return self.arity > 0

    @property
    def weight_kind(self) -> WeightKind:
        return TOOL_WEIGHT_KIND.get(self.tool, WeightKind.NONE)

    @property
    def arity(self) -> int:
        return tool_arity(self.tool)

    @staticmethod
    def parse(label: str) -> "TaskKind":
        tool, _, direction = label.partition(":")
        if direction not in ("directed", "undirected"):
            raise ValueError(f"bad kind label {label!r}")
        return TaskKind(tool, direction == "directed")


ALL_KINDS = tuple(
    TaskKind(tool, directed)
    for tool in TOOL_NAMES
    for directed in (False, True)
    if _ONE_WAY_TOOLS.get(tool, directed) == directed
)


@dataclass(frozen=True)
class TaskInstance:
    id: str
    kind: TaskKind
    graph: Graph
    params: Tuple[int, ...]
    description_variant: int
    size_class: SizeClass
    task_text: str
    graph_file: Optional[str]
    gold_answer: Answer

    @property
    def gold_graph(self) -> Graph:
        return self.graph

    @property
    def gold_tool(self) -> str:
        return self.kind.tool

    @property
    def gold_params(self) -> Tuple[int, ...]:
        return self.params


@dataclass(frozen=True)
class GenConfig:
    count: int = 2000
    seed: int = 0
    kinds: Tuple[str, ...] = tuple(k.label for k in ALL_KINDS)
    sizes: str = "wl"  # wl | el | both
    token_budget: int = 4096

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.sizes not in ("wl", "el", "both"):
            raise ValueError("sizes must be wl, el or both")


def classify_size(text: str, budget: int = 4096) -> SizeClass:
    """wl iff the estimated token count (ceil of chars/4) fits the budget."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    return SizeClass.WL if math.ceil(len(text) / 4) <= budget else SizeClass.EL


# ---------------------------------------------------------------------------
# random graph machinery


def _pair_count(n: int, directed: bool) -> int:
    return n * (n - 1) if directed else n * (n - 1) // 2


def _decode_pairs(indexes: Sequence[int], n: int, directed: bool) -> List[Tuple[int, int]]:
    """Node pairs for ascending pair indexes.

    Undirected index k numbers the pairs (i, j), i < j, row by row; the
    walk keeps the current row's first index instead of solving for it.
    """
    if directed:
        out = []
        for k in indexes:
            u, r = divmod(k, n - 1)
            out.append((u, r + 1 if r >= u else r))
        return out
    out = []
    i, start, end = 0, 0, n - 1  # row i holds indexes start..end-1
    for k in indexes:
        while k >= end:
            i += 1
            start, end = end, end + n - 1 - i
        out.append((i, k - start + i + 1))
    return out


def _bernoulli_indexes(count: int, p: float, rng: random.Random) -> List[int]:
    """Indexes of successes among `count` independent Bernoulli(p) draws.

    Geometric skip sampling: O(successes) instead of O(count)."""
    if p <= 0.0 or count == 0:
        return []
    if p >= 1.0:
        return list(range(count))
    out = []
    log_q = math.log1p(-p)
    k = -1
    while True:
        k += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if k >= count:
            return out
        out.append(k)


def _cover_last_node(edges: List[Tuple[int, int]], n: int) -> List[Tuple[int, int]]:
    """Relabel so the highest node id participates in an edge (extraction
    reconstructs node_count as max id + 1, so a trailing isolated node would
    be unrecoverable)."""
    top = max(map(max, edges))
    if top == n - 1:
        return edges
    return [
        (n - 1 if u == top else u, n - 1 if v == top else v) for u, v in edges
    ]


def _attach_weights(edges: Sequence[Tuple[int, int]], weight_kind: WeightKind, rng: random.Random):
    if weight_kind is WeightKind.NONE:
        return list(edges)
    return [(u, v, rng.randint(*WEIGHT_RANGE)) for u, v in edges]


def _random_graph(
    n: int,
    p: float,
    directed: bool,
    weight_kind: WeightKind,
    rng: random.Random,
    edge_cap: int,
) -> Optional[Graph]:
    """One G(n, p) draw, or None when it misses the edge-count window."""
    pairs = _bernoulli_indexes(_pair_count(n, directed), p, rng)
    if not pairs or len(pairs) > edge_cap:
        return None
    edges = _decode_pairs(pairs, n, directed)
    edges = _cover_last_node(edges, n)
    return build_graph(directed, n, _attach_weights(edges, weight_kind, rng), weight_kind)


def _random_forest(n: int, rng: random.Random) -> Graph:
    """Undirected acyclic graph: a random attachment forest with 1..n-1 edges."""
    order = list(range(n))
    rng.shuffle(order)
    m = rng.randint(1, n - 1)
    attach = sorted(rng.sample(range(1, n), m))
    edges = [(order[rng.randrange(i)], order[i]) for i in attach]
    edges = _cover_last_node(edges, n)
    return build_graph(False, n, edges, WeightKind.NONE)


def _random_dag(
    n: int, p: float, rng: random.Random, edge_cap: int
) -> Optional[Graph]:
    """Directed acyclic graph: G(n, p) pairs oriented along a random permutation."""
    pairs = _bernoulli_indexes(_pair_count(n, False), p, rng)
    if not pairs or len(pairs) > edge_cap:
        return None
    rank = list(range(n))
    rng.shuffle(rank)
    edges = [
        (i, j) if rank[i] < rank[j] else (j, i) for i, j in _decode_pairs(pairs, n, False)
    ]
    edges = _cover_last_node(edges, n)
    return build_graph(True, n, edges, WeightKind.NONE)


def _unique_order_dag(
    n: int, p: float, rng: random.Random, edge_cap: int
) -> Optional[Graph]:
    """DAG with a Hamiltonian chain, so exactly one topological order exists."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[i + 1]) for i in range(n - 1)]
    # forward shortcuts over the chain keep the order unique
    extra_slots = [(i, j) for i in range(n) for j in range(i + 2, n)]
    picked = _bernoulli_indexes(len(extra_slots), p, rng)
    for k in picked:
        i, j = extra_slots[k]
        edges.append((order[i], order[j]))
    if len(edges) > edge_cap:
        return None
    return build_graph(True, n, edges, WeightKind.NONE)


def _reachable(g: Graph, start: int) -> set:
    adj: List[List[int]] = [[] for _ in range(g.node_count)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        if not g.directed:
            adj[v].append(u)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# instance generation


def _node_range(kind: TaskKind, size: SizeClass) -> Tuple[int, int]:
    lo, hi = SIZE_NODE_RANGE[size]
    if kind.tool == "max_triangle_sum":
        lo = max(lo, 3)
    return lo, hi


def _pick_absent_pair(g: Graph, rng: random.Random) -> Optional[Tuple[int, int]]:
    present = set()
    for u, v, _ in g.edges:
        present.add((u, v))
        if not g.directed:
            present.add((v, u))
    for _ in range(64):
        u = rng.randrange(g.node_count)
        v = rng.randrange(g.node_count)
        if u != v and (u, v) not in present:
            return (u, v)
    return None


def _draw_graph_and_params(
    kind: TaskKind,
    size: SizeClass,
    rng: random.Random,
    target_bool: Optional[bool],
) -> Tuple[Graph, Tuple[int, ...]]:
    tool = kind.tool
    lo, hi = _node_range(kind, size)
    cap = SIZE_EDGE_CAP[size]

    for _ in range(RETRY_CAP):
        n = rng.randint(lo, hi)
        p = rng.uniform(*EDGE_PROBABILITY)

        if tool == "topological_sort":
            g = _unique_order_dag(n, p, rng, cap)
            if g is not None:
                return g, ()
            continue

        if tool == "cycle_detection" and target_bool is False:
            g = _random_dag(n, p, rng, cap) if kind.directed else _random_forest(n, rng)
            if g is not None and len(g.edges) <= cap:
                return g, ()
            continue

        g = _random_graph(n, p, kind.directed, kind.weight_kind, rng, cap)
        if g is None:
            continue

        if tool == "cycle_detection":  # target_bool is True here
            if dispatch(tool, g, ()).value is True:
                return g, ()
            continue
        if tool == "max_triangle_sum":
            try:
                dispatch(tool, g, ())
            except NoTriangle:
                continue
            return g, ()
        if tool in ("edge_count", "node_count"):
            return g, ()
        if tool == "degree_count":
            return g, (rng.randrange(g.node_count),)
        if tool == "node_existence":
            if target_bool:
                return g, (rng.randrange(g.node_count),)
            return g, (rng.randint(g.node_count, g.node_count + 9),)
        if tool == "edge_existence":
            if target_bool:
                u, v, _ = g.edges[rng.randrange(len(g.edges))]
                return g, (u, v)
            pair = _pick_absent_pair(g, rng)
            if pair is None:
                continue
            return g, pair
        if tool == "maximum_flow":
            u, v = rng.sample(range(g.node_count), 2)
            return g, (u, v)
        if tool in ("path_existence", "shortest_path"):
            want_reachable = True if tool == "shortest_path" else bool(target_bool)
            u = g.edges[rng.randrange(len(g.edges))][0] if want_reachable else rng.randrange(g.node_count)
            reach = _reachable(g, u)
            if want_reachable:
                candidates = sorted(reach - {u})
            else:
                candidates = sorted(set(range(g.node_count)) - reach)
            if not candidates:
                continue
            return g, (u, candidates[rng.randrange(len(candidates))])
        raise AssertionError(f"unhandled tool {tool}")
    raise ExhaustedRetries(
        f"could not satisfy constraints for {kind.label} ({size.value}, target={target_bool})"
    )


def render_task_text(
    kind: TaskKind,
    graph: Graph,
    params: Sequence[int],
    variant: int,
    size_class: SizeClass,
    graph_file: Optional[str],
) -> str:
    opener = templates.render_opener(kind.directed, variant)
    if size_class is SizeClass.WL:
        clause = templates.inline_graph_clause(kind.weight_kind.value, render_edge_list(graph))
    else:
        clause = templates.file_graph_clause(kind.weight_kind.value, graph_file)
    task = templates.render_task_clause(kind.tool, kind.directed, variant, params)
    return f"{opener} {clause} {task}"


def generate_instance(
    kind: TaskKind,
    size: SizeClass,
    rng: random.Random,
    config: GenConfig | None = None,
    *,
    target_bool: Optional[bool] = None,
    index: int = 0,
    variant: Optional[int] = None,
) -> TaskInstance:
    """One constraint-satisfying instance; the driver controls balance targets."""
    config = config or GenConfig()
    if target_bool is None and kind.tool in BOOLEAN_TOOLS:
        target_bool = index % 2 == 0
    variant = (index % templates.VARIANTS_PER_TOOL) if variant is None else variant
    graph, params = _draw_graph_and_params(kind, size, rng, target_bool)
    answer = dispatch(kind.tool, graph, params)
    if target_bool is not None and answer.value is not target_bool:
        raise AssertionError("constraint sampler returned the wrong answer class")
    direction = "d" if kind.directed else "u"
    instance_id = f"{kind.tool}-{direction}-{size.value}-{index:05d}"
    graph_file = f"{GRAPH_DIR}/{instance_id}{GRAPH_FILE_SUFFIX}" if size is SizeClass.EL else None
    text = render_task_text(kind, graph, params, variant, size, graph_file)
    if size is SizeClass.WL and classify_size(text, config.token_budget) is not SizeClass.WL:
        raise ExhaustedRetries(f"wl instance {instance_id} rendered over the token budget")
    return TaskInstance(
        id=instance_id,
        kind=kind,
        graph=graph,
        params=tuple(params),
        description_variant=variant,
        size_class=size,
        task_text=text,
        graph_file=graph_file,
        gold_answer=answer,
    )


def _derived_rng(seed: int, kind: TaskKind, size: SizeClass, index: int) -> random.Random:
    key = f"{seed}|{kind.label}|{size.value}|{index}".encode()
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _size_plan(sizes: str, count: int) -> List[SizeClass]:
    if sizes == "wl":
        return [SizeClass.WL] * count
    if sizes == "el":
        return [SizeClass.EL] * count
    wl = (count + 1) // 2
    return [SizeClass.WL] * wl + [SizeClass.EL] * (count - wl)


def generate_planned(
    plan: Iterable[Tuple[TaskKind, SizeClass, int]], config: GenConfig
) -> Iterator[TaskInstance]:
    """One instance per ``(kind, size, index)`` entry of ``plan``, each from
    its own seed derived from ``config.seed`` and the entry."""
    for kind, size, index in plan:
        rng = _derived_rng(config.seed, kind, size, index)
        try:
            yield generate_instance(kind, size, rng, config, index=index)
        except ExhaustedRetries as exc:
            raise ExhaustedRetries(f"{kind.label}[{index}]: {exc}") from exc


def generate_corpus(config: GenConfig) -> Iterator[TaskInstance]:
    """Deterministic instance stream: per-kind counts, cycled description
    variants, alternating boolean targets, per-instance derived seeds. With
    ``sizes="both"`` the first half of each kind is WL and the rest EL."""
    sizes = _size_plan(config.sizes, config.count)
    kinds = (TaskKind.parse(label) for label in config.kinds)
    return generate_planned(
        ((kind, size, index) for kind in kinds for index, size in enumerate(sizes)), config
    )
