"""Device connectivity graphs and their cactus decompositions.

Contains:
    - Graph: immutable undirected simple graph with sorted adjacency.
    - validate_cactus(): connectivity + cactus check, returns the cycle
      decomposition (every edge on at most one simple cycle).
    - build_vertex_cactus(): split vertices shared by several cycles so that
      every vertex lies on at most one cycle; copies of the same vertex are
      linked by weight-0 edges, original edges keep weight 1.
    - build_block_tree(): blocks (cycles and cycle-free vertices) of the
      vertex cactus arranged as a tree whose edges are the bridges.
    - random_cactus(): seeded generator used by tests and the CLI.
    - JSON (de)serialisation of graphs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


class GraphError(Exception):
    """Base class for graph-structure errors."""


class NotConnected(GraphError):
    """The input graph is not connected."""


class NotACactus(GraphError):
    """Some edge of the input graph lies on two simple cycles."""


class GraphFormatError(ValueError):
    """Malformed graph JSON."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 1:
            raise GraphFormatError("vertex count must be >= 1")
        adj: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in adj))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def induced_subgraph(self, vertices) -> tuple["Graph", list[int]]:
        """Induced subgraph on `vertices`; returns (subgraph, old-label list).

        Position i of the returned list is the original label of subgraph
        vertex i.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph.from_edges(len(keep), edges), keep


@dataclass(frozen=True)
class CycleDecomposition:
    """Simple cycles of a cactus, numbered by their vertices alone.

    Each cycle is listed from its least vertex towards the lesser of that
    vertex's two neighbours on it, and the cycles are indexed from 0 in
    increasing order of their listings.  `membership[v]` lists (in index
    order) the cycles through v; `cycle_edges` holds the sorted pair of
    every edge on a cycle (bridges are absent).
    """

    cycles: tuple[tuple[int, ...], ...]
    membership: tuple[tuple[int, ...], ...]
    cycle_edges: set = field(compare=False)


def validate_cactus(g: Graph) -> CycleDecomposition:
    """Check that g is a connected cactus; return its cycle decomposition.

    Raises NotConnected or NotACactus (naming an edge on two cycles).
    The numbering reads no DFS order, so removing a vertex on no cycle
    keeps the other cycles' relative order and listings.
    """
    n = g.n
    parent = [-1] * n
    disc = [-1] * n
    found = 1  # vertices discovered
    # Iterative DFS from vertex 0 with per-vertex neighbor cursors, so the
    # traversal order is reproducible (sorted adjacency).
    stack = [0]
    disc[0] = 0
    it = [iter(g.adjacency[v]) for v in range(n)]
    cycles: list[tuple[int, ...]] = []
    cycle_edges: set[tuple[int, int]] = set()
    while stack:
        v = stack[-1]
        advanced = False
        for u in it[v]:
            if disc[u] == -1:
                disc[u] = found
                found += 1
                parent[u] = v
                stack.append(u)
                advanced = True
                break
            if u != parent[v] and disc[u] < disc[v]:
                # Back edge closes the cycle u -> ... -> v along tree edges;
                # it is met once, here at its deeper end v.
                cyc = [v]
                w = v
                while w != u:
                    w = parent[w]
                    cyc.append(w)
                cyc.reverse()  # starts at u, the DFS-first vertex
                for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
                    ekey = (min(a, b), max(a, b))
                    if ekey in cycle_edges:
                        raise NotACactus(f"edge {ekey} lies on two cycles")
                    cycle_edges.add(ekey)
                # listed from its least vertex, towards its lesser neighbour
                i = cyc.index(min(cyc))
                cyc = cyc[i:] + cyc[:i]
                if cyc[-1] < cyc[1]:
                    cyc[1:] = cyc[:0:-1]
                cycles.append(tuple(cyc))
        if not advanced:
            stack.pop()
    if found != n:
        missing = next(v for v in range(n) if disc[v] == -1)
        raise NotConnected(f"vertex {missing} unreachable from 0")
    cycles.sort()
    membership: list[list[int]] = [[] for _ in range(n)]
    for idx, cyc in enumerate(cycles):
        for v in cyc:
            membership[v].append(idx)
    return CycleDecomposition(
        cycles=tuple(cycles),
        membership=tuple(tuple(m) for m in membership),
        cycle_edges=cycle_edges,
    )


@dataclass(frozen=True)
class WeightedVertexCactus:
    """Vertex cactus obtained by splitting multi-cycle vertices.

    Vertex ids 0..n-1 are kept for original vertices (acting as the hub
    copy of a split vertex); extra copies get fresh ids n, n+1, ...
    `origin[t]` is the original vertex a copy stands for.  `adjacency[t]`
    is a sorted tuple of (neighbor, weight) pairs with weight 0 for
    hub-copy links and 1 for original edges.  `cycles[c]` lists the copy
    ids forming cycle c (same indexing as the input decomposition).
    """

    n: int
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    origin: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]


def build_vertex_cactus(g: Graph, d: CycleDecomposition) -> WeightedVertexCactus:
    """Split every vertex on >= 2 cycles into one copy per cycle.

    The hub copy keeps the original id and stays on the first cycle of the
    vertex's membership list; copy i sits on the i-th cycle.  Weight-0
    edges join the hub to every extra copy.  Bridge edges of a split
    vertex attach to its hub.
    """
    origin: list[int] = list(range(g.n))
    copy_id: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        for c in d.membership[v][1:]:
            copy_id[(v, c)] = len(origin)
            origin.append(v)
    nn = len(origin)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nn)]

    def add(a: int, b: int, w: int) -> None:
        adj[a].append((b, w))
        adj[b].append((a, w))

    for (v, _), copy in copy_id.items():
        add(v, copy, 0)
    for u, v in g.edges():
        if (u, v) not in d.cycle_edges:
            add(u, v, 1)  # bridge: hubs keep their original ids
    t_cycles = tuple(
        tuple(copy_id.get((v, ci), v) for v in cyc)
        for ci, cyc in enumerate(d.cycles)
    )
    for cyc in t_cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            add(a, b, 1)
    return WeightedVertexCactus(
        n=nn,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        origin=tuple(origin),
        cycles=t_cycles,
    )


@dataclass(frozen=True)
class BlockTree:
    """Blocks of a vertex cactus (cycles and cycle-free vertices) as a tree.

    `blocks[b]` is either ("cycle", vertex tuple) or ("vertex", (v,)).
    `tree[b]` lists (other_block, weight, own_attach, other_attach) for
    every bridge incident to block b, where the attach entries are the
    vertex-cactus endpoints of the bridge inside each block.
    """

    blocks: tuple[tuple[str, tuple[int, ...]], ...]
    tree: tuple[tuple[tuple[int, int, int, int], ...], ...]
    block_of: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def build_block_tree(t: WeightedVertexCactus) -> BlockTree:
    """Group the vertex cactus into cycle blocks and single-vertex blocks.

    Bridges (every edge not inside a cycle, including all weight-0 edges)
    become the tree edges.  An edge is a bridge exactly when its ends lie
    in different blocks: a cactus has no chords, so every edge between two
    vertices of one cycle is an edge of that cycle.
    """
    block_of = [-1] * t.n
    blocks: list[tuple[str, tuple[int, ...]]] = []
    for cyc in t.cycles:
        for v in cyc:
            block_of[v] = len(blocks)
        blocks.append(("cycle", cyc))
    for v in range(t.n):
        if block_of[v] == -1:
            block_of[v] = len(blocks)
            blocks.append(("vertex", (v,)))
    tree: list[list[tuple[int, int, int, int]]] = [[] for _ in blocks]
    for a in range(t.n):
        for b, w in t.adjacency[a]:
            ba, bb = block_of[a], block_of[b]
            if a < b and ba != bb:
                tree[ba].append((bb, w, a, b))
                tree[bb].append((ba, w, b, a))
    return BlockTree(
        blocks=tuple(blocks),
        tree=tuple(tuple(sorted(es)) for es in tree),
        block_of=tuple(block_of),
    )


def random_cactus(n: int, seed: int, cycle_prob: float = 0.45) -> Graph:
    """Seeded random connected cactus on exactly n vertices.

    Grows from a single vertex; each step either hangs a pendant vertex on
    a random existing vertex or threads a new cycle (size 3-6) through
    one, so cycles may share single vertices.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    count = 1
    while count < n:
        a = rng.randrange(count)
        room = n - count
        if room >= 2 and rng.random() < cycle_prob:
            size = rng.randint(3, min(6, room + 1))
            ring = [a] + list(range(count, count + size - 1))
            count += size - 1
            edges.extend((ring[i], ring[i + 1]) for i in range(size - 1))
            edges.append((ring[-1], ring[0]))
        else:
            edges.append((a, count))
            count += 1
    return Graph.from_edges(n, edges)


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json_dict(data, max_n: int | None = None) -> Graph:
    """The graph of a graph JSON object; with `max_n`, a larger "n" is
    refused before any vertex is built."""
    if not isinstance(data, dict):
        raise GraphFormatError("graph JSON must be an object")
    if set(data) != {"n", "edges"}:
        raise GraphFormatError('graph JSON must have exactly "n" and "edges"')
    if not isinstance(data["n"], int) or isinstance(data["n"], bool):
        raise GraphFormatError('"n" must be an integer')
    if max_n is not None and data["n"] > max_n:
        raise GraphFormatError(f"{data['n']} vertices exceed the limit of {max_n}")
    if not isinstance(data["edges"], list):
        raise GraphFormatError('"edges" must be a list')
    for e in data["edges"]:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise GraphFormatError(f"bad edge entry: {e!r}")
    return Graph.from_edges(data["n"], data["edges"])


def load_graph(path: str, max_n: int | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return graph_from_json_dict(data, max_n)
