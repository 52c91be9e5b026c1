"""Shared helpers: test graphs (spiders, cycles with a pendant on every
vertex, flowers, and cacti with their vertices renamed), seeded random
circuits for fidelity tests, the pairwise CR+SWAP fusion rule as a
reference CNOT count and lowering, a one-application-at-a-time reference
for the l-fold hashing operator, a solve-every-stage-afresh reference for
the QFT schedule with a park search, the shortest covering walk of a tree
in closed form, and exhaustive searches for shortest simple covering
walks and for the fewest revisits a covering walk of a given length can
make."""

import math
import random
from collections import deque

from cactusq.circuit_ir import Circuit, Gate, _rows
from cactusq.covering_path import brute_force_oracle, solve_cactus
from cactusq.graph_core import Graph, NotACactus
from cactusq.hash_synth import construct_for_path


def spider(legs: int, length: int) -> Graph:
    """`legs` paths of `length` vertices hanging off vertex 0."""
    edges = []
    for leg in range(legs):
        at = 0
        for i in range(length):
            v = 1 + leg * length + i
            edges.append((at, v))
            at = v
    return Graph.from_edges(1 + legs * length, edges)


# three legs of length 2 hanging off vertex 0: the shortest covering walk
# must re-enter the hub, so no simple covering path exists at all
SPIDER = spider(3, 2)


def cycle_with_pendants(t):
    """A t-cycle with one pendant vertex on every cycle vertex."""
    edges = [(i, (i + 1) % t) for i in range(t)] + [(i, t + i) for i in range(t)]
    return Graph.from_edges(2 * t, edges)


def flower(petals, size):
    """`petals` cycles of `size` vertices sharing vertex 0."""
    edges = []
    for p in range(petals):
        ring = [0] + [1 + p * (size - 1) + i for i in range(size - 1)]
        edges += list(zip(ring, ring[1:] + ring[:1]))
    return Graph.from_edges(1 + petals * (size - 1), edges)


def relabel(g: Graph, seed: int) -> Graph:
    """g with each vertex v renamed perm[v], for the permutation that
    `random.Random(seed).shuffle` draws.  `random_cactus` lists every cycle
    from its least vertex towards its lesser neighbour; renamed, a cycle
    may run the other way, and `validate_cactus` has to turn it round."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_circuit(n: int, seed: int, length: int = 20) -> Circuit:
    """Unconstrained circuit over all gate kinds with seeded parameters."""
    rng = random.Random(seed)
    c = Circuit(n)
    kinds = ["H", "Ry", "Rz"]
    if n >= 2:
        kinds += ["CNOT", "CRy", "CRd", "SWAP"]
    for _ in range(length):
        kind = rng.choice(kinds)
        q = rng.randrange(n)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        if kind == "H":
            c.h(q)
        elif kind == "Ry":
            c.ry(q, theta)
        elif kind == "Rz":
            c.rz(q, theta)
        else:
            other = rng.choice([x for x in range(n) if x != q])
            if kind == "CNOT":
                c.cnot(q, other)
            elif kind == "CRy":
                c.cry(q, other, theta)
            elif kind == "CRd":
                c.crd(q, other, rng.randint(2, 5))
            else:
                c.swap(q, other)
    return c


REFERENCE_CNOTS = {"CNOT": 1, "SWAP": 3, "CRy": 2, "CRd": 2}


def reference_fusion(gates):
    """(gate, fuse) for each gate the lowering writes, by scanning the gate
    list in pairs: fuse is set on a controlled rotation whose next gate is
    a SWAP on the same pair, and that SWAP is skipped."""
    i = 0
    while i < len(gates):
        g = gates[i]
        fuse = (
            g.kind in ("CRy", "CRd")
            and i + 1 < len(gates)
            and gates[i + 1].kind == "SWAP"
            and set(gates[i + 1].qubits) == set(g.qubits)
        )
        yield g, fuse
        i += 2 if fuse else 1


def reference_cnot_count(gates) -> int:
    """CNOTs of the lowered gate list under `reference_fusion`: CNOT 1,
    SWAP 3, controlled rotation 2, and a fused CR+SWAP pair 3."""
    return sum(REFERENCE_CNOTS.get(g.kind, 0) + fuse for g, fuse in reference_fusion(gates))


def reference_rows(gates) -> list[tuple]:
    """Basic (kind, qubits, theta) rows of the gate list, fused by
    `reference_fusion` and lowered by the package's table."""
    return [row for g, fuse in reference_fusion(gates) for row in _rows(g, fuse)]


def replayed_permutation(num_qubits: int, gates) -> tuple[int, ...]:
    """Where each logical qubit ends up, replaying the SWAPs one by one."""
    at = list(range(num_qubits))  # at[u] = logical qubit on physical u
    for g in gates:
        if g.kind == "SWAP":
            a, b = g.qubits
            at[a], at[b] = at[b], at[a]
    position = [0] * num_qubits
    for u, q in enumerate(at):
        position[q] = u
    return tuple(position)


def hash_fold_reference(g, path, angles, l: int, circuit: Circuit) -> Circuit:
    """Append l hashing applications along `path` to `circuit`, building
    every one afresh: forward and reverse in turn, each angle table read
    from the logical qubit at each vertex (the occupancy is tracked across
    applications), and one `construct_for_path` call per application.  The
    lead control, the one of the CRy `circuit` ends with, moves to the
    front of the opening batch, and that opening rotation merges into the
    CRy when both act on one pair.  `angles` holds one angle per control,
    in vertex order with the target `path.vertices[0]` left out.
    """
    controls = [v for v in range(g.n) if v != path.vertices[0]]
    per_logical = dict(zip(controls, angles))
    occ = list(range(g.n))  # occ[u] = logical qubit currently at vertex u
    for i in range(l):
        direction = "forward" if i % 2 == 0 else "reverse"
        verts = path.vertices if i % 2 == 0 else path.vertices[::-1]
        angle_map = {u: per_logical[occ[u]] for u in range(g.n) if u != verts[0]}
        last = circuit.gates[-1] if circuit.gates else None
        lead = last.qubits[0] if last is not None and last.kind == "CRy" else None
        gates = construct_for_path(g, path, angle_map, direction).gates
        if lead in g.adjacency[verts[0]] and lead not in verts:
            # it fired in the opening batch, whose rotations commute
            j = next(j for j, x in enumerate(gates) if x.qubits[0] == lead)
            gates.insert(0, gates.pop(j))
        if last is not None and last.kind == gates[0].kind == "CRy" and last.qubits == gates[0].qubits:
            merged = Gate("CRy", last.qubits, theta=last.theta + gates[0].theta)
            # the circuit's fuse mark and count for its last gate stand for
            # the kind and the pair
            assert (merged.kind, merged.qubits) == (last.kind, last.qubits)
            circuit.gates[-1] = merged
            gates = gates[1:]
        circuit.extend(gates)
        for cur, nxt in zip(verts, verts[1:]):
            occ[cur], occ[nxt] = occ[nxt], occ[cur]
    return circuit


def connected_without(g, vertices, removed) -> bool:
    """Whether `vertices` minus `removed` induce a connected subgraph of g
    (breadth-first from any one of them)."""
    rest = set(vertices) - {removed}
    if not rest:
        return True
    start = next(iter(rest))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if u in rest and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(rest)


def internal_tree_walk(g, alive=None):
    """(length, vertex count) of a shortest covering walk of a tree on 3
    or more vertices, in closed form: the walk stays on the I internal
    vertices, a subtree, and walks every edge of it twice but those of one
    longest path, so its length is 2(I - 1) - diam, diam found by two BFS
    passes over that subtree.  With `alive`, the tree is the subgraph of g
    that those vertices induce."""
    alive = range(g.n) if alive is None else alive
    internal = {v for v in alive if sum(u in alive for u in g.adjacency[v]) > 1}

    def farthest(start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.adjacency[v]:
                if u in internal and u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        far = max(dist, key=dist.get)
        return far, dist[far]

    end, _ = farthest(min(internal))
    _, diam = farthest(end)
    return 2 * (len(internal) - 1) - diam, len(internal)


def park_search(g, alive, path):
    """The park a search over the neighbors of the walk's end finds: the
    largest one whose removal keeps the survivors `alive` connected, off
    the walk first, on the walk as a fallback; None when none does."""
    nbrs = [u for u in g.adjacency[path[-1]] if u in alive]
    off_walk = sorted((u for u in nbrs if u not in path), reverse=True)
    on_walk = sorted((u for u in nbrs if u in path), reverse=True)
    return next((u for u in off_walk + on_walk if connected_without(g, alive, u)), None)


def cascade_stages_reference(g):
    """(walk, park) of every stage of `construct_s` but the last two, with
    each stage's survivors taken as an induced subgraph and solved afresh
    by `solve_cactus` (by brute force where they are no cactus), and each
    park found by `park_search`.  A plan holds nothing more: its records
    are these walks and parks, and the labels and the occupancy are
    replayed from them.  Each cascade's controls and phase orders are read
    at emission, from the labels and the circuit's layout.
    """
    alive = list(range(g.n))
    stages = []
    for _ in range(1, g.n - 1):
        sub, old = g.induced_subgraph(alive)
        try:
            walk = solve_cactus(sub)
        except NotACactus:
            walk = brute_force_oracle(sub)
        path = tuple(old[i] for i in walk.vertices)
        park = park_search(g, alive, path)
        assert park is not None, "every neighbor of the walk's end disconnects the rest"
        stages.append((path, park))
        alive.remove(park)
    return stages


def shortest_simple_covering_walk(g, limit: int = 14):
    """Shortest simple 1-covering walk of g (no vertex twice), or None when
    g has none.

    Exhaustive DFS over the simple paths from every start vertex, cut off
    once a path is no shorter than the best found; no solver is called.
    Exponential in n, so it refuses graphs above `limit` vertices.
    """
    if g.n > limit:
        raise ValueError(f"n={g.n} exceeds the search limit {limit}")
    full = (1 << g.n) - 1
    closed_nbhd = [(1 << v) | sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]
    best = None

    def extend(path, on_path, covered):
        nonlocal best
        if covered == full:
            if best is None or len(path) < len(best):
                best = tuple(path)
            return
        if best is not None and len(path) + 1 >= len(best):
            return
        for u in g.adjacency[path[-1]]:
            if not on_path >> u & 1:
                path.append(u)
                extend(path, on_path | 1 << u, covered | closed_nbhd[u])
                path.pop()

    for v in range(g.n):
        extend([v], 1 << v, closed_nbhd[v])
    return best


def fewest_revisits(g, k: int, limit: int = 14):
    """Fewest revisits (k minus distinct vertices) over all 1-covering walks
    of g with exactly k elements, or None when no such walk exists.

    Breadth-first over (vertex, covered set, visited set), one layer per
    walk element; no solver is called.  Exponential in n, so it refuses
    graphs above `limit` vertices.
    """
    if g.n > limit:
        raise ValueError(f"n={g.n} exceeds the search limit {limit}")
    full = (1 << g.n) - 1
    closed_nbhd = [(1 << v) | sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]
    layer = {(v, closed_nbhd[v], 1 << v) for v in range(g.n)}
    for _ in range(k - 1):
        layer = {
            (u, covered | closed_nbhd[u], visited | 1 << u)
            for v, covered, visited in layer
            for u in g.adjacency[v]
        }
    distinct = [visited.bit_count() for _, covered, visited in layer if covered == full]
    return k - max(distinct) if distinct else None
