"""QFT synthesis on a cactus device via cascades of covering paths.

`construct_s` simulates the whole schedule once: at stage r it solves the
covering path on the surviving subgraph, labels the qubit at the path
start with r, rides it along the path's SWAPs, then parks it on a spare
neighbor of the path end, which is excluded from later stages.  One
solver serves the stages: a park that is a pendant of the survivors is
removed from it in place, and only other parks (those that open a cycle,
or the least survivor while a cycle is left) have it built again.  The
stage walks are those of solving every stage afresh.  The final
labels make every cascade a textbook QFT cascade in label space:
cascade r applies H to the label-r qubit and a controlled phase of order
(label - r + 1) from each survivor.  `cascade_for_path` emits one cascade
as the hashing walk (`hash_synth.target_walk`) with controlled phases,
after an H on the target and before the park: the park vertex sits out of
the walk's firing, so its phase gate fuses with the closing park SWAP
(phase gates commute, and the parked occupant never moves mid-cascade).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from .circuit_ir import Circuit, CostReport, Gate, cnot_cost
from .covering_path import CactusSolver, brute_force_oracle
from .graph_core import Graph, NotACactus, NotConnected
from .hash_synth import target_walk


class DisconnectedRemainder(Exception):
    """No admissible park vertex keeps the surviving subgraph connected."""


@dataclass(frozen=True)
class CascadeRecord:
    """Everything needed to emit one cascade."""

    r: int
    path: tuple[int, ...]  # the target starts at path[0]
    park: int | None
    survivors: tuple[int, ...]
    d_of: tuple[tuple[int, int], ...]  # (control vertex, phase order)


@dataclass(frozen=True)
class CascadePlan:
    """Final labels S, final occupancy A, and the per-cascade records.

    S[v] is the cascade number (1..n) of the qubit that starts on vertex
    v; A[v] is the qubit resting on vertex v after all SWAPs.
    """

    n: int
    S: tuple[int, ...]
    A: tuple[int, ...]
    cascades: tuple[CascadeRecord, ...]


def _connected_without(adjacency, vertices: set[int], removed: int) -> bool:
    rest = vertices - {removed}
    if not rest:
        return True
    start = next(iter(rest))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if u in rest and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(rest)


def _choose_park(g: Graph, survivors: set[int], path: tuple[int, ...]) -> int:
    """Maximal-index neighbor of the path end whose removal keeps the rest
    connected; unvisited neighbors are preferred, visited ones are a
    recorded fallback."""
    end = path[-1]
    on_path = set(path)
    nbrs = [u for u in g.adjacency[end] if u in survivors]
    unvisited = sorted((u for u in nbrs if u not in on_path), reverse=True)
    visited = sorted((u for u in nbrs if u in on_path), reverse=True)
    for u in unvisited + visited:
        if _connected_without(g.adjacency, survivors, u):
            return u
    raise DisconnectedRemainder(
        f"every neighbor of {end} disconnects the remaining {sorted(survivors)}"
    )


def construct_s(g: Graph) -> CascadePlan:
    """Run the full scheduling simulation and fix all cascade records.

    One `CactusSolver` on the induced survivors serves the stages.  A park
    it can remove in place (a pendant of the survivors, see
    `CactusSolver.remove_pendant`) keeps it; any other park, such as one
    that opens a cycle, has it built again on the survivors that are
    left.  Survivors that are no cactus (e.g. complete graphs) fall back
    to brute-force search, stage by stage."""
    n = g.n
    if n < 2:
        raise ValueError("the schedule needs at least 2 qubits")
    occ = list(range(n))  # occ[v] = qubit currently at vertex v
    labels = [0] * n      # labels[q] = cascade number of qubit q
    alive = list(range(n))
    staged: list[tuple[int, tuple[int, ...], int | None, tuple[int, ...], tuple[int, ...]]] = []
    solver = None
    for r in range(1, n - 1):
        if solver is None:
            # old[i]: the vertex of g that vertex i of sub stands for, in
            # increasing order
            sub, old = g.induced_subgraph(alive)
            try:
                solver = CactusSolver(sub)
            except NotACactus:
                pass
        walk = brute_force_oracle(sub) if solver is None else solver.walk()
        path = tuple(old[i] for i in walk.vertices)
        snapshot = tuple(occ)
        labels[occ[path[0]]] = r
        for cur, nxt in zip(path, path[1:]):
            occ[cur], occ[nxt] = occ[nxt], occ[cur]
        park = _choose_park(g, set(alive), path)
        end = path[-1]
        occ[end], occ[park] = occ[park], occ[end]
        staged.append((r, path, park, tuple(alive), snapshot))
        alive.remove(park)
        if solver is not None and not solver.remove_pendant(bisect_left(old, park)):
            solver = None
    a, b = sorted(alive)
    if not g.has_edge(a, b):  # parks keep survivors connected, so only n = 2
        raise NotConnected(f"vertex {b} unreachable from {a}")
    labels[occ[a]] = n - 1
    labels[occ[b]] = n
    staged.append((n - 1, (a,), None, (a, b), tuple(occ)))
    staged.append((n, (b,), None, (b,), tuple(occ)))

    records = []
    for r, path, park, survivors, snapshot in staged:
        d_of = []
        for u in survivors:
            if u == path[0]:
                continue
            d = labels[snapshot[u]] - r + 1
            assert d >= 2, "control scheduled before its own cascade"
            d_of.append((u, d))
        records.append(
            CascadeRecord(
                r=r,
                path=path,
                park=park,
                survivors=survivors,
                d_of=tuple(sorted(d_of)),
            )
        )
    assert sorted(labels) == list(range(1, n + 1))
    return CascadePlan(n=n, S=tuple(labels), A=tuple(occ), cascades=tuple(records))


def cascade_for_path(g: Graph, record: CascadeRecord, circuit: Circuit) -> Circuit:
    """Append one cascade to `circuit` and return it: H on the target,
    `target_walk` with CRd gates (the park sits out of its firing), then
    the park's CRd fused with the park SWAP."""
    path, park = record.path, record.park
    d = dict(record.d_of)
    surv = set(record.survivors)
    gates, fired = target_walk(g, path, surv - {park}, False,
                               lambda u, at: Gate("CRd", (u, at), d=d[u]))
    circuit.h(path[0])
    circuit.extend(gates)
    if park is not None:
        end = path[-1]
        if park not in fired:  # else the walk fired it as a step target
            circuit.crd(park, end, d[park])
            fired.add(park)
        circuit.swap(end, park)
    assert fired | {path[0]} == surv, "a control was never reached"
    return circuit


def synthesize_qft(g: Graph) -> tuple[Circuit, CostReport]:
    """Full QFT circuit for the device plus the cost report."""
    n = g.n
    if n == 1:
        c = Circuit(1, device=g)
        c.h(0)
        report = CostReport(
            cnot_count=0,
            formula_value=0,
            formula_name="cascade-path bound K + n^2 - n - 1",
            parameters={"n": 1, "K": 0, "k1": 1, "S": (1,), "theorem2_bound": 2},
        )
        return c, report
    plan = construct_s(g)
    circuit = Circuit(n, device=g)
    for rec in plan.cascades:
        cascade_for_path(g, rec, circuit)
    final = circuit.final_permutation
    for v in range(n):
        assert final[plan.A[v]] == v, "layout trace drifted from the plan"
    big_k = sum(len(rec.path) for rec in plan.cascades if rec.r <= n - 1)
    k1 = len(plan.cascades[0].path)
    revisits = sum(len(rec.path) - len(set(rec.path)) for rec in plan.cascades)
    cnots = cnot_cost(circuit)
    # the emission satisfies cnot = bound + 2*revisits exactly; a walk step
    # into an already-serviced vertex is a bare SWAP with nothing to fuse.
    # On a cactus a stage walk revisits only where every shortest covering
    # walk of the stage's survivors revisits (solve_cactus's tie-break)
    assert cnots == big_k + n * n - n - 1 + 2 * revisits
    report = CostReport(
        cnot_count=cnots,
        formula_value=big_k + n * n - n - 1,
        formula_name="cascade-path bound K + n^2 - n - 1",
        parameters={
            "n": n,
            "K": big_k,
            "k1": k1,
            "S": plan.S,
            "revisit_excess": 2 * revisits,
            "theorem2_bound": 2 * n * n,
            "corollary2_bound": n * k1 - (k1 * k1 + 3 * k1) // 2 + n * n - n,
            "corollary3_low": n * n - 2 * n - 2,
            "corollary3_high": 2 * n * n - 2 * n - 2,
        },
    )
    return circuit, report
