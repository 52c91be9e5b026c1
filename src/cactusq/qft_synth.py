"""QFT synthesis on a cactus device via cascades of covering paths.

`construct_s` simulates the whole schedule once: at stage r it solves the
covering path on the vertices still in play, labels the qubit at the path
start with r, rides it along the path's SWAPs, then parks it on the
largest neighbor of the path end that is off the walk, which is excluded
from later stages.  Such a neighbor exists, and removing it keeps the
vertices left connected, because the walk is a shortest 1-covering walk
of them: were every neighbor of the end on the walk, the walk without its
end would still cover them, and every vertex left is on the walk or next
to it, while the walk avoids the park.  One solver serves the stages of
a cactus: a park that is a pendant of the vertices left is removed from
it in place, and so is one that opens a cycle, the only other kind of
vertex whose removal keeps a cactus connected.  The stage walks are those
of solving every stage afresh, and a plan holds only the walks and
parks.
The final labels make every cascade a textbook QFT cascade in label
space: cascade r applies H to the label-r qubit and a controlled phase of
order (label - r + 1) from each qubit labelled above r.
`cascade_for_path` reads the labels off the layout of the circuit it
appends to, and emits one cascade into it as an H on the target and the
hashing walk (`hash_synth.target_walk`, which reads the device from that
circuit and writes into it) with controlled phases along the path and on
to the park, its last step: the park fires as that step's target and the
SWAP parks the target there.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .circuit_ir import Circuit, CostReport, Gate, cnot_cost
from .covering_path import ORACLE_LIMIT, CactusSolver, brute_force_oracle
from .graph_core import Graph, NotACactus, NotConnected
from .hash_synth import target_walk


@dataclass(frozen=True)
class CascadeRecord:
    """One stage's walk and park: cascade r's target starts at path[0] and
    is parked on `park` (None at the last two stages)."""

    r: int
    path: tuple[int, ...]
    park: int | None


@dataclass(frozen=True)
class CascadePlan:
    """Final labels S, final occupancy A, and each cascade's walk and park.

    S[v] is the cascade number (1..n) of the qubit that starts on vertex
    v; A[v] is the qubit resting on vertex v after all SWAPs.
    """

    S: tuple[int, ...]
    A: tuple[int, ...]
    cascades: tuple[CascadeRecord, ...]


def construct_s(g: Graph) -> CascadePlan:
    """Run the full scheduling simulation and record each stage's walk and
    park; the labels and the occupancy follow from these alone.  The park
    is the walk's last step: the largest neighbor of its end off the walk.

    One `CactusSolver`, built on g, serves every stage of a cactus: each
    park is removed from it in place, as a pendant of the vertices in play
    (`CactusSolver.remove_pendant`) or as the vertex that opens a cycle
    (`CactusSolver.open_cycle`).  Vertices left that form no cactus
    (e.g. complete graphs) fall back to brute-force search, stage by
    stage, on the subgraph they induce, up to `ORACLE_LIMIT` vertices;
    above it the `NotACactus` is raised again, naming that limit.  The
    first stage whose survivors form a cactus builds the solver that
    serves the rest."""
    n = g.n
    if n < 2:
        raise ValueError("the schedule needs at least 2 qubits")
    occ = list(range(n))  # occ[v] = qubit currently at vertex v
    labels = [0] * n      # labels[q] = cascade number of qubit q
    alive = set(range(n))
    records = []
    # the survivors as a graph of their own, all of g at first: vertex i
    # of sub stands for vertex old[i] of g, in increasing order
    sub, old = g, range(n)
    solver = None
    for r in range(1, n - 1):
        if solver is None:
            try:
                solver = CactusSolver(sub)
            except NotACactus as exc:
                if sub.n > ORACLE_LIMIT:
                    raise NotACactus(f"{exc}, and the brute-force fallback takes at most "
                                     f"{ORACLE_LIMIT} vertices, not {sub.n}") from exc
        walk = brute_force_oracle(sub) if solver is None else solver.walk()
        path = tuple(old[i] for i in walk.vertices)
        # the largest neighbor of the walk's end off the walk: one exists,
        # and removing it keeps the rest connected (module docstring)
        park = max(alive.intersection(g.adjacency[path[-1]]).difference(path), default=None)
        assert park is not None, f"every neighbor of the walk's end is on the walk {path}"
        labels[occ[path[0]]] = r
        for cur, nxt in zip(path, path[1:] + (park,)):
            occ[cur], occ[nxt] = occ[nxt], occ[cur]
        records.append(CascadeRecord(r, path, park))
        alive.remove(park)
        if solver is None:
            sub, old = g.induced_subgraph(alive)
        else:
            # the park keeps the rest connected, so it is a pendant or the
            # lone vertex of a cycle with no other neighbours
            i = bisect_left(old, park)
            if not (solver.remove_pendant(i) or solver.open_cycle(i)):
                raise AssertionError(f"park {park} is neither a pendant nor opens a cycle")
    a, b = sorted(alive)
    if not g.has_edge(a, b):  # parks keep the rest connected, so only n = 2
        raise NotConnected(f"vertex {b} unreachable from {a}")
    labels[occ[a]] = n - 1
    labels[occ[b]] = n
    records += [CascadeRecord(n - 1, (a,), None), CascadeRecord(n, (b,), None)]
    assert sorted(labels) == list(range(1, n + 1))
    return CascadePlan(S=tuple(labels), A=tuple(occ), cascades=tuple(records))


def cascade_for_path(record: CascadeRecord, circuit: Circuit,
                     labels: tuple[int, ...]) -> Circuit:
    """Append cascade `record.r` to `circuit` and return it: H on the
    target, then `target_walk` on `circuit.device`, writing CRd gates into
    `circuit` along the path and on to the park, so the park fires as the
    last step's target and that step's SWAP parks the target.

    `labels[q]` is the cascade number of qubit q (`CascadePlan.S`), and
    `circuit` must hold the earlier cascades, since each vertex's label is
    read from its layout.  Parked qubits hold labels below r and never
    move again, so the vertices in play are those labelled r or above: the
    target, and the controls, each of phase order label - r + 1."""
    r, path, park = record.r, record.path, record.park
    pos = circuit.final_permutation
    label = {pos[q]: s for q, s in enumerate(labels) if s >= r}
    assert label.get(path[0]) == r, "the target does not carry its cascade's label"
    steps = path if park is None else path + (park,)
    circuit.h(path[0])
    fired = target_walk(circuit, steps, label.keys(), False,
                        lambda u, at: Gate("CRd", (u, at), d=label[u] - r + 1))
    assert fired | {path[0]} == label.keys(), "a control was never reached"
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
            parameters={"n": 1, "K": 0, "k1": 1, "S": (1,), "theorem2_bound": 2},
        )
        return c, report
    plan = construct_s(g)
    circuit = Circuit(n, device=g)
    for rec in plan.cascades:
        cascade_for_path(rec, circuit, plan.S)
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
    # walk of the stage's vertices revisits (solve_cactus's tie-break)
    assert cnots == big_k + n * n - n - 1 + 2 * revisits
    report = CostReport(
        cnot_count=cnots,
        formula_value=big_k + n * n - n - 1,
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
