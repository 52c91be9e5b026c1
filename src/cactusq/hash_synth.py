"""Shallow quantum-hashing synthesis along a covering path.

`target_walk` is the walk both syntheses share: the target rides the
covering path and every other qubit fires once, off-path neighbors where
the walk first passes them and path vertices fused with the SWAP that
moves the target onto them.  One hashing application is that walk with
controlled Ry gates (`qft_synth` adds an H and a park SWAP for a QFT
cascade).  Repeated applications alternate walk direction so consecutive
applications meet on a shared control, and that boundary pair merges into
one double-angle rotation.  The reverse SWAPs undo the forward ones, so
the qubits are back in place after every pair of applications and the
fold repeats with a period of two: each distinct application is built
once and its gates are appended again for every later one.  Also
contains the Theorem-style cost formula, the good-coefficient-set search,
and the full MOD_p automaton circuit (H sandwich around the repeated
operator).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import zip_longest

from .circuit_ir import Circuit, CostReport, Gate, cnot_cost
from .covering_path import CoveringPath, solve_cactus
from .graph_core import Graph
from .verify_sim import check_good_set


class PathNotCovering(Exception):
    """Some control qubit is never adjacent to the walking target."""


class SearchExhausted(Exception):
    """No good coefficient set found within the trial budget."""


def _fingerprint_count(p: int, epsilon: float) -> int:
    """t = ceil((2/epsilon) ln 2p), once p >= 2 and 0 < epsilon < 0.5 hold."""
    if p < 2:
        raise ValueError("modulus must be at least 2")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    t = (2.0 / epsilon) * math.log(2 * p)
    if math.isinf(t):
        raise ValueError(f"epsilon {epsilon!r} is too small")
    return math.ceil(t)


@dataclass(frozen=True)
class HashParams:
    """Modulus, error bound, and the drawn coefficient set with its angles.

    `t` is the fingerprint count ceil((2/epsilon) ln 2p); the drawn set may
    deliberately have a different size (e.g. one coefficient per control
    qubit).  Circuit angles are 4*pi*k/p: the controlled Ry applies half its
    angle to the amplitude, so after l applications the all-zero amplitude
    picks up cos(2*pi*k*l/p) per control and closes exactly at l = 0 mod p.
    """

    p: int
    epsilon: float
    t: int
    coefficients: tuple[int, ...]
    angles: tuple[float, ...]

    @staticmethod
    def from_coefficients(p: int, epsilon: float, coefficients) -> "HashParams":
        t = _fingerprint_count(p, epsilon)
        ks = tuple(int(k) for k in coefficients)
        return HashParams(
            p=p,
            epsilon=epsilon,
            t=t,
            coefficients=ks,
            angles=tuple(4.0 * math.pi * k / p for k in ks),
        )


@dataclass(frozen=True)
class HashSynthesisResult:
    circuit: Circuit
    path: CoveringPath
    cost: CostReport
    target_start: int
    l: int


def theorem1_cost(n: int, k: int, k_distinct: int, l: int) -> int:
    """CNOT count of the merged l-fold circuit: (3k + 2(n-k'))l - 5l + 2,
    with k the covering-path element count and k' its distinct count."""
    return (3 * k + 2 * (n - k_distinct)) * l - 5 * l + 2


def _check_per_control(g: Graph, count: int) -> None:
    """Refuse an angle or coefficient count other than one per control."""
    if count != g.n - 1:
        raise ValueError(f"need one coefficient per control ({g.n - 1}), got {count}")


def _angle_of(angles, g: Graph, target: int):
    """The angle lookup of the controls: `angles` is a dict by vertex, or a
    sequence with one angle per control, every vertex but `target` in
    ascending order."""
    if isinstance(angles, dict):
        return angles.__getitem__
    _check_per_control(g, len(angles))
    return dict(zip((v for v in range(g.n) if v != target), angles)).__getitem__


def target_walk(g: Graph, verts, controls: set[int], descending: bool,
                gate) -> tuple[list[Gate], set[int]]:
    """Walk the target from verts[0] along `verts`, firing each control once.

    At each walk vertex its neighbors in `controls` that are off the walk
    and have not fired yet fire in ascending order (descending when
    `descending`); then the next walk vertex fires, unless it already has,
    and a SWAP moves the target onto it (the pair fuses when lowered).
    The start vertex holds the target and never fires.  `gate(u, at)`
    builds control u's gate onto the target at `at`.  Returns the gates and
    the set of vertices fired.
    """
    start = verts[0]
    pending = controls - set(verts)  # off-walk controls yet to fire
    gates: list[Gate] = []
    fired: set[int] = set()
    for at, nxt in zip_longest(verts, verts[1:]):
        nbrs = g.adjacency[at]
        for u in (nbrs[::-1] if descending else nbrs):
            if u in pending:
                gates.append(gate(u, at))
                fired.add(u)
                pending.remove(u)
        if nxt is None:
            break
        if nxt != start and nxt not in fired:
            gates.append(gate(nxt, at))
            fired.add(nxt)
        gates.append(Gate("SWAP", (at, nxt)))
    return gates, fired


def construct_for_path(g: Graph, path, angles, direction: str = "forward",
                       lead_control: int | None = None) -> Circuit:
    """One application of the hashing operator along a covering path, as a
    new circuit on device g.

    The target walks the path (`target_walk`) firing a CRy from every other
    qubit once.  `reverse` walks the path backward with descending neighbor
    order.  The rotations fired at one vertex commute, so `lead_control`
    (when present in the opening batch) is moved to the front; repeated
    applications use it to start on the control the previous application
    ended with, so that `_append_merged` can merge the opening CRy into the
    gate the previous application ends with.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    verts = list(path.vertices if isinstance(path, CoveringPath) else path)
    if direction == "reverse":
        verts.reverse()
    start = verts[0]
    ang = _angle_of(angles, g, start)
    gates, fired = target_walk(g, verts, set(range(g.n)), direction == "reverse",
                               lambda u, at: Gate("CRy", (u, at), theta=ang(u)))
    if lead_control in g.adjacency[start] and lead_control not in verts:
        # it fired in the opening batch, whose rotations commute
        i = next(i for i, x in enumerate(gates) if x.qubits[0] == lead_control)
        gates.insert(0, gates.pop(i))
    c = Circuit(g.n, device=g)
    c.extend(gates)
    missed = set(range(g.n)) - fired - {start}
    if missed:
        raise PathNotCovering(f"vertices never reached as controls: {sorted(missed)}")
    return c


def _append_merged(c: Circuit, gates: list[Gate]) -> None:
    """Append `gates` to `c`, merging an opening CRy on the pair `c` ends
    with into that gate."""
    last = c.gates[-1] if c.gates else None
    if (last is not None and gates and last.kind == gates[0].kind == "CRy"
            and last.qubits == gates[0].qubits):
        # a rotation moves no qubit, so replacing it keeps the layout
        c.gates[-1] = Gate("CRy", last.qubits, theta=last.theta + gates[0].theta)
        gates = gates[1:]
    c.extend(gates)


def _fold_applications(g: Graph, path: CoveringPath, per_logical, l: int,
                       circuit: Circuit) -> None:
    """Append l applications to `circuit`, alternating forward/reverse, with
    boundary merges.

    Angles attach to logical qubits, and the SWAPs shift logical qubits
    along the path, so each application's per-vertex angle table is built
    from the occupancy at that application's start (any control fires
    before the walk first disturbs its vertex, so that table is exact).  A
    reverse application undoes the forward one's SWAPs, so that occupancy,
    and with it the angle table, depends on i % 2 only, and the gates on
    i % 2 and the lead control.  `construct_for_path` builds each such
    application once, on a circuit of its own; its gates are then appended
    again, through `Circuit.append`'s checks, for every later application
    with the same parity and lead.  Only a merged boundary rotation is a
    new gate.
    """
    forward = list(path.vertices)
    occ = list(range(g.n))  # occ[u] = logical qubit at vertex u after a forward pass
    for cur, nxt in zip(forward, forward[1:]):
        occ[cur], occ[nxt] = occ[nxt], occ[cur]
    occupancy = (range(g.n), occ)  # at the start of an even / an odd application
    built: dict[tuple[int, int | None], list[Gate]] = {}
    for i in range(l):
        parity = i % 2
        last = circuit.gates[-1] if circuit.gates else None
        lead = last.qubits[0] if last is not None and last.kind == "CRy" else None
        gates = built.get((parity, lead))
        if gates is None:
            start = forward[-1] if parity else forward[0]
            angle_map = {u: per_logical(occupancy[parity][u]) for u in range(g.n) if u != start}
            direction = "reverse" if parity else "forward"
            gates = built[parity, lead] = construct_for_path(
                g, path, angle_map, direction, lead_control=lead).gates
        _append_merged(circuit, gates)


def synthesize_hash(g: Graph, l: int, params: HashParams) -> HashSynthesisResult:
    """l-fold hashing operator on the device graph, with boundary merges.
    `params` holds one coefficient per control: every vertex but the
    walk's start, in ascending order."""
    if l < 1:
        raise ValueError("application count must be at least 1")
    if g.n < 2:
        raise ValueError("hashing needs at least 2 qubits")
    _check_per_control(g, len(params.angles))
    path = solve_cactus(g)
    per_logical = _angle_of(params.angles, g, path.vertices[0])
    circuit = Circuit(g.n, device=g)
    _fold_applications(g, path, per_logical, l, circuit)
    cost = CostReport(
        cnot_count=cnot_cost(circuit),
        formula_value=theorem1_cost(g.n, path.k, path.k_distinct, l),
        formula_name="merged l-fold cost (3k + 2(n-k'))l - 5l + 2",
        parameters={"n": g.n, "k": path.k, "k_distinct": path.k_distinct, "l": l},
    )
    return HashSynthesisResult(
        circuit=circuit,
        path=path,
        cost=cost,
        target_start=path.vertices[0],
        l=l,
    )


def hash_reference_circuit(g: Graph, l: int, angles, target_start: int) -> Circuit:
    """Device-free comparator for the l-fold operator: one CRy per control,
    aimed straight at the target qubit with the l-fold angle."""
    lookup = _angle_of(angles, g, target_start)
    c = Circuit(g.n)
    for v in range(g.n):
        if v != target_start:
            c.cry(v, target_start, l * lookup(v))
    return c


def _induced_ok(ks, p: int, epsilon: float) -> bool:
    """Bound the automaton's all-zero amplitude at every nonzero residue:
    the w independent controls realize all 2^w subset sums, whose cosine
    average factors as prod_j cos(pi g k_j / p) * cos(pi g sum(k) / p)."""
    total = sum(ks)
    for g in range(1, p):
        amp = math.cos(math.pi * g * total / p)
        for k in ks:
            amp *= math.cos(math.pi * g * k / p)
        if amp * amp >= epsilon:
            return False
    return True


def find_good_set(p: int, epsilon: float, seed: int = 0,
                  max_trials: int = 20000, size: int | None = None) -> HashParams:
    """Random search for a coefficient set keeping every nonzero residue's
    acceptance below epsilon (both per the direct mean-cosine condition and
    for the subset-sum automaton).  Deterministic under `seed`.
    """
    t = _fingerprint_count(p, epsilon)
    draw = size if size is not None else t
    if draw < 1:
        raise ValueError("a coefficient set needs at least one coefficient")
    rng = random.Random(seed)
    for _ in range(max_trials):
        ks = tuple(rng.randrange(1, p) for _ in range(draw))
        if _induced_ok(ks, p, epsilon) and check_good_set(ks, p, epsilon)[0]:
            return HashParams.from_coefficients(p, epsilon, ks)
    raise SearchExhausted(
        f"no good set of size {draw} for p={p}, epsilon={epsilon} "
        f"in {max_trials} trials"
    )


def build_modp_automaton(g: Graph, l: int, params: HashParams) -> Circuit:
    """MOD_p acceptance circuit: H on all control qubits, l applications of
    the hashing operator, and closing H gates at each control's final
    physical position.  Accepts on the all-zero outcome."""
    if l < 0:
        raise ValueError("application count must be nonnegative")
    if g.n < 2:
        raise ValueError("the automaton needs at least 2 qubits")
    _check_per_control(g, len(params.coefficients))
    path = solve_cactus(g)
    target = path.vertices[0]
    controls = [v for v in range(g.n) if v != target]
    circuit = Circuit(g.n, device=g)
    for v in controls:
        circuit.h(v)
    if l > 0:
        per_logical = _angle_of(params.angles, g, target)
        _fold_applications(g, path, per_logical, l, circuit)
    final = circuit.final_permutation
    for v in controls:
        circuit.h(final[v])
    return circuit
