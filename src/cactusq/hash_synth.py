"""Shallow quantum-hashing synthesis along a covering path.

`target_walk` is the walk both syntheses share: the target rides the
covering path and every other qubit fires once, off-path neighbors where
the walk first passes them and path vertices fused with the SWAP that
moves the target onto them.  One hashing application is that walk with
controlled Ry gates (a QFT cascade in `qft_synth` is an H and the walk
with controlled phases, with one more step onto the park).  Repeated
applications alternate walk direction so consecutive applications meet on
a shared control: the CRy one application ends with and its partner among
the next one's opening rotations, which commute, merge into one
double-angle rotation at the seam.  The reverse SWAPs undo the forward
ones, so the qubits are back in place after every pair of applications
and the fold repeats with a period of two: the forward and the reverse
application are each built once as a circuit, and every application
appends one of them, or one with its seam partner left out, whole.  Also
contains the Theorem 1 cost formula (asserted by `synthesize_hash`), the
MOD_p coefficient math (the good-set check and the automaton's
closed-form acceptance), the good-coefficient-set search, and the full
MOD_p automaton circuit (H sandwich around the repeated operator).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import zip_longest

from .circuit_ir import Circuit, CostReport, Gate, cnot_cost
from .covering_path import CoveringPath, solve_cactus
from .graph_core import Graph

# random coefficient sets drawn by find_good_set before it gives up
MAX_TRIALS = 20000


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


def target_walk(circuit: Circuit, verts, controls: set[int], descending: bool,
                gate) -> set[int]:
    """Walk the target from verts[0] along `verts` on `circuit.device`,
    firing each control once, and append the walk's gates to `circuit`.

    At each walk vertex its neighbors in `controls` that are off the walk
    and have not fired yet fire in ascending order (descending when
    `descending`); then the next walk vertex fires, unless it already has,
    and a SWAP moves the target onto it (the pair fuses when lowered).
    The start vertex holds the target and never fires.  `gate(u, at)`
    builds control u's gate onto the target at `at`.  Returns the set of
    vertices fired.
    """
    start = verts[0]
    adjacency = circuit.device.adjacency
    pending = controls - set(verts)  # off-walk controls yet to fire
    fired: set[int] = set()
    out: list[Gate] = []
    for at, nxt in zip_longest(verts, verts[1:]):
        nbrs = adjacency[at]
        for u in (nbrs[::-1] if descending else nbrs):
            if u in pending:
                out.append(gate(u, at))
                fired.add(u)
                pending.remove(u)
        if nxt is None:
            break
        if nxt != start and nxt not in fired:
            out.append(gate(nxt, at))
            fired.add(nxt)
        out.append(Gate("SWAP", (at, nxt)))
    circuit.extend(out)
    return fired


def construct_for_path(g: Graph, path, angles, direction: str = "forward") -> Circuit:
    """One application of the hashing operator along a covering path, as a
    new circuit on device g.

    The target walks the path (`target_walk`, which writes into that
    circuit) firing a CRy from every other qubit once.  `reverse` walks the
    path backward with descending neighbor order.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    verts = list(path.vertices if isinstance(path, CoveringPath) else path)
    if direction == "reverse":
        verts.reverse()
    start = verts[0]
    ang = _angle_of(angles, g, start)
    c = Circuit(g.n, device=g)
    fired = target_walk(c, verts, set(range(g.n)), direction == "reverse",
                        lambda u, at: Gate("CRy", (u, at), theta=ang(u)))
    missed = set(range(g.n)) - fired - {start}
    if missed:
        raise PathNotCovering(f"vertices never reached as controls: {sorted(missed)}")
    return c


def _seam_partner(c: Circuit, gates: list[Gate]) -> int | None:
    """Index of the partner of the CRy `c` ends with in the application
    `gates`: the CRy on the same pair among its opening rotations, those
    before its first SWAP.  These all aim at the walk's start and commute,
    so the partner can move to the seam and merge there."""
    last = c.gates[-1] if c.gates else None
    if last is not None and last.kind == "CRy":
        for j, x in enumerate(gates):
            if x.kind != "CRy":
                break
            if x.qubits == last.qubits:
                return j
    return None


def _fold_applications(path: CoveringPath, angles, l: int, circuit: Circuit) -> None:
    """Append l applications to `circuit`, alternating forward/reverse, each
    merged into the last at its seam (`_seam_partner`).

    `angles` (read by `_angle_of`, with the path's first vertex as the
    target) attach to logical qubits, and the SWAPs shift logical qubits
    along the path, so an application's per-vertex angle table is read from
    `circuit.final_permutation` at its start (any control fires before the
    walk first disturbs its vertex, so that table is exact).  A reverse
    application undoes the forward one's SWAPs, so application i repeats
    application i % 2: `construct_for_path` builds the forward one at i = 0
    and the reverse one at i = 1, each as a circuit of its own on
    `circuit.device`, and so is each of them with its seam partner left
    out, the first time that is needed.  Every application appends one of
    these circuits whole, so the same `Gate` objects recur; only a merged
    seam rotation is a new gate.
    """
    g = circuit.device
    target = path.vertices[0]
    per_logical = _angle_of(angles, g, target)
    built: list[Circuit] = []
    trimmed: dict[tuple[int, int], Circuit] = {}  # (i % 2, partner) -> the rest
    for i in range(l):
        if i < 2:
            angle_map = {u: per_logical(q)
                         for q, u in enumerate(circuit.final_permutation) if q != target}
            direction = "reverse" if i else "forward"
            built.append(construct_for_path(g, path, angle_map, direction))
        app = built[i % 2]
        j = _seam_partner(circuit, app.gates)
        if j is None:
            circuit.extend(app)
            continue
        last = circuit.gates[-1]
        merged = Gate("CRy", last.qubits, theta=last.theta + app.gates[j].theta)
        # a rotation moves no qubit, and the circuit's fuse mark and count
        # for its last gate stand for the kind and the pair, which stay
        assert (merged.kind, merged.qubits) == (last.kind, last.qubits)
        circuit.gates[-1] = merged
        rest = trimmed.get((i % 2, j))
        if rest is None:
            rest = trimmed[i % 2, j] = Circuit(g.n, device=g)
            rest.extend(app.gates[:j] + app.gates[j + 1:])
        circuit.extend(rest)


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
    circuit = Circuit(g.n, device=g)
    _fold_applications(path, params.angles, l, circuit)
    cost = CostReport(
        cnot_count=cnot_cost(circuit),
        formula_value=theorem1_cost(g.n, path.k, path.k_distinct, l),
    )
    # every walk step costs 3 CNOTs (a CRy fused with its SWAP, or a bare
    # SWAP onto a revisited vertex), every off-walk control 2, and each of
    # the l - 1 seams saves the 2 of the rotation merged away
    assert cost.exact, f"{cost.cnot_count} CNOTs against Theorem 1's {cost.formula_value}"
    return HashSynthesisResult(circuit=circuit, path=path, cost=cost)


def hash_reference_circuit(g: Graph, l: int, angles, target_start: int) -> Circuit:
    """Device-free comparator for the l-fold operator: one CRy per control,
    aimed straight at the target qubit with the l-fold angle."""
    lookup = _angle_of(angles, g, target_start)
    c = Circuit(g.n)
    for v in range(g.n):
        if v != target_start:
            c.cry(v, target_start, l * lookup(v))
    return c


def _mean_cosine_sq(coefficients, g: int, p: int) -> float:
    """(mean_j cos(2 pi k_j g / p))^2, the direct condition at residue g."""
    mean = sum(math.cos(2 * math.pi * kj * g / p) for kj in coefficients) / len(coefficients)
    return mean * mean


def check_good_set(coefficients, p: int, epsilon: float) -> tuple[bool, int]:
    """Exhaustively check max_g (mean_j cos(2 pi k_j g / p))^2 < epsilon
    over g = 1..p-1; returns (verdict, worst g)."""
    if not coefficients:
        raise ValueError("empty coefficient set")
    if p < 2:
        raise ValueError("modulus must be at least 2")
    worst_g, worst_val = 1, -1.0
    for g in range(1, p):
        val = _mean_cosine_sq(coefficients, g, p)
        if val > worst_val:
            worst_g, worst_val = g, val
    return worst_val < epsilon, worst_g


def modp_closed_form(coefficients, l: int, p: int) -> float:
    """All-zero acceptance probability of the automaton circuit in closed
    form: with w controls of coefficients kappa_j, the amplitude is
    (1/2^w) sum_c cos(2 pi l <c, kappa> / p) over binary vectors c, which
    factors as prod_j cos(pi l kappa_j / p) * cos(pi l sum(kappa) / p).
    """
    amp = math.cos(math.pi * l * sum(coefficients) / p)
    for kj in coefficients:
        amp *= math.cos(math.pi * l * kj / p)
    return amp * amp


def find_good_set(p: int, epsilon: float, seed: int = 0,
                  size: int | None = None) -> HashParams:
    """Random search for a coefficient set keeping every nonzero residue's
    acceptance below epsilon, both per the direct mean-cosine condition
    (`check_good_set`) and for the subset-sum automaton
    (`modp_closed_form`).  Deterministic under `seed`.  The direct
    condition goes first, stopping at the first residue that breaks it:
    most draws break it within a few residues.
    """
    t = _fingerprint_count(p, epsilon)
    draw = size if size is not None else t
    if draw < 1:
        raise ValueError("a coefficient set needs at least one coefficient")
    rng = random.Random(seed)
    # the (p - 1)^draw sets there are, counted exactly when the budget
    # could draw them all: (p - 1)^15 > MAX_TRIALS once p > 2
    space = (p - 1) ** min(draw, MAX_TRIALS.bit_length())
    small = space <= MAX_TRIALS
    seen: set[tuple[int, ...]] = set()  # the sets drawn, kept when small
    trials = 0
    while trials < MAX_TRIALS and len(seen) < space:
        trials += 1
        ks = tuple(rng.randrange(1, p) for _ in range(draw))
        if small:
            if ks in seen:
                continue
            seen.add(ks)
        if (all(_mean_cosine_sq(ks, g, p) < epsilon for g in range(1, p))
                and all(modp_closed_form(ks, g, p) < epsilon for g in range(1, p))):
            return HashParams.from_coefficients(p, epsilon, ks)
    raise SearchExhausted(
        f"no good set of size {draw} for p={p}, epsilon={epsilon} "
        f"in {trials} trials"
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
    _fold_applications(path, params.angles, l, circuit)
    final = circuit.final_permutation
    for v in controls:
        circuit.h(final[v])
    return circuit
