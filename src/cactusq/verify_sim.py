"""Dense simulation and equivalence checking for small circuits.

Contents: gate matrices (matching the conventions in `circuit_ir`),
`statevector` and `unitary_of` (n <= 12), `equiv_up_to_permutation` with
global-phase removal, the QFT reference matrices, and the simulated
acceptance probability of the MOD_p automaton (its closed form and the
good-set check live in `hash_synth`, with the rest of the coefficient
math).

Convention: qubit 0 is the least-significant bit of basis-state indices,
so basis index sum(b_q << q) has qubit q's bit at weight 2^q.

Gates are applied in place to one tensor of shape (2,)*n (a unitary adds
a trailing column axis), and no gate is ever expanded to the full space.
A SWAP moves no data: it exchanges two entries of the map from qubits to
tensor axes, and the axis order is restored at the end: by one `moveaxis`
for a state, and for a unitary by moving its rows in place along the
cycles of the relabel, so that only one unitary is ever held.  A
controlled gate acts only on the view where its control axis reads 1,
and applies there its target core: `_core`, the 2x2 matrix of which
`gate_matrix` builds its 4x4 forms.  A one-qubit core on the two slices
of its target axis scales them in place when it is diagonal (Rz, CRd's
phase), and mixes them otherwise (H, Ry, CRy's Ry, CNOT's bit flip) with
one half-size temporary.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit_ir import Circuit, Gate
from .graph_core import Graph
from .hash_synth import build_modp_automaton

MAX_QUBITS = 12

# largest entry-wise deviation equiv_up_to_permutation accepts
TOL = 1e-9

# entries of v compared per block of columns in equiv_up_to_permutation
_COMPARE_ENTRIES = 1 << 16


class TooManyQubits(Exception):
    """Dense simulation is capped at MAX_QUBITS qubits."""


_SQ2 = 1.0 / math.sqrt(2.0)


def _core(g: Gate) -> np.ndarray:
    """The 2x2 matrix gate `g` applies to its target (for a controlled
    gate, where its control reads 1): CRy shares Ry's core, CNOT's is the
    bit flip and CRd's the phase e^{i*pi/2^(d-1)} on |1>."""
    k = g.kind
    if k == "H":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
    if k == "CNOT":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k in ("Ry", "CRy"):
        c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k == "Rz":
        return np.diag([np.exp(0.5j * g.theta), np.exp(-0.5j * g.theta)])
    if k == "CRd":
        return np.diag([1.0, np.exp(1j * math.pi / 2 ** (g.d - 1))])
    raise AssertionError(f"unhandled gate kind {k}")


def gate_matrix(g: Gate) -> np.ndarray:
    """Unitary of a single gate; two-qubit matrices index (control, target)
    pairs in the order 00, 01, 10, 11."""
    if g.kind == "SWAP":
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    if len(g.qubits) == 1:
        return _core(g)
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = _core(g)
    return m


def _half(axis: int, bit: int, control: int | None) -> tuple:
    """Index of the view where tensor axis `axis` reads `bit` (and axis
    `control`, if given, reads 1).  The closing Ellipsis makes a fully
    fixed index a 0-d view rather than a numpy scalar, so the in-place
    updates below reach the tensor for every n."""
    fixed = {axis: bit} if control is None else {axis: bit, control: 1}
    return tuple(fixed.get(a, slice(None)) for a in range(max(fixed) + 1)) + (Ellipsis,)


def _apply_core(tensor: np.ndarray, m: np.ndarray, axis: int,
                control: int | None = None) -> None:
    """Apply the 2x2 matrix `m` in place to tensor axis `axis`, on the
    view where axis `control` reads 1 if a control is given."""
    s0, s1 = tensor[_half(axis, 0, control)], tensor[_half(axis, 1, control)]
    (a, b), (c, d) = m
    if b == 0 and c == 0:
        if a != 1:
            s0 *= a
        if d != 1:
            s1 *= d
        return
    # A unitary core with b == 0 has c == 0, so here b != 0 and s1 can
    # hold b*s1 on the way, which leaves c*s0 as the only temporary.
    tmp = c * s0
    s0 *= a
    s1 *= b
    s0 += s1
    s1 *= d / b
    s1 += tmp


def _run(tensor: np.ndarray, c: Circuit) -> list[int]:
    """Apply every gate of `c` in place to `tensor`, shaped (2,)*n plus
    optional trailing axes with qubit q on axis n - 1 - q, and return the
    axis map at the end: qubit q's bit is then on axis axis[q]."""
    n = c.num_qubits
    axis = [n - 1 - q for q in range(n)]
    for g in c.gates:
        if g.kind == "SWAP":
            a, b = g.qubits
            axis[a], axis[b] = axis[b], axis[a]
            continue
        control = axis[g.qubits[0]] if len(g.qubits) == 2 else None
        _apply_core(tensor, _core(g), axis[g.qubits[-1]], control)
    return axis


def _gather_rows(mat: np.ndarray, src: list[int]) -> None:
    """Set row y of `mat` to its row src[y] for every y, in place: each
    cycle of the permutation src is walked once, through one row buffer."""
    row = np.empty_like(mat[0])
    done = bytearray(len(src))
    for start, first in enumerate(src):
        if done[start] or first == start:
            continue
        row[...] = mat[start]
        y, x = start, first
        while x != start:
            mat[y] = mat[x]
            done[y] = 1
            y, x = x, src[x]
        mat[y] = row
        done[y] = 1


def statevector(c: Circuit, initial: int = 0) -> np.ndarray:
    """State after running `c` on basis state |initial> (default |0...0>)."""
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise TooManyQubits(f"n={n} exceeds the dense-simulation cap {MAX_QUBITS}")
    psi = np.zeros(2 ** n, dtype=complex)
    psi[initial] = 1.0
    tensor = psi.reshape((2,) * n)
    axis = _run(tensor, c)
    return np.moveaxis(tensor, axis, range(n - 1, -1, -1)).reshape(-1)


def unitary_of(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit (composite gates included)."""
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise TooManyQubits(f"n={n} exceeds the dense-simulation cap {MAX_QUBITS}")
    dim = 2 ** n
    mat = np.eye(dim, dtype=complex)
    axis = _run(mat.reshape((2,) * n + (dim,)), c)
    # row y holds qubit q's bit at weight 2^q; the tensor holds it on axis
    # axis[q], at row weight 2^(n - 1 - axis[q])
    _gather_rows(mat, permutation_vector([n - 1 - a for a in axis], n).tolist())
    return mat


def permutation_vector(perm, n: int) -> np.ndarray:
    """Index map y[x] for relocating qubit q's bit to wire perm[q]."""
    x = np.arange(2 ** n, dtype=np.int64)
    out = np.zeros_like(x)
    for q in range(n):
        out |= (x >> q & 1) << perm[q]
    return out


def equiv_up_to_permutation(u: np.ndarray, v: np.ndarray,
                            perm=None) -> tuple[bool, float]:
    """Is u = e^{i phi} P(perm) v?  Returns (verdict, max deviation).

    `perm[q]` is the wire where logical qubit q of v ends up.  The global
    phase is estimated from the largest entry of u's first column, which a
    unitary's unit-norm column keeps at 2^(-n/2) or more.  Where that entry
    or its match in P v vanishes the phase is taken as 1: the match then
    leaves a deviation of at least that entry.  Rows of v are
    gathered through the permutation a block of columns at a time, so no
    full-size temporary is built.
    """
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    dim = u.shape[0]
    # row y of P v is row rows[y] of v
    rows = np.arange(dim)
    if perm is not None:
        rows[permutation_vector(perm, int(round(math.log2(dim))))] = np.arange(dim)
    pivot = int(np.argmax(np.abs(u[:, 0])))
    denom = v[rows[pivot], 0]
    phase = 1 + 0j
    if min(abs(denom), abs(u[pivot, 0])) >= 1e-12:
        phase = u[pivot, 0] / denom
        phase /= abs(phase)
    deviation = 0.0
    width = max(1, _COMPARE_ENTRIES // dim)
    for c in range(0, dim, width):
        block = v[rows, c:c + width] * phase
        block -= u[:, c:c + width]
        deviation = max(deviation, float(np.max(np.abs(block))))
    return deviation <= TOL, deviation


def qft_matrix(n: int) -> np.ndarray:
    """Standard QFT: entry (y, x) = e^{2 pi i x y / 2^n} / sqrt(2^n)."""
    dim = 2 ** n
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / math.sqrt(dim)


def qft_reference_unitary(labels) -> np.ndarray:
    """QFT as realized by label-ordered cascades without final reordering.

    `labels[v]` in 1..n is the cascade number of qubit v.  The entry at
    (y, x) is e^{2 pi i X Y / 2^n}/sqrt(2^n) where X reads qubit v's bit at
    weight 2^(n - labels[v]) and Y reads it at weight 2^(labels[v] - 1)
    (the usual cascade bit reversal).
    """
    n = len(labels)
    dim = 2 ** n
    xw = permutation_vector([n - labels[v] for v in range(n)], n)
    yw = permutation_vector([labels[v] - 1 for v in range(n)], n)
    roots = np.exp(2j * np.pi * np.arange(dim) / dim) / math.sqrt(dim)
    return roots[np.multiply.outer(yw, xw) & (dim - 1)]


# ---------------------------------------------------------------------------
# MOD_p automaton measurements.
# ---------------------------------------------------------------------------


def modp_accept_probability(g: Graph, l: int, params) -> float:
    """Simulated probability of the all-zero outcome after the automaton."""
    c = build_modp_automaton(g, l, params)
    psi = statevector(c)
    return float(abs(psi[0]) ** 2)
