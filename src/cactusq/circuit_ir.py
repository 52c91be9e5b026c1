"""Gate-level IR over physical qubits.

Contents: the `Gate` and `Circuit` value types (with device-adjacency
checking and the final qubit permutation the SWAPs leave); one lowering
table onto the basic set {H, X, Ry, Rz, CNOT}, with the controlled-
rotation/SWAP fusion applied at synthesis seams, read by `decompose` (a
basic-gate `Circuit`), `to_qasm` (QASM-flavored text written straight from
the table, each distinct gate formatted once) and `cnot_cost` (the `cx`
lines `to_qasm` writes, counted in one pass over the composite gates);
`cancel_adjacent_cnots`, a peephole pass kept apart from the cost; and a
JSON gate-list dump/load pair.

Gate matrices follow the conventions used throughout this package:
Ry(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]],
Rz(t) = diag(e^{it/2}, e^{-it/2}),
CRd(d) = diag(1, 1, 1, e^{i*pi/2^(d-1)}) (controlled phase of order d).
Decompositions preserve unitaries up to global phase.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .graph_core import Graph

BASIC_KINDS = ("H", "X", "Ry", "Rz", "CNOT")
KIND_ARITY = {
    "H": 1, "X": 1, "Ry": 1, "Rz": 1, "Rk": 1,
    "CNOT": 2, "CRy": 2, "CRz": 2, "CRd": 2, "SWAP": 2,
}
ANGLE_KINDS = ("Ry", "Rz", "CRy", "CRz")
ORDER_KINDS = ("CRd", "Rk")


class DeviceViolation(Exception):
    """A two-qubit gate was placed on non-adjacent physical qubits."""


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application; two-qubit `qubits` are (control, target)."""

    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None
    d: int | None = None

    def __post_init__(self):
        if self.kind not in KIND_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != KIND_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {KIND_ARITY[self.kind]} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated qubit in gate")
        if self.kind in ANGLE_KINDS:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} needs a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if self.kind in ORDER_KINDS:
            if self.d is None or self.d < 1:
                raise ValueError(f"{self.kind} needs phase order d >= 1")
        elif self.d is not None:
            raise ValueError(f"{self.kind} takes no phase order")


class Circuit:
    """Ordered gate list over `num_qubits` physical qubits.

    If a device graph is attached, every two-qubit gate must land on an
    edge of it.  Logical qubit q starts at physical position q and moves
    only at SWAPs; `final_permutation[q]` is where it ends up.
    """

    def __init__(self, num_qubits: int, device: Graph | None = None):
        if device is not None and device.n != num_qubits:
            raise ValueError("device size must match qubit count")
        self.num_qubits = num_qubits
        self.device = device
        self.gates: list[Gate] = []
        self._position = list(range(num_qubits))  # logical -> physical
        self._logical = list(range(num_qubits))  # physical -> logical

    def append(self, gate: Gate) -> None:
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        if self.device is not None and len(gate.qubits) == 2:
            a, b = gate.qubits
            if not self.device.has_edge(a, b):
                raise DeviceViolation(f"{gate.kind} on non-adjacent ({a},{b})")
        self.gates.append(gate)
        if gate.kind == "SWAP":
            a, b = gate.qubits
            qa, qb = self._logical[a], self._logical[b]
            self._position[qa], self._position[qb] = b, a
            self._logical[a], self._logical[b] = qb, qa

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    # convenience constructors --------------------------------------------
    def h(self, q): self.append(Gate("H", (q,)))
    def x(self, q): self.append(Gate("X", (q,)))
    def ry(self, q, theta): self.append(Gate("Ry", (q,), theta=theta))
    def rz(self, q, theta): self.append(Gate("Rz", (q,), theta=theta))
    def rk(self, q, d): self.append(Gate("Rk", (q,), d=d))
    def cnot(self, c, t): self.append(Gate("CNOT", (c, t)))
    def cry(self, c, t, theta): self.append(Gate("CRy", (c, t), theta=theta))
    def crz(self, c, t, theta): self.append(Gate("CRz", (c, t), theta=theta))
    def crd(self, c, t, d): self.append(Gate("CRd", (c, t), d=d))
    def swap(self, a, b): self.append(Gate("SWAP", (a, b)))

    @property
    def final_permutation(self) -> tuple[int, ...]:
        return tuple(self._position)

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"


# ---------------------------------------------------------------------------
# Lowering onto {H, X, Ry, Rz, CNOT}: one table, read by `decompose`,
# `to_qasm` and `cnot_cost`.
#
# CRy(t) on (c,v):        Ry_v(t/2) . CX . Ry_v(-t/2) . CX          (2 CNOTs)
# CRz(t) on (c,v):        Rz_v(t/2) . CX . Rz_v(-t/2) . CX          (2 CNOTs)
# CRd(d), a = pi/2^(d-1): Rz_v(-a/2) . CX . Rz_v(a/2) . CX . Rz_c(-a/2),
#                         equal to the controlled phase up to e^{-ia/4}.
# SWAP:                   CX(a,b) . CX(b,a) . CX(a,b)               (3 CNOTs)
# CR?+SWAP on one pair fuses to a 3-CNOT block: the trailing CX of the
# rotation annihilates the leading CX of the SWAP.
# ---------------------------------------------------------------------------

_CONTROLLED = ("CRy", "CRz", "CRd")
_CNOTS = {"CNOT": 1, "SWAP": 3, "CRy": 2, "CRz": 2, "CRd": 2}


def _fused(gates: list[Gate]):
    """Yields (gate, fuse): fuse is set on a controlled rotation whose
    next gate is a SWAP on the same pair, and that SWAP is skipped."""
    i = 0
    while i < len(gates):
        g = gates[i]
        fuse = (
            g.kind in _CONTROLLED
            and i + 1 < len(gates)
            and gates[i + 1].kind == "SWAP"
            and set(gates[i + 1].qubits) == set(g.qubits)
        )
        yield g, fuse
        i += 2 if fuse else 1


def _rows(gate: Gate, fuse_swap: bool) -> list[tuple]:
    """Basic (kind, qubits, theta) rows of `gate`, or of `gate` and the
    SWAP it fuses with."""
    kind = gate.kind
    if kind in BASIC_KINDS:
        return [(kind, gate.qubits, gate.theta)]
    if kind == "Rk":
        return [("Rz", gate.qubits, -math.pi / 2 ** (gate.d - 1))]
    if kind == "SWAP":
        a, b = gate.qubits
        return [("CNOT", (a, b), None), ("CNOT", (b, a), None), ("CNOT", (a, b), None)]
    c, t = gate.qubits
    rot = "Ry" if kind == "CRy" else "Rz"
    if kind == "CRd":  # with Rz = diag(e^{it/2}, e^{-it/2}) the half-angles invert
        half = -(math.pi / 2 ** (gate.d - 1)) / 2
        phase = [("Rz", (c,), half)]  # on the control
    else:
        half, phase = gate.theta / 2, []
    rows = [(rot, (t,), half), ("CNOT", (c, t), None), (rot, (t,), -half)]
    if fuse_swap:
        # the control phase commutes before the last CNOT pair; the trailing
        # CX and the SWAP's leading CX cancel
        return rows + phase + [("CNOT", (t, c), None), ("CNOT", (c, t), None)]
    return rows + [("CNOT", (c, t), None)] + phase


def _lowered(c: Circuit):
    """Basic rows of the whole circuit, in order."""
    for g, fuse in _fused(c.gates):
        yield from _rows(g, fuse)


def decompose(c: Circuit) -> Circuit:
    """Rewrite onto the basic gate set, fusing CR+SWAP pairs on one edge."""
    out = Circuit(c.num_qubits, device=c.device)
    out.extend(Gate(kind, qubits, theta=theta) for kind, qubits, theta in _lowered(c))
    return out


def cancel_adjacent_cnots(c: Circuit) -> Circuit:
    """Remove identical CNOT pairs with nothing touching either qubit in
    between; repeats to a fixed point."""
    gates = list(c.gates)
    changed = True
    while changed:
        changed = False
        keep = [True] * len(gates)
        for i, g in enumerate(gates):
            if not keep[i] or g.kind != "CNOT":
                continue
            touched = set(g.qubits)
            for j in range(i + 1, len(gates)):
                if not keep[j]:
                    continue
                other = gates[j]
                if not touched.isdisjoint(other.qubits):
                    if other == g:
                        keep[i] = keep[j] = False
                        changed = True
                    break
        gates = [g for g, k in zip(gates, keep) if k]
    out = Circuit(c.num_qubits, device=c.device)
    out.extend(gates)
    return out


def cnot_cost(c: Circuit) -> int:
    """Number of `cx` lines `to_qasm` writes, counted over the composite
    gates in one pass: CNOT 1, SWAP 3, controlled rotation 2, and a fused
    CR+SWAP pair 3.  No peephole cancellation is applied; that is
    `cancel_adjacent_cnots`, a pass of its own."""
    return sum(_CNOTS.get(g.kind, 0) + fuse for g, fuse in _fused(c.gates))


@dataclass(frozen=True)
class CostReport:
    """CNOT count next to the closed-form value it should meet."""

    cnot_count: int
    formula_value: int
    parameters: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.cnot_count == self.formula_value

    @property
    def within_bound(self) -> bool:
        return self.cnot_count <= self.formula_value


# ---------------------------------------------------------------------------
# External formats.
# ---------------------------------------------------------------------------


def _qasm_line(kind: str, q: tuple[int, ...], theta) -> str:
    if kind == "CNOT":
        return f"cx q[{q[0]}],q[{q[1]}];"
    if theta is None:
        return f"{kind.lower()} q[{q[0]}];"
    return f"{kind.lower()}({theta:.17g}) q[{q[0]}];"


def to_qasm(c: Circuit) -> str:
    """QASM-flavored text of the lowered circuit.  The rows of each
    distinct (gate, fused) pair are formatted once and the text reused."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    text: dict[tuple, str] = {}
    for g, fuse in _fused(c.gates):
        # 0.0 == -0.0 would make them one key, yet they print as 0 and -0
        key = (g, fuse, math.copysign(1.0, g.theta)) if g.theta == 0 else (g, fuse)
        rows = text.get(key)
        if rows is None:
            rows = text[key] = "\n".join(_qasm_line(*row) for row in _rows(g, fuse))
        lines.append(rows)
    return "\n".join(lines) + "\n"


def circuit_to_json_dict(c: Circuit) -> dict:
    gates = []
    for g in c.gates:
        entry: dict = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.theta is not None:
            entry["theta"] = g.theta
        if g.d is not None:
            entry["d"] = g.d
        gates.append(entry)
    return {"num_qubits": c.num_qubits, "gates": gates}


def circuit_from_json_dict(data: dict, device: Graph | None = None) -> Circuit:
    c = Circuit(int(data["num_qubits"]), device=device)
    for entry in data["gates"]:
        c.append(
            Gate(
                entry["kind"],
                tuple(entry["qubits"]),
                theta=entry.get("theta"),
                d=entry.get("d"),
            )
        )
    return c


def dump_circuit(c: Circuit) -> str:
    return json.dumps(circuit_to_json_dict(c), sort_keys=True) + "\n"


def load_circuit(text: str, device: Graph | None = None) -> Circuit:
    return circuit_from_json_dict(json.loads(text), device=device)
