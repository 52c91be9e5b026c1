"""Gate-level IR over physical qubits.

Contents: the `Gate` and `Circuit` value types.  `Circuit.extend` is the
one loop that checks gates (qubit range, device edge) and traces the SWAP
layout behind the final qubit permutation; as gates arrive it also marks
the controlled-rotation/SWAP fusion, one byte per gate, and keeps the
CNOT count.  A circuit built on the same device appends whole, with only
its seam checked for a fusion and its layout composed.  A gate is one of
seven kinds: H, CRy, CRd and SWAP, which the syntheses build, and Ry, Rz
and CNOT, which the lowering writes.  One lowering table onto the basic
set {H, Ry, Rz, CNOT} is read, with the fusion marks, by `decompose` (a
basic-gate `Circuit`) and `to_qasm` (QASM-flavored text
written straight from the table, each distinct gate formatted once);
`cnot_cost` reads the kept count, the `cx` lines `to_qasm` writes.  Also:
`cancel_adjacent_cnots`, a peephole pass kept apart from the cost, and a
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

BASIC_KINDS = ("H", "Ry", "Rz", "CNOT")
# kind -> (qubits, parameter, CNOTs when lowered alone); the parameter is
# the angle `theta`, the phase order `d` or None.  A SWAP fused into the
# controlled rotation before it adds 1 CNOT, not 3
_KINDS = {
    "H": (1, None, 0), "Ry": (1, "theta", 0), "Rz": (1, "theta", 0),
    "CNOT": (2, None, 1), "CRy": (2, "theta", 2), "CRd": (2, "d", 2), "SWAP": (2, None, 3),
}
_CONTROLLED = ("CRy", "CRd")
# fuse marks, `Circuit._fuse`
_PLAIN, _FUSED, _SWALLOWED = 0, 1, 2


def _fuses(gate: Gate, swap: Gate) -> bool:
    """Whether `swap`, a SWAP right after `gate`, fuses into it: `gate` is
    a controlled rotation on the same pair, either way round."""
    return gate.kind in _CONTROLLED and gate.qubits in (swap.qubits, swap.qubits[::-1])


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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, parameter, _ = _KINDS[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated qubit in gate")
        if parameter == "theta":
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} needs a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if parameter == "d":
            if self.d is None or self.d < 1:
                raise ValueError(f"{self.kind} needs phase order d >= 1")
        elif self.d is not None:
            raise ValueError(f"{self.kind} takes no phase order")


class Circuit:
    """Ordered gate list over `num_qubits` physical qubits.

    If a device graph is attached, every two-qubit gate must land on an
    edge of it.  Logical qubit q starts at physical position q and moves
    only at SWAPs; `final_permutation[q]` is where it ends up.  As gates
    arrive the circuit also marks the CR+SWAP fusion, one byte per gate
    (`_FUSED` on a controlled rotation whose next gate is a SWAP on the
    same pair, `_SWALLOWED` on that SWAP, `_PLAIN` otherwise), and keeps
    the number of `cx` lines `to_qasm` writes.  Both stand only for the
    kind and the pair of each gate, so a gate may be replaced in `gates`
    by one of the same kind on the same pair.
    """

    def __init__(self, num_qubits: int, device: Graph | None = None):
        if device is not None and device.n != num_qubits:
            raise ValueError("device size must match qubit count")
        self.num_qubits = num_qubits
        self.device = device
        self.gates: list[Gate] = []
        self._fuse = bytearray()  # one fuse mark per gate
        self._cnots = 0
        self._logical = list(range(num_qubits))  # physical -> logical

    def append(self, gate: Gate) -> None:
        self.extend((gate,))

    def extend(self, gates) -> None:
        """Append gates one by one, each checked for qubit range and device
        edge, or a whole `Circuit` on the same device (`_append_circuit`)."""
        if isinstance(gates, Circuit):
            self._append_circuit(gates)
            return
        n = self.num_qubits
        adjacency = self.device.adjacency if self.device is not None else None
        ours, fuse, logical = self.gates, self._fuse, self._logical
        for g in gates:
            qubits = g.qubits
            mark = _PLAIN
            if len(qubits) == 1:
                if not 0 <= qubits[0] < n:
                    raise ValueError(f"qubit {qubits[0]} out of range")
            else:
                a, b = qubits
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"qubit {b if 0 <= a < n else a} out of range")
                if adjacency is not None and b not in adjacency[a]:
                    raise DeviceViolation(f"{g.kind} on non-adjacent ({a},{b})")
                if g.kind != "SWAP":
                    self._cnots += _KINDS[g.kind][2]
                else:
                    logical[a], logical[b] = logical[b], logical[a]
                    if ours and _fuses(ours[-1], g):
                        fuse[-1] = _FUSED
                        mark = _SWALLOWED
                        self._cnots += 1
                    else:
                        self._cnots += 3
            ours.append(g)
            fuse.append(mark)

    def _append_circuit(self, other: Circuit) -> None:
        """Append `other` whole.  Its gates passed the checks when it was
        built on the same device, so what is left is the fusion of a
        controlled rotation this circuit ends with and a SWAP `other` starts
        with, and the composition of the two layouts."""
        if other.device is not self.device or other.num_qubits != self.num_qubits:
            raise ValueError("an appended circuit must be on the same device and qubit count")
        if not other.gates:
            return
        gates, count, first = self.gates, other._cnots, other.gates[0]
        seam = len(gates) - 1
        # `other`'s first gate was fused with nothing before it
        fuses = seam >= 0 and first.kind == "SWAP" and _fuses(gates[seam], first)
        gates.extend(other.gates)
        self._fuse.extend(other._fuse)
        if fuses:
            self._fuse[seam:seam + 2] = bytes((_FUSED, _SWALLOWED))
            count -= 2
        self._cnots += count
        # physical p ends up holding what stood at other._logical[p]
        self._logical = [self._logical[p] for p in other._logical]

    # convenience constructors --------------------------------------------
    def h(self, q): self.append(Gate("H", (q,)))
    def ry(self, q, theta): self.append(Gate("Ry", (q,), theta=theta))
    def rz(self, q, theta): self.append(Gate("Rz", (q,), theta=theta))
    def cnot(self, c, t): self.append(Gate("CNOT", (c, t)))
    def cry(self, c, t, theta): self.append(Gate("CRy", (c, t), theta=theta))
    def crd(self, c, t, d): self.append(Gate("CRd", (c, t), d=d))
    def swap(self, a, b): self.append(Gate("SWAP", (a, b)))

    @property
    def final_permutation(self) -> tuple[int, ...]:
        position = [0] * self.num_qubits
        for p, q in enumerate(self._logical):
            position[q] = p
        return tuple(position)

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"


# ---------------------------------------------------------------------------
# Lowering onto {H, Ry, Rz, CNOT}: one table, read by `decompose` and
# `to_qasm`; `Circuit` counts the CNOTs it gives as gates arrive.
#
# CRy(t) on (c,v):        Ry_v(t/2) . CX . Ry_v(-t/2) . CX          (2 CNOTs)
# CRd(d), a = pi/2^(d-1): Rz_v(-a/2) . CX . Rz_v(a/2) . CX . Rz_c(-a/2),
#                         equal to the controlled phase up to e^{-ia/4}.
# SWAP:                   CX(a,b) . CX(b,a) . CX(a,b)               (3 CNOTs)
# CR?+SWAP on one pair fuses to a 3-CNOT block: the trailing CX of the
# rotation annihilates the leading CX of the SWAP.
# ---------------------------------------------------------------------------

def _rows(gate: Gate, fuse_swap: bool) -> list[tuple]:
    """Basic (kind, qubits, theta) rows of `gate`, or of `gate` and the
    SWAP it fuses with."""
    kind = gate.kind
    if kind in BASIC_KINDS:
        return [(kind, gate.qubits, gate.theta)]
    if kind == "SWAP":
        a, b = gate.qubits
        return [("CNOT", (a, b), None), ("CNOT", (b, a), None), ("CNOT", (a, b), None)]
    c, t = gate.qubits
    if kind == "CRy":
        rot, half, phase = "Ry", gate.theta / 2, []
    else:  # CRd: with Rz = diag(e^{it/2}, e^{-it/2}) the half-angles invert
        rot, half = "Rz", -(math.pi / 2 ** (gate.d - 1)) / 2
        phase = [("Rz", (c,), half)]  # on the control
    rows = [(rot, (t,), half), ("CNOT", (c, t), None), (rot, (t,), -half)]
    if fuse_swap:
        # the control phase commutes before the last CNOT pair; the trailing
        # CX and the SWAP's leading CX cancel
        return rows + phase + [("CNOT", (t, c), None), ("CNOT", (c, t), None)]
    return rows + [("CNOT", (c, t), None)] + phase


def _lowered(c: Circuit):
    """Basic rows of the whole circuit, in order."""
    for g, mark in zip(c.gates, c._fuse):
        if mark != _SWALLOWED:
            yield from _rows(g, mark == _FUSED)


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
    """Number of `cx` lines `to_qasm` writes, kept by `c` as its gates
    arrive: CNOT 1, SWAP 3, controlled rotation 2, and a fused CR+SWAP pair
    3.  No peephole cancellation is applied; that is
    `cancel_adjacent_cnots`, a pass of its own."""
    return c._cnots


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
    for g, mark in zip(c.gates, c._fuse):
        if mark == _SWALLOWED:
            continue
        # 0.0 == -0.0 would make them one key, yet they print as 0 and -0
        key = (g, mark, math.copysign(1.0, g.theta)) if g.theta == 0 else (g, mark)
        rows = text.get(key)
        if rows is None:
            rows = text[key] = "\n".join(_qasm_line(*row) for row in _rows(g, mark == _FUSED))
        lines.append(rows)
    lines.append("")  # a closing newline, without copying the joined text
    return "\n".join(lines)


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
    c.extend(
        Gate(entry["kind"], tuple(entry["qubits"]), theta=entry.get("theta"), d=entry.get("d"))
        for entry in data["gates"]
    )
    return c


def dump_circuit(c: Circuit) -> str:
    return json.dumps(circuit_to_json_dict(c), sort_keys=True) + "\n"


def load_circuit(text: str, device: Graph | None = None) -> Circuit:
    return circuit_from_json_dict(json.loads(text), device=device)
