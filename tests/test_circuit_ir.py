"""Circuit IR tests: gate validation, device adjacency enforcement, the
SWAP layout trace, composite decomposition with CR+SWAP fusion, CNOT
cancellation, the kept CNOT count against the lowered circuit and the
QASM text, the fusion marks and count a circuit keeps across single,
gate-list and whole-circuit appends against the pairwise rule, cost
reports, the QASM/JSON emitters, the QASM text of reused gates against a
row-by-row formatter, and a digest that pins the QASM text of a fixed
corpus."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_circuit,
    reference_cnot_count,
    reference_rows,
    replayed_permutation,
)

from cactusq.circuit_ir import (
    BASIC_KINDS,
    Circuit,
    CostReport,
    DeviceViolation,
    Gate,
    cancel_adjacent_cnots,
    circuit_from_json_dict,
    circuit_to_json_dict,
    cnot_cost,
    decompose,
    dump_circuit,
    load_circuit,
    to_qasm,
)
from cactusq.families import fig3_cactus, line
from cactusq.graph_core import random_cactus
from cactusq.hash_synth import HashParams, synthesize_hash
from cactusq.qft_synth import synthesize_qft
from cactusq.verify_sim import unitary_of


def _synthesized(g):
    """The QFT circuit of g and its hash circuits at l = 1, 2, 3."""
    p = 17
    ks = tuple((j - 1) % (p - 1) + 1 for j in range(1, g.n))
    params = HashParams.from_coefficients(p, 0.25, ks)
    yield synthesize_qft(g)[0]
    for l in (1, 2, 3):
        yield synthesize_hash(g, l, params).circuit


def _cx_lines(text: str) -> int:
    return sum(1 for row in text.splitlines() if row.startswith("cx "))


class TestGateValidation:
    # no synthesis builds X, Rk or CRz and no lowering writes them
    @pytest.mark.parametrize("kind, qubits, params", [
        ("CZ", (0, 1), {}), ("X", (0,), {}), ("Rk", (0,), {"d": 2}),
        ("CRz", (0, 1), {"theta": 0.7}),
    ], ids=["CZ", "X", "Rk", "CRz"])
    def test_unknown_kind(self, kind, qubits, params):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate(kind, qubits, **params)

    def test_arity(self):
        with pytest.raises(ValueError):
            Gate("H", (0, 1))

    def test_repeated_qubit(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))

    def test_angle_required(self):
        with pytest.raises(ValueError):
            Gate("Ry", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0,), theta=1.0)

    def test_order_required(self):
        with pytest.raises(ValueError):
            Gate("CRd", (0, 1))
        with pytest.raises(ValueError):
            Gate("CRd", (0, 1), d=0)


class TestCircuitDevice:
    def test_adjacency_enforced(self):
        c = Circuit(4, device=line(4))
        c.cnot(0, 1)
        with pytest.raises(DeviceViolation):
            c.cnot(0, 2)

    def test_no_device_unconstrained(self):
        c = Circuit(4)
        c.cnot(0, 3)
        assert len(c.gates) == 1

    def test_qubit_range(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.h(2)


class TestLayoutTrace:
    def test_swaps_permute(self):
        c = Circuit(3)
        c.swap(0, 1)
        c.swap(1, 2)
        # logical 0 rode to wire 2; logical 1 came back to wire 0
        assert c.final_permutation == (2, 0, 1)

    def test_non_swap_gates_do_not_move(self):
        c = Circuit(3)
        c.cnot(0, 1)
        c.cry(2, 0, 0.3)
        assert c.final_permutation == (0, 1, 2)


class TestDecompose:
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: c.cry(0, 1, 0.7),
            lambda c: c.crd(0, 1, 3),
            lambda c: c.swap(0, 1),
        ],
        ids=["cry", "crd", "swap"],
    )
    def test_single_composite_preserved(self, build):
        c = Circuit(2)
        build(c)
        lowered = decompose(c)
        assert all(g.kind in BASIC_KINDS for g in lowered.gates)
        # compare up to global phase, anchored at the largest entry
        u, v = unitary_of(c), unitary_of(lowered)
        idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        phase = v[idx] / u[idx]
        assert np.abs(v - phase * u).max() < 1e-12

    def test_swap_costs_three(self):
        c = Circuit(2)
        c.swap(0, 1)
        assert cnot_cost(c) == 3

    def test_controlled_rotation_costs_two(self):
        for build in (lambda c: c.cry(0, 1, 0.4), lambda c: c.crd(0, 1, 2)):
            c = Circuit(2)
            build(c)
            assert cnot_cost(c) == 2

    def test_cr_swap_fusion_costs_three(self):
        # the trailing CNOT of the rotation cancels into the SWAP
        for build in (lambda c: c.cry(1, 0, 0.4), lambda c: c.crd(1, 0, 3)):
            c = Circuit(2)
            build(c)
            c.swap(0, 1)
            assert cnot_cost(c) == 3

    def test_fusion_requires_same_pair(self):
        c = Circuit(3)
        c.cry(1, 0, 0.4)
        c.swap(1, 2)
        assert cnot_cost(c) == 5

    def test_fused_pair_preserves_unitary(self):
        c = Circuit(2)
        c.crd(1, 0, 2)
        c.swap(0, 1)
        lowered = decompose(c)
        u, v = unitary_of(c), unitary_of(lowered)
        idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        assert np.abs(v - (v[idx] / u[idx]) * u).max() < 1e-12


class TestCancelAdjacent:
    def test_identical_pair_cancels(self):
        c = Circuit(2)
        c.cnot(0, 1)
        c.cnot(0, 1)
        assert cancel_adjacent_cnots(decompose(c)).count("CNOT") == 0

    def test_intervening_gate_blocks(self):
        c = Circuit(2)
        c.cnot(0, 1)
        c.h(1)
        c.cnot(0, 1)
        assert cancel_adjacent_cnots(decompose(c)).count("CNOT") == 2

    def test_spectator_wire_does_not_block(self):
        c = Circuit(3)
        c.cnot(0, 1)
        c.h(2)
        c.cnot(0, 1)
        assert cancel_adjacent_cnots(decompose(c)).count("CNOT") == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 100))
    def test_cancellation_preserves_unitary(self, n, seed):
        c = random_circuit(n, seed, length=15)
        lowered = decompose(c)
        canceled = cancel_adjacent_cnots(lowered)
        u, v = unitary_of(lowered), unitary_of(canceled)
        idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        assert np.abs(v - (v[idx] / u[idx]) * u).max() < 1e-12


class TestOnePassCount:
    # cnot_cost reads the count the circuit keeps; it must equal the CNOTs of
    # the lowered circuit and the cx lines of the QASM text, and on
    # synthesized circuits the cancel pass finds nothing to remove.
    def test_corpus_counts_agree(self):
        mismatches = []
        for n in range(4, 15):
            for seed in range(20):
                for i, c in enumerate(_synthesized(random_cactus(n, seed))):
                    lowered = decompose(c)
                    counts = (cnot_cost(c), lowered.count("CNOT"),
                              cancel_adjacent_cnots(lowered).count("CNOT"),
                              _cx_lines(to_qasm(c)))
                    if len(set(counts)) != 1:
                        mismatches.append((n, seed, i, counts))
        assert not mismatches

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000), st.integers(0, 40))
    def test_random_circuit_cost_is_qasm_cx_lines(self, n, seed, length):
        c = random_circuit(n, seed, length=length)
        assert cnot_cost(c) == _cx_lines(to_qasm(c)) == decompose(c).count("CNOT")


def _random_gate(rng, n, device, prev):
    """A gate on `device` (any pair when None) that, after a controlled
    rotation `prev`, is often a SWAP on its pair, either way round."""
    if prev is not None and prev.kind in ("CRy", "CRd") and rng.random() < 0.5:
        a, b = prev.qubits
        return Gate("SWAP", (a, b) if rng.random() < 0.5 else (b, a))
    kind = rng.choice(["H", "Ry", "Rz", "CNOT", "CRy", "CRd", "SWAP", "SWAP"])
    if kind == "H":
        return Gate("H", (rng.randrange(n),))
    if kind in ("Ry", "Rz"):
        return Gate(kind, (rng.randrange(n),), theta=rng.uniform(-math.pi, math.pi))
    if device is not None:
        a, b = rng.choice(device.edges())
    else:
        a, b = rng.sample(range(n), 2)
    if rng.random() < 0.5:
        a, b = b, a
    if kind == "CRy":
        return Gate(kind, (a, b), theta=rng.uniform(-math.pi, math.pi))
    if kind == "CRd":
        return Gate(kind, (a, b), d=rng.randint(2, 5))
    return Gate(kind, (a, b))


def _check_kept_fusion(c):
    """The circuit's kept count, QASM text, lowering and layout against the
    pairwise rule and a gate-by-gate replay of its gate list."""
    assert cnot_cost(c) == reference_cnot_count(c.gates) == _cx_lines(to_qasm(c))
    lowered = [(x.kind, x.qubits, x.theta) for x in decompose(c).gates]
    assert lowered == reference_rows(c.gates)
    assert c.final_permutation == replayed_permutation(c.num_qubits, c.gates)


# a controlled rotation on (1, 0), then the next gate on the far side of a
# join: a SWAP on the same pair, on the reversed pair, or on another pair
_SEAMS = [Gate("SWAP", (1, 0)), Gate("SWAP", (0, 1)), Gate("SWAP", (1, 2))]


class TestKeptFusion:
    # A circuit marks the CR+SWAP fusion and counts the cx lines as gates
    # arrive, by single appends, gate-list extends and whole-circuit
    # appends; what it keeps must be what the pairwise rule finds on the
    # final gate list.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000), st.booleans(),
           st.lists(st.tuples(st.sampled_from(["one", "list", "circuit"]),
                              st.integers(0, 6)), max_size=12))
    def test_random_joins_match_the_pairwise_rule(self, n, seed, on_device, pieces):
        rng = random.Random(seed)
        device = random_cactus(n, seed) if on_device else None
        c = Circuit(n, device=device)
        prev = None
        for join, length in pieces:
            gates = []
            for _ in range(1 if join == "one" else length):
                prev = _random_gate(rng, n, device, prev)
                gates.append(prev)
            if join == "one":
                c.append(gates[0])
            elif join == "list":
                c.extend(gates)
            else:
                part = Circuit(n, device=device)
                part.extend(gates)
                c.extend(part)
        _check_kept_fusion(c)

    @pytest.mark.parametrize("seam", _SEAMS, ids=["same-pair", "reversed-pair", "other-pair"])
    @pytest.mark.parametrize("join", ["one", "list", "circuit"])
    def test_seams(self, seam, join):
        device = line(3)
        for rotation in (Gate("CRy", (1, 0), theta=0.5), Gate("CRd", (1, 0), d=3)):
            c = Circuit(3, device=device)
            c.h(2)
            c.append(rotation)
            after = [seam, Gate("CRy", (2, 1), theta=-0.25), Gate("SWAP", (2, 1))]
            if join == "one":
                for gate in after:
                    c.append(gate)
            elif join == "list":
                c.extend(after)
            else:
                part = Circuit(3, device=device)
                part.extend(after)
                c.extend(part)
            fused = seam.qubits != (1, 2)
            assert cnot_cost(c) == (3 if fused else 5) + 3
            _check_kept_fusion(c)

    def test_whole_circuit_composes_layouts(self):
        device = line(4)
        c, part = Circuit(4, device=device), Circuit(4, device=device)
        c.swap(0, 1)
        c.swap(1, 2)
        part.swap(2, 3)
        part.swap(0, 1)
        c.extend(part)
        c.extend(c)
        _check_kept_fusion(c)

    @pytest.mark.parametrize("other", [
        lambda: Circuit(3, device=line(3)),  # an equal graph, another object
        lambda: Circuit(3),
        lambda: Circuit(4, device=line(4)),
    ], ids=["other-device-object", "no-device", "other-size"])
    def test_whole_append_needs_the_same_device(self, other):
        c = Circuit(3, device=line(3))
        c.cry(1, 0, 0.5)
        part = other()
        part.swap(0, 1)
        with pytest.raises(ValueError, match="same device"):
            c.extend(part)
        assert len(c.gates) == 1 and cnot_cost(c) == 2
        assert c.final_permutation == (0, 1, 2)

    def test_failed_check_keeps_what_was_appended(self):
        c = Circuit(3, device=line(3))
        with pytest.raises(DeviceViolation):
            c.extend([Gate("CRy", (1, 0), theta=0.5), Gate("SWAP", (0, 1)),
                      Gate("CNOT", (0, 2))])
        assert cnot_cost(c) == 3
        _check_kept_fusion(c)


class TestCostReport:
    def test_exact_and_bound(self):
        r = CostReport(cnot_count=10, formula_value=10)
        assert r.exact and r.within_bound
        r = CostReport(cnot_count=11, formula_value=10)
        assert not r.exact and not r.within_bound


class TestEmitters:
    def test_qasm_header_and_lowering(self):
        c = Circuit(2, device=line(2))
        c.h(0)
        c.cry(1, 0, 0.5)
        text = to_qasm(c)
        assert text.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];')
        assert "cx q[1],q[0];" in text
        assert "cry" not in text  # composites are lowered

    def test_qasm_deterministic(self):
        c = random_circuit(3, 5)
        assert to_qasm(c) == to_qasm(c)

    def test_json_round_trip(self):
        c = random_circuit(4, 9, length=25)
        again = circuit_from_json_dict(circuit_to_json_dict(c))
        assert again.gates == c.gates
        assert again.num_qubits == c.num_qubits

    def test_dump_load_preserves_cost(self):
        c = random_circuit(4, 2, length=25)
        again = load_circuit(dump_circuit(c))
        assert cnot_cost(again) == cnot_cost(c)

    def test_load_respects_device(self):
        c = Circuit(3)
        c.cnot(0, 2)
        with pytest.raises(DeviceViolation):
            load_circuit(dump_circuit(c), device=line(3))


def _qasm_row_by_row(c):
    """The QASM text of `c`, formatted afresh for every lowered row."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    for g in decompose(c).gates:
        q = g.qubits
        if g.kind == "CNOT":
            lines.append(f"cx q[{q[0]}],q[{q[1]}];")
        elif g.theta is None:
            lines.append(f"{g.kind.lower()} q[{q[0]}];")
        else:
            lines.append(f"{g.kind.lower()}({g.theta:.17g}) q[{q[0]}];")
    return "\n".join(lines) + "\n"


class TestQasmReuse:
    # to_qasm formats each distinct (gate, fused) pair once; the text must
    # still be what formatting every row gives
    def test_signed_zero_angles(self):
        # 0.0 == -0.0, yet they print as 0 and -0
        c = Circuit(2, device=line(2))
        for theta in (0.0, -0.0, 0.0, -0.0):
            c.ry(0, theta)
            c.cry(0, 1, theta)
        text = to_qasm(c)
        assert text == _qasm_row_by_row(c)
        assert "ry(0) q[0];" in text and "ry(-0) q[0];" in text

    def test_same_rotation_fused_and_unfused(self):
        c = Circuit(3, device=line(3))
        rot = Gate("CRy", (0, 1), theta=0.75)
        for gate in (rot, Gate("SWAP", (1, 0)), rot, Gate("H", (1,)), rot,
                     Gate("SWAP", (1, 2)), rot, Gate("SWAP", (0, 1))):
            c.append(gate)
        text = to_qasm(c)
        assert text == _qasm_row_by_row(c)
        assert _cx_lines(text) == cnot_cost(c) == 3 + 2 + 2 + 3 + 3

    def test_repeated_identical_gates(self):
        c = Circuit(3, device=line(3))
        for _ in range(4):
            c.crd(1, 2, 3)
            c.swap(2, 1)
            c.cry(0, 1, -1.25)
            c.rz(2, -math.pi / 8)
            c.cnot(1, 0)
        assert to_qasm(c) == _qasm_row_by_row(c)

    def test_replayed_hash_fold(self):
        g = random_cactus(12, 3)
        ks = tuple(range(1, g.n))
        c = synthesize_hash(g, 6, HashParams.from_coefficients(17, 0.25, ks)).circuit
        assert to_qasm(c) == _qasm_row_by_row(c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.integers(0, 30))
    def test_random_circuit_repeated(self, n, seed, length):
        c = random_circuit(n, seed, length)
        c.extend(list(c.gates) * 2)
        assert to_qasm(c) == _qasm_row_by_row(c)


class TestPinnedQasm:
    # Lowering order and angle text decide the QASM bytes; this digest of
    # the QASM of a fixed corpus catches any change to either.  Update it
    # only for a change that means to emit different text, and say which.
    DIGEST = "a119fbafe2f0195b04dfa923ad791b69101ce88c0690fcd4f47537868798a55f"

    @staticmethod
    def corpus():
        for n in range(2, 21):
            for seed in range(4):
                yield random_cactus(n, seed)
        yield fig3_cactus()

    def test_qasm_matches_the_pinned_digest(self):
        digest = hashlib.sha256()
        for g in self.corpus():
            for c in _synthesized(g):
                digest.update(to_qasm(c).encode())
        assert digest.hexdigest() == self.DIGEST
