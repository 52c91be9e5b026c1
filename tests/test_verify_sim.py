"""Simulator tests: gate matrices, statevector/unitary construction
against an independent Kronecker-product oracle, permutation-and-phase
equivalence, the QFT references, and the MOD_p acceptance probability
against its closed form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit

from cactusq import verify_sim
from cactusq.circuit_ir import Circuit, Gate
from cactusq.families import star
from cactusq.graph_core import random_cactus
from cactusq.hash_synth import HashParams, check_good_set, modp_closed_form
from cactusq.qft_synth import synthesize_qft
from cactusq.verify_sim import (
    MAX_QUBITS,
    TooManyQubits,
    equiv_up_to_permutation,
    gate_matrix,
    modp_accept_probability,
    permutation_vector,
    qft_matrix,
    qft_reference_unitary,
    statevector,
    unitary_of,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

ONE_QUBIT = {"H": {}, "Ry": {"theta": 0.9}, "Rz": {"theta": -1.3}}
TWO_QUBIT = {"CNOT": {}, "CRy": {"theta": 2.1}, "CRd": {"d": 2}, "SWAP": {}}


def oracle_gate(g: Gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, built without the simulator:
    the gate's matrix on the low qubits by np.kron (a two-qubit gate with
    its control on qubit 1 and its target on qubit 0), conjugated by the
    basis permutation that moves those qubits onto the gate's own."""
    m = gate_matrix(g)
    k = len(g.qubits)
    full = np.kron(np.eye(2 ** (n - k)), m)
    # low qubit j of `full` goes to wire g.qubits[k - 1 - j]; the rest keep order
    wires = list(reversed(g.qubits)) + [q for q in range(n) if q not in g.qubits]
    p = np.zeros((2 ** n, 2 ** n))
    for x in range(2 ** n):
        y = sum(((x >> j) & 1) << wires[j] for j in range(n))
        p[y, x] = 1
    return p @ full @ p.T


def oracle_unitary(c: Circuit) -> np.ndarray:
    u = np.eye(2 ** c.num_qubits, dtype=complex)
    for g in c.gates:
        u = oracle_gate(g, c.num_qubits) @ u
    return u


class TestGateMatrices:
    def test_hadamard(self):
        m = gate_matrix(Gate("H", (0,)))
        assert np.allclose(m, INV_SQRT2 * np.array([[1, 1], [1, -1]]))

    def test_ry_rotates_real(self):
        m = gate_matrix(Gate("Ry", (0,), theta=math.pi / 2))
        assert np.allclose(m, INV_SQRT2 * np.array([[1, -1], [1, 1]]))

    def test_rz_phases(self):
        m = gate_matrix(Gate("Rz", (0,), theta=0.8))
        assert np.allclose(np.diag(m), [np.exp(0.4j), np.exp(-0.4j)])

    def test_cnot_truth_table(self):
        m = gate_matrix(Gate("CNOT", (0, 1)))
        expect = np.zeros((4, 4))
        for ctrl in (0, 1):
            for tgt in (0, 1):
                out = tgt ^ ctrl
                expect[2 * ctrl + out, 2 * ctrl + tgt] = 1
        assert np.allclose(m, expect)

    def test_crd_is_controlled_phase(self):
        # d = 2 gives the controlled-S gate: phase pi/2 on |11>
        m = gate_matrix(Gate("CRd", (0, 1), d=2))
        assert np.allclose(np.diag(m), [1, 1, 1, 1j])


class TestOracle:
    """unitary_of and statevector against the Kronecker-product oracle."""

    def test_oracle_places_qubit0_lowest(self):
        # Ry(pi) on qubit 0 of two flips the least-significant bit
        m = oracle_gate(Gate("Ry", (0,), theta=math.pi), 2)
        assert np.allclose(m[:, 0], [0, 1, 0, 0])

    def test_oracle_cnot_control_high(self):
        # CNOT(1 -> 0) maps |10> (index 2) to |11> (index 3)
        m = oracle_gate(Gate("CNOT", (1, 0)), 2)
        assert np.array_equal(m[:, 2], [0, 0, 0, 1])

    @pytest.mark.parametrize("kind", sorted(ONE_QUBIT))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_qubit_gate(self, kind, n):
        for q in range(n):
            c = Circuit(n)
            c.append(Gate(kind, (q,), **ONE_QUBIT[kind]))
            assert np.allclose(unitary_of(c), oracle_unitary(c), atol=1e-13)

    @pytest.mark.parametrize("kind", sorted(TWO_QUBIT))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_two_qubit_gate_every_pair(self, kind, n):
        # both control/target orders, adjacent and (n >= 3) non-adjacent
        for a in range(n):
            for b in range(n):
                if a != b:
                    c = Circuit(n)
                    c.append(Gate(kind, (a, b), **TWO_QUBIT[kind]))
                    assert np.allclose(unitary_of(c), oracle_unitary(c), atol=1e-13)

    def test_gates_after_swaps(self):
        # every kind on every pair after SWAPs relabel the qubits
        c = Circuit(4)
        c.swap(0, 2)
        c.swap(1, 3)
        c.swap(0, 3)
        for kind, kw in {**ONE_QUBIT, **TWO_QUBIT}.items():
            for q in range(4):
                qubits = (q,) if kind in ONE_QUBIT else (q, (q + 2) % 4)
                c.append(Gate(kind, qubits, **kw))
        assert np.allclose(unitary_of(c), oracle_unitary(c), atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(ONE_QUBIT))
    @pytest.mark.parametrize("x", [0, 1])
    def test_one_qubit_statevector(self, kind, x):
        # a single axis: every slice of it is a 0-d view
        c = Circuit(1)
        c.append(Gate(kind, (0,), **ONE_QUBIT[kind]))
        assert np.allclose(statevector(c, x), oracle_unitary(c)[:, x], atol=1e-13)

    @pytest.mark.parametrize("kind", sorted(TWO_QUBIT))
    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
    def test_two_qubit_statevector(self, kind, qubits):
        c = Circuit(2)
        c.h(0)
        c.ry(1, 0.4)
        c.append(Gate(kind, qubits, **TWO_QUBIT[kind]))
        for x in range(4):
            assert np.allclose(statevector(c, x), oracle_unitary(c)[:, x], atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10 ** 6), st.integers(0, 30))
    def test_random_circuit(self, n, seed, length):
        c = random_circuit(n, seed, length)
        u = unitary_of(c)
        assert np.allclose(u, oracle_unitary(c), atol=1e-12)
        for x in {0, seed % 2 ** n, 2 ** n - 1}:
            assert np.allclose(statevector(c, x), u[:, x], atol=1e-13)

    def test_permutation_vector_moves_bits(self):
        # qubit q's bit goes to wire perm[q]
        perm = (2, 0, 3, 1)
        expect = [sum(((x >> q) & 1) << perm[q] for q in range(4)) for x in range(16)]
        assert permutation_vector(perm, 4).tolist() == expect


class TestSimulator:
    def test_empty_is_identity(self):
        assert np.allclose(unitary_of(Circuit(2)), np.eye(4))

    def test_single_hadamard(self):
        c = Circuit(1)
        c.h(0)
        assert np.allclose(unitary_of(c), INV_SQRT2 * np.array([[1, 1], [1, -1]]))

    def test_cnot_involution(self):
        c = Circuit(2)
        c.cnot(0, 1)
        c.cnot(0, 1)
        assert np.allclose(unitary_of(c), np.eye(4))

    def test_bell_state(self):
        c = Circuit(2)
        c.h(0)
        c.cnot(0, 1)
        psi = statevector(c)
        assert np.allclose(psi, [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_qubit0_is_least_significant(self):
        c = Circuit(2)
        c.ry(0, math.pi)
        assert np.allclose(statevector(c), [0, 1, 0, 0])

    def test_size_cap(self):
        with pytest.raises(TooManyQubits):
            unitary_of(Circuit(MAX_QUBITS + 1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 100))
    def test_output_is_unitary(self, n, seed):
        u = unitary_of(random_circuit(n, seed))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= verify_sim.TOL

    @staticmethod
    def reshaped_view(c):
        """The unitary as a copy of the reshaped `moveaxis` view of the
        simulated tensor: the reference for the rows moved in place."""
        n = c.num_qubits
        dim = 2 ** n
        tensor = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
        axis = verify_sim._run(tensor, c)
        return np.moveaxis(tensor, axis, range(n - 1, -1, -1)).reshape(dim, dim)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 200), st.integers(0, 40))
    def test_rows_moved_in_place_are_bit_identical(self, n, seed, length):
        c = random_circuit(n, seed, length)
        assert unitary_of(c).tobytes() == self.reshaped_view(c).tobytes()

    @pytest.mark.parametrize("n, seed", [(7, 0), (8, 3), (9, 1)])
    def test_qft_rows_moved_in_place_are_bit_identical(self, n, seed):
        # a QFT circuit's SWAPs leave a long relabel to undo
        c, _ = synthesize_qft(random_cactus(n, seed))
        assert c.count("SWAP") > n
        assert unitary_of(c).tobytes() == self.reshaped_view(c).tobytes()


def scatter_equiv(u, v, perm=None, tol=1e-9):
    """Reference for equiv_up_to_permutation: scatter a full permuted copy
    of v and take the phase from u's largest entry anywhere."""
    n = int(round(math.log2(u.shape[0])))
    pv = v
    if perm is not None:
        pv = np.empty(v.shape, dtype=complex)
        pv[permutation_vector(perm, n), :] = v
    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    if abs(pv[idx]) < 1e-12:
        return False, float(np.max(np.abs(u - pv)))
    phase = u[idx] / pv[idx]
    deviation = float(np.max(np.abs(pv * (phase / abs(phase)) - u)))
    return deviation <= tol, deviation


class TestEquivalence:
    def test_identity_case(self):
        u = unitary_of(random_circuit(3, 1))
        ok, dev = equiv_up_to_permutation(u, u)
        assert ok and dev < 1e-14

    def test_global_phase_ignored(self):
        u = unitary_of(random_circuit(3, 2))
        ok, _ = equiv_up_to_permutation(np.exp(0.71j) * u, u)
        assert ok

    def test_swap_conjugation(self):
        c = random_circuit(2, 3)
        swapped = Circuit(2)
        swapped.swap(0, 1)
        for g in c.gates:
            swapped.append(Gate(g.kind, tuple(1 - q for q in g.qubits), theta=g.theta, d=g.d))
        swapped.swap(0, 1)
        ok, _ = equiv_up_to_permutation(unitary_of(swapped), unitary_of(c))
        assert ok

    def test_perturbation_detected(self):
        u = unitary_of(random_circuit(2, 4))
        v = u.copy()
        v[0, 0] += 1e-3
        ok, dev = equiv_up_to_permutation(u, v)
        assert not ok and dev >= 1e-4

    def test_permutation_applied(self):
        # a circuit that is one SWAP equals the identity under perm (1, 0)
        c = Circuit(2)
        c.swap(0, 1)
        ok, _ = equiv_up_to_permutation(unitary_of(c), np.eye(4), perm=(1, 0))
        assert ok

    @staticmethod
    def cases():
        """(u, v, perm) triples, equivalent or not."""
        for n in range(1, 7):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                perm = tuple(int(q) for q in rng.permutation(n))
                u = unitary_of(random_circuit(n, seed))
                # u = e^{i phi} P v exactly
                v = (u * np.exp(-1.3j * seed))[permutation_vector(perm, n)]
                yield u, v, perm
                yield u, v, tuple(reversed(perm))
                bumped = v.copy()
                bumped[rng.integers(2 ** n), rng.integers(2 ** n)] += 1e-3
                yield u, bumped, perm
                yield u, unitary_of(random_circuit(n, seed + 50)), None
        for n in (5, 7):
            circuit, rep = synthesize_qft(random_cactus(n, 1))
            yield (unitary_of(circuit), qft_reference_unitary(rep.parameters["S"]),
                   circuit.final_permutation)

    @pytest.mark.parametrize("entries", [None, 8, 24])
    def test_blocks_agree_with_the_scatter_oracle(self, entries, monkeypatch):
        # blocks of one, a few, and (by default) all columns.  The two pick
        # their phase pivots differently, so on pairs that are not
        # equivalent only the verdicts must agree
        if entries is not None:
            monkeypatch.setattr(verify_sim, "_COMPARE_ENTRIES", entries)
        verdicts = set()
        for u, v, perm in self.cases():
            ok, dev = equiv_up_to_permutation(u, v, perm=perm)
            ref_ok, ref_dev = scatter_equiv(u, v, perm=perm)
            assert ok == ref_ok
            if ok:
                assert abs(dev - ref_dev) <= 1e-12
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_pivot_on_a_zero_compares_without_phase(self):
        # u's phase pivot meets a zero entry of P v
        u, v = np.eye(4), np.eye(4)[[1, 0, 3, 2]]
        assert equiv_up_to_permutation(u, v) == scatter_equiv(u, v) == (False, 1.0)

    def test_vanishing_first_column_compares_without_phase(self):
        # u is not unitary: its first column, the phase pivot's, is all zero
        u = np.diag([0, 1, 1, 1]).astype(complex)
        assert equiv_up_to_permutation(u, u) == (True, 0.0)
        assert equiv_up_to_permutation(u, np.eye(4)) == (False, 1.0)
        ok, dev = equiv_up_to_permutation(u, -u)
        assert not ok and dev == pytest.approx(2.0)


class TestQftReferences:
    def test_qft_matrix_2(self):
        w = np.exp(2j * np.pi / 4)
        expect = 0.5 * np.array([[w ** (j * k) for k in range(4)] for j in range(4)])
        assert np.allclose(qft_matrix(2), expect)

    def test_reference_matches_textbook_cascade(self):
        # n=2 cascades with identity labels: H(0), CRd(1->0, 2), H(1)
        c = Circuit(2)
        c.h(0)
        c.crd(1, 0, 2)
        c.h(1)
        assert np.allclose(unitary_of(c), qft_reference_unitary((1, 2)), atol=1e-12)

    def test_reference_unitary_n3(self):
        c = Circuit(3)
        c.h(0)
        c.crd(1, 0, 2)
        c.crd(2, 0, 3)
        c.h(1)
        c.crd(2, 1, 2)
        c.h(2)
        assert np.allclose(unitary_of(c), qft_reference_unitary((1, 2, 3)), atol=1e-12)

    @pytest.mark.parametrize("labels", [(1,), (2, 1), (3, 1, 2), (4, 2, 5, 1, 3), (6, 1, 5, 2, 4, 3)])
    def test_reference_matches_its_formula(self, labels):
        # X reads qubit v's bit at weight 2^(n - labels[v]), Y at 2^(labels[v] - 1)
        n = len(labels)
        dim = 2 ** n
        xs = [sum(((x >> v) & 1) << (n - labels[v]) for v in range(n)) for x in range(dim)]
        ys = [sum(((y >> v) & 1) << (labels[v] - 1) for v in range(n)) for y in range(dim)]
        expect = np.exp(2j * np.pi * np.outer(ys, xs) / dim) / math.sqrt(dim)
        assert np.allclose(qft_reference_unitary(labels), expect, atol=1e-12)

    def test_relabeling_conjugates_by_the_wire_swap(self):
        c = Circuit(2)
        c.swap(0, 1)
        s = unitary_of(c)
        u = qft_reference_unitary((2, 1))
        assert np.allclose(u, s @ qft_reference_unitary((1, 2)) @ s, atol=1e-12)


class TestModP:
    def test_closed_form_at_zero(self):
        assert modp_closed_form((1, 2, 3), 0, 5) == pytest.approx(1.0)

    def test_closed_form_periodic(self):
        val = modp_closed_form((2, 3), 4, 7)
        assert modp_closed_form((2, 3), 4 + 7, 7) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_simulated_matches_closed_form(self, p):
        g = star(4)
        params = HashParams.from_coefficients(p, 0.25, (1, 2, 1))
        for l in range(0, 3 * p + 1):
            sim = modp_accept_probability(g, l, params)
            assert sim == pytest.approx(modp_closed_form(params.coefficients, l, p), abs=1e-6)

    def test_check_good_set_single_coefficient(self):
        ok, worst = check_good_set((1,), 5, 0.2)
        assert not ok and 1 <= worst <= 4

    def test_check_good_set_vacuous(self):
        ok, _ = check_good_set((1, 1), 7, 1.0001)
        assert ok

    def test_check_good_set_known_bad(self):
        ok, worst = check_good_set((1, 1, 1), 17, 0.25)
        assert not ok and worst == 8

    def test_check_good_set_validation(self):
        with pytest.raises(ValueError):
            check_good_set((), 5, 0.3)
        with pytest.raises(ValueError):
            check_good_set((1,), 1, 0.3)
