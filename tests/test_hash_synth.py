"""Hashing synthesis tests: the cost formula, single-application and
l-fold circuits with boundary merges, semantics against the
unconstrained reference, the replayed fold against a one-application-at-
a-time reference, good-set search, and the MOD_p automaton."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hash_fold_reference, reference_cnot_count

from cactusq.circuit_ir import Circuit, DeviceViolation, cnot_cost
from cactusq.covering_path import solve_cactus
from cactusq.families import chain_of_squares, cycle, fig3_cactus, line, star
from cactusq import hash_synth
from cactusq.graph_core import Graph, random_cactus
from cactusq.hash_synth import (
    MAX_TRIALS,
    HashParams,
    PathNotCovering,
    SearchExhausted,
    build_modp_automaton,
    construct_for_path,
    find_good_set,
    hash_reference_circuit,
    modp_closed_form,
    synthesize_hash,
    theorem1_cost,
)
from cactusq.verify_sim import (
    equiv_up_to_permutation,
    modp_accept_probability,
    unitary_of,
)


def _flat_angles(g):
    return {v: 0.1 * (v + 1) for v in range(g.n)}


def _params_for(n, p=17, epsilon=0.25):
    ks = tuple((j - 1) % (p - 1) + 1 for j in range(1, n))
    return HashParams.from_coefficients(p, epsilon, ks)


class TestCostFormula:
    def test_star_values(self):
        # center-only path: k = k' = 1, so (3 + 2(n-1))l - 5l + 2
        assert theorem1_cost(5, 1, 1, 1) == 8
        assert theorem1_cost(5, 1, 1, 2) == 14

    def test_fig3_single_application(self):
        assert theorem1_cost(10, 5, 5, 1) == 22

    def test_formula_linear_in_l(self):
        base = theorem1_cost(9, 4, 4, 1)
        step = theorem1_cost(9, 4, 4, 2) - base
        assert theorem1_cost(9, 4, 4, 5) == base + 4 * step


class TestSingleApplication:
    @pytest.mark.parametrize("t, expect", [(3, 22), (4, 30), (5, 38)])
    def test_square_chain_costs(self, t, expect):
        # one application over the chain of t squares costs 8t - 2
        g = chain_of_squares(t)
        c = construct_for_path(g, solve_cactus(g), _flat_angles(g))
        assert cnot_cost(c) == expect
        assert 8 * t - 2 == expect

    def test_star_fires_all_controls(self):
        g = star(6)
        c = construct_for_path(g, solve_cactus(g), _flat_angles(g))
        assert c.count("CRy") == 5
        assert c.count("SWAP") == 0

    def test_path_must_cover(self):
        g = line(5)
        with pytest.raises(PathNotCovering):
            construct_for_path(g, [2, 3], _flat_angles(g))

    def test_device_checked_before_coverage(self):
        # [0, 2] steps over a non-edge and leaves 3 and 4 uncovered; the
        # device check fires first, as each gate is appended
        g = line(5)
        with pytest.raises(DeviceViolation):
            construct_for_path(g, [0, 2], _flat_angles(g))

    def test_reverse_direction_same_cost(self):
        g = fig3_cactus()
        fwd = construct_for_path(g, solve_cactus(g), _flat_angles(g))
        rev = construct_for_path(g, solve_cactus(g), _flat_angles(g), direction="reverse")
        assert cnot_cost(fwd) == cnot_cost(rev)

    @pytest.mark.parametrize("direction, start", [("forward", 1), ("reverse", 2)])
    def test_walk_back_over_its_start(self, direction, start):
        # forward, the walk steps back onto its start vertex; the qubit
        # standing there is the target and must not fire as a control
        g = line(4)
        c = construct_for_path(g, [1, 0, 1, 2], _flat_angles(g), direction=direction)
        ref = hash_reference_circuit(g, 1, _flat_angles(g), start)
        ok, dev = equiv_up_to_permutation(
            unitary_of(c), unitary_of(ref), perm=c.final_permutation
        )
        assert ok, f"deviation {dev}"
        assert c.count("CRy") == 3


class TestSynthesizeHash:
    @pytest.mark.parametrize("l, expect", [(1, 10), (2, 18), (3, 26), (4, 34)])
    def test_line5_fold_costs(self, l, expect):
        g = line(5)
        res = synthesize_hash(g, l, _params_for(g.n))
        assert res.cost.cnot_count == expect
        assert res.cost.exact

    def test_fig3_single(self):
        res = synthesize_hash(fig3_cactus(), 1, _params_for(10))
        assert res.cost.cnot_count == 22

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 200), st.integers(1, 5))
    def test_cost_always_exact(self, n, seed, l):
        g = random_cactus(n, seed)
        res = synthesize_hash(g, l, _params_for(n))
        walk = res.path
        assert res.cost.cnot_count == theorem1_cost(n, walk.k, walk.k_distinct, l)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 200), st.integers(1, 5))
    def test_cost_within_corollary_range(self, n, seed, l):
        g = random_cactus(n, seed)
        res = synthesize_hash(g, l, _params_for(n))
        assert 2 * n * l - 4 * l + 2 <= res.cost.cnot_count <= 6 * n * l - 7 * l + 2

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            synthesize_hash(line(3), 0, _params_for(3))


def _gate_rows(c):
    return [(x.kind, x.qubits, x.theta, x.d) for x in c.gates]


def _automaton_reference(g, l, params):
    """build_modp_automaton's H frame around `hash_fold_reference`."""
    path = solve_cactus(g)
    controls = [v for v in range(g.n) if v != path.vertices[0]]
    c = Circuit(g.n, device=g)
    for v in controls:
        c.h(v)
    hash_fold_reference(g, path, params.angles, l, c)
    for v in controls:
        c.h(c.final_permutation[v])
    return c


# the families collapse whole applications into merged boundary gates
_REPLAY_GRAPHS = [
    pytest.param(random_cactus(n, seed), id=f"random{n}-{seed}")
    for n in range(2, 31) for seed in range(4)
] + [pytest.param(g, id=name)
     for name, g in [("line2", line(2)), ("star5", star(5)), ("fig3", fig3_cactus())]]


class TestReplayedFold:
    @pytest.mark.parametrize("g", _REPLAY_GRAPHS)
    def test_matches_application_by_application(self, g):
        params = _params_for(g.n)
        path = solve_cactus(g)
        for l in range(1, 8):
            res = synthesize_hash(g, l, params)
            ref = hash_fold_reference(g, path, params.angles, l, Circuit(g.n, device=g))
            assert _gate_rows(res.circuit) == _gate_rows(ref)
            assert res.circuit.final_permutation == ref.final_permutation
            assert res.cost.cnot_count == cnot_cost(ref)
            assert _gate_rows(build_modp_automaton(g, l, params)) == \
                _gate_rows(_automaton_reference(g, l, params))

    def test_applications_are_built_once(self):
        # every application replays one of two gate lists (the forward and
        # the reverse one); only the l - 1 merged seam rotations are new
        # gates
        g = random_cactus(60, 1)
        l = 40
        res = synthesize_hash(g, l, _params_for(g.n))
        per_application = len(construct_for_path(g, res.path, _flat_angles(g)).gates)
        assert len({id(x) for x in res.circuit.gates}) <= 2 * per_application + l - 1

    # star60's walk is its centre alone, so its applications hold no SWAP
    # and every seam merges into a CRy
    @pytest.mark.parametrize("g", _REPLAY_GRAPHS + [pytest.param(star(60), id="star60")])
    def test_whole_appends_keep_theorem1_and_the_gates(self, g):
        params = _params_for(g.n)
        for l in (1, 2, 3, 7, 1001):
            res = synthesize_hash(g, l, params)
            walk = res.path
            assert res.cost.cnot_count == theorem1_cost(g.n, walk.k, walk.k_distinct, l)
            assert res.cost.cnot_count == reference_cnot_count(res.circuit.gates)
            per_application = len(construct_for_path(g, walk, _flat_angles(g)).gates)
            assert len({id(x) for x in res.circuit.gates}) <= 2 * per_application + l - 1


class TestSemantics:
    @pytest.mark.parametrize("builder", [line, cycle, star], ids=["line", "cycle", "star"])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_families_match_reference(self, builder, l):
        g = builder(5)
        params = _params_for(g.n)
        res = synthesize_hash(g, l, params)
        ref = hash_reference_circuit(g, l, params.angles, res.path.vertices[0])
        ok, dev = equiv_up_to_permutation(
            unitary_of(res.circuit), unitary_of(ref), perm=res.circuit.final_permutation
        )
        assert ok, f"deviation {dev}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 100), st.integers(1, 4))
    def test_random_cacti_match_reference(self, n, seed, l):
        g = random_cactus(n, seed)
        params = _params_for(n)
        res = synthesize_hash(g, l, params)
        ref = hash_reference_circuit(g, l, params.angles, res.path.vertices[0])
        ok, dev = equiv_up_to_permutation(
            unitary_of(res.circuit), unitary_of(ref), perm=res.circuit.final_permutation
        )
        assert ok, f"deviation {dev}"

    def test_even_folds_restore_layout(self):
        g = fig3_cactus()
        res = synthesize_hash(g, 2, _params_for(g.n))
        assert res.circuit.final_permutation == tuple(range(g.n))


class TestGoodSets:
    def test_frozen_seed_p5(self):
        params = find_good_set(5, 0.25, seed=0, size=5)
        assert params.coefficients == (4, 3, 4, 3, 2)
        assert params.t == 19

    def test_frozen_seed_p17(self):
        params = find_good_set(17, 0.25, seed=0, size=5)
        assert params.coefficients == (13, 14, 2, 9, 16)
        assert params.t == 29

    def test_p2_has_no_good_set(self):
        with pytest.raises(SearchExhausted):
            find_good_set(2, 0.25, seed=0, size=3)

    def test_search_stops_once_every_set_is_drawn(self):
        # p = 3, size 4 (what `hash --graph line5 --p 3` asks for) has
        # (p - 1)^4 = 16 sets and no good one: the search gives up once it
        # has drawn all 16, well inside the trial budget
        with pytest.raises(SearchExhausted) as info:
            find_good_set(3, 0.25, seed=0, size=4)
        draws = int(re.search(r"in (\d+) trials", str(info.value)).group(1))
        assert 16 <= draws < MAX_TRIALS

    def test_direct_condition_goes_first(self, monkeypatch):
        # one coefficient's mean cosine is a single cosine, which some
        # residue brings close to 1, so each of the 100 sets breaks the
        # direct condition: the search never needs the closed form
        calls = []
        closed = hash_synth.modp_closed_form
        monkeypatch.setattr(hash_synth, "modp_closed_form",
                            lambda *args: calls.append(1) or closed(*args))
        with pytest.raises(SearchExhausted):
            find_good_set(101, 0.25, seed=0, size=1)
        assert calls == []

    def test_empty_set_rejected(self):
        # the mean-cosine check divides by the set size
        with pytest.raises(ValueError):
            find_good_set(5, 0.25, seed=0, size=0)

    def test_angles_are_4pi_over_p(self):
        params = HashParams.from_coefficients(5, 0.25, (1, 2))
        assert params.angles == pytest.approx((4 * np.pi / 5, 8 * np.pi / 5))

    def test_synthesis_needs_one_coefficient_per_control(self):
        # t = 19 for p = 5, epsilon = 0.25: one per control of a 20-vertex
        # cactus, but one per vertex of a 19-vertex one, which is refused
        params = find_good_set(5, 0.25)
        assert len(params.coefficients) == 19
        assert synthesize_hash(random_cactus(20, 0), 1, params).path.k >= 1
        with pytest.raises(ValueError, match="one coefficient per control"):
            synthesize_hash(random_cactus(19, 0), 1, params)


class TestModPAutomaton:
    def test_zero_folds_accepts(self):
        g = star(5)
        params = _params_for(g.n, p=7)
        assert modp_accept_probability(g, 0, params) == pytest.approx(1.0)

    def test_multiples_of_p_accept(self):
        g = star(6)
        params = find_good_set(5, 0.25, seed=0, size=5)
        for l in (5, 10):
            assert modp_accept_probability(g, l, params) == pytest.approx(1.0, abs=1e-6)

    def test_nonmultiples_bounded(self):
        g = star(6)
        params = find_good_set(5, 0.25, seed=0, size=5)
        for l in (1, 2, 3, 4, 6, 7):
            assert modp_accept_probability(g, l, params) <= 0.25

    def test_matches_closed_form(self):
        g = cycle(5)
        params = _params_for(g.n, p=7)
        for l in range(0, 15):
            sim = modp_accept_probability(g, l, params)
            assert sim == pytest.approx(
                modp_closed_form(params.coefficients, l, 7), abs=1e-6
            )

    def test_needs_one_coefficient_per_control(self):
        g = line(4)
        with pytest.raises(ValueError):
            build_modp_automaton(g, 1, HashParams.from_coefficients(5, 0.25, (1,)))

    def test_hadamard_frame(self):
        g = line(4)
        c = build_modp_automaton(g, 2, _params_for(g.n, p=5))
        assert c.count("H") == 2 * (g.n - 1)
        assert c.gates[0].kind == "H"
