"""QFT synthesis tests: the scheduling simulation (construct_s), single
cascades, full circuits against the QFT reference, and the cost
accounting including the exact revisit surcharge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shortest_simple_covering_walk

from cactusq.circuit_ir import Circuit, cnot_cost
from cactusq.families import complete, cycle, fig3_cactus, line, star
from cactusq.graph_core import Graph, random_cactus
from cactusq.qft_synth import CascadeRecord, cascade_for_path, construct_s, synthesize_qft
from cactusq.verify_sim import equiv_up_to_permutation, qft_reference_unitary, unitary_of

SPIDER = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


class TestConstructS:
    @pytest.mark.parametrize(
        "g, expect",
        [
            (line(3), (2, 1, 3)),
            (line(4), (3, 2, 1, 4)),
            (line(5), (4, 3, 2, 1, 5)),
            (cycle(5), (1, 3, 2, 5, 4)),
            (star(6), (1, 6, 5, 4, 3, 2)),
            (complete(5), (1, 5, 4, 3, 2)),
            (fig3_cactus(), (9, 6, 7, 5, 3, 4, 2, 10, 1, 8)),
            (SPIDER, (2, 1, 7, 3, 6, 4, 5)),
        ],
        ids=["line3", "line4", "line5", "cycle5", "star6", "k5", "fig3", "spider"],
    )
    def test_frozen_schedules(self, g, expect):
        assert construct_s(g).S == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14), st.integers(0, 200))
    def test_s_is_a_permutation(self, n, seed):
        plan = construct_s(random_cactus(n, seed))
        assert sorted(plan.S) == list(range(1, n + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 14), st.integers(0, 200))
    def test_cascade_count_and_final_paths(self, n, seed):
        plan = construct_s(random_cactus(n, seed))
        assert len(plan.cascades) == n
        assert len(plan.cascades[-1].path) == 1
        assert len(plan.cascades[-2].path) == 1

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            construct_s(Graph.from_edges(1, []))


class TestCascadeForPath:
    def test_line3_first_cascade(self):
        g = line(3)
        plan = construct_s(g)
        frag = cascade_for_path(g, plan.cascades[0], Circuit(g.n, device=g))
        kinds = [gg.kind for gg in frag.gates]
        # H at the target, one neighbor fired in place, the park rotation
        # fused with the park SWAP
        assert kinds == ["H", "CRd", "CRd", "SWAP"]

    def test_last_cascade_is_hadamard_only(self):
        g = line(4)
        plan = construct_s(g)
        frag = cascade_for_path(g, plan.cascades[-1], Circuit(g.n, device=g))
        assert [gg.kind for gg in frag.gates] == ["H"]

    def test_every_control_fires_once(self):
        g = fig3_cactus()
        plan = construct_s(g)
        for rec in plan.cascades:
            frag = cascade_for_path(g, rec, Circuit(g.n, device=g))
            assert frag.count("CRd") == len(rec.survivors) - 1

    def test_park_on_the_walk_fired_as_a_step(self):
        # a park the walk already fired gets a bare park SWAP
        g = cycle(4)
        rec = CascadeRecord(r=1, path=(0, 1, 2), target_vertex=0, park=1,
                            survivors=(0, 1, 2, 3), d_of=((1, 2), (2, 3), (3, 4)))
        c = cascade_for_path(g, rec, Circuit(g.n, device=g))
        assert [(gg.kind, gg.qubits, gg.d) for gg in c.gates] == [
            ("H", (0,), None),
            ("CRd", (3, 0), 4),
            ("CRd", (1, 0), 2),
            ("SWAP", (0, 1), None),
            ("CRd", (2, 1), 3),
            ("SWAP", (1, 2), None),
            ("SWAP", (2, 1), None),
        ]

    def test_walk_back_over_its_start(self):
        # the target's start vertex never fires, however often it is passed
        g = line(4)
        rec = CascadeRecord(r=1, path=(1, 0, 1, 2), target_vertex=1, park=3,
                            survivors=(0, 1, 2, 3), d_of=((0, 2), (2, 3), (3, 4)))
        c = cascade_for_path(g, rec, Circuit(g.n, device=g))
        assert sorted(gg.qubits[0] for gg in c.gates if gg.kind == "CRd") == [0, 2, 3]


class TestSynthesizeQft:
    @pytest.mark.parametrize(
        "g, cnots, crds",
        [
            (line(2), 2, 1),
            (line(3), 7, 3),
            (line(4), 15, 6),
            (line(5), 26, 10),
            (cycle(5), 26, 10),
            (star(6), 34, 15),
            (complete(5), 23, 10),
            (fig3_cactus(), 113, 45),
        ],
        ids=["line2", "line3", "line4", "line5", "cycle5", "star6", "k5", "fig3"],
    )
    def test_frozen_costs(self, g, cnots, crds):
        c, rep = synthesize_qft(g)
        assert rep.cnot_count == cnots
        assert c.count("CRd") == crds

    def test_single_qubit(self):
        c, rep = synthesize_qft(Graph.from_edges(1, []))
        assert [gg.kind for gg in c.gates] == ["H"] and rep.cnot_count == 0

    def test_crd_count_is_always_n_choose_2(self):
        for n, seed in [(5, 0), (8, 3), (11, 7)]:
            g = random_cactus(n, seed)
            c, _ = synthesize_qft(g)
            assert c.count("CRd") == n * (n - 1) // 2

    def test_spider_exceeds_cascade_bound_by_its_revisit(self):
        # the forced hub re-entry adds one bare SWAP the bound's
        # accounting does not see: cost = bound + 2 per revisited element.
        # It is forced: the spider has no simple covering walk at all.
        assert shortest_simple_covering_walk(SPIDER) is None
        _, rep = synthesize_qft(SPIDER)
        assert rep.cnot_count == 57
        assert rep.formula_value == 55
        assert rep.parameters["revisit_excess"] == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14), st.integers(0, 250))
    def test_cost_identity(self, n, seed):
        g = random_cactus(n, seed)
        _, rep = synthesize_qft(g)
        p = rep.parameters
        assert rep.cnot_count == p["K"] + n * n - n - 1 + p["revisit_excess"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 20), st.integers(0, 250))
    def test_theorem2_and_corollary3_upper(self, n, seed):
        g = random_cactus(n, seed)
        _, rep = synthesize_qft(g)
        assert rep.cnot_count <= rep.parameters["theorem2_bound"]
        assert rep.cnot_count <= rep.parameters["corollary3_high"]


class TestSemantics:
    @pytest.mark.parametrize(
        "g",
        [line(2), line(3), line(5), cycle(6), star(5), complete(4), fig3_cactus(), SPIDER],
        ids=["line2", "line3", "line5", "cycle6", "star5", "k4", "fig3", "spider"],
    )
    def test_families_equal_qft(self, g):
        plan = construct_s(g)
        c, _ = synthesize_qft(g)
        ok, dev = equiv_up_to_permutation(
            unitary_of(c), qft_reference_unitary(plan.S), perm=c.final_permutation
        )
        assert ok, f"deviation {dev}"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 150))
    def test_random_cacti_equal_qft(self, n, seed):
        g = random_cactus(n, seed)
        plan = construct_s(g)
        c, _ = synthesize_qft(g)
        ok, dev = equiv_up_to_permutation(
            unitary_of(c), qft_reference_unitary(plan.S), perm=c.final_permutation
        )
        assert ok, f"deviation {dev}"
