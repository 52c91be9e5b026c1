"""QFT synthesis tests: the scheduling simulation (construct_s) with its
one solver kept across the stages, single cascades, full circuits against
the QFT reference, and the cost accounting including the exact revisit
surcharge."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cascade_stages_reference, shortest_simple_covering_walk

from cactusq.circuit_ir import Circuit, cnot_cost
from cactusq.covering_path import CactusSolver
from cactusq.families import chain_of_squares, complete, cycle, fig3_cactus, line, star
from cactusq.graph_core import Graph, random_cactus
from cactusq.qft_synth import CascadeRecord, cascade_for_path, construct_s, synthesize_qft
from cactusq.verify_sim import equiv_up_to_permutation, qft_reference_unitary, unitary_of

SPIDER = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def spider(legs, length):
    """`legs` paths of `length` vertices hanging off vertex 0."""
    return Graph.from_edges(1 + legs * length, [
        (1 + leg * length + i - 1 if i else 0, 1 + leg * length + i)
        for leg in range(legs) for i in range(length)])


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


class TestOneSolverAcrossStages:
    # construct_s keeps one CactusSolver and removes pendant parks from it
    # in place; every stage must still get the walk and the park that
    # solving the stage's survivors afresh gives
    @staticmethod
    def stages(g):
        return [(rec.path, rec.park) for rec in construct_s(g).cascades[:-2]]

    @pytest.mark.parametrize("cycle_prob", [0.2, 0.45, 0.85])
    def test_random_cacti_match_the_reference(self, cycle_prob):
        for n in range(2, 61):
            for seed in range(2):
                g = random_cactus(n, seed, cycle_prob)
                assert self.stages(g) == cascade_stages_reference(g), (n, seed)

    def test_families_match_the_reference(self):
        graphs = [fig3_cactus(), complete(5)]
        graphs += [f(n) for n in range(2, 25) for f in (line, star)]
        graphs += [spider(legs, length) for legs in (2, 3, 5) for length in (1, 2, 4)]
        graphs += [chain_of_squares(t) for t in range(1, 10)]
        for g in graphs:
            assert self.stages(g) == cascade_stages_reference(g), g.edges()

    @pytest.mark.parametrize("seed", range(3))
    def test_large_cacti_match_the_reference(self, seed):
        g = random_cactus(200, seed)
        assert self.stages(g) == cascade_stages_reference(g)

    def test_least_survivor_stays_on_the_rebuild_path(self):
        # here a pendant park is the least survivor while a cycle is left;
        # removed in place, it would keep a cycle order that the fresh
        # DFS, starting from another vertex, finds differently
        g = random_cactus(43, 28, 0.85)
        assert self.stages(g) == cascade_stages_reference(g)


class TestPendantRemoval:
    # after each in-place removal every live block's tables equal those of
    # a fresh build on the vertices left, value for value: folded values
    # are compared as (length, revisits), each decoded with its own unit
    @staticmethod
    def check_against_fresh(g, solver):
        alive = [v for v in range(g.n) if v not in solver.removed]
        sub, old = g.induced_subgraph(alive)
        fresh = CactusSolver(sub)
        kept, new = solver.dp, fresh.dp
        unit, fresh_unit = kept.weights[0], new.weights[0]
        live = [b for b, v in enumerate(kept.value) if v is not None]
        assert len(live) == fresh.bt.n_blocks == solver.blocks
        renumber = {b: i for i, b in enumerate(live)}
        for b, fb in renumber.items():
            kind, verts = solver.bt.blocks[b]
            fkind, fverts = fresh.bt.blocks[fb]
            assert kind == fkind
            assert ([solver.tvc.origin[v] for v in verts]
                    == [old[fresh.tvc.origin[v]] for v in fverts])
            assert divmod(kept.closed[b], unit) == divmod(new.closed[fb], fresh_unit)
            assert divmod(kept.value[b], unit) == divmod(new.value[fb], fresh_unit)
            for top, ftop in zip(kept.top_at[b], new.top_at[fb], strict=True):
                if top is None or ftop is None:
                    assert top is ftop is None
                else:
                    assert ([(renumber[c.block], divmod(c.saving, unit)) for c in top]
                            == [(c.block, divmod(c.saving, fresh_unit)) for c in ftop])
        assert solver.walk().vertices == tuple(old[v] for v in fresh.walk().vertices)

    def remove_pendants(self, g, seed):
        """Remove pendants in random order while one can be removed in
        place, checking the tables after each; return how many went."""
        rng = random.Random(seed)
        solver = CactusSolver(g)
        removed = 0
        while True:
            alive = [v for v in range(g.n) if v not in solver.removed]
            pendants = [v for v in alive
                        if sum(u not in solver.removed for u in g.adjacency[v]) == 1]
            rng.shuffle(pendants)
            for v in pendants:
                if solver.remove_pendant(v):
                    break
                # the least vertex left stays while a cycle is left
                assert v == alive[0] and solver.tvc.cycles
            else:
                return removed
            removed += 1
            self.check_against_fresh(g, solver)

    @pytest.mark.parametrize("cycle_prob", [0.2, 0.45, 0.85])
    def test_random_cacti(self, cycle_prob):
        removed = 0
        for n in range(2, 31):
            for seed in range(4):
                removed += self.remove_pendants(random_cactus(n, seed, cycle_prob), seed)
        assert removed > 100

    def test_families(self):
        # the last two: a 4-cycle and a 9-cycle with a path of two on
        # every vertex, so the cycle's arms lose their neighbours one by one
        for g in [line(12), star(9), spider(3, 3)] + [
                Graph.from_edges(3 * t, [(i, (i + 1) % t) for i in range(t)]
                                 + [(i, t + i) for i in range(t)]
                                 + [(t + i, 2 * t + i) for i in range(t)])
                for t in (4, 9)]:
            for seed in range(3):
                assert self.remove_pendants(g, seed) > 0

    def test_non_pendant_is_refused(self):
        solver = CactusSolver(line(5))
        assert not solver.remove_pendant(2)
        assert solver.remove_pendant(0) and solver.remove_pendant(1)
        assert solver.walk().vertices == (3,)


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
        rec = CascadeRecord(r=1, path=(0, 1, 2), park=1,
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
        rec = CascadeRecord(r=1, path=(1, 0, 1, 2), park=3,
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
