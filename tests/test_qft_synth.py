"""QFT synthesis tests: the scheduling simulation (construct_s) with its
one solver kept across the stages, single cascades, full circuits against
the QFT reference, and the cost accounting including the exact revisit
surcharge."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SPIDER,
    cascade_stages_reference,
    connected_without,
    relabel,
    shortest_simple_covering_walk,
    spider,
)

from cactusq.circuit_ir import Circuit
from cactusq.covering_path import CactusSolver
from cactusq.families import chain_of_squares, complete, cycle, fig3_cactus, line, star
from cactusq.graph_core import Graph, random_cactus
from cactusq.qft_synth import CascadeRecord, cascade_for_path, construct_s, synthesize_qft
from cactusq.verify_sim import equiv_up_to_permutation, qft_reference_unitary, unitary_of

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

    @pytest.mark.parametrize("cycle_prob", [0.2, 0.45, 0.85])
    def test_relabelled_cacti_match_the_reference(self, cycle_prob):
        # on renamed cacti `validate_cactus` turns some cycles round (see `relabel`)
        for n in range(2, 31):
            for seed in range(2):
                g = relabel(random_cactus(n, seed, cycle_prob), seed)
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

    # the park needs no search: a shortest 1-covering walk's end has a
    # neighbor off the walk, and removing any vertex off the walk keeps
    # the survivors connected; checked on brute-force stages and at n = 200
    @pytest.mark.parametrize("g", [complete(n) for n in range(3, 8)]
                             + [random_cactus(200, seed) for seed in range(3)],
                             ids=[f"k{n}" for n in range(3, 8)]
                             + [f"cactus200-{seed}" for seed in range(3)])
    def test_parks_are_off_the_walk_and_keep_the_rest_connected(self, g):
        alive = set(range(g.n))
        for path, park in self.stages(g):
            assert g.has_edge(path[-1], park) and park not in path
            assert connected_without(g, alive, park)
            alive.remove(park)

    def test_least_survivor_park_is_removed_in_place(self):
        # here a pendant park is the least survivor while a cycle is left.
        # It is removed in place, and the fresh DFS then starts from
        # another vertex; the cycles are numbered by their vertices, not
        # by that DFS, so the kept solver still walks as a fresh one does
        g = random_cactus(43, 28, 0.85)
        assert self.stages(g) == cascade_stages_reference(g)


class TestPendantRemoval:
    # after each in-place removal every live block's tables equal those of
    # a fresh build on the vertices left, value for value: folded values
    # are compared as (length, revisits), each decoded with its own unit,
    # and each position's filed neighbours in the fresh build's order.  A
    # block is live while its top_at is not empty; the root values a walk
    # keeps must be those its tables score at the time
    @staticmethod
    def check_against_fresh(g, solver):
        alive = [v for v in range(g.n) if v not in solver.removed]
        sub, old = g.induced_subgraph(alive)
        fresh = CactusSolver(sub)
        kept, new = solver, fresh
        unit, fresh_unit = kept.weights[0], new.weights[0]
        live = [b for b, top_at in enumerate(kept.top_at) if top_at]
        assert len(live) == fresh.bt.n_blocks
        renumber = {b: i for i, b in enumerate(live)}
        for b, fb in renumber.items():
            kind, verts = solver.bt.blocks[b]
            fkind, fverts = fresh.bt.blocks[fb]
            assert kind == fkind
            assert ([solver.tvc.origin[v] for v in verts]
                    == [old[fresh.tvc.origin[v]] for v in fverts])
            assert divmod(kept.closed[b], unit) == divmod(new.closed[fb], fresh_unit)
            (value, pivot), (fvalue, fpivot) = kept.root(b), new.root(fb)
            assert (divmod(value, unit), pivot) == (divmod(fvalue, fresh_unit), fpivot)
            for top, ftop in zip(kept.top_at[b], new.top_at[fb], strict=True):
                if top is None or ftop is None:
                    assert top is ftop is None
                else:
                    assert ([(renumber[c.block], divmod(c.saving, unit)) for c in top]
                            == [(c.block, divmod(c.saving, fresh_unit)) for c in ftop])
            for at, fat in zip(kept.into[b], new.into[fb], strict=True):
                assert (at is None) == (fat is None)
                assert ([(renumber[c.block], c.position, c.skipped) for c in at or ()]
                        == [(c.block, c.position, c.skipped) for c in fat or ()])
        assert solver.walk().vertices == tuple(old[v] for v in fresh.walk().vertices)
        for b in live:
            assert kept.value[b] is None or kept.value[b] == kept.root(b), b

    def remove_pendants(self, g, seed):
        """Remove pendants in random order, each in place, until none is
        left, checking the tables after each; return how many went."""
        rng = random.Random(seed)
        solver = CactusSolver(g)
        removed = 0
        while True:
            pendants = [v for v in range(g.n) if v not in solver.removed
                        and sum(u not in solver.removed for u in g.adjacency[v]) == 1]
            if not pendants:
                return removed
            rng.shuffle(pendants)
            assert solver.remove_pendant(pendants[0]), pendants[0]
            removed += 1
            self.check_against_fresh(g, solver)

    @pytest.mark.parametrize("cycle_prob", [0.2, 0.45, 0.85])
    def test_random_cacti(self, cycle_prob):
        removed = 0
        for n in range(2, 31):
            for seed in range(4):
                removed += self.remove_pendants(random_cactus(n, seed, cycle_prob), seed)
        assert removed > 100

    @pytest.mark.parametrize("cycle_prob", [0.2, 0.45, 0.85])
    def test_relabelled_cacti(self, cycle_prob):
        # on renamed cacti `validate_cactus` turns some cycles round (see `relabel`)
        removed = 0
        for n in range(2, 31):
            for seed in range(2):
                g = relabel(random_cactus(n, seed, cycle_prob), seed)
                removed += self.remove_pendants(g, seed)
        assert removed > 50

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

    def test_removals_at_scale(self):
        # 200 removals from one solver on a 5 000-vertex cactus: the
        # vertices are taken in a seeded order, each removed if it is a
        # pendant by then, with a walk after every 50 to keep root values
        # that later removals must clear
        g = random_cactus(5000, 0)
        solver = CactusSolver(g)
        order = list(range(g.n))
        random.Random(0).shuffle(order)
        gone = (v for v in order if solver.remove_pendant(v))
        for _ in range(4):
            assert len(list(islice(gone, 50))) == 50
            solver.walk()
        self.check_against_fresh(g, solver)

    def test_walks_score_only_changed_blocks(self, monkeypatch):
        # a walk keeps the root values of blocks whose tables have not
        # changed: none after no removal, just the hub after a leaf goes
        solver = CactusSolver(star(9))
        solver.walk()
        roots = []
        root = CactusSolver.root
        monkeypatch.setattr(CactusSolver, "root", lambda dp, b: roots.append(b) or root(dp, b))
        solver.walk()
        assert roots == []
        assert solver.remove_pendant(8)
        solver.walk()
        assert roots == [solver.bt.block_of[0]]

    def test_least_vertex_is_removed_in_place(self):
        # vertex 0 hangs off a chain of three triangles.  Without it, the
        # DFS of a fresh build starts at vertex 1, not 0, and meets two of
        # the triangles at other vertices; the cycles are numbered and
        # listed by their vertices, so the kept solver's still match
        g = Graph.from_edges(8, [(0, 5), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3),
                                 (5, 6), (6, 7), (7, 5)])
        solver = CactusSolver(g)
        assert solver.remove_pendant(0)
        self.check_against_fresh(g, solver)

    def test_non_pendant_is_refused(self):
        solver = CactusSolver(line(5))
        assert not solver.remove_pendant(2)
        assert solver.remove_pendant(0) and solver.remove_pendant(1)
        assert solver.walk().vertices == (3,)


class TestCascadeForPath:
    @staticmethod
    def stages(g):
        """Each cascade of g's plan with its gates, emitted in order into
        one circuit."""
        plan = construct_s(g)
        c = Circuit(g.n, device=g)
        for rec in plan.cascades:
            start = len(c.gates)
            cascade_for_path(rec, c, plan.S)
            yield rec, c.gates[start:]

    def test_line3_first_cascade(self):
        g = line(3)
        plan = construct_s(g)
        frag = cascade_for_path(plan.cascades[0], Circuit(g.n, device=g), plan.S)
        kinds = [gg.kind for gg in frag.gates]
        # H at the target, one neighbor fired in place, then the step onto
        # the park: its rotation fused with the SWAP
        assert kinds == ["H", "CRd", "CRd", "SWAP"]

    def test_last_cascade_is_hadamard_only(self):
        *_, (rec, gates) = self.stages(line(4))
        assert rec.r == 4
        assert [gg.kind for gg in gates] == ["H"]

    def test_every_control_fires_once(self):
        g = fig3_cactus()
        for rec, gates in self.stages(g):
            assert sum(gg.kind == "CRd" for gg in gates) == g.n - rec.r

    def test_target_must_carry_the_stage_label(self):
        # a fresh circuit lacks stage 1's SWAPs: vertex 3, where stage 2's
        # walk starts, still holds qubit 3, which is labelled 1
        g = line(5)
        plan = construct_s(g)
        with pytest.raises(AssertionError, match="label"):
            cascade_for_path(plan.cascades[1], Circuit(g.n, device=g), plan.S)

    def test_park_on_the_walk_fired_as_a_step(self):
        # the park is the walk's last step, so one the walk already fired
        # gets a bare SWAP
        g = cycle(4)
        rec = CascadeRecord(r=1, path=(0, 1, 2), park=1)
        c = cascade_for_path(rec, Circuit(g.n, device=g), (1, 2, 3, 4))
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
        rec = CascadeRecord(r=1, path=(1, 0, 1, 2), park=3)
        c = cascade_for_path(rec, Circuit(g.n, device=g), (2, 1, 3, 4))
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
