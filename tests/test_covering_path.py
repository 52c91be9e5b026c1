"""Covering-path solver tests: the brute-force oracles, hand-worked
family values, solver-vs-oracle equality on random cacti, on hard
families and on single large cycles, the 2n-3 length bound, the
tie-break towards the fewest revisits, block trees deeper than the
recursion limit, invariants that hold at any n (renaming, dropping an
end, adding a pendant on the walk), and digests that pin every walk of
two fixed corpora."""

import hashlib
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SPIDER,
    cycle_with_pendants,
    fewest_revisits,
    flower,
    internal_tree_walk,
    relabel,
    shortest_simple_covering_walk,
    spider,
)

from cactusq import covering_path
from cactusq.covering_path import (
    CactusSolver,
    CoveringPath,
    TooLarge,
    brute_force_oracle,
    brute_force_visit_all,
    dp_cycle,
    solve_cactus,
    solve_root_choices,
)
from cactusq.families import chain_of_squares, cycle, fig3_cactus, line, star
from cactusq.graph_core import Graph, random_cactus


def cycle_with_attachments(t, seed):
    """A t-cycle where each position gets nothing (about half of them, so
    runs of neighbourless positions occur), a pendant, a path of two, or a
    3..5-cycle, some with a pendant of their own."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % t) for i in range(t)]
    n = t
    for at in range(t):
        kind = rng.choice(["none", "none", "none", "pendant", "path", "cycle"])
        if kind == "pendant":
            edges.append((at, n))
            n += 1
        elif kind == "path":
            edges += [(at, n), (n, n + 1)]
            n += 2
        elif kind == "cycle":
            ring = [at] + list(range(n, n + rng.randint(2, 4)))
            n = ring[-1] + 1
            edges += list(zip(ring, ring[1:] + ring[:1]))
            if rng.random() < 0.5:
                edges.append((ring[-1], n))
                n += 1
    return Graph.from_edges(n, edges)


def sparse_cycle(t, seed):
    """A t-cycle with an attachment every 10 to 50 positions: a pendant, a
    path of two or a triangle."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % t) for i in range(t)]
    n = t
    at = rng.randrange(10)
    while at < t:
        kind = rng.choice(["pendant", "path", "cycle"])
        if kind == "pendant":
            edges.append((at, n))
            n += 1
        elif kind == "path":
            edges += [(at, n), (n, n + 1)]
            n += 2
        else:
            edges += [(at, n), (n, n + 1), (n + 1, at)]
            n += 2
        at += rng.randint(10, 50)
    return Graph.from_edges(n, edges)


def cycle_with_subtrees(t, extra, seed):
    """A t-cycle with `extra` more vertices hung off it as random trees:
    each new vertex joins a random earlier one."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % t) for i in range(t)]
    edges += [(rng.randrange(v), v) for v in range(t, t + extra)]
    return Graph.from_edges(t + extra, edges)


class TestCoveringPathType:
    def test_from_vertices_checks_adjacency(self):
        g = line(4)
        with pytest.raises(ValueError):
            CoveringPath.from_vertices(g, [0, 2])

    def test_counts(self):
        g = cycle(4)
        p = CoveringPath.from_vertices(g, [0, 1, 0])
        assert p.k == 3 and p.k_distinct == 2 and p.length == 2

    def test_is_covering(self):
        g = line(5)
        assert CoveringPath.from_vertices(g, [1, 2, 3]).is_covering(g)
        assert not CoveringPath.from_vertices(g, [1, 2]).is_covering(g)

    def test_fringe(self):
        g = star(5)
        p = CoveringPath.from_vertices(g, [0])
        assert p.fringe == frozenset({1, 2, 3, 4})


class TestOracles:
    def test_oracle_line4(self):
        p = brute_force_oracle(line(4))
        assert p.k == 2 and p.is_covering(line(4))

    def test_oracle_spider_needs_revisit(self):
        p = brute_force_oracle(SPIDER)
        assert p.k == 5 and p.k_distinct == 4

    def test_oracle_size_cap(self):
        with pytest.raises(TooLarge):
            brute_force_oracle(line(17))

    def test_visit_all_differs_from_covering(self):
        # visiting every vertex of the 3-square chain takes 11 path
        # elements (10 edges); covering needs only 5
        p = brute_force_visit_all(fig3_cactus())
        assert p.k == 11 and p.length == 10
        assert set(p.vertices) == set(range(10))

    def test_visit_all_complete(self):
        p = brute_force_visit_all(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert p.k == 3


class TestSolverHandValues:
    # (graph, element count): lines need n-2 interior vertices (n >= 3),
    # cycles t-2 consecutive vertices, stars just the center
    CASES = [
        (line(2), 1),
        (line(3), 1),
        (line(4), 2),
        (line(5), 3),
        (line(7), 5),
        (cycle(3), 1),
        (cycle(4), 2),
        (cycle(5), 3),
        (cycle(8), 6),
        (star(5), 1),
        (star(9), 1),
        (fig3_cactus(), 5),
        (chain_of_squares(4), 7),
        (chain_of_squares(5), 9),
        (SPIDER, 5),
    ]

    @pytest.mark.parametrize("g, k", CASES, ids=lambda c: getattr(c, "n", c))
    def test_family_lengths(self, g, k):
        p = solve_cactus(g)
        assert p.k == k
        assert p.is_covering(g)

    def test_single_vertex(self):
        p = solve_cactus(Graph.from_edges(1, []))
        assert p.vertices == (0,)

    def test_fig3_exact_path(self):
        # one diagonal walk down the 3-square chain: length 4, five fringe
        # vertices left to neighbors
        p = solve_cactus(fig3_cactus())
        assert p.vertices == (8, 6, 5, 3, 1)
        assert sorted(p.fringe) == [0, 2, 4, 7, 9]

    def test_solver_deterministic(self):
        g = random_cactus(12, 3)
        assert solve_cactus(g).vertices == solve_cactus(g).vertices


class TestSolverAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 400))
    def test_length_matches_oracle(self, n, seed):
        g = random_cactus(n, seed)
        ours = solve_cactus(g)
        oracle = brute_force_oracle(g)
        assert ours.k == oracle.k
        assert ours.is_covering(g)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 400))
    def test_length_bound(self, n, seed):
        g = random_cactus(n, seed)
        assert solve_cactus(g).length <= 2 * n - 3


class TestSolverOnHardFamilies:
    # many blocks around one vertex, long legs and pendant-laden cycles:
    # the shapes where the choice of root and walk ends matters most
    CASES = {
        f"{name}{args}": build(*args)
        for name, build, shapes in [
            ("spider", spider, [(3, 2), (4, 2), (6, 2), (3, 4), (4, 3), (2, 6), (5, 2)]),
            ("cycle_with_pendants", cycle_with_pendants, [(3,), (4,), (5,), (6,), (7,)]),
            ("flower", flower, [(3, 3), (6, 3), (4, 4), (3, 5), (2, 7)]),
            ("star", star, [(3,), (8,), (14,)]),
        ]
        for args in shapes
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_oracle_with_fewest_revisits(self, name):
        g = self.CASES[name]
        assert g.n <= 14
        ours = solve_cactus(g)
        assert ours.is_covering(g)
        assert ours.k == brute_force_oracle(g).k
        assert ours.k - ours.k_distinct == fewest_revisits(g, ours.k)


class TestSolverOnOneBigCycle:
    # cycles of 7..12 vertices with trees hanging off them: arms long
    # enough that every arm depth and walk-end option of a cycle block is
    # in play, which random_cactus (cycles of at most 6) never reaches
    @pytest.mark.parametrize("t", range(7, 13))
    def test_matches_oracle_with_fewest_revisits(self, t):
        for extra in range(1, 15 - t):
            for seed in range(10):
                g = cycle_with_subtrees(t, extra, seed)
                ours = solve_cactus(g)
                assert ours.is_covering(g)
                assert ours.k == brute_force_oracle(g).k, (t, extra, seed)
                assert ours.k - ours.k_distinct == fewest_revisits(g, ours.k), (t, extra, seed)


class TestRerooting:
    # each bridge direction is evaluated once, by the bottom-up pass or by
    # the top-down one depending on where the passes start; the values,
    # the records, the child order and each position's filed neighbours
    # must not depend on that
    @pytest.mark.parametrize("n, seed, cycle_prob", [
        (14, 15, 0.45), (16, 51, 0.45), (25, 3, 0.45), (40, 7, 0.45),
        (30, 2, 0.2), (30, 4, 0.85),
    ])
    def test_tables_do_not_depend_on_the_start_block(self, n, seed, cycle_prob):
        g = random_cactus(n, seed, cycle_prob)
        ref = CactusSolver(g)
        for start in range(1, len(ref.blocks)):
            other = CactusSolver(g, start)
            assert other.handed == ref.handed, start
            assert other.into == ref.into, start
            assert other.top_at == ref.top_at, start
            assert other.closed == ref.closed, start


class TestRootValues:
    # A root's value and its first best pivot are scored from integers
    # alone; the DP step stays the reference.  Each block must get the
    # least of the step's values for 2 free ends over its pivots, and the
    # first pivot that reaches it.
    @staticmethod
    def corpus():
        for cycle_prob in (0.2, 0.45, 0.85):
            for n in range(2, 41):
                for seed in range(4):
                    yield random_cactus(n, seed, cycle_prob)
        for t in range(3, 61):
            for seed in range(3):
                yield cycle_with_attachments(t, seed)
        for t, seed in ((100, 0), (150, 1), (200, 2)):
            yield sparse_cycle(t, seed)

    @staticmethod
    def arc_shape(t, s, r):
        """Where the arc that leaves out the run of s neighbourless
        positions from r lies against position 0."""
        if s == t - 1:
            return "one position"
        if r == 0:
            return "run from 0"
        if r + s == t:
            return "run to t - 1, arc from 0"
        if r + s > t:
            return "run across t - 1 -> 0, arc from 1"
        return "arc across 0"

    def test_every_pivot_matches_the_step(self):
        runs, shapes = set(), set()
        for g in self.corpus():
            if g.n < 2:
                continue
            dp = CactusSolver(g)
            for b, (kind, verts) in enumerate(dp.blocks):
                step = [dp._step(b, None, p, (2,))[0][0] for p in range(len(verts))]
                pivot = step.index(min(step))
                assert dp.root(b) == (min(step), pivot), (g.n, g.edges(), b)
                if kind == "cycle":
                    # the arcs `cycle_root` scores: one per run start r,
                    # leaving out the whole run from r, at most 2 long
                    top_at, t = dp.top_at[b], len(verts)
                    for r in range(t):
                        if top_at[r] is None:
                            s = 2 if top_at[(r + 1) % t] is None else 1
                            runs.add(s)
                            shapes.add(self.arc_shape(t, s, r))
                    if pivot and not any(top_at):
                        shapes.add("no child savings, pivot past 0")
        # arcs that leave out one and two neighbourless positions were
        # tried, at every place against position 0
        assert runs == {1, 2}
        assert shapes == {"one position", "run from 0", "run to t - 1, arc from 0",
                          "run across t - 1 -> 0, arc from 1", "arc across 0",
                          "no child savings, pivot past 0"}

    def test_one_root_step_per_solve(self, monkeypatch):
        # every bridge direction runs the step once, and of all the roots
        # only the winner does; the build scores no root, and the solve
        # scores each block once
        calls, roots = [], []
        for name in ("dp_cycle", "dp_single_vertex"):
            step = getattr(covering_path, name)
            monkeypatch.setattr(covering_path, name,
                                lambda *args, _step=step: calls.append(1) or _step(*args))
        root = CactusSolver.root
        monkeypatch.setattr(CactusSolver, "root", lambda dp, b: roots.append(b) or root(dp, b))
        for g in (random_cactus(60, 3), cycle_with_attachments(30, 1), spider(5, 4),
                  cycle_with_pendants(12)):
            calls.clear()
            roots.clear()
            dp = CactusSolver(g)
            assert roots == []
            solve_root_choices(dp)
            assert len(calls) == 2 * (len(dp.blocks) - 1) + 1
            assert sorted(roots) == list(range(len(dp.blocks)))

    @pytest.mark.parametrize("t", [3, 4, 5, 60])
    def test_lone_cycle_scores_no_root(self, monkeypatch, t):
        calls = []
        scan = covering_path.cycle_root
        monkeypatch.setattr(covering_path, "cycle_root",
                            lambda *args: calls.append(1) or scan(*args))
        assert solve_cactus(cycle(t)).k == t - 2
        assert calls == []


# a contribution as `dp_cycle` reads it from `top_at`
_Child = namedtuple("_Child", "saving block")


@st.composite
def cycle_steps(draw):
    """Arguments of one `dp_cycle` call: every position has no neighbours
    (None, often, so that neighbourless runs occur) or one or two stand-in
    contributions, largest saving first; at_entry holds up to two pivot
    options, largest first; the weights are (unit, unit + 1)."""
    t = draw(st.integers(3, 9))
    top_at = []
    for p in range(t):
        savings = draw(st.one_of(st.none(), st.lists(st.integers(1, 80), min_size=1, max_size=2)))
        top_at.append(None if savings is None else
                      [_Child(x, 10 * p + i) for i, x in enumerate(sorted(savings, reverse=True))])
    at_entry = [(x, ("child", 1000 + i)) for i, x in
                enumerate(sorted(draw(st.lists(st.integers(1, 80), max_size=2)), reverse=True))]
    closed, entry, unit = draw(st.integers(0, 500)), draw(st.integers(0, t - 1)), draw(st.integers(1, 40))
    return top_at, closed, entry, at_entry, (unit, unit + 1)


def _chain_values(top_at, closed, entry, at_entry, weights):
    """Oracle: {(a, s): [value for 0, 1, 2 free ends]} of every chain, its
    clockwise tip at depth a and the s <= 2 positions after it left out,
    each with no neighbours; and the perimeter's values."""
    t = len(top_at)
    new, back = weights
    pivot = [x for x, _ in at_entry]

    def arm_saving(sign, depth):
        # the best end out to `depth`: the tip, or a child at depth i
        best = depth * back
        for i in range(1, depth + 1):
            top = top_at[(entry + sign * i) % t]
            if top:
                best = max(best, i * back + top[0].saving)
        return best

    def values(base, arms):
        ends = sorted(arms + pivot + [0, 0], reverse=True)
        return [base - sum(ends[:e]) for e in (0, 1, 2)]

    chains = {}
    for a in range(t):
        for s in range(3):
            b = t - 1 - a - s
            if b < 0 or any(top_at[(entry + a + i) % t] for i in range(1, s + 1)):
                break
            chains[a, s] = values(closed + (a + b) * (new + back),
                                  [arm_saving(1, a), arm_saving(-1, b)])
    return chains, values(closed + (t - 1) * new + back, [])


class TestCycleCandidates:
    # `dp_cycle` scores one chain per clockwise tip, the one that leaves
    # out the whole neighbourless run after it.  The oracle scores every
    # chain, with any run it may leave out.
    @settings(max_examples=300, deadline=None)
    @given(cycle_steps())
    def test_longest_runs_reach_every_minimum(self, args):
        chains, perimeter = _chain_values(*args)
        got = [value for value, _ in dp_cycle(*args, (0, 1, 2))]
        assert got == [min([perimeter[e]] + [v[e] for v in chains.values()]) for e in (0, 1, 2)]
        # a shorter run walks one more edge out and back to save at most
        # one step back more, at every tip and for every count of free ends
        for (a, s), v in chains.items():
            longest = max(x for y, x in chains if y == a)
            if s < longest:
                assert all(v[e] > chains[a, longest][e] for e in (0, 1, 2)), (a, s)


class TestDeepBlockTrees:
    # block trees a thousand levels deep, past the default recursion limit
    def test_long_line(self):
        g = line(1100)
        p = solve_cactus(g)
        assert p.is_covering(g) and p.k == 1098 == p.k_distinct

    def test_long_square_chain(self):
        g = chain_of_squares(400)
        p = solve_cactus(g)
        assert p.is_covering(g) and p.k == 799 == p.k_distinct


class TestTreesInClosedForm:
    # on a tree the walk needs no DP to check: it visits each internal
    # vertex once and every edge between them twice but for a diameter
    @pytest.mark.parametrize("n", [*range(3, 60), 100, 300, 1000, 5000])
    def test_random_trees(self, n):
        for seed in range(4 if n < 100 else 2):
            g = random_cactus(n, seed, 0.0)
            p = solve_cactus(g)
            assert (p.length, p.k_distinct) == internal_tree_walk(g), (n, seed)

    @pytest.mark.parametrize("g, length", [(star(3), 0), (star(4), 0), (star(50), 0),
                                           (line(3), 0), (line(4), 1), (line(5), 2)],
                             ids=["star3", "star4", "star50", "line3", "line4", "line5"])
    def test_stars_and_short_lines(self, g, length):
        p = solve_cactus(g)
        assert internal_tree_walk(g) == (length, length + 1) == (p.length, p.k_distinct)


class TestSolverPrefersSimpleWalks:
    @pytest.mark.parametrize("n, seed, k", [(10, 6, 5), (11, 6, 6)])
    def test_length_tie_goes_to_the_simple_walk(self, n, seed, k):
        # a simple walk and one that revisits are equally short here
        p = solve_cactus(random_cactus(n, seed))
        assert p.k == k and p.k_distinct == k

    @pytest.mark.parametrize("n", range(4, 13))
    def test_simple_when_possible_and_fewest_revisits(self, n):
        # simple whenever a simple walk is as short as the oracle's, and in
        # general no covering walk as short makes fewer revisits
        simple_cases = 0
        for seed in range(40):
            g = random_cactus(n, seed)
            p = solve_cactus(g)
            simple = shortest_simple_covering_walk(g)
            if simple is not None and len(simple) == brute_force_oracle(g).k:
                simple_cases += 1
                assert p.k == len(simple) and p.k == p.k_distinct, (n, seed, p.vertices)
            assert p.k - p.k_distinct == fewest_revisits(g, p.k), (n, seed, p.vertices)
        assert simple_cases > 0


class TestInvariantsAtAnyN:
    # checks that need no oracle, so they hold at any n: 54 seeded cacti
    # of 20 to 2000 vertices with few, middling and many cycles
    CASES = [(n, p) for n in (20, 50, 200, 500, 1000, 2000) for p in (0.2, 0.45, 0.85)]

    @staticmethod
    def signature(walk):
        return walk.length, walk.k - walk.k_distinct

    @pytest.mark.parametrize("n, cycle_prob", CASES)
    def test_renaming_keeps_length_and_revisits(self, n, cycle_prob):
        for seed in range(3):
            g = random_cactus(n, seed, cycle_prob)
            renamed = relabel(g, seed)
            assert self.signature(solve_cactus(renamed)) == self.signature(solve_cactus(g)), seed

    @pytest.mark.parametrize("n, cycle_prob", CASES)
    def test_no_end_can_be_dropped(self, n, cycle_prob):
        # a shortest covering walk needs both its ends
        for seed in range(3):
            g = random_cactus(n, seed, cycle_prob)
            verts = solve_cactus(g).vertices
            if len(verts) < 2:
                continue
            for part in (verts[1:], verts[:-1]):
                assert not CoveringPath.from_vertices(g, part).is_covering(g), seed

    @pytest.mark.parametrize("n, cycle_prob", CASES)
    def test_pendant_on_the_walk_keeps_length_and_revisits(self, n, cycle_prob):
        # the walk still covers the graph with a new leaf on one of its
        # vertices, and a walk through the leaf is never shortest
        for seed in range(3):
            g = random_cactus(n, seed, cycle_prob)
            walk = solve_cactus(g)
            at = random.Random(seed).choice(walk.vertices)
            grown = Graph.from_edges(g.n + 1, [*g.edges(), (at, g.n)])
            assert self.signature(solve_cactus(grown)) == self.signature(walk), (seed, at)


class TestPinnedWalks:
    # Which of several equally good walks the solver returns is decided by
    # enumeration order alone; this digest of the walks of a fixed corpus
    # catches any change to that order.  Update it only for a change that
    # means to pick different walks, and say which walks changed.
    DIGEST = "6796725429f4923d88695775ccb300409e7a74bf5a1f6cb293aecd71fc988abe"

    # cycle blocks of 7 or more vertices with children, as cycle roots and
    # as bridge steps; the first corpus reaches none (random_cactus draws
    # cycles of at most 6, and a bare cycle takes the single-cycle case)
    LARGE_CYCLE_DIGEST = "d98c9f1db8abafdb0eba72311fcee5a46440fb9ef6c8b8705511343d7a4c3664"

    @staticmethod
    def corpus():
        for n in range(2, 41):
            for seed in range(20):
                yield random_cactus(n, seed)
        for cycle_prob in (0.2, 0.85):
            for seed in range(20):
                yield random_cactus(30, seed, cycle_prob)
        for n in range(1, 41):
            yield line(n)
            yield star(n)
        for n in range(3, 41):
            yield cycle(n)
        for t in range(1, 14):
            yield chain_of_squares(t)
        yield fig3_cactus()

    @staticmethod
    def large_cycle_corpus():
        for t in range(7, 41):
            yield cycle_with_pendants(t)
        for petals in range(3, 9):
            for size in range(5, 10):
                yield flower(petals, size)
        for t in range(7, 31):
            for extra in (1, 2, 4, t // 2, t):
                for seed in range(4):
                    yield cycle_with_subtrees(t, extra, seed)

    @staticmethod
    def digest(graphs):
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(f"{solve_cactus(g).vertices}\n".encode())
        return digest.hexdigest()

    def test_walks_match_the_pinned_digest(self):
        assert self.digest(self.corpus()) == self.DIGEST

    def test_large_cycle_walks_match_the_pinned_digest(self):
        assert self.digest(self.large_cycle_corpus()) == self.LARGE_CYCLE_DIGEST
