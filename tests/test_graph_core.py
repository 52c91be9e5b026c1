"""Graph model tests: cactus validation, cycle decomposition, the
weighted vertex-cactus splitting, block trees, the random generator, and
the strict JSON format."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusq.families import chain_of_squares, complete, cycle, fig3_cactus, line
from cactusq.graph_core import (
    Graph,
    GraphFormatError,
    NotACactus,
    NotConnected,
    build_block_tree,
    build_vertex_cactus,
    graph_from_json_dict,
    graph_to_json_dict,
    random_cactus,
    validate_cactus,
)


class TestGraphBasics:
    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 0), (1, 2)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(0, 2)])

    def test_from_edges_rejects_duplicate(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_neighbors_sorted(self):
        g = Graph.from_edges(4, [(2, 0), (3, 0), (0, 1)])
        assert g.adjacency[0] == (1, 2, 3)
        assert len(g.adjacency[0]) == 3
        assert g.has_edge(0, 2) and not g.has_edge(1, 2)

    def test_induced_subgraph_relabels(self):
        g = line(5)
        sub, old = g.induced_subgraph([1, 2, 3])
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]
        assert old == [1, 2, 3]


class TestCactusValidation:
    def test_line_has_no_cycles(self):
        assert validate_cactus(line(6)).cycles == ()

    def test_single_cycle(self):
        d = validate_cactus(cycle(5))
        assert len(d.cycles) == 1
        assert sorted(d.cycles[0]) == [0, 1, 2, 3, 4]

    def test_triangle_is_cactus_k4_is_not(self):
        validate_cactus(complete(3))
        with pytest.raises(NotACactus):
            validate_cactus(complete(4))

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            validate_cactus(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_fig3_has_three_squares(self):
        d = validate_cactus(fig3_cactus())
        assert len(d.cycles) == 3
        assert all(len(c) == 4 for c in d.cycles)

    def test_shared_vertex_membership(self):
        # two triangles joined at vertex 0
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        d = validate_cactus(g)
        assert len(d.membership[0]) == 2
        assert len(d.membership[1]) == 1


    @pytest.mark.parametrize("cycle_prob", [0.2, 0.45, 0.85])
    def test_cycles_are_numbered_by_their_vertices(self, cycle_prob):
        # each cycle is listed from its least vertex towards the lesser of
        # its two neighbours there, and the cycles ascend; so removing a
        # pendant leaves the other cycles' numbering and listings alone.
        # Each cactus is also taken relabelled, so no DFS order helps
        for n in range(2, 41):
            for seed in range(6):
                base = random_cactus(n, seed, cycle_prob)
                perm = random.Random(seed).sample(range(n), n)
                for g in (base, Graph.from_edges(n, [(perm[u], perm[v]) for u, v in base.edges()])):
                    d = validate_cactus(g)
                    for cyc in d.cycles:
                        assert cyc[0] == min(cyc) and cyc[1] < cyc[-1], cyc
                    assert list(d.cycles) == sorted(d.cycles)
                    for v in range(n):
                        if len(g.adjacency[v]) == 1:
                            sub, old = g.induced_subgraph(set(range(n)) - {v})
                            fresh = validate_cactus(sub)
                            assert [tuple(old[x] for x in cyc) for cyc in fresh.cycles] \
                                == list(d.cycles)
                            assert list(fresh.membership) == [d.membership[x] for x in old]


class TestVertexCactus:
    def test_no_shared_vertices_no_copies(self):
        g = cycle(4)
        t = build_vertex_cactus(g, validate_cactus(g))
        assert t.n == g.n

    def test_two_triangles_split_hub(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        t = build_vertex_cactus(g, validate_cactus(g))
        # one extra copy of the shared hub, tied by a weight-0 edge
        assert t.n == 6
        zero_edges = [(a, b) for a in range(t.n) for b, w in t.adjacency[a] if w == 0 and a < b]
        assert len(zero_edges) == 1
        assert t.origin[5] == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 16), st.integers(0, 200))
    def test_contracting_zero_edges_recovers_graph(self, n, seed):
        g = random_cactus(n, seed)
        t = build_vertex_cactus(g, validate_cactus(g))
        edges = set()
        for a in range(t.n):
            for b, w in t.adjacency[a]:
                if w == 1 and a < b:
                    edges.add(tuple(sorted((t.origin[a], t.origin[b]))))
        assert edges == {tuple(sorted(e)) for e in g.edges()}

    def test_cycle_edges_weigh_one_and_zero_edges_join_copies(self):
        # the covering-walk DP prices once around a cycle of t copies as
        # t steps of weight 1, and a weight-0 edge joins copies of one vertex
        graphs = [fig3_cactus(), chain_of_squares(1), chain_of_squares(7)]
        graphs += [random_cactus(n, seed, p) for n in (12, 40, 90) for seed in range(4)
                   for p in (0.45, 0.9)]
        cycles = zero_edges = 0
        for g in graphs:
            t = build_vertex_cactus(g, validate_cactus(g))
            weight = {(a, b): w for a in range(t.n) for b, w in t.adjacency[a]}
            for cyc in t.cycles:
                cycles += 1
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert weight[a, b] == 1, (g.edges(), cyc)
            for (a, b), w in weight.items():
                if w == 0:
                    zero_edges += 1
                    assert t.origin[a] == t.origin[b], (g.edges(), a, b)
        assert cycles and zero_edges


class TestBlockTree:
    def test_line_blocks_are_vertices(self):
        g = line(4)
        t = build_vertex_cactus(g, validate_cactus(g))
        bt = build_block_tree(t)
        assert bt.n_blocks == 4
        assert all(kind == "vertex" for kind, _ in bt.blocks)

    def test_fig3_block_count(self):
        g = fig3_cactus()
        t = build_vertex_cactus(g, validate_cactus(g))
        bt = build_block_tree(t)
        kinds = sorted(kind for kind, _ in bt.blocks)
        assert kinds.count("cycle") == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 200))
    def test_block_tree_is_a_tree(self, n, seed):
        g = random_cactus(n, seed)
        t = build_vertex_cactus(g, validate_cactus(g))
        bt = build_block_tree(t)
        edge_count = sum(len(adj) for adj in bt.tree) // 2
        assert edge_count == bt.n_blocks - 1


class TestRandomCactus:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 500))
    def test_output_is_connected_cactus(self, n, seed):
        g = random_cactus(n, seed)
        assert g.n == n
        if n >= 2:
            validate_cactus(g)

    def test_seeded_reproducibility(self):
        assert random_cactus(12, 7).edges() == random_cactus(12, 7).edges()
        assert random_cactus(12, 7).edges() != random_cactus(12, 8).edges()


class TestJsonFormat:
    def test_round_trip(self):
        g = fig3_cactus()
        again = graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g))))
        assert again.n == g.n and again.edges() == g.edges()

    def test_requires_exact_keys(self):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"n": 2})
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"n": 2, "edges": [], "extra": 1})

    def test_rejects_bool_n(self):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"n": True, "edges": []})

    def test_rejects_bad_edge_shape(self):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"n": 3, "edges": [[0, 1, 2]]})

    def test_chain_of_squares_shape(self):
        g = chain_of_squares(3)
        assert g.n == 10 and len(g.edges()) == 12
