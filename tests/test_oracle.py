"""Exact reference solver and the small-graph enumerator."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimatch import gadget
from dimatch.coloring import BLACK, UNSET, WHITE, Coloring
from dimatch.graph import Graph
from dimatch.oracle import (
    EnumerationCapExceeded,
    enumerate_all_graphs,
    oracle_forced_edges,
    oracle_solve,
    oracle_solve_subsets,
)
from dimatch.patterns import find_k4

from conftest import cycle, path, small_graphs


class TestOracleBasics:
    def test_triangle_three_solutions(self):
        res = oracle_solve(cycle(3), mode="enumerate")
        assert res.feasible and len(res.all_dims) == 3
        assert all(len(m) == 1 for m in res.all_dims)

    def test_c5_infeasible(self):
        assert not oracle_solve(cycle(5)).feasible

    def test_c7_infeasible(self):
        assert not oracle_solve(cycle(7)).feasible

    def test_c6_exactly_three(self):
        res = oracle_solve(cycle(6), mode="enumerate")
        assert res.feasible
        assert set(res.all_dims) == {
            frozenset({(0, 1), (3, 4)}),
            frozenset({(1, 2), (4, 5)}),
            frozenset({(2, 3), (0, 5)}),
        }

    def test_empty_graph_trivial(self):
        res = oracle_solve(Graph(3, []), mode="enumerate")
        assert res.feasible and res.all_dims == (frozenset(),)

    def test_components_multiply(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        res = oracle_solve(g, mode="enumerate")
        # each 3-path has 2 matchings of one edge
        assert len(res.all_dims) == 4

    def test_min_weight(self):
        g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 9, (1, 2): 4})
        res = oracle_solve(g, mode="min_weight")
        assert res.best == (frozenset({(1, 2)}), 4)

    def test_cap_enforced(self):
        g = Graph(8, [(2 * i, 2 * i + 1) for i in range(4)])
        with pytest.raises(EnumerationCapExceeded):
            oracle_solve(g, mode="enumerate", cap=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            oracle_solve(path(3), mode="fastest")


class TestPrecoloring:
    def test_white_vertex_blocks(self):
        g = path(2)
        col = Coloring([WHITE, UNSET])
        assert not oracle_solve(g, col).feasible

    def test_black_must_match(self):
        g = path(3)
        col = Coloring([BLACK, UNSET, UNSET])
        res = oracle_solve(g, col, mode="enumerate")
        assert res.feasible
        assert all((0, 1) in m for m in res.all_dims)

    def test_black_isolated_infeasible(self):
        g = Graph(2, [])
        col = Coloring([BLACK, UNSET])
        assert not oracle_solve(g, col).feasible

    def test_star_center_white_fails(self):
        g = gadget("claw")
        col = Coloring([WHITE, UNSET, UNSET, UNSET])
        assert not oracle_solve(g, col).feasible

    @given(small_graphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_results_extend_precoloring(self, g: Graph, data):
        colors = data.draw(
            st.lists(
                st.sampled_from([UNSET, UNSET, BLACK, WHITE]),
                min_size=g.n,
                max_size=g.n,
            )
        )
        col = Coloring(colors)
        res = oracle_solve(g, col, mode="enumerate")
        if not res.feasible:
            return
        for m in res.all_dims:
            matched = {v for e in m for v in e}
            for v, c in enumerate(colors):
                if c == BLACK:
                    assert v in matched
                elif c == WHITE:
                    assert v not in matched


class TestSubsetCrossCheck:
    @given(small_graphs(min_n=1, max_n=6))
    @settings(max_examples=120, deadline=None)
    def test_strategies_agree(self, g: Graph):
        a = oracle_solve(g, mode="enumerate")
        b = oracle_solve_subsets(g, mode="enumerate")
        assert a.feasible == b.feasible
        if a.feasible:
            assert set(a.all_dims) == set(b.all_dims)

    @given(small_graphs(min_n=2, max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_strategies_agree_with_precoloring(self, g: Graph, data):
        colors = data.draw(
            st.lists(
                st.sampled_from([UNSET, UNSET, UNSET, BLACK, WHITE]),
                min_size=g.n,
                max_size=g.n,
            )
        )
        col = Coloring(colors)
        a = oracle_solve(g, col, mode="enumerate")
        b = oracle_solve_subsets(g, col, mode="enumerate")
        assert a.feasible == b.feasible
        if a.feasible:
            assert set(a.all_dims) == set(b.all_dims)

    def test_subset_scan_edge_cap(self):
        g = Graph(8, [(a, b) for a in range(8) for b in range(a + 1, 8)])
        with pytest.raises(ValueError):
            oracle_solve_subsets(g)


class TestForcedEdges:
    def test_diamond_mid(self):
        assert oracle_forced_edges(gadget("diamond")) == {(1, 3)}

    def test_triangle_symmetric_none(self):
        assert oracle_forced_edges(cycle(3)) == frozenset()

    def test_butterfly_peripherals(self):
        assert oracle_forced_edges(gadget("butterfly")) == {(0, 1), (2, 3)}

    def test_no_dim_graph_empty(self):
        assert oracle_forced_edges(cycle(4)) == frozenset()


class TestEnumeration:
    def test_n3_connected(self):
        graphs = list(enumerate_all_graphs(3))
        assert len(graphs) == 4  # three labeled 3-paths and the triangle

    def test_n4_connected_k4_free_classes(self):
        graphs = list(enumerate_all_graphs(4, predicate=lambda g: find_k4(g) is None))
        assert len(graphs) == 37  # every labeled connected graph but K4

    def test_n4_all_connected_classes(self):
        assert len(list(enumerate_all_graphs(4))) == 38

    def test_n1(self):
        graphs = list(enumerate_all_graphs(1))
        assert len(graphs) == 1 and graphs[0].n == 1

    def test_labeled_count_n4(self):
        # labeled connected graphs on 4 vertices: 38
        assert sum(1 for _ in enumerate_all_graphs(4)) == 38

    def test_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_all_graphs(10))


class TestRecursionLimit:
    def test_limit_unchanged_after_long_path(self):
        saved = sys.getrecursionlimit()
        # A limit below the path's length: the search runs on an explicit
        # stack, so it neither needs nor sets a higher one.
        sys.setrecursionlimit(1000)
        try:
            g = path(1500)
            res = oracle_solve(g)
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(saved)
        assert res.feasible and g.is_dim(res.best[0])
        assert after == 1000
