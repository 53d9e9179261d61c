"""Core graph type: construction, queries, matchings, subgraphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimatch.coloring import UNSET, commit_pair
from dimatch.graph import Graph, GraphError, iter_bits
from dimatch.solver import AnchorContradiction, AnchorSolver, anchor_edges

from conftest import cycle, path, small_graphs


def diamond() -> Graph:
    # 0-1-2 path dominated by 3; mid edge (1, 3)
    return Graph(4, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], weights={(0, 1): -1})

    @pytest.mark.parametrize("wt", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weight(self, wt):
        with pytest.raises(GraphError, match=r"non-finite weight on \(0, 1\)"):
            Graph(2, [(0, 1)], weights={(1, 0): wt})

    def test_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_default_weights(self):
        g = path(4)
        assert all(g.weight(e) == 1 for e in g.edges)


class TestNeighbors:
    def test_c4_neighbors(self):
        g = cycle(4)
        assert g.neighbors(0) == {1, 3}

    def test_isolated_vertex(self):
        g = Graph(1, [])
        assert g.neighbors(0) == frozenset()

    def test_diamond_apex_sees_path(self):
        assert diamond().neighbors(3) == {0, 1, 2}

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            path(3).neighbors(7)


def committed_exclusions(g: Graph, e) -> set:
    """Edges that committing ``e`` on a fresh coloring of g excludes."""
    excluded: set = set()
    assert commit_pair(g, (1 << g.n) - 1, [UNSET] * g.n, excluded, e) is None
    return excluded


def anchor_levels(g: Graph, anchor) -> list[frozenset]:
    """Distance levels of an anchor edge, from the solver's level BFS."""
    solver = AnchorSolver(g, anchor)
    try:
        solver.decompose()
    except AnchorContradiction:
        pass  # the levels are set before any structural check fails
    return [frozenset(iter_bits(mask)) for mask in solver.level_masks]


class TestEdgeDistance:
    """Committing a pair excludes exactly the edges at distance 1 from it."""

    def test_p4_end_edges(self):
        assert committed_exclusions(path(4), (0, 1)) == {(2, 3)}

    def test_same_edge_is_zero(self):
        assert (1, 2) not in committed_exclusions(path(4), (1, 2))

    def test_shared_vertex_is_zero(self):
        assert (1, 2) not in committed_exclusions(path(4), (0, 1))

    def test_c6_opposite(self):
        excluded = committed_exclusions(cycle(6), (0, 1))
        assert excluded == {(2, 3), (4, 5)}  # (3, 4) is at distance 2

    def test_disconnected_infinite(self):
        assert committed_exclusions(Graph(4, [(0, 1), (2, 3)]), (0, 1)) == set()

    @given(small_graphs(min_n=2, max_n=7))
    def test_symmetric(self, g: Graph):
        for e in g.edges[:6]:
            for f in g.edges[:6]:
                assert (f in committed_exclusions(g, e)) == (e in committed_exclusions(g, f))


class TestDistanceLevels:
    def test_p4_inner_edge(self):
        levels = anchor_levels(path(4), (1, 2))
        assert levels[0] == {1, 2}
        assert levels[1] == {0, 3}
        assert len(levels) == 2

    def test_p6_levels(self):
        levels = anchor_levels(path(6), (1, 2))
        assert levels[1] == {0, 3}
        assert levels[2] == {4}
        assert levels[3] == {5}

    def test_c4_two_levels(self):
        levels = anchor_levels(cycle(4), (0, 1))
        assert levels[1] == {2, 3}
        assert len(levels) == 2

    @given(small_graphs(min_n=2, max_n=8))
    @settings(max_examples=60)
    def test_partition_and_adjacency(self, g: Graph):
        anchors = anchor_edges(g)
        if not anchors:
            return
        anchor = anchors[0]
        levels = anchor_levels(g, anchor)
        flat = [v for level in levels for v in level]
        assert len(flat) == len(set(flat))
        comp = next(c for c in g.connected_components() if anchor[0] in c)
        assert set(flat) == set(comp)
        index = {v: i for i, level in enumerate(levels) for v in level}
        for u, v in g.edges:
            if u in index and v in index:
                assert abs(index[u] - index[v]) <= 1


class TestIsDim:
    def test_p3_single_edge(self):
        assert path(3).is_dim([(0, 1)])

    def test_c4_single_edge_fails(self):
        assert not cycle(4).is_dim([(0, 1)])

    def test_c6_pair(self):
        assert cycle(6).is_dim([(0, 1), (3, 4)])

    def test_shared_vertex_rejected(self):
        assert not path(3).is_dim([(0, 1), (1, 2)])

    def test_empty_on_edgeless(self):
        assert Graph(3, []).is_dim([])

    def test_empty_on_nonempty_fails(self):
        assert not path(2).is_dim([])

    def test_absent_edge_raises(self):
        with pytest.raises(GraphError):
            path(3).is_dim([(0, 2)])

    @given(small_graphs(min_n=2, max_n=7), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_dim_implies_induced_matching(self, g: Graph, pick: int):
        if not g.edges:
            return
        subset = [e for i, e in enumerate(g.edges) if pick >> i & 1]
        if g.is_dim(subset):
            assert g.is_induced_matching(subset)


class TestComponents:
    def test_two_pieces(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert sorted(len(c) for c in g.connected_components()) == [2, 2]

    def test_c5_connected(self):
        assert len(cycle(5).connected_components()) == 1

    def test_p3_plus_isolated(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert sorted(len(c) for c in g.connected_components()) == [1, 3]


class TestInducedSubgraph:
    def test_c4_minus_vertex_is_p3(self):
        g = cycle(4)
        sub, old = g.induced_subgraph([0, 1, 2])
        assert sub.n == 3 and sub.m == 2
        assert old == (0, 1, 2)

    def test_full_copy(self):
        g = cycle(5)
        sub, old = g.induced_subgraph(range(5))
        assert sub.edges == g.edges

    def test_diamond_outer_pair_with_apex(self):
        sub, old = diamond().induced_subgraph([0, 2, 3])
        # path 0-3-2 relabeled
        assert sub.m == 2
        assert {len(sub.adj[v]) for v in range(3)} == {1, 2}

    def test_weights_carried(self):
        g = Graph(3, [(0, 1), (1, 2)], weights={(1, 2): 5})
        sub, old = g.induced_subgraph([1, 2])
        assert sub.weight((0, 1)) == 5

    @given(small_graphs(min_n=3, max_n=8), st.data())
    @settings(max_examples=60)
    def test_nested_subgraphs_compose(self, g: Graph, data):
        outer = sorted(
            data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        )
        sub1, old1 = g.induced_subgraph(outer)
        inner_local = sorted(
            data.draw(st.sets(st.integers(0, sub1.n - 1), min_size=1, max_size=sub1.n))
        )
        sub2, old2 = sub1.induced_subgraph(inner_local)
        direct, old_direct = g.induced_subgraph([old1[v] for v in inner_local])
        assert sub2.edges == direct.edges

    def test_names_track_back_to_original(self):
        g = path(4)
        sub, _ = g.induced_subgraph([1, 3])
        assert sub.names == ("2", "4")
