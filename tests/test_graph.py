"""Core graph type: construction, queries, matchings, subgraphs."""

from __future__ import annotations

import copy
import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimatch.coloring import UNSET, WHITE, commit_pair
from dimatch.generate import GenSpec, generate_planted
from dimatch.graph import Graph, GraphError, _bfs_layers, iter_bits
from dimatch.oracle import enumerate_all_graphs
from dimatch.solver import AnchorContradiction, AnchorSolver, anchor_edges

from conftest import cycle, held_before_read, is_induced_matching, path, small_graphs


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

    # The first bad edge in input order decides the message; within one
    # edge the range check comes before the self-loop check.
    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(0, 5), (1, 1)], "edge (0,5) out of range for n=3"),
            (3, [(1, 1), (0, 5)], "self-loop at vertex 1"),
            (2, [(2, 2)], "edge (2,2) out of range for n=2"),
            (3, [(0, 1), (1, 0), (0, 5)], "duplicate edge (0, 1)"),
            (3, [(-1, 0)], "edge (-1,0) out of range for n=3"),
        ],
        ids=["range-first", "loop-first", "loop-out-of-range", "duplicate-first", "negative"],
    )
    def test_first_bad_edge_decides_the_message(self, n, edges, message):
        with pytest.raises(GraphError) as info:
            Graph(n, edges)
        assert str(info.value) == message

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], weights={(0, 1): -1})

    @pytest.mark.parametrize("wt", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weight(self, wt):
        with pytest.raises(GraphError, match=r"non-finite weight on \(0, 1\)"):
            Graph(2, [(0, 1)], weights={(1, 0): wt})

    @pytest.mark.parametrize("wt", ["1", None, 1j, [1]], ids=["str", "none", "complex", "list"])
    def test_rejects_non_numeric_weight(self, wt):
        with pytest.raises(GraphError, match=r"non-numeric weight .* on \(0, 1\)"):
            Graph(2, [(0, 1)], weights={(0, 1): wt})

    @pytest.mark.parametrize(
        "n, weights",
        [
            (2, {(0, 1): 10**400 - 1}),
            # Each weight is a finite float, but a matching holding both is not.
            (4, {(0, 1): 10**308, (2, 3): 10**308}),
            (4, {(0, 1): 1e308, (2, 3): 1e308}),
        ],
        ids=["huge-int", "int-sum", "float-sum"],
    )
    def test_rejects_weights_beyond_float_range(self, n, weights):
        with pytest.raises(GraphError, match="total edge weight exceeds the float range"):
            Graph(n, list(weights), weights=weights)

    def test_accepts_a_weight_near_the_float_limit(self):
        g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 10**308, (1, 2): 0})
        assert g.weight((0, 1)) == 10**308

    def test_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_default_weights(self):
        g = path(4)
        assert all(g.weight(e) == 1 for e in g.edges)

    @pytest.mark.parametrize(
        "clone",
        [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, clone):
        g = Graph(3, [(0, 1), (1, 2)], {(1, 2): 2.5})
        g.bits, g.adj  # a built form is rebuilt on first read, not carried over
        h = clone(g)
        assert h is not g and type(h) is Graph
        assert not held_before_read(h, "bits") and not held_before_read(h, "adj")
        assert (h.n, h.edges, h.weights, h.adj, h.bits) == (
            g.n, g.edges, g.weights, g.adj, g.bits
        )
        with pytest.raises(AttributeError):
            h.n = 5


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    return tuple(sum(1 << u for u in g.adj[v]) for v in range(g.n))


def neighbour_sets(g: Graph) -> tuple[frozenset[int], ...]:
    return tuple(
        frozenset(u for e in g.edges if v in e for u in e if u != v) for v in range(g.n)
    )


class TestBits:
    """``adj`` and ``bits`` hold the edges' adjacency; each is built once, on first read."""

    def assert_forms_match_edges(self, g: Graph) -> None:
        adj, bits = g.adj, g.bits
        assert adj == neighbour_sets(g)
        assert bits == adjacency_masks(g)
        assert g.adj is adj and g.bits is bits

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_graph_up_to_five_vertices(self, n):
        for g in enumerate_all_graphs(n):
            self.assert_forms_match_edges(g)
            # A graph built directly builds neither form until it is read.
            fresh = Graph(g.n, g.edges)
            assert not held_before_read(fresh, "adj")
            assert not held_before_read(fresh, "bits")
            self.assert_forms_match_edges(fresh)

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_graphs(self, seed):
        g, _ = generate_planted(GenSpec(n=300, seed=seed))
        assert not held_before_read(g, "bits")
        assert not held_before_read(g, "adj")
        self.assert_forms_match_edges(g)

    def test_read_only(self):
        g = path(3)
        for name in ("bits", "adj"):
            with pytest.raises(AttributeError):
                setattr(g, name, (0, 0, 0))
        assert g.bits == (0b010, 0b101, 0b010)
        assert g.adj == ({1}, {0, 2}, {1})
        with pytest.raises(AttributeError):
            g.bits = (0, 0, 0)
        with pytest.raises(AttributeError, match="no attribute 'degree'"):
            g.degree


def bit_positions(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestIterBits:
    def test_every_mask_below_2_to_12(self):
        # Crosses the boundary between the table and the generator at 2**8.
        for mask in range(1 << 12):
            assert list(iter_bits(mask)) == bit_positions(mask), mask

    def test_random_masks_up_to_2_to_1200(self):
        rng = random.Random(1200)
        for _ in range(500):
            mask = rng.getrandbits(rng.randrange(1, 1201))
            assert list(iter_bits(mask)) == bit_positions(mask)

    def test_negative_mask_skips_the_table(self):
        # -4 has bits 2, 3, 4, ... set; the table entry at index -4 (252) stops at 7.
        assert list(islice(iter_bits(-4), 10)) == list(range(2, 12))


def reference_layers(g: Graph, start: set[int], within: set[int]) -> list[set[int]]:
    """Breadth-first layers from ``start`` inside ``within``, over ``g.adj`` sets."""
    layers: list[set[int]] = []
    seen = set(start)
    layer = set(start)
    while layer:
        layers.append(layer)
        layer = {u for v in layer for u in g.adj[v] if u in within and u not in seen}
        seen |= layer
    return layers


class TestBfsLayers:
    def assert_matches_reference(self, g: Graph, start: int, within: int) -> None:
        layers = _bfs_layers(g.bits, start, within)
        ref = reference_layers(g, set(iter_bits(start)), set(iter_bits(within)))
        assert [set(iter_bits(layer)) for layer in layers] == ref, (g.edges, start, within)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_start_and_within_up_to_four_vertices(self, n):
        # Starts run over every mask: the empty one, single vertices, and
        # starts that reach outside within.
        for g in enumerate_all_graphs(n, connected=False):
            for start in range(1 << n):
                for within in range(1 << n):
                    self.assert_matches_reference(g, start, within)

    def test_every_single_start_on_five_vertices(self):
        for g in enumerate_all_graphs(5, connected=False):
            for v in range(5):
                self.assert_matches_reference(g, 1 << v, 0b11111)

    def test_edge_cases(self):
        g = path(4)
        assert _bfs_layers(g.bits, 0, 0b1111) == []
        # A start outside within is layer 0 all the same.
        assert _bfs_layers(g.bits, 0b0001, 0b1100) == [0b0001]
        assert _bfs_layers(g.bits, 0b0001, 0b1110) == [0b0001, 0b0010, 0b0100, 0b1000]
        assert _bfs_layers(g.bits, 0b0010, 0b1101) == [0b0010, 0b0101, 0b1000]


class TestNeighbors:
    def test_c4_neighbors(self):
        g = cycle(4)
        assert g.adj[0] == {1, 3}

    def test_isolated_vertex(self):
        g = Graph(1, [])
        assert g.adj[0] == frozenset()

    def test_diamond_apex_sees_path(self):
        assert diamond().adj[3] == {0, 1, 2}

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            path(3).check_vertex(7)


def committed_exclusions(g: Graph, e) -> set:
    """Edges that committing ``e`` on a fresh coloring of g rules out: the
    edges left alive at the vertices the commit whitens."""
    state = [UNSET] * g.n
    assert commit_pair(g, (1 << g.n) - 1, state, e) is None
    rest = set(range(g.n)) - set(e)
    return {(a, b) for a, b in g.edges if {a, b} <= rest and WHITE in (state[a], state[b])}


def anchor_levels(g: Graph, anchor) -> list[frozenset]:
    """Distance levels of an anchor edge, from the solver's level BFS."""
    solver = AnchorSolver(g, anchor)
    try:
        solver.decompose()
    except AnchorContradiction:
        pass  # the levels are set before any structural check fails
    return [frozenset(iter_bits(mask)) for mask in solver.level_masks]


class TestEdgeDistance:
    """Committing a pair rules out exactly the edges at distance 1 from it."""

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

    @pytest.mark.parametrize("e", [(0, 1), (1, 0)])
    def test_either_edge_order(self, e):
        g = Graph(2, [(0, 1)])
        assert g.is_dim([e])
        assert is_induced_matching(g, [e])

    @given(small_graphs(min_n=2, max_n=7), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_dim_implies_induced_matching(self, g: Graph, pick: int):
        if not g.edges:
            return
        subset = [e for i, e in enumerate(g.edges) if pick >> i & 1]
        if g.is_dim(subset):
            assert is_induced_matching(g, subset)

    @given(small_graphs(min_n=1, max_n=8), st.data())
    @settings(max_examples=200)
    def test_matches_the_definition(self, g: Graph, data):
        # Any edge subset, matching or not, each edge in either vertex order.
        chosen = data.draw(st.lists(st.sampled_from(g.edges), unique=True)) if g.edges else []
        given_edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in chosen]
        ends = [v for e in chosen for v in e]
        is_matching = len(ends) == len(set(ends))
        touched_once = all(
            sum(bool(set(e) & set(f)) for f in chosen) == 1 for e in g.edges
        )
        assert g.is_dim(given_edges) == (is_matching and touched_once)

    @given(small_graphs(min_n=2, max_n=8), st.data())
    @settings(max_examples=50)
    def test_absent_edge_raises_among_present_ones(self, g: Graph, data):
        absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.weights]
        if not absent:
            return
        u, v = data.draw(st.sampled_from(absent))
        present = data.draw(st.lists(st.sampled_from(g.edges), unique=True)) if g.edges else []
        # The absent edge comes first: a shared vertex among the rest
        # rejects the matching only once it is reached.
        with pytest.raises(GraphError, match="not in graph"):
            g.is_dim([(v, u)] + present)


class TestComponents:
    def test_two_pieces(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert sorted(len(c) for c in g.connected_components()) == [2, 2]

    def test_c5_connected(self):
        assert len(cycle(5).connected_components()) == 1

    def test_p3_plus_isolated(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert sorted(len(c) for c in g.connected_components()) == [1, 3]

    @given(small_graphs(min_n=0, max_n=9))
    @settings(max_examples=150)
    def test_matches_breadth_first_reference(self, g: Graph):
        seen: set[int] = set()
        ref = []
        for start in range(g.n):
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                frontier = [u for v in frontier for u in g.adj[v] if u not in comp]
                comp.update(frontier)
            seen |= comp
            ref.append(frozenset(comp))
        # Tuple equality also pins the order, by least vertex.
        assert g.connected_components() == tuple(ref)


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
        # solver._solve_pieces cuts each residual piece straight from the
        # closure's input, so that piece must equal the piece of the residual.
        weights = {e: data.draw(st.integers(0, 9)) for e in g.edges}
        g = Graph(g.n, g.edges, weights)
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
        assert sub2.weights == direct.weights
        assert tuple(old1[v] for v in old2) == old_direct
