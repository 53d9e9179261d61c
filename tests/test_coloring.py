"""Coloring state machine: commit surgery, closure, propagation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimatch import gadget, oracle_solve
from dimatch.coloring import (
    BLACK,
    R_NO_MATE,
    R_TWO_BLACK,
    R_WHITE_WHITE,
    UNSET,
    WHITE,
    Coloring,
    commit_pair,
    forced_edge_closure,
    propagate,
)
from dimatch.generate import SplitMix64
from dimatch.graph import Graph
from dimatch.solver import AnchorContradiction, AnchorSolver
from dimatch.subsolver import solve_precolored

from conftest import cycle, path, small_graphs


def everyone(g: Graph) -> int:
    """The alive mask holding every vertex of ``g``."""
    return (1 << g.n) - 1


class TestFeasibility:
    """Partial colorings are checked by propagate, complete ones by the sub-solver."""

    def test_partial_white_independence(self):
        g = cycle(3)
        state = [WHITE, WHITE, UNSET]
        # queueing 2 re-examines its colored neighbors, which clash
        assert propagate(g, state, [2], everyone(g)) == "white-adjacent-white"

    def test_partial_black_neighbor_cap(self):
        g = gadget("claw")
        state = [BLACK, BLACK, BLACK, UNSET]  # the center sees two black leaves
        assert propagate(g, state, [0], everyone(g)) == "black-two-black-neighbors"

    def test_complete_requires_exactly_one(self):
        g = path(4)
        col = Coloring([WHITE, BLACK, BLACK, WHITE])
        assert solve_precolored(g, col) == ({(1, 2)}, 1)

    def test_complete_unmatched_black_fails(self):
        g = path(3)
        col = Coloring([BLACK, WHITE, BLACK])
        assert solve_precolored(g, col) is None


class TestReductionStep:
    def test_p5_middle_edge(self):
        g = path(5)
        out = forced_edge_closure(g, [(1, 2)])
        assert out.ok
        assert out.graph.n == 3 and out.graph.m == 1
        assert out.committed == [(1, 2)]
        # surviving edge between old 3 and 4 is at distance 1: old 3 is white
        old = out.provenance
        assert old == (0, 3, 4)
        assert out.state == [WHITE, WHITE, UNSET]

    def test_shared_vertex_contradiction(self):
        g = path(3)
        out = forced_edge_closure(g, [(0, 1), (1, 2)])
        assert not out.ok and out.reason == "shared-vertex"

    def test_distance_one_contradiction(self):
        g = path(4)
        out = forced_edge_closure(g, [(0, 1), (2, 3)])
        assert not out.ok and out.reason == "distance-1"

    def test_white_endpoint_contradiction(self):
        g = path(3)
        state = [WHITE, UNSET, UNSET]
        assert commit_pair(g, 0b111, state, 0, (0, 1)) == "white-endpoint-committed"


class TestVertexCReduction:
    """A white vertex forces its neighbors black; propagate applies the rule."""

    def test_star_center_white(self):
        g = gadget("claw")
        state = [WHITE, UNSET, UNSET, UNSET]
        # three leaves forced matched with no mate left: no completion exists
        assert propagate(g, state, [0], everyone(g)) == "black-no-mate"
        assert not oracle_solve(g, Coloring([WHITE, UNSET, UNSET, UNSET])).feasible

    def test_c4_whites_collide(self):
        g = cycle(4)
        col = Coloring([WHITE, UNSET, WHITE, UNSET])
        # neighbors 1 and 3 blacken, but both of their neighbors are white
        assert propagate(g, list(col.state), [0, 2], everyone(g)) is not None
        assert not oracle_solve(g, col).feasible

    def test_white_neighbor_contradiction(self):
        g = path(3)
        state = [WHITE, WHITE, UNSET]
        assert propagate(g, state, [0], everyone(g)) == "white-adjacent-white"

    def test_requires_white(self):
        g = path(3)
        state = [UNSET, UNSET, UNSET]
        assert propagate(g, state, [0], everyone(g)) is None
        assert state == [UNSET, UNSET, UNSET]


class TestEdgeCReduction:
    def test_p4_middle(self):
        g = path(4)
        out = forced_edge_closure(g, [(1, 2)])
        assert out.ok
        assert out.graph.n == 2 and out.graph.m == 0
        assert out.state == [WHITE, WHITE]
        assert out.committed == [(1, 2)]

    def test_diamond_mid_edge(self):
        g = gadget("diamond")
        out = forced_edge_closure(g, [(1, 3)])
        assert out.ok
        assert out.state == [WHITE, WHITE]
        assert out.graph.m == 0  # outer pair 0, 2 is non-adjacent

    def test_triangle_third_black(self):
        g = cycle(3)
        state = [BLACK, BLACK, BLACK]
        assert commit_pair(g, 0b111, state, 0, (0, 1)) == "black-two-black-neighbors"

    def test_adjacent_whites_detected(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        out = forced_edge_closure(g, [(0, 1)])
        assert not out.ok and out.reason == "white-adjacent-white"  # 2 and 3 whiten


class TestCommitPair:
    def test_alive_mask_bounds_the_surgery(self):
        g = path(5)
        state = [UNSET] * 5
        alive = 0b11110  # vertex 0 already deleted
        assert commit_pair(g, alive, state, 0, (2, 3)) is None
        assert state == [UNSET, WHITE, BLACK, BLACK, WHITE]

    def test_endpoint_not_alive(self):
        g = path(3)
        assert commit_pair(g, 0b011, [UNSET] * 3, 0, (1, 2)) == "shared-vertex"

    def test_mask_decides_the_reason_for_a_white_endpoint(self):
        g = path(4)
        state = [UNSET, WHITE, UNSET, UNSET]
        # the same white endpoint 1, whitened by an earlier commit or not
        assert commit_pair(g, 0b1111, state, 0b0010, (1, 2)) == "distance-1"
        assert commit_pair(g, 0b1111, state, 0, (1, 2)) == "white-endpoint-committed"

    def test_anchor_solver_tells_the_two_whites_apart(self):
        # path 0-1-2-3-4 with anchor (1, 2): level 1 is {0, 3}.
        solver = AnchorSolver(path(5), (1, 2))
        solver._commit((1, 2), "commit")  # whitens 0 and 3 through a commit
        with pytest.raises(AnchorContradiction) as fail:
            solver._commit((3, 4), "commit")
        assert fail.value.reason == "distance-1"
        solver = AnchorSolver(path(5), (1, 2))
        solver.decompose()  # whitens level 1, 0 and 3, without a commit
        with pytest.raises(AnchorContradiction) as fail:
            solver._commit((3, 4), "commit")
        assert fail.value.reason == "white-endpoint-committed"


class TestClosure:
    def test_diamond(self):
        g = gadget("diamond")
        out = forced_edge_closure(g, [(1, 3)])
        assert out.ok
        assert out.committed == [(1, 3)]
        assert out.graph.n == 2 and out.graph.m == 0

    def test_butterfly(self):
        g = gadget("butterfly")
        out = forced_edge_closure(g, [(0, 1), (2, 3)])
        assert out.ok
        assert sorted(out.committed) == [(0, 1), (2, 3)]
        assert out.graph.n == 1 and out.graph.m == 0

    def test_2p2_both(self):
        g = Graph(4, [(0, 1), (2, 3)])
        out = forced_edge_closure(g, [(0, 1), (2, 3)])
        assert out.ok and out.graph.n == 0

    def test_rescan_finds_nested_forcings(self):
        # gem: both diamonds share the apex, their mid edges collide
        out = forced_edge_closure(gadget("gem"), [(1, 4)])
        assert not out.ok

    def test_conflicting_seeds(self):
        g = path(4)
        out = forced_edge_closure(g, [(0, 1), (1, 2)])
        assert not out.ok and out.reason == "shared-vertex"

    @given(small_graphs(min_n=3, max_n=7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_order_confluence(self, g: Graph, data):
        seeds = data.draw(
            st.lists(st.sampled_from(g.edges), min_size=1, max_size=4, unique=True)
            if g.edges
            else st.just([])
        )
        if not seeds:
            return
        perm = data.draw(st.permutations(seeds))
        a = forced_edge_closure(g, seeds)
        b = forced_edge_closure(g, perm)
        assert a.ok == b.ok
        if a.ok:
            assert sorted(a.committed) == sorted(b.committed)

    @given(small_graphs(min_n=2, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_residual_is_diamond_butterfly_free(self, g: Graph):
        from dimatch.patterns import find_all_butterflies, find_all_diamonds, forced_edges_initial

        seeds = forced_edges_initial(g)
        out = forced_edge_closure(g, sorted(seeds))
        if out.ok:
            assert find_all_diamonds(out.graph) == []
            assert find_all_butterflies(out.graph) == []

    def test_residual_is_diamond_butterfly_free_exhaustive(self):
        """Committing every forced edge of g once leaves no forced edge behind,
        on all labelled graphs with n <= 6."""
        from dimatch.oracle import enumerate_all_graphs
        from dimatch.patterns import find_all_butterflies, find_all_diamonds, forced_edges_initial

        checked = 0
        for n in range(2, 7):
            for g in enumerate_all_graphs(n, connected=False):
                out = forced_edge_closure(g, sorted(forced_edges_initial(g)))
                if out.ok:
                    assert find_all_diamonds(out.graph) == []
                    assert find_all_butterflies(out.graph) == []
                checked += 1
        assert checked == 33866


class TestReductionSoundness:
    @given(small_graphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_commit_preserves_solution_count(self, g: Graph, data):
        """Matchings through a chosen edge correspond exactly to the
        residual's matchings under its coloring, whites alone."""
        if not g.edges:
            return
        e = data.draw(st.sampled_from(g.edges))
        with_e = [
            m
            for m in (oracle_solve(g, mode="enumerate").all_dims or ())
            if e in m
        ]
        out = forced_edge_closure(g, [e])
        if not out.ok:
            assert not with_e
            return
        residual = oracle_solve(out.graph, Coloring(out.state), mode="enumerate")
        count = len(residual.all_dims) if residual.feasible else 0
        assert len(with_e) == count

    def test_feasibility_holds_after_ok(self):
        g = cycle(6)
        out = forced_edge_closure(g, [(0, 1)])
        assert out.ok
        state = list(out.state)
        assert propagate(out.graph, state, range(out.graph.n), everyone(out.graph)) is None
        assert oracle_solve(out.graph, Coloring(out.state)).feasible


class TestPropagate:
    def test_white_forces_black_neighbors(self):
        g = path(3)
        state = [WHITE, UNSET, UNSET]
        assert propagate(g, state, [0], everyone(g)) is None
        assert state == [WHITE, BLACK, BLACK]  # 1 must match, only 2 remains

    def test_black_pair_seals(self):
        g = path(4)
        state = [UNSET, BLACK, BLACK, UNSET]
        assert propagate(g, state, [1, 2], everyone(g)) is None
        assert state == [WHITE, BLACK, BLACK, WHITE]

    def test_two_black_neighbors_contradict(self):
        g = path(3)
        state = [BLACK, BLACK, BLACK]
        assert propagate(g, state, [1], everyone(g)) == "black-two-black-neighbors"

    def test_lone_candidate_forced(self):
        g = gadget("claw")
        state = [BLACK, WHITE, WHITE, UNSET]
        assert propagate(g, state, [0, 1, 2], everyone(g)) is None
        assert state[3] == BLACK

    @given(small_graphs(min_n=2, max_n=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_propagation_sound_for_known_solution(self, g: Graph, data):
        """Forced colors never contradict an actual matching's coloring."""
        result = oracle_solve(g, mode="enumerate")
        if not result.feasible or not result.all_dims:
            return
        m = data.draw(st.sampled_from(result.all_dims))
        matched = {v for e in m for v in e}
        truth = [BLACK if v in matched else WHITE for v in range(g.n)]
        keep = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        state = [truth[v] if v in keep else UNSET for v in range(g.n)]
        reason = propagate(g, state, list(keep), everyone(g))
        assert reason is None
        for v in range(g.n):
            assert state[v] in (UNSET, truth[v])


def reference_propagate(g, state, queue):
    """The closure-based form of :func:`propagate`, kept as its test reference.

    It reads the whole of ``g`` through ``g.adj``, neighbors in increasing
    order, as :func:`propagate` reads them off its alive mask.
    """
    adj = [sorted(nbrs) for nbrs in g.adj]
    work: list[int] = []
    pending: set[int] = set()

    def push(v: int) -> None:
        if v not in pending:
            pending.add(v)
            work.append(v)

    for v in queue:
        push(v)
        for u in adj[v]:
            if state[u] != UNSET:
                push(u)

    def assign(v: int, color: int) -> str | None:
        if state[v] == color:
            return None
        if state[v] != UNSET:
            return R_WHITE_WHITE if color == WHITE else R_TWO_BLACK
        state[v] = color
        push(v)
        for u in adj[v]:
            if state[u] != UNSET:
                push(u)
        return None

    while work:
        v = work.pop()
        pending.discard(v)
        c = state[v]
        if c == WHITE:
            for u in adj[v]:
                if state[u] == WHITE:
                    return R_WHITE_WHITE
                if state[u] == UNSET:
                    bad = assign(u, BLACK)
                    if bad:
                        return bad
        elif c == BLACK:
            mate = -1
            for u in adj[v]:
                if state[u] == BLACK:
                    if mate >= 0:
                        return R_TWO_BLACK
                    mate = u
            if mate >= 0:
                for u in adj[v]:
                    if u != mate and state[u] == UNSET:
                        bad = assign(u, WHITE)
                        if bad:
                            return bad
            else:
                candidate = -1
                count = 0
                for u in adj[v]:
                    if state[u] == UNSET:
                        candidate = u
                        count += 1
                if count == 0:
                    return R_NO_MATE
                if count == 1:
                    bad = assign(candidate, BLACK)
                    if bad:
                        return bad
    return None


class TestPropagateDifferential:
    """propagate against its closure-based reference on seeded random inputs."""

    def test_white_outside_alive_is_no_clash(self):
        g = path(4)
        state = [WHITE, WHITE, UNSET, UNSET]
        # 0 is not alive, so its white does not meet 1's.
        assert propagate(g, state, [1], 0b1110) is None
        assert state == [WHITE, WHITE, BLACK, BLACK]
        assert propagate(g, [WHITE, WHITE, UNSET, UNSET], [1], 0b1111) == R_WHITE_WHITE

    def test_matches_reference(self):
        # The reference runs on the graph of the alive-alive edges, with the
        # same vertex ids; colored vertices outside the alive mask must not
        # be read.
        rng = SplitMix64(2024)
        moved = contradictions = 0
        for trial in range(5000):
            n = rng.randint(1, 14)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            density = rng.random() * 0.35
            g = Graph(n, [e for e in pairs if rng.random() < density])
            alive = sum(1 << v for v in range(n) if rng.random() < 0.8)
            alive_g = Graph(n, [(u, v) for u, v in g.edges if alive >> u & alive >> v & 1])
            state = [UNSET] * n
            for _ in range(rng.randint(1, 4)):
                state[rng.randrange(n)] = rng.choice((BLACK, WHITE))
            queue = [
                v
                for v in range(n)
                if alive >> v & 1 and (state[v] != UNSET or rng.random() < 0.2)
            ]
            rng.shuffle(queue)
            before = list(state)
            want_state = list(state)
            want = reference_propagate(alive_g, want_state, list(queue))
            got = propagate(g, state, list(queue), alive)
            case = (trial, g.edges, bin(alive), queue)
            assert got == want, case
            if want is None:
                assert state == want_state, case
                moved += state != before
            else:
                contradictions += 1
        # Both outcomes must be well covered, and fixpoints that color something.
        assert moved > 300 and contradictions > 1000
