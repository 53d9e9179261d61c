"""Structural solver: decomposition, forcing stages, component coloring, full solves."""

from __future__ import annotations

import gc
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimatch import gadget, oracle_solve
from dimatch.coloring import BLACK, UNSET, WHITE, Coloring
from dimatch.fileio import parse_edge_list, write_edge_list
from dimatch.generate import GenSpec, SplitMix64, generate_planted, with_random_weights
from dimatch.graph import Graph, edge, iter_bits
from dimatch.oracle import enumerate_all_graphs
from dimatch.patterns import find_induced_sijk, find_k4, verify_witness
from dimatch.solver import (
    CLASS_VIOLATION,
    EXACT_NODES_PER_VERTEX,
    NO_DIM,
    NO_DIM_WITH_ANCHOR,
    REASON_NO_COMPLETION,
    TRACE_EXACT,
    AnchorContradiction,
    AnchorSolver,
    SolverConfig,
    anchor_edges,
    solve,
)
from dimatch.subsolver import SearchBudgetExceeded, solve_precolored

from conftest import (
    ROUTES,
    cycle,
    degree2_block,
    disjoint_union,
    held_before_read,
    path,
    reference_decompose,
    small_connected_graphs,
    small_graphs,
)


@st.composite
def scattered_precolored(draw) -> tuple[Graph, Coloring]:
    """A disconnected weighted graph and a random precoloring of it: small
    pieces and isolated vertices whose ids interleave under a random
    permutation, some vertices black or white."""
    pieces = draw(st.lists(small_graphs(min_n=1, max_n=5), min_size=2, max_size=4))
    n = sum(p.n for p in pieces) + draw(st.integers(min_value=0, max_value=2))
    ids = draw(st.permutations(range(n)))
    weights: dict = {}
    offset = 0
    for p in pieces:
        for a, b in p.edges:
            weights[edge(ids[offset + a], ids[offset + b])] = draw(st.integers(1, 5))
        offset += p.n
    g = Graph(n, list(weights), weights)
    colors = draw(
        st.lists(st.sampled_from([UNSET, UNSET, UNSET, BLACK, WHITE]), min_size=n, max_size=n)
    )
    return g, Coloring(colors)


def spine(extra_edges, n, weights=None):
    """Anchor scaffold: 0-1 is the anchor, 2 witnesses the 3-path, 3 and 4
    hang off the endpoints as level-1 vertices feeding levels 2+."""
    base = [(0, 1), (0, 2), (0, 3), (1, 4)]
    return Graph(n, base + extra_edges, weights)


class TestAnchorEdges:
    def test_p3_both_edges(self):
        got = anchor_edges(path(3))
        assert got == [(0, 1), (1, 2)]

    def test_triangle_none(self):
        assert anchor_edges(cycle(3)) == []

    def test_p4_all_three(self):
        assert len(anchor_edges(path(4))) == 3


def decomposed(g, anchor):
    """An anchor solver after one decompose, holding the anchor's level
    state; raises AnchorContradiction when the levels rule the anchor out."""
    solver = AnchorSolver(g, anchor)
    solver.decompose()
    return solver


class TestDecompose:
    def test_p6_structure(self):
        d = decomposed(path(6), (1, 2))
        assert set(iter_bits(d.level_masks[1])) == {0, 3}
        assert d.singles == (4,)
        assert d.pools == {4: (5,)}
        assert d.pairs == ()
        assert d.shared3 == frozenset()
        assert set(iter_bits(d.deep_mask)) == frozenset()

    def test_c4_level1_dependent(self):
        with pytest.raises(AnchorContradiction) as err:
            decomposed(cycle(4), (0, 1))
        assert err.value.reason == "level1-not-independent"

    def test_level2_path_malformed(self):
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6)])
        with pytest.raises(AnchorContradiction) as err:
            decomposed(g, (0, 1))
        assert err.value.reason == "level2-structure"

    def test_c6_level2_pair(self):
        d = decomposed(cycle(6), (0, 1))
        assert d.pairs == ((3, 4),)

    def test_shared_level3_detected(self):
        g = spine([(3, 5), (4, 6), (5, 7), (6, 7), (5, 8), (6, 9)], 10)
        d = decomposed(g, (0, 1))
        assert d.shared3 == {7}
        assert d.pools == {5: (8,), 6: (9,)}

    def test_level3_odd_cycle_rejected(self):
        g = spine(
            [(3, 5), (3, 6), (3, 7), (5, 8), (6, 9), (7, 10), (8, 9), (9, 10), (8, 10)],
            11,
        )
        with pytest.raises(AnchorContradiction) as err:
            decomposed(g, (0, 1))
        assert err.value.reason == "level3-odd-cycle"


# The level state that decompose writes, compared field by field.
LEVEL_STATE = (
    "lev", "level_masks", "n3_mask", "deep_mask", "pairs", "singles",
    "pools", "pool_owner", "shared3", "state",
)


def level_snapshot(solver, decompose):
    """Run ``decompose(solver)``; the contradiction reason (or None) and the
    level state, with ``pools`` and ``pool_owner`` as item lists so that
    their order counts too."""
    try:
        decompose(solver)
        reason = None
    except AnchorContradiction as err:
        reason = err.reason
    snapshot = {name: getattr(solver, name) for name in LEVEL_STATE}
    for name in ("pools", "pool_owner"):
        snapshot[name] = list(snapshot[name].items())
    return reason, snapshot


def after_one_round(g, anchor):
    """An anchor solver after one round of run_forcing (one decompose, then
    the forcing stages until one changes something), or None when that
    round rules the anchor out."""
    solver = AnchorSolver(g, anchor)
    try:
        solver.decompose()
        (
            solver.force_level2_and_triangles()
            or solver.sweep_colored_boundary()
            or solver.force_contact_edges()
            or solver.prune_pools()
            or solver.force_isolated_deep()
        )
    except AnchorContradiction:
        return None
    return solver


class TestDecomposeDifferential:
    def test_matches_reference_on_every_anchor_to_n6(self):
        """The one-pass decompose leaves the same level state and raises the
        same reason as the reference, on every anchor of every connected
        graph with n <= 6: fresh, and after one forcing round."""
        rounds = shrunk = raised = 0
        for n in range(2, 7):
            full = (1 << n) - 1
            for g in enumerate_all_graphs(n):
                for anchor in anchor_edges(g):
                    live, ref = AnchorSolver(g, anchor), AnchorSolver(g, anchor)
                    got = level_snapshot(live, AnchorSolver.decompose)
                    assert got == level_snapshot(ref, reference_decompose), (g.edges, anchor)
                    if got[0] is not None:
                        # The forcing round's own decompose would raise the same.
                        raised += 1
                        continue
                    live = after_one_round(g, anchor)
                    if live is None:
                        continue
                    ref = after_one_round(g, anchor)
                    got = level_snapshot(live, AnchorSolver.decompose)
                    assert got == level_snapshot(ref, reference_decompose), (g.edges, anchor)
                    rounds += 1
                    shrunk += live.alive != full
                    raised += got[0] is not None
        # Shrunk and full alive masks, and contradictions, each occur often.
        assert shrunk > 1000 and rounds - shrunk > 1000 and raised > 1000


class TestForcingStages:
    def test_deep_triangle_commit(self):
        g = spine([(3, 5), (5, 6), (6, 7), (6, 8), (7, 8)], 9)
        solver = AnchorSolver(g, (0, 1))
        out = solver.run()
        assert out.verdict == NO_DIM_WITH_ANCHOR
        assert "deep-triangle-commit" in out.trace
        assert (7, 8) in solver.committed
        # no anchor rescues this graph; the reference agrees
        for route in ROUTES:
            assert solve(g, **route).verdict == NO_DIM
        assert not oracle_solve(g).feasible

    def test_double_contact_commit(self):
        g = spine([(3, 5), (4, 6), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9), (6, 10)], 11)
        out = AnchorSolver(g, (0, 1)).run()
        assert out.found
        assert "contact-commit" in out.trace
        assert (5, 7) in out.matching
        assert (6, 10) in out.matching

    def test_shared_contact_commit(self):
        g = spine([(3, 5), (4, 6), (5, 7), (6, 7), (5, 8), (7, 8), (6, 9)], 10)
        out = AnchorSolver(g, (0, 1)).run()
        assert out.found
        assert "contact-commit" in out.trace
        assert (5, 8) in out.matching and (6, 9) in out.matching

    def test_cycle4_through_owner_whitens_pool(self):
        g = spine([(3, 5), (5, 6), (5, 7), (6, 8), (7, 8)], 9)
        out = AnchorSolver(g, (0, 1)).run()
        assert out.verdict == NO_DIM_WITH_ANCHOR
        assert out.reason == "candidate-exhausted"
        # matches the reference answer
        assert not any(
            (0, 1) in m for m in (oracle_solve(g, mode="enumerate").all_dims or ())
        )

    def test_lone_candidate_commit(self):
        out = AnchorSolver(path(6), (1, 2)).run()
        assert out.found
        assert out.matching == {(1, 2), (4, 5)}
        assert "lone-candidate-commit" in out.trace

    def test_pendant_prune_keeps_cheapest(self):
        weights = {(5, 6): 3.0, (5, 7): 1.0, (5, 8): 2.0}
        g = spine([(3, 5), (5, 6), (5, 7), (5, 8)], 9, weights)
        solver = AnchorSolver(g, (0, 1), config=SolverConfig(minimize=True))
        out = solver.run()
        assert out.found
        assert (5, 7) in out.matching
        assert "pendant-prune" in out.trace

    def test_isolated_deep_forces_commit(self):
        g = spine([(3, 5), (5, 6), (5, 7), (6, 8)], 9)
        out = AnchorSolver(g, (0, 1)).run()
        assert out.found
        assert "isolated-deep-white" in out.trace
        assert (5, 6) in out.matching

    def test_isolated_deep_double_contact_fails(self):
        g = spine([(3, 5), (5, 6), (5, 7), (6, 8), (7, 8)], 9)
        out = AnchorSolver(g, (0, 1)).run()
        assert out.verdict == NO_DIM_WITH_ANCHOR
        ref = oracle_solve(g, mode="enumerate")
        assert not any((0, 1) in m for m in (ref.all_dims or ()))


class TestComponentColoring:
    def two_pool_graph(self):
        edges = [
            (3, 5), (4, 6),          # level-1 feeders to the two pool owners
            (5, 7), (5, 8),          # pool of 5
            (6, 9), (6, 10),         # pool of 6
            (7, 9), (8, 10),         # cross contacts
        ]
        return spine(edges, 11)

    def test_propagation_example(self):
        g = self.two_pool_graph()
        solver = AnchorSolver(g, (0, 1))
        solver.run_forcing()
        free, coupled = solver.classify_components()
        assert coupled == []
        assert len(free) == 1
        task = free[0]
        assert task.singles == (5, 6)
        state = solver.propagate_component(task, 7)
        assert state is not None
        assert state[7] == BLACK
        assert state[8] == WHITE
        assert state[9] == WHITE
        assert state[10] == BLACK

    def test_full_solve_matches_reference(self):
        g = self.two_pool_graph()
        out = AnchorSolver(g, (0, 1)).run()
        assert out.found
        ref = oracle_solve(g, mode="enumerate")
        assert out.matching in ref.all_dims

    def test_three_parallel_contacts_contradict(self):
        edges = [
            (3, 5), (4, 6),
            (5, 7), (5, 8), (5, 9),
            (6, 10), (6, 11), (6, 12),
            (7, 10), (8, 11), (9, 12),
        ]
        g = spine(edges, 13)
        out = AnchorSolver(g, (0, 1)).run()
        assert out.verdict == NO_DIM_WITH_ANCHOR
        assert out.reason == "component-infeasible"
        ref = oracle_solve(g, mode="enumerate")
        assert not any((0, 1) in m for m in (ref.all_dims or ()))

    def test_trivial_components_take_min_weight(self):
        weights = {(5, 7): 3.0, (5, 8): 1.0, (6, 9): 2.0}
        g = spine([(3, 5), (4, 6), (5, 7), (5, 8), (6, 9)], 10, weights)
        out = AnchorSolver(g, (0, 1), config=SolverConfig(minimize=True)).run()
        assert out.found
        assert (5, 8) in out.matching and (6, 9) in out.matching
        # anchored minimum: cheapest matching that contains the anchor edge
        anchored = [
            g.matching_weight(m)
            for m in oracle_solve(g, mode="enumerate").all_dims
            if (0, 1) in m
        ]
        assert out.weight == min(anchored)
        # the global minimum may use a different anchor; full solve finds it
        for route in ROUTES:
            best = solve(g, minimize=True, **route)
            assert best.weight == oracle_solve(g, mode="min_weight").best[1]


class TestDeepHandling:
    def chain_graph(self):
        """One pool of three, each pool vertex hanging a deep 3-chain."""
        edges = [(3, 4)]
        edges += [(4, 5), (4, 6), (4, 7)]
        edges += [(5, 8), (8, 11), (11, 14)]
        edges += [(6, 9), (9, 12), (12, 15)]
        edges += [(7, 10), (10, 13), (13, 16)]
        return Graph(17, [(0, 1), (0, 2), (0, 3)] + edges)

    def test_coupled_enumeration_bounded(self):
        g = self.chain_graph()
        solver = AnchorSolver(g, (0, 1))
        solver.run_forcing()
        free, coupled = solver.classify_components()
        assert free == [] and len(coupled) == 1
        assert coupled[0].seeds == (5, 6, 7)
        colorings = list(solver._iter_core_colorings(coupled))
        assert 1 <= len(colorings) <= 3

    def test_deep_solve_agrees_with_reference(self):
        g = self.chain_graph()
        out = solve(g, strict=True)
        ref = oracle_solve(g)
        assert out.found == ref.feasible
        if out.found:
            assert g.is_dim(out.matching)

    def test_stray_pieces_resolved(self):
        out = AnchorSolver(path(10), (0, 1)).run()
        assert out.verdict == NO_DIM_WITH_ANCHOR
        out2 = AnchorSolver(path(10), (1, 2)).run()
        assert out2.found
        assert "stray-handoff" in out2.trace

    def test_pluggable_sub_solver_is_called(self):
        calls = []

        def recording(sub, coloring, minimize=False):
            calls.append((sub.n, tuple(coloring.state)))
            from dimatch.subsolver import solve_precolored

            return solve_precolored(sub, coloring, minimize)

        g = self.chain_graph()
        out = solve(g, sub_solver=recording, structural=True)
        assert out.found
        assert calls, "sub-solver should receive the deep residue"

    def test_sub_solver_infeasible_propagates(self):
        def refuse(sub, coloring, minimize=False):
            return None

        g = self.chain_graph()
        out = solve(g, sub_solver=refuse, structural=True)
        assert out.verdict == NO_DIM


class TestClassViolation:
    def four_branch_hub(self):
        edges = [(0, 1), (0, 2)]
        for i in range(4):
            a = 3 + i
            u = 7 + i
            t, t2 = 11 + 2 * i, 12 + 2 * i
            edges += [(0, a), (a, u), (u, t), (u, t2)]
        hub, tail = 19, 20
        edges += [(hub, 11), (hub, 13), (hub, 15), (hub, 17), (hub, tail)]
        return Graph(21, edges)

    def test_four_coupled_components_flagged(self):
        g = self.four_branch_hub()
        out = AnchorSolver(g, (0, 1)).run()
        assert out.verdict == CLASS_VIOLATION
        assert out.witness is not None and out.witness.pattern == "spider"
        from dimatch.patterns import verify_witness

        assert verify_witness(g, out.witness, spider_legs=(1, 2, 4))

    def test_two_hubs_proceed(self):
        edges = [(0, 1), (0, 2)]
        for i in range(2):
            a = 3 + i
            u = 5 + i
            t, t2 = 7 + 2 * i, 8 + 2 * i
            edges += [(0, a), (a, u), (u, t), (u, t2)]
        # separate deep hubs, each with a tail so nothing is isolated
        edges += [(7, 11), (11, 13), (9, 12), (12, 14)]
        g = Graph(15, edges)
        out = solve(g, strict=True)
        ref = oracle_solve(g)
        assert out.found == ref.feasible

    def test_verify_class_rejects_spider_inputs(self):
        out = solve(gadget("s_1_2_4"), verify_class=True)
        assert out.verdict == CLASS_VIOLATION
        assert out.witness is not None

    @pytest.mark.parametrize("minimize", [False, True])
    @pytest.mark.parametrize("spider_first", [False, True])
    def test_verify_class_checks_the_whole_input(self, minimize, spider_first):
        # C4 has no DIM: a check made per component would stop at it when it
        # is numbered first and answer no_dim.
        parts = (gadget("s_1_2_4"), cycle(4))
        g = disjoint_union(*(parts if spider_first else parts[::-1]))
        out = solve(g, minimize=minimize, verify_class=True)
        assert out.verdict == CLASS_VIOLATION
        assert verify_witness(g, out.witness, (1, 2, 4))


class TestSolveEndToEnd:
    def test_diamond_via_closure(self):
        out = solve(gadget("diamond"), structural=True)
        assert out.found and out.matching == {(1, 3)}

    def test_c4_no_dim(self):
        for route in ROUTES:
            assert solve(cycle(4), **route).verdict == NO_DIM

    def test_c6(self):
        for route in ROUTES:
            out = solve(cycle(6), **route)
            assert out.found and len(out.matching) == 2

    def test_k4_rejected(self):
        out = solve(gadget("k4"), structural=True)
        assert out.verdict == NO_DIM and out.reason == "clique4"

    @pytest.mark.parametrize("route", [{"structural": True}, {"verify_class": True}])
    @pytest.mark.parametrize("k4_first", [False, True])
    def test_k4_rejected_in_either_component_order(self, route, k4_first):
        # C4 has no DIM either: a check made per component would answer for
        # the C4 when it is numbered first.
        parts = (gadget("k4"), cycle(4))
        g = disjoint_union(*(parts if k4_first else parts[::-1]))
        out = solve(g, **route)
        assert (out.verdict, out.reason, out.trace) == (NO_DIM, "clique4", ("clique4-reject",))

    def test_gem_no_dim(self):
        for route in ROUTES:
            assert solve(gadget("gem"), **route).verdict == NO_DIM

    def test_single_edge_scan(self):
        out = solve(gadget("claw"), structural=True)
        assert out.found and len(out.matching) == 1
        assert "single-edge" in out.trace

    def test_disconnected_components_combine(self):
        g = Graph(9, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)])
        for route in ROUTES:
            out = solve(g, **route)
            assert out.found
            assert g.is_dim(out.matching)

    def test_disconnected_failure_propagates(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        for route in ROUTES:
            assert solve(g, **route).verdict == NO_DIM  # second piece is a 4-cycle

    def test_isolated_vertices_ignored(self):
        g = Graph(3, [(0, 1)])
        for route in ROUTES:
            out = solve(g, **route)
            assert out.found and out.matching == {(0, 1)}

    def test_min_weight_prefers_light_single(self):
        g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 5, (1, 2): 2})
        for route in ROUTES:
            out = solve(g, minimize=True, **route)
            assert out.matching == {(1, 2)} and out.weight == 2

    @given(small_connected_graphs(min_n=2, max_n=7))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_when_in_class(self, g: Graph):
        from dimatch.patterns import find_k4

        if find_k4(g) is not None:
            return
        out = solve(g, minimize=True, strict=True)
        ref = oracle_solve(g, mode="min_weight")
        assert out.found == ref.feasible
        if out.found:
            assert g.is_dim(out.matching)
            assert out.weight == ref.best[1]


class TestForcedScan:
    def test_structural_solve_scans_each_component_once(self, monkeypatch):
        import dimatch.patterns

        real = dimatch.patterns.forced_edges_initial
        scanned: list[int] = []

        def spy(g):
            scanned.append(g.n)
            return real(g)

        monkeypatch.setattr(dimatch.patterns, "forced_edges_initial", spy)
        # a diamond with a path hanging off it: the closure commits the mid
        # edge (1, 3) and needs no second scan of the residual
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3), (2, 4), (4, 5), (5, 6)])
        out = solve(g, structural=True)
        assert out.found and g.is_dim(out.matching)
        assert scanned == [7]


class TestCompletions:
    @pytest.mark.parametrize("route", [{"structural": True}, {"strict": True}])
    def test_stalled_pool_recurses(self, monkeypatch, route):
        # An in-class graph (K4-free, S(1,2,4)-free) on which min-weight
        # completion leaves a pool undecided and recurses on a trial coloring.
        g = Graph(10, [(0, 4), (0, 6), (1, 5), (1, 8), (1, 9), (2, 7),
                       (3, 6), (3, 8), (4, 6), (5, 8), (6, 9), (7, 9)])
        assert find_k4(g) is None and find_induced_sijk(g, 1, 2, 4) is None
        real = AnchorSolver._completions
        depth = [0]
        deepest = [0]

        def spy(self, state, tasks):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                yield from real(self, state, tasks)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(AnchorSolver, "_completions", spy)
        out = solve(g, minimize=True, **route)
        assert deepest[0] >= 2
        assert out.found and out.weight == 3.0
        assert out.weight == oracle_solve(g, mode="min_weight").best[1]


class TestAnchorLog:
    def test_log_collects_all_anchors(self):
        log: list = []
        out = solve(path(5), anchor_log=log, structural=True)
        assert out.found
        assert log, "anchor attempts should be recorded"
        assert all(len(entry) == 4 for entry in log)


class TestNoWholeGraphCopies:
    def test_solve_never_copies_a_whole_graph(self, monkeypatch):
        real = Graph.induced_subgraph
        whole: list[int] = []

        def spy(self, vertices):
            vertices = set(vertices)
            if len(vertices) == self.n:
                whole.append(self.n)
            return real(self, vertices)

        monkeypatch.setattr(Graph, "induced_subgraph", spy)
        names = ("diamond", "butterfly", "gem", "claw", "c6", "c9", "p7", "p12", "s_1_2_4", "s_2_2_2")
        graphs = [gadget(name) for name in names]
        graphs.append(generate_planted(GenSpec(n=120, seed=3))[0])
        for n in range(2, 6):
            graphs.extend(enumerate_all_graphs(n))
        for g in graphs:
            for route in ROUTES:
                solve(g, **route)
            solve(g, minimize=True, strict=True)
        assert whole == [], f"{len(whole)} whole-graph copies, sizes {sorted(set(whole))}"


class TestRecursionLimit:
    def test_limit_unchanged_after_long_path(self):
        saved = sys.getrecursionlimit()
        # A limit below the path's length: solve neither needs nor sets a
        # higher one on either route.
        sys.setrecursionlimit(1000)
        try:
            g = path(1500)
            outs = [solve(g, **route) for route in ROUTES]
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(saved)
        assert all(out.found for out in outs)
        assert after == 1000


class TestStrictOffClass:
    def test_failed_check_reports_the_spider(self):
        from dimatch.patterns import verify_witness

        g = degree2_block(SplitMix64(1), 6, 6)
        out = solve(g, minimize=True, strict=True)
        assert out.verdict == CLASS_VIOLATION
        assert out.witness is not None
        assert verify_witness(g, out.witness, (1, 2, 4))


class TestPrecoloredPieces:
    # Eight disjoint 6-cycles under a budget of 0 nodes per vertex: each
    # cycle, searched on its own, gets the 64 slack nodes and needs fewer;
    # one search over all 48 vertices as a single piece needs more.
    EIGHT_C6 = Graph(48, [(6 * k + i, 6 * k + (i + 1) % 6) for k in range(8) for i in range(6)])

    def test_disjoint_cycles_searched_in_turn(self):
        g = self.EIGHT_C6
        res = solve_precolored(g, Coloring.fresh(g.n), minimize=True, nodes_per_vertex=0)
        assert res is not None and g.is_dim(res[0])
        assert res[1] == 16

    def test_precolored_cycles_searched_in_turn(self):
        g = self.EIGHT_C6
        # One black vertex per cycle, a different position in each.
        col = Coloring([BLACK if v % 6 == v // 6 % 6 else UNSET for v in range(g.n)])
        res = solve_precolored(g, col, minimize=True, nodes_per_vertex=0)
        assert res is not None and g.is_dim(res[0])
        assert res[1] == 16
        matched = {v for e in res[0] for v in e}
        assert all(v in matched for v in range(g.n) if col.state[v] == BLACK)


class TestExactRoute:
    def test_default_route_answers_with_exact_search(self):
        timings: dict = {}
        out = solve(gadget("c6"), timings=timings)
        assert out.found and out.trace == (TRACE_EXACT,)
        assert "exact" in timings
        out = solve(gadget("k4"))
        assert out.verdict == NO_DIM and out.reason == REASON_NO_COMPLETION
        assert out.trace == (TRACE_EXACT,)

    @pytest.mark.parametrize(
        "kwargs", [{"structural": True}, {"strict": True}, {"verify_class": True}]
    )
    def test_structural_options_skip_exact_search(self, kwargs):
        timings: dict = {}
        out = solve(gadget("k4"), timings=timings, **kwargs)
        assert out.reason == "clique4"
        assert "exact" not in timings

    @pytest.mark.parametrize("minimize", [False, True])
    def test_budget_trip_returns_the_structural_answer(self, minimize):
        # A degree-2 block with one planted pair edge removed: the cover
        # search needs more than its budget in both modes.
        block = degree2_block(SplitMix64(8), 150, 150)
        g = Graph(block.n, [e for e in block.edges if e != (0, 1)])
        with pytest.raises(SearchBudgetExceeded):
            solve_precolored(
                g, Coloring.fresh(g.n), minimize, nodes_per_vertex=EXACT_NODES_PER_VERTEX
            )
        log: list = []
        ref_log: list = []
        out = solve(g, minimize=minimize, anchor_log=log)
        assert out == solve(g, minimize=minimize, anchor_log=ref_log, structural=True)
        assert log == ref_log
        assert TRACE_EXACT not in out.trace

    @pytest.mark.parametrize("minimize", [False, True])
    def test_off_class_block_gets_one_weight_in_both_modes(self, minimize):
        # The structural route answers class_violation here in min-weight
        # mode only; the exact route answers within its budget.
        rng = SplitMix64(21)
        for _ in range(9):
            block = degree2_block(rng, 50, 50)
        g = with_random_weights(block, 8)
        out = solve(g, minimize=minimize)
        assert out.found and out.trace == (TRACE_EXACT,)
        assert out.weight == 258
        assert g.is_dim(out.matching)

    def test_default_route_never_builds_bits(self):
        # Nor adj: the exact route reads only the edges and their weights.
        text = write_edge_list(generate_planted(GenSpec(n=1000, seed=5))[0])
        g = parse_edge_list(text)
        out = solve(g)
        assert out.found and out.trace == (TRACE_EXACT,)
        assert not held_before_read(g, "adj")
        assert not held_before_read(g, "bits")
        g = parse_edge_list(text)
        assert solve(g, structural=True).found
        assert held_before_read(g, "bits")

    def test_default_route_never_builds_components(self, monkeypatch):
        # The exact search labels the pieces with union-find roots; the
        # component frozensets are built only on the structural route.
        text = write_edge_list(generate_planted(GenSpec(n=1000, seed=5))[0])
        split = Graph.connected_components
        calls: list[int] = []

        def counting(self):
            calls.append(self.n)
            return split(self)

        monkeypatch.setattr(Graph, "connected_components", counting)
        out = solve(parse_edge_list(text))
        assert out.found and out.trace == (TRACE_EXACT,)
        assert calls == []
        assert solve(parse_edge_list(text), structural=True).found
        assert calls

    def test_no_route_builds_adj(self, monkeypatch):
        # Every solve path reads ``bits``; ``adj`` is built only on request.
        structural, _ = generate_planted(GenSpec(n=120, seed=1))
        small = [
            h
            for n in range(2, 6)
            for h in enumerate_all_graphs(n, predicate=lambda h: find_k4(h) is None)
        ]
        exact, _ = generate_planted(GenSpec(n=1000, seed=1))
        build = Graph.__getattr__
        built: list[str] = []

        def recording(self, name):
            built.append(name)
            return build(self, name)

        monkeypatch.setattr(Graph, "__getattr__", recording)
        assert solve(structural, structural=True).found
        assert "bits" in built  # the recorder sees the structural route's reads
        for h in small:
            solve(h, minimize=True, strict=True)
        assert solve(exact).trace == (TRACE_EXACT,)
        assert "adj" not in built


class TestCoverSearch:
    @pytest.mark.parametrize("minimize", [False, True])
    def test_search_leaves_no_reference_cycles(self, minimize):
        # A cycle would keep every searched graph alive until the cyclic
        # collector runs.
        g, _ = generate_planted(GenSpec(n=200, seed=1))
        gc.collect()
        gc.disable()
        try:
            res = solve_precolored(g, Coloring.fresh(g.n), minimize)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert res is not None and g.is_dim(res[0])
        assert unreachable == 0

    def test_recursion_limit_unchanged_after_long_path(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            g = path(1500)
            res = solve_precolored(g, Coloring.fresh(g.n))
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(saved)
        assert res is not None and g.is_dim(res[0])
        assert after == 1000

    # Recorded on the search before forced rows were followed in place: a
    # budget trips at the same node, so the same blocks trip it.
    BLOCK_TRIPS = {
        False: (),
        True: (3, 6, 7, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 21, 24, 28, 31, 32, 34, 35, 37, 39),
    }

    @pytest.mark.parametrize("minimize", [False, True])
    def test_budget_trips_on_the_same_blocks(self, minimize):
        rng = SplitMix64(11)
        tripped = []
        weights = set()
        for i in range(40):
            g = degree2_block(rng, 100, 100)
            try:
                res = solve_precolored(
                    g, Coloring.fresh(g.n), minimize, nodes_per_vertex=EXACT_NODES_PER_VERTEX
                )
            except SearchBudgetExceeded:
                tripped.append(i)
                continue
            assert res is not None and g.is_dim(res[0])
            weights.add(res[1])
        assert tuple(tripped) == self.BLOCK_TRIPS[minimize]
        assert weights == {100}

    # The oracle searches the vertex formulation, which the cover engine
    # does not share.
    def test_min_weight_matches_precolored_search_on_blocks(self):
        rng = SplitMix64(3)
        for i in range(10):
            g = with_random_weights(degree2_block(rng, 50, 50), i)
            col = Coloring.fresh(g.n)
            res = solve_precolored(g, col, minimize=True)
            ref = oracle_solve(g, col, "min_weight")
            assert res is not None and ref.feasible
            assert g.is_dim(res[0])
            assert res[1] == ref.best[1]

    @given(scattered_precolored(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_scattered_pieces_against_oracle(self, case, minimize):
        g, col = case
        res = solve_precolored(g, col, minimize)
        ref = oracle_solve(g, col, "min_weight" if minimize else "exists")
        assert (res is not None) == ref.feasible
        bits = g.bits
        if any(c == BLACK and not bits[v] for v, c in enumerate(col.state)):
            assert res is None
        if res is None:
            return
        matching, weight = res
        assert g.is_dim(matching)
        matched = {v for e in matching for v in e}
        assert all(v in matched for v, c in enumerate(col.state) if c == BLACK)
        assert not any(v in matched for v, c in enumerate(col.state) if c == WHITE)
        assert weight == g.matching_weight(matching)
        if minimize:
            assert weight == ref.best[1]

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_min_weight_matches_precolored_search_on_planted(self, seed):
        g, _ = generate_planted(GenSpec(n=120, seed=seed))
        g = with_random_weights(g, seed)
        col = Coloring.fresh(g.n)
        res = solve_precolored(g, col, minimize=True)
        ref = oracle_solve(g, col, "min_weight")
        assert res is not None and ref.feasible
        assert g.is_dim(res[0])
        assert res[1] == ref.best[1]
