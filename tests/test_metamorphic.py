"""Metamorphic properties of the solvers on small K4-free graphs.

Graphs on at most 7 vertices cannot hold the 8-vertex S(1,2,4) spider, so
once K4-free they are in class and every verdict is ``found`` or ``no_dim``.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimatch.coloring import BLACK, UNSET, WHITE, Coloring
from dimatch.generate import GenSpec, generate_planted
from dimatch.graph import Graph
from dimatch.patterns import find_k4
from dimatch.solver import FOUND, NO_DIM, solve
from dimatch.subsolver import solve_precolored

from conftest import ROUTES, disjoint_union, path, small_graphs


@st.composite
def weighted_k4_free(draw, max_n: int = 7) -> Graph:
    g = draw(small_graphs(min_n=1, max_n=max_n))
    assume(find_k4(g) is None)
    weights = draw(st.lists(st.integers(1, 5), min_size=g.m, max_size=g.m))
    return Graph(g.n, g.edges, dict(zip(g.edges, weights)))


def min_weight(g: Graph, route: dict) -> float | None:
    out = solve(g, minimize=True, **route)
    assert out.verdict in (FOUND, NO_DIM)
    return out.weight if out.found else None


class TestRelabelling:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_verdict_and_min_weight_invariant(self, data):
        g = data.draw(weighted_k4_free())
        perm = data.draw(st.permutations(range(g.n)))
        moved = {(perm[u], perm[v]): w for (u, v), w in g.weights.items()}
        h = Graph(g.n, list(moved), moved)
        for route in ROUTES:
            assert solve(g, **route).verdict == solve(h, **route).verdict
            assert min_weight(g, route) == min_weight(h, route)


class TestDisjointUnion:
    @pytest.mark.parametrize("minimize, entries", [(False, 16), (True, 102)])
    def test_anchor_log_labels_shift_with_a_leading_path(self, minimize, entries):
        # A 3-vertex path in front adds no anchor (one edge dominates it)
        # and moves every vertex of the planted graph up by 3.
        g, _ = generate_planted(GenSpec(n=120, seed=1))
        log: list = []
        shifted_log: list = []
        solve(g, minimize=minimize, structural=True, anchor_log=log)
        solve(disjoint_union(path(3), g), minimize=minimize, structural=True, anchor_log=shifted_log)
        assert len(log) == entries
        assert shifted_log == [
            (str(int(u) + 3), str(int(v) + 3), verdict, reason) for u, v, verdict, reason in log
        ]

    @given(weighted_k4_free(), weighted_k4_free())
    @settings(max_examples=60, deadline=None)
    def test_solve_verdicts_and_weights_combine(self, a: Graph, b: Graph):
        u = disjoint_union(a, b)
        for route in ROUTES:
            assert solve(u, **route).found == (solve(a, **route).found and solve(b, **route).found)
            wa, wb, wu = (min_weight(h, route) for h in (a, b, u))
            assert wu == (None if wa is None or wb is None else wa + wb)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_precolored_verdicts_and_weights_combine(self, data):
        a = data.draw(weighted_k4_free())
        b = data.draw(weighted_k4_free())
        colors = st.sampled_from((UNSET, UNSET, UNSET, BLACK, WHITE))
        sa = data.draw(st.lists(colors, min_size=a.n, max_size=a.n))
        sb = data.draw(st.lists(colors, min_size=b.n, max_size=b.n))
        u = disjoint_union(a, b)
        for minimize in (False, True):
            ra = solve_precolored(a, Coloring(sa), minimize)
            rb = solve_precolored(b, Coloring(sb), minimize)
            ru = solve_precolored(u, Coloring(sa + sb), minimize)
            assert (ru is not None) == (ra is not None and rb is not None)
            if ru is not None:
                assert u.is_dim(ru[0])
                if minimize:
                    assert ru[1] == ra[1] + rb[1]
