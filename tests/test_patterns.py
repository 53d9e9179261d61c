"""Pattern detectors and their witnesses."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimatch import gadget, oracle_solve
from dimatch.graph import Graph, iter_bits
from dimatch.patterns import (
    SHAPES,
    PatternWitness,
    c4_edges,
    find_all_butterflies,
    find_all_diamonds,
    find_gem,
    find_induced_sijk,
    find_k4,
    forced_edges_initial,
    verify_witness,
)

from conftest import cycle, disjoint_union, oracle_forced_edges, path, small_graphs


class TestK4:
    def test_k4_itself(self):
        w = find_k4(gadget("k4"))
        assert w is not None and w.vertices == (0, 1, 2, 3)
        assert verify_witness(gadget("k4"), w)

    def test_c4_free(self):
        assert find_k4(cycle(4)) is None

    def test_diamond_free_of_k4(self):
        assert find_k4(gadget("diamond")) is None

    def test_k5_contains(self):
        g = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        assert find_k4(g) is not None


class TestDiamonds:
    def test_single_diamond_mid_edge(self):
        ws = find_all_diamonds(gadget("diamond"))
        assert len(ws) == 1
        assert ws[0].mid_edge == (1, 3)
        assert verify_witness(gadget("diamond"), ws[0])

    def test_c6_none(self):
        assert find_all_diamonds(cycle(6)) == []

    def test_k4_has_no_induced_diamond(self):
        assert find_all_diamonds(gadget("k4")) == []

    def test_gem_has_two(self):
        ws = find_all_diamonds(gadget("gem"))
        assert len(ws) == 2
        assert {w.mid_edge for w in ws} == {(1, 4), (2, 4)}


class TestButterflies:
    def test_butterfly_peripherals(self):
        ws = find_all_butterflies(gadget("butterfly"))
        assert len(ws) == 1
        assert set(ws[0].peripheral_edges) == {(0, 1), (2, 3)}
        assert verify_witness(gadget("butterfly"), ws[0])

    def test_c6_none(self):
        assert find_all_butterflies(cycle(6)) == []

    def test_mid_edge_requires_diamond(self):
        with pytest.raises(ValueError):
            find_all_butterflies(gadget("butterfly"))[0].mid_edge


class TestGem:
    def test_gem_itself(self):
        w = find_gem(gadget("gem"))
        assert w is not None and verify_witness(gadget("gem"), w)

    def test_diamond_has_none(self):
        assert find_gem(gadget("diamond")) is None


def recursive_sijk(g: Graph, i: int, j: int, k: int) -> PatternWitness | None:
    """Reference spider search: the same backtracking as
    ``find_induced_sijk``, recursing once per leg vertex."""
    order = sorted(range(3), key=lambda t: -(i, j, k)[t])
    lengths = [(i, j, k)[t] for t in order]
    if lengths[0] == 0:
        return PatternWitness("spider", (0,)) if g.n else None
    bits = g.bits

    def grow(center: int, chosen: int, legs: list[list[int]], leg_idx: int):
        if leg_idx == 3 or lengths[leg_idx] == 0:
            return legs
        want = lengths[leg_idx]
        floor = legs[-1][0] if leg_idx and lengths[leg_idx - 1] == want else -1

        def extend(tip: int, leg: list[int], mask: int):
            if len(leg) == want:
                return grow(center, mask, legs + [leg], leg_idx + 1)
            for w in iter_bits(bits[tip]):
                if not mask >> w & 1 and bits[w] & mask == 1 << tip:
                    found = extend(w, leg + [w], mask | 1 << w)
                    if found is not None:
                        return found
            return None

        for first in iter_bits(bits[center]):
            if first > floor and not chosen >> first & 1 and bits[first] & chosen == 1 << center:
                found = extend(first, [first], chosen | 1 << first)
                if found is not None:
                    return found
        return None

    for center in range(g.n):
        legs = grow(center, 1 << center, [], 0)
        if legs is not None:
            legs += [[]] * (3 - len(legs))
            by_role: list[list[int]] = [[], [], []]
            for pos, role in enumerate(order):
                by_role[role] = legs[pos]
            return PatternWitness("spider", (center, *by_role[0], *by_role[1], *by_role[2]))
    return None


class TestSpider:
    def test_matches_the_recursive_reference(self):
        rng = random.Random(7)
        found = 0
        for _ in range(2000):
            n = rng.randint(1, 14)
            density = rng.random()
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
            legs = tuple(rng.randint(0, 4) for _ in range(3))
            w = find_induced_sijk(g, *legs)
            assert w == recursive_sijk(g, *legs), (g.edges, legs)
            if w is not None:
                found += 1
                assert verify_witness(g, w, legs)
        assert found > 200

    def test_spider_124_detects_itself(self):
        g = gadget("s_1_2_4")
        w = find_induced_sijk(g, 1, 2, 4)
        assert w is not None
        assert verify_witness(g, w, spider_legs=(1, 2, 4))

    def test_p7_has_no_degree3_vertex(self):
        assert find_induced_sijk(path(7), 1, 2, 4) is None

    def test_claw_centered(self):
        w = find_induced_sijk(gadget("claw"), 1, 1, 1)
        assert w is not None and w.vertices[0] == 0

    def test_path_as_degenerate_spider(self):
        w = find_induced_sijk(path(5), 4, 0, 0)
        assert w is not None
        assert verify_witness(path(5), w, spider_legs=(4, 0, 0))

    def test_longer_leg_not_confused(self):
        # a spider with legs (1, 2, 5) still contains one with legs (1, 2, 4)
        g = gadget("s_1_2_5")
        assert find_induced_sijk(g, 1, 2, 4) is not None

    def test_role_order_matches_request(self):
        g = gadget("s_1_2_4")
        w = find_induced_sijk(g, 4, 1, 2)
        assert w is not None
        assert verify_witness(g, w, spider_legs=(4, 1, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            find_induced_sijk(path(3), -1, 0, 0)

    @given(small_graphs(min_n=1, max_n=7))
    @settings(max_examples=60)
    def test_claw_free_equivalence(self, g: Graph):
        direct = False
        for v in range(g.n):
            nb = sorted(g.adj[v])
            for i, a in enumerate(nb):
                for j in range(i + 1, len(nb)):
                    b = nb[j]
                    if g.has_edge(a, b):
                        continue
                    for c in nb[j + 1:]:
                        if not g.has_edge(a, c) and not g.has_edge(b, c):
                            direct = True
        assert (find_induced_sijk(g, 1, 1, 1) is not None) == direct


class TestC4Edges:
    def test_c4_all_edges(self):
        assert c4_edges(cycle(4)) == frozenset(cycle(4).edges)

    def test_p5_none(self):
        assert c4_edges(path(5)) == frozenset()

    def test_c6_has_no_induced_c4(self):
        assert c4_edges(cycle(6)) == frozenset()

    def test_c4_with_chord_not_induced(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert c4_edges(g) == frozenset()


class TestForcedEdges:
    def test_diamond(self):
        assert forced_edges_initial(gadget("diamond")) == {(1, 3)}

    def test_butterfly(self):
        assert forced_edges_initial(gadget("butterfly")) == {(0, 1), (2, 3)}

    def test_c6_empty(self):
        assert forced_edges_initial(cycle(6)) == frozenset()

    @given(small_graphs(min_n=2, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_forced_subset_of_every_dim(self, g: Graph):
        forced = forced_edges_initial(g)
        if not forced:
            return
        result = oracle_solve(g, mode="enumerate")
        if not result.feasible:
            return
        for m in result.all_dims:
            assert forced <= m
        assert forced <= oracle_forced_edges(g)


class TestWitnessIntegrity:
    @pytest.mark.parametrize("name, legs", [(p, None) for p in SHAPES] + [("s_1_2_4", (1, 2, 4))])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_vertex_count_rejected(self, name, legs, extra):
        # The shape plus an isolated vertex: a prefix of the roles, or the
        # roles plus that vertex, matches every pair the shape names.
        g = disjoint_union(gadget(name), Graph(1, []))
        pattern = "spider" if legs else name
        assert verify_witness(g, PatternWitness(pattern, tuple(range(g.n - 1))), legs)
        assert not verify_witness(g, PatternWitness(pattern, tuple(range(g.n - 1 + extra))), legs)

    @given(small_graphs(min_n=4, max_n=7))
    @settings(max_examples=60)
    def test_all_witnesses_verify(self, g: Graph):
        for w in find_all_diamonds(g):
            assert verify_witness(g, w)
        for w in find_all_butterflies(g):
            assert verify_witness(g, w)
        w = find_k4(g)
        if w:
            assert verify_witness(g, w)

    @given(small_graphs(min_n=4, max_n=8), st.data())
    @settings(max_examples=40)
    def test_monotone_under_induced_subgraphs(self, g: Graph, data):
        verts = sorted(
            data.draw(st.sets(st.integers(0, g.n - 1), min_size=4, max_size=g.n))
        )
        sub, old = g.induced_subgraph(verts)
        sub_diamonds = {
            frozenset(old[v] for v in w.vertices) for w in find_all_diamonds(sub)
        }
        full_diamonds = {frozenset(w.vertices) for w in find_all_diamonds(g)}
        assert sub_diamonds <= full_diamonds
        sub_flies = {
            frozenset(old[v] for v in w.vertices) for w in find_all_butterflies(sub)
        }
        full_flies = {frozenset(w.vertices) for w in find_all_butterflies(g)}
        assert sub_flies <= full_flies
