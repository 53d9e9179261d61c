"""Instance generators: determinism, planted validity, gadget shapes, filters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimatch.generate import (
    GenSpec,
    GenerationError,
    RetryBudgetExceeded,
    SplitMix64,
    gadget,
    generate,
    generate_planted,
    generate_rejection,
    with_random_weights,
)
from dimatch.patterns import find_induced_sijk, find_k4
from dimatch.solver import solve

from conftest import ROUTES


class TestSplitMix64:
    def test_reference_stream(self):
        # first outputs for seed 1234567, per the published finalizer constants
        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_zero_stream(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535

    def test_randrange_bounds(self):
        rng = SplitMix64(9)
        draws = [rng.randrange(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(3)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestGadgets:
    def test_diamond_shape(self):
        g = gadget("diamond")
        assert (g.n, g.m) == (4, 5)

    def test_butterfly_shape(self):
        g = gadget("butterfly")
        assert (g.n, g.m) == (5, 6)

    def test_spider_124(self):
        g = gadget("s_1_2_4")
        assert (g.n, g.m) == (8, 7)
        assert len(g.adj[0]) == 3

    def test_c6(self):
        g = gadget("c6")
        assert (g.n, g.m) == (6, 6)

    def test_claw_alias(self):
        assert gadget("claw").edges == gadget("s_1_1_1").edges

    def test_unknown_rejected(self):
        with pytest.raises(GenerationError):
            gadget("hypercube")

    def test_too_long_spider(self):
        with pytest.raises(GenerationError):
            gadget("s_3_3_3")

    def test_cycle_range(self):
        with pytest.raises(GenerationError):
            gadget("c13")


class TestPlanted:
    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_planted_matching_validates(self, n: int, seed: int):
        g, planted = generate_planted(GenSpec(n=n, seed=seed))
        assert g.n == n
        assert g.is_dim(planted)

    @given(st.integers(min_value=2, max_value=120), st.integers(min_value=0, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_planted_is_in_class(self, n: int, seed: int):
        g, _ = generate_planted(GenSpec(n=n, seed=seed))
        assert find_k4(g) is None
        assert find_induced_sijk(g, 1, 2, 4) is None

    def test_deterministic(self):
        a, ma = generate_planted(GenSpec(n=77, seed=13))
        b, mb = generate_planted(GenSpec(n=77, seed=13))
        assert a.edges == b.edges and ma == mb

    def test_seed_changes_output(self):
        a, _ = generate_planted(GenSpec(n=77, seed=13))
        b, _ = generate_planted(GenSpec(n=77, seed=14))
        assert a.edges != b.edges

    def test_solver_finds_on_planted(self):
        g, _ = generate_planted(GenSpec(n=50, seed=5))
        for route in ROUTES:
            out = solve(g, **route)
            assert out.found and g.is_dim(out.matching)

    def test_small_sizes(self):
        for n in (2, 3, 4, 5):
            g, planted = generate_planted(GenSpec(n=n, seed=1))
            assert g.is_dim(planted)

    def test_rejects_n1(self):
        with pytest.raises(GenerationError):
            generate_planted(GenSpec(n=1))


class TestRejection:
    def test_filters_enforced(self):
        g = generate_rejection(GenSpec(n=9, seed=4, mode="rejection", density=0.25))
        assert find_k4(g) is None
        assert find_induced_sijk(g, 1, 2, 4) is None

    def test_connected_flag(self):
        g = generate_rejection(
            GenSpec(n=8, seed=2, mode="rejection", density=0.3, connected=True)
        )
        assert g.is_connected()

    def test_zero_density_trivial(self):
        g = generate_rejection(GenSpec(n=6, seed=0, mode="rejection", density=0.0))
        assert g.m == 0

    def test_deterministic(self):
        spec = GenSpec(n=9, seed=11, mode="rejection", density=0.25)
        assert generate_rejection(spec).edges == generate_rejection(spec).edges

    def test_budget_exhausts(self):
        # dense graphs this size always contain a 4-clique
        spec = GenSpec(n=12, seed=0, mode="rejection", density=1.0)
        with pytest.raises(RetryBudgetExceeded, match="within 400 draws"):
            generate_rejection(spec)

    def test_batch_yield(self):
        ok = 0
        for seed in range(30):
            try:
                g = generate_rejection(
                    GenSpec(n=10, seed=seed, mode="rejection", density=0.25)
                )
            except RetryBudgetExceeded:
                continue
            assert find_k4(g) is None
            ok += 1
        assert ok >= 25


class TestDispatch:
    def test_planted_mode(self):
        g, m = generate(GenSpec(n=12, seed=0, mode="planted"))
        assert m is not None and g.is_dim(m)

    def test_gadget_mode(self):
        g, m = generate(GenSpec(n=0, seed=0, mode="gadget", gadget_name="c6"))
        assert m is None and g.n == 6

    def test_gadget_mode_needs_name(self):
        with pytest.raises(GenerationError):
            generate(GenSpec(n=0, seed=0, mode="gadget"))

    def test_unknown_mode(self):
        with pytest.raises(GenerationError):
            generate(GenSpec(n=4, seed=0, mode="viral"))


class TestRandomWeights:
    def test_range_and_determinism(self):
        g, _ = generate_planted(GenSpec(n=30, seed=3))
        w1 = with_random_weights(g, seed=8)
        w2 = with_random_weights(g, seed=8)
        assert w1.weights == w2.weights
        assert all(1 <= w <= 10 for w in w1.weights.values())
