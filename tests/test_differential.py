"""Differential stress beyond the tiny-graph corpus.

Long paths and cycles reach deep distance levels with heavy stray traffic;
rejection-sampled mid-size class members exercise the full pipeline with
random weights; planted batches check the generator/solver/oracle triangle.
The exact route, solve's default, is checked against the oracle and against
the structural route, and the exact engine on precolored inputs against the
oracle.
"""

from __future__ import annotations

import pytest

from dimatch.coloring import BLACK, UNSET, WHITE, Coloring
from dimatch.compare import CompareReport, _merge, run_planted
from dimatch.generate import (
    GenSpec,
    RetryBudgetExceeded,
    SplitMix64,
    generate_planted,
    generate_rejection,
    with_random_weights,
)
from dimatch.oracle import enumerate_all_graphs, oracle_solve, oracle_solve_subsets
from dimatch.patterns import find_k4
from dimatch.solver import TRACE_EXACT, solve
from dimatch.graph import Graph
from dimatch.subsolver import solve_precolored

from conftest import ROUTES, cycle, path


class TestLongThinGraphs:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_paths_always_feasible(self, n: int):
        g = path(n)
        out = solve(g, strict=True)
        assert out.found
        assert g.is_dim(out.matching)
        assert oracle_solve(g).feasible

    @pytest.mark.parametrize("k", range(3, 25))
    def test_cycles_feasible_iff_divisible_by_three(self, k: int):
        g = cycle(k)
        out = solve(g, strict=True)
        ref = oracle_solve(g)
        assert out.found == ref.feasible == (k % 3 == 0)

    def test_long_path_min_weight(self):
        g = path(24)
        ref = oracle_solve(g, mode="min_weight")
        for route in ROUTES:
            out = solve(g, minimize=True, **route)
            assert out.weight == ref.best[1]


class TestMidSizeWeighted:
    def test_weighted_agreement_n10_to_13(self):
        feasible = 0
        total = 0
        for seed in range(700):
            n = 10 + seed % 4
            try:
                g = generate_rejection(
                    GenSpec(n=n, seed=seed, mode="rejection", density=0.3, connected=True)
                )
            except RetryBudgetExceeded:
                continue
            total += 1
            g = with_random_weights(g, seed=seed)
            out = solve(g, minimize=True, strict=True)
            ref = oracle_solve(g, mode="min_weight")
            assert out.found == ref.feasible, (n, seed)
            if out.found:
                feasible += 1
                assert abs(out.weight - ref.best[1]) < 1e-9, (n, seed)
        assert total > 400
        assert feasible > 10


class TestPlantedBatches:
    def test_planted_n200_against_oracle(self):
        rep = run_planted(200, 15, seed=100, strict=True, workers=1)
        assert rep.agreement and rep.found == 15

    def test_planted_n50_against_oracle(self):
        rep = run_planted(50, 25, seed=7, strict=True, workers=1)
        assert rep.agreement and rep.found == 25

    def test_oracle_against_the_planted_matching(self):
        # The planted matching certifies the oracle, which checks every
        # planted compare run: it must find a DIM no heavier than the plant.
        for seed in range(20):
            g, planted = generate_planted(GenSpec(n=1000, seed=seed))
            assert g.is_dim(planted)
            ref = oracle_solve(g, mode="min_weight")
            assert ref.feasible and g.is_dim(ref.best[0])
            assert ref.best[1] <= sum(g.weight(e) for e in planted) + 1e-9


class TestExactRoute:
    def test_exhaustive_n5_against_oracle(self):
        checked = 0
        disagreements = []
        for n in range(2, 6):
            for g in enumerate_all_graphs(n, predicate=lambda g: find_k4(g) is None):
                for minimize, mode in ((False, "exists"), (True, "min_weight")):
                    out = solve(g, minimize=minimize)
                    ref = oracle_solve(g, mode=mode)
                    checked += 1
                    assert out.trace == (TRACE_EXACT,)
                    if out.found != ref.feasible or (
                        minimize and out.found and abs(out.weight - ref.best[1]) > 1e-9
                    ):
                        disagreements.append((n, sorted(g.edges), mode))
        assert checked > 1000
        assert disagreements == []

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_planted_n120_matches_structural(self, seed: int):
        g, _ = generate_planted(GenSpec(n=120, seed=seed))
        weighted = with_random_weights(g, seed)
        for h, minimize in ((g, False), (g, True), (weighted, False), (weighted, True)):
            out = solve(h, minimize=minimize)
            ref = solve(h, minimize=minimize, structural=True)
            assert out.trace == (TRACE_EXACT,)
            assert out.found and ref.found
            assert h.is_dim(out.matching)
            if minimize:
                assert abs(out.weight - ref.weight) < 1e-9


class TestCoverSearch:
    def test_every_connected_graph_to_n6_against_subset_scan(self):
        # The subset scan restates the definition over edge sets.  It checks
        # the cover engine and the oracle, which searches the vertex
        # formulation.  Weights do not change feasibility: one scan of the
        # weighted copy serves as the reference of both modes.
        checked = 0
        disagreements = []
        for n in range(2, 7):
            for g in enumerate_all_graphs(n):
                weighted = with_random_weights(g, checked)
                checked += 1
                ref = oracle_solve_subsets(weighted, mode="enumerate")
                dims = oracle_solve(weighted, mode="enumerate")
                cheapest = oracle_solve(weighted, mode="min_weight")
                agree = dims.feasible == cheapest.feasible == ref.feasible
                if agree and ref.feasible:
                    agree = (
                        set(dims.all_dims) == set(ref.all_dims)
                        and cheapest.best[1] == ref.best[1]
                    )
                if not agree:
                    disagreements.append((n, g.edges, "oracle"))
                for h, minimize in ((g, False), (weighted, True)):
                    res = solve_precolored(h, Coloring.fresh(h.n), minimize)
                    if (res is not None) != ref.feasible or (
                        res is not None
                        and (not h.is_dim(res[0]) or minimize and res[1] != ref.best[1])
                    ):
                        disagreements.append((n, g.edges, minimize))
        assert checked == 27475
        assert disagreements == []


class TestPrecoloredDifferential:
    def test_matches_oracle_and_reference(self):
        # Seeded inputs of up to 12 vertices with 0-3 black or white
        # vertices, unit weights on even trials.
        rng = SplitMix64(1212)
        found = narrowed = 0
        for trial in range(5000):
            n = rng.randint(1, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            density = rng.random() * 0.4
            g = Graph(n, [e for e in pairs if rng.random() < density])
            if trial % 2:
                g = with_random_weights(g, trial)
            state = [UNSET] * n
            for _ in range(rng.randint(0, 3)):
                state[rng.randrange(n)] = rng.choice((BLACK, WHITE))
            col = Coloring(state)
            for minimize, mode in ((False, "exists"), (True, "min_weight")):
                case = (trial, g.edges, state, mode)
                want = oracle_solve(g, col, mode)
                res = solve_precolored(g, col, minimize)
                assert (res is not None) == want.feasible, case
                if minimize:
                    fresh = oracle_solve(g, mode=mode)
                    narrowed += fresh.feasible and (
                        not want.feasible or want.best[1] != fresh.best[1]
                    )
                if res is None:
                    continue
                found += 1
                # The engine's completion and the oracle's own.
                for matching, weight in (res, want.best):
                    matched = {v for e in matching for v in e}
                    assert g.is_dim(matching), case
                    assert weight == g.matching_weight(matching), case
                    assert all(v in matched for v in range(n) if state[v] == BLACK), case
                    assert not any(v in matched for v in range(n) if state[v] == WHITE), case
                if minimize:
                    assert res[1] == want.best[1], case
        # Both verdicts must be well covered, and so must precolorings that
        # change the answer of the uncolored input.
        assert found > 2000 and narrowed > 500


class TestReportTiming:
    def test_merged_percentiles_cover_every_instance(self):
        fast, slow = CompareReport(), CompareReport()
        fast.times.extend([0.001] * 6000)
        slow.times.extend([1.0] * 6000)
        report = CompareReport()
        _merge(report, fast)
        _merge(report, slow)
        timing = report.timing_percentiles()
        assert timing["samples"] == 12000
        # the median sits in the second part, which a capped merge would drop
        assert timing["p50"] == 1.0
