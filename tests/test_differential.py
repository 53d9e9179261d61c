"""Differential stress beyond the tiny-graph corpus.

Long paths and cycles reach deep distance levels with heavy stray traffic;
rejection-sampled mid-size class members exercise the full pipeline with
random weights; planted batches check the generator/solver/oracle triangle.
The exact route, solve's default, is checked against the oracle and against
the structural route.
"""

from __future__ import annotations

import pytest

from dimatch.compare import CompareReport, _merge, run_planted
from dimatch.generate import (
    GenSpec,
    RetryBudgetExceeded,
    generate_planted,
    generate_rejection,
    with_random_weights,
)
from dimatch.oracle import enumerate_all_graphs, oracle_solve, oracle_solve_subsets
from dimatch.patterns import find_k4
from dimatch.solver import TRACE_EXACT, solve
from dimatch.subsolver import solve_cover

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
                    GenSpec(
                        n=n, seed=seed, mode="rejection", density=0.3,
                        connected=True, retry_budget=40,
                    )
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
        rep = run_planted(200, 15, seed=100, use_oracle=True, strict=True, workers=1)
        assert rep.agreement and rep.found == 15

    def test_planted_n50_against_oracle(self):
        rep = run_planted(50, 25, seed=7, use_oracle=True, strict=True, workers=1)
        assert rep.agreement and rep.found == 25


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
        # oracle_solve searches the same exact-cover formulation, so only the
        # subset scan can catch a fault in the formulation itself.  Weights
        # do not change feasibility: one scan of the weighted copy serves as
        # the reference of both modes.
        checked = 0
        disagreements = []
        for n in range(2, 7):
            for g in enumerate_all_graphs(n):
                weighted = with_random_weights(g, checked)
                checked += 1
                ref = oracle_solve_subsets(weighted, mode="min_weight")
                for h, minimize in ((g, False), (weighted, True)):
                    res = solve_cover(h, minimize)
                    if (res is not None) != ref.feasible or (
                        res is not None
                        and (not h.is_dim(res[0]) or minimize and res[1] != ref.best[1])
                    ):
                        disagreements.append((n, g.edges, minimize))
        assert checked == 27475
        assert disagreements == []


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
