"""Differential stress beyond the tiny-graph corpus.

Long paths and cycles reach deep distance levels with heavy stray traffic;
rejection-sampled mid-size class members exercise the full pipeline with
random weights; planted batches check the generator/solver/oracle triangle.
"""

from __future__ import annotations

import pytest

from dimatch.compare import CompareReport, _merge, run_planted
from dimatch.generate import (
    GenSpec,
    RetryBudgetExceeded,
    generate_rejection,
    with_random_weights,
)
from dimatch.oracle import oracle_solve
from dimatch.solver import solve

from conftest import cycle, path


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
        out = solve(g, minimize=True)
        ref = oracle_solve(g, mode="min_weight")
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
