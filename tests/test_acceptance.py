"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy criteria fan out over a worker pool (DIM_SOLVER_THREADS overrides
the size).  Criterion 1's exhaustive corpus runs in min-weight mode so the
same pass also certifies criterion 4's weight equality on it; the structural
runtime checks of criterion 5 are active (strict mode) everywhere.  Every
solve here takes the structural route: strict mode implies it, and the
other solves ask for it with ``structural=True``.

Run with ``pytest -v tests/test_acceptance.py`` (budget roughly ten minutes
on two cores, dominated by the exhaustive corpus).
"""

from __future__ import annotations

import math
import time

from dimatch.compare import run_exhaustive, run_planted, run_samples
from dimatch.generate import (
    GenSpec,
    RetryBudgetExceeded,
    generate_planted,
    generate_rejection,
    with_random_weights,
)
from dimatch.graph import Graph
from dimatch.oracle import enumerate_all_graphs, oracle_solve
from dimatch.patterns import forced_edges_initial
from dimatch.solver import solve

RESULTS: dict[str, str] = {}


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    RESULTS[criterion] = line
    print(line, flush=True)
    assert ok, line


class TestCriterion1OracleEquivalence:
    def test_exhaustive_small_corpus(self):
        """All labeled connected K4-free graphs with n <= 7 (spider filter is
        vacuous below 8 vertices): solver verdict must equal the oracle's.
        Runs in min-weight + strict mode, so this pass also feeds criteria
        4 and 5."""
        started = time.time()
        rep = run_exhaustive(7, minimize=True, strict=True)
        elapsed = time.time() - started
        detail = (
            f"{rep.total} instances, {rep.found} found / {rep.no_dim} none, "
            f"{len(rep.disagreements)} disagreements, "
            f"{len(rep.weight_mismatches)} weight mismatches, "
            f"{len(rep.errors)} errors, {elapsed:.0f}s"
        )
        ok = (
            rep.agreement
            and rep.total > 1_000_000
            and elapsed < 600
        )
        report("criterion 1a (exhaustive n<=7, <10min)", ok, detail)

    def test_sampled_medium_corpus(self):
        """>= 10,000 sampled connected class members at n = 8 and 9."""
        total = 0
        disagreements = 0
        errors = 0
        for n, count, density in ((8, 3000, 0.22), (8, 2200, 0.3), (9, 3000, 0.2), (9, 2200, 0.26)):
            rep = run_samples(n, count, seed=1000 * n, density=density, strict=True)
            total += rep.total
            disagreements += len(rep.disagreements)
            errors += len(rep.errors)
        ok = disagreements == 0 and errors == 0 and total >= 10000
        report(
            "criterion 1b (sampled n<=9)",
            ok,
            f"{total} instances, {disagreements} disagreements, {errors} errors",
        )


class TestCriterion2MatchingValidity:
    def test_every_found_matching_verifies(self):
        """Every matching the solver returns must verify and avoid white
        vertices; spot-checked here across mixed corpora (the harness
        re-verifies on every run as well)."""
        bad = 0
        checked = 0
        for seed in range(2400):
            spec = GenSpec(n=6 + (seed % 14), seed=seed, mode="rejection", density=0.25)
            try:
                g = generate_rejection(spec)
            except RetryBudgetExceeded:
                continue
            out = solve(g, structural=True)
            if out.found:
                checked += 1
                if not g.is_dim(out.matching):
                    bad += 1
        for seed in range(120):
            g, _ = generate_planted(GenSpec(n=150, seed=seed))
            out = solve(g, structural=True)
            checked += 1
            if not (out.found and g.is_dim(out.matching)):
                bad += 1
        report(
            "criterion 2 (matching validity)",
            bad == 0 and checked > 500,
            f"{checked} matchings verified, {bad} invalid",
        )


class TestCriterion3ForcedEdgeSoundness:
    def test_forced_edges_in_every_matching(self):
        """Structural forced edges are contained in every exact matching:
        exhaustively for n <= 6, sampled at n = 7 and 8 (unfiltered random
        graphs; the statement needs no class assumptions)."""
        checked = 0
        violations = 0

        def check(g: Graph) -> None:
            nonlocal checked, violations
            forced = forced_edges_initial(g)
            if not forced:
                return
            result = oracle_solve(g, mode="enumerate", cap=10**5)
            if not result.feasible:
                return
            checked += 1
            oracle_forced = frozenset.intersection(*result.all_dims)
            if not forced <= oracle_forced:
                violations += 1

        for n in range(2, 7):
            for g in enumerate_all_graphs(n):
                check(g)
        from dimatch.generate import SplitMix64

        rng = SplitMix64(77)
        for n in (7, 8):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for _ in range(3000):
                edges = [e for e in pairs if rng.random() < 0.45]
                check(Graph(n, edges))
        report(
            "criterion 3 (forced edges sound)",
            violations == 0 and checked > 1000,
            f"{checked} instances with forced edges and a matching, {violations} violations",
        )


class TestCriterion4MinimumWeight:
    # The exhaustive n <= 7 corpus runs in min-weight mode under criterion 1a,
    # covering the unit-weight half of this criterion.
    def test_random_weight_instances(self):
        """1,000 random-weight class members: solver minimum == oracle minimum."""
        mismatches = 0
        solved = 0
        attempts = 0
        seed = 0
        while solved < 1000 and attempts < 8000:
            attempts += 1
            seed += 1
            n = 5 + seed % 5  # sizes 5..9
            try:
                g = generate_rejection(
                    GenSpec(n=n, seed=seed, mode="rejection", density=0.3, connected=True)
                )
            except RetryBudgetExceeded:
                continue
            g = with_random_weights(g, seed=seed, lo=1, hi=10)
            out = solve(g, minimize=True, strict=True)
            ref = oracle_solve(g, mode="min_weight")
            if out.found != ref.feasible:
                mismatches += 1
                continue
            solved += 1
            if out.found and abs(out.weight - ref.best[1]) > 1e-9:
                mismatches += 1
        report(
            "criterion 4 (minimum weight, weights 1..10)",
            mismatches == 0 and solved >= 1000,
            f"{solved} weighted instances, {mismatches} mismatches",
        )


class TestCriterion5StructuralAssertions:
    def test_strict_mode_held_throughout(self):
        """Criteria 1-4 all ran with the structural runtime checks enabled
        (strict mode raises on any violation, and class violations count as
        harness errors).  Re-run a focused strict sweep here so the
        criterion holds on its own."""
        rep = run_samples(9, 1500, seed=555, density=0.24, strict=True)
        ok = rep.agreement and rep.total > 1000
        report(
            "criterion 5 (structural assertions)",
            ok,
            f"{rep.total} strict-mode instances, {len(rep.errors)} violations",
        )


class TestCriterion6PlantedScalability:
    def test_hundred_planted_at_n1000(self):
        started = time.time()
        rep = run_planted(1000, 100, seed=0, structural=True)
        elapsed = time.time() - started
        ok = rep.agreement and rep.found == 100 and elapsed < 300
        report(
            "criterion 6a (100 planted n=1000 < 5min)",
            ok,
            f"{rep.found}/100 solved+verified in {elapsed:.1f}s",
        )

    def test_polynomial_growth(self):
        """Density-matched sweep; the log-log slope of median runtime must
        stay below 4 (a smoke check for polynomial growth)."""
        sizes = [100, 200, 400, 700, 1000, 1400, 2000]
        points = []
        for n in sizes:
            times = []
            for seed in (1, 2, 3):
                g, _ = generate_planted(GenSpec(n=n, seed=seed))
                t0 = time.perf_counter()
                out = solve(g, structural=True)
                times.append(time.perf_counter() - t0)
                assert out.found
            times.sort()
            points.append((math.log(n), math.log(max(times[1], 1e-5))))
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        report(
            "criterion 6b (polynomial growth)",
            slope < 4,
            f"log-log slope {slope:.2f} over n=100..2000",
        )


class TestCriterion7Determinism:
    def test_reports_byte_identical(self, tmp_path):
        import json

        from dimatch.cli import main
        from dimatch.fileio import write_edge_list
        from dimatch.generate import gadget

        instances = []
        for name in ("c6", "diamond", "p7", "s_1_2_4"):
            p = tmp_path / f"{name}.col"
            p.write_text(write_edge_list(gadget(name)))
            instances.append(str(p))
        g, _ = generate_planted(GenSpec(n=120, seed=9))
        p = tmp_path / "planted.col"
        p.write_text(write_edge_list(g))
        instances.append(str(p))

        mismatches = 0
        for inst in instances:
            outputs = []
            for _ in range(2):
                import io
                from contextlib import redirect_stdout

                buf = io.StringIO()
                with redirect_stdout(buf):
                    main(["solve", inst, "--min-weight", "--all-anchors", "--structural", "--json"])
                payload = json.loads(buf.getvalue())
                payload.pop("timings")
                outputs.append(json.dumps(payload, sort_keys=True))
            if outputs[0] != outputs[1]:
                mismatches += 1
        report(
            "criterion 7 (deterministic reports)",
            mismatches == 0,
            f"{len(instances)} instances solved twice, {mismatches} diverged",
        )
