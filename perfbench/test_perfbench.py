"""The benchmark's own tests.

    python3 -m pytest -q perfbench

They are not part of tier-1 (pyproject's testpaths is tests/ only).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs dimatch on the path first)
from dimatch import find_k4  # noqa: E402
from dimatch.generate import SplitMix64  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_degree2_block_plants_a_dim_and_is_k4_free():
    rng = SplitMix64(7)
    for _ in range(20):
        g, planted = workloads.degree2_block(rng)
        assert g.n == 300 and len(planted) == 100
        assert g.is_dim(planted)
        assert find_k4(g) is None
        for w in range(200, 300):
            ends = sorted(g.adj[w])
            assert len(ends) == 2 and ends[0] // 2 != ends[1] // 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_metrics_and_answers_repeat_exactly_for_one_seed(name):
    runs = []
    for _ in range(2):
        proc = _run("--workload", name, "--seed", "11", "--seconds", "2", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert result["correct"] and result["failed"] == 0
        runs.append((report, result))
    (rep1, res1), (rep2, res2) = runs
    assert rep1["digest"] == rep2["digest"]
    assert rep1["verdicts"] == rep2["verdicts"]
    for key in run.COUNT_METRICS:
        assert res1["metrics"][key] == res2["metrics"][key], key


def _corrupt(kind: str):
    """An op that makes every third found answer wrong in the given way."""
    found = [0]
    injected = [0]

    def op(workload, item):
        ans = run.run_op(workload, item)
        if ans.verdict != workloads.FOUND:
            return ans
        found[0] += 1
        if found[0] % 3:
            return ans
        injected[0] += 1
        if kind == "verdict":
            ans.verdict = workloads.NO_DIM
        elif kind == "weight":
            ans.weight += 1.0
        elif kind == "matching":
            ans.matching = frozenset(ans.graph.edges)
        else:
            return workloads.Answer(workloads.ERROR, error="injected")
        return ans

    return op, injected


@pytest.fixture(scope="module")
def small_corpus():
    # Connected graphs with three or more edges: their full edge set is
    # never a matching, so the "matching" corruption is always wrong.
    return [g for g in workloads.WORKLOADS["exhaustive6"].build(3) if g.m >= 3][:300]


@pytest.mark.parametrize("kind", ["verdict", "weight", "matching", "exception"])
def test_injected_wrong_answer_raises_fail_ratio(small_corpus, kind):
    w = workloads.WORKLOADS["exhaustive6"]
    assert run.measure(w, small_corpus, 0.1)[0].failed == 0
    op, injected = _corrupt(kind)
    tally, _ = run.measure(w, small_corpus, 0.1, op=op)
    assert injected[0] > 0
    assert tally.failed == injected[0]
    assert tally.summary()["fail_ratio"] == injected[0] / tally.attempted


def test_scaled_times_show_added_work(small_corpus):
    # Two extra reference loops per op add 2 x REFERENCE_S at the nominal
    # speed, however fast the host runs at the moment.
    w = workloads.WORKLOADS["exhaustive6"]

    def slower(workload, item):
        run.reference_s()
        run.reference_s()
        return run.run_op(workload, item)

    base = statistics.median(run.measure(w, small_corpus, 1.0)[1])
    added = statistics.median(run.measure(w, small_corpus, 1.0, op=slower)[1]) - base
    assert 1.0 * run.REFERENCE_S < added < 4.0 * run.REFERENCE_S


def test_checker_rejects_no_dim_on_planted_block():
    w = workloads.WORKLOADS["block2"]
    g, _ = workloads.degree2_block(SplitMix64(1))
    assert w.check(workloads.Answer(workloads.NO_DIM, graph=g)) == "planted_not_found"
    uncertified = workloads.Answer(workloads.CLASS_VIOLATION, graph=g)
    assert w.check(uncertified) == "uncertified_class_violation"


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(run.NAMES) == set(workloads.WORKLOADS)
    gated = {w["name"] for w in spec["workloads"]}
    assert gated == set(workloads.WORKLOADS) - set(run.DROPPED)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "planted", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
