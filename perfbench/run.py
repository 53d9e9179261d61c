"""Layered solve benchmark for dimatch.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` (end to end): builds the workload's corpus from the seed,
then runs a closed loop, one op at a time on one thread, over the corpus in
order, round after round, until ``--seconds`` of op time have passed.  The
corpus is rebuilt SETUP_REPEATS - 1 more times at evenly spaced points of
the loop; ``setup_s`` is the median of all builds.  ``ops_per_s`` and the
latency percentiles come from each item's median op time over its visits.
Every answer is re-checked outside the timed op.

Every time is reported at a nominal host speed.  On a shared host the same
code runs up to twice as slow for stretches of a second to minutes, and
that, not the program, would set the spread of raw times.  So a fixed
pure-Python reference loop is timed after every SLICE_S of op time and
around every build, and a time measured while the loop took r seconds is
reported as t x REFERENCE_S / r.  A change to the program moves the scaled
times as it moves the raw ones; the report line gives the raw build times
and the reference readings.

``--trace 1`` (per layer): wraps every public function of the layer
modules (see tracing.py), builds the corpus once under tracing, and runs a
fixed sample of ops (nominal rate x seconds / 2, at most the corpus) with
solve's ``timings=``, ``sub_solver=`` and ``anchor_log=`` hooks.  It then
replays the same ops untraced, which gives the tracing overhead and the
untraced solve time, and times plain backtracking on the same graphs.

``--workload all`` runs every workload, each in a fresh process, one after
the other, and says which ones BENCHMARK.json leaves out and why.

The last line of stdout is the result object; the line before it is a
report with verdict counts, failure reasons, the answer digest and the
layer shares.  Reports and a traced run's spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
# The reference loop is read after every SLICE_S seconds of op time.  Times
# are reported at the nominal speed at which it takes REFERENCE_S: the fast
# speed of a 2.0 GHz Xeon vCPU with Python 3.11.
REFERENCE_LOOPS = 8000
REFERENCE_S = 1.2e-3
SLICE_S = 0.05
NAMES = ("exhaustive6", "planted", "block2", "sampled")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}

# Per-op values over the traced sample unless the unit says otherwise.
PER_LAYER = {
    "fileio.parse_s": "s/op",
    "fileio.self_s": "s/op",
    "graph.builds": "count/op",
    "graph.split_s": "s/op",
    "graph.is_dim_s": "s/op",
    "graph.self_s": "s/op",
    "patterns.spider_calls": "count/op",
    "patterns.spider_s": "s/op",
    "patterns.scan_s": "s/op",
    "patterns.self_s": "s/op",
    "coloring.propagate_calls": "count/op",
    "coloring.propagate_s": "s/op",
    "coloring.closure_s": "s/op",
    "coloring.self_s": "s/op",
    "solver.solve_s": "s/op",
    "solver.self_s": "s/op",
    "solver.anchors_tried": "count/op",
    "solver.forcing_s": "s/op",
    "solver.closure_s": "s/op",
    "solver.deep_solve_s": "s/op",
    "solver.verify_s": "s/op",
    "solver.untraced_s": "s/op",
    "solver.vs_plain": "ratio",
    "subsolver.calls": "count/op",
    "subsolver.s": "s/op",
    "subsolver.self_s": "s/op",
    "subsolver.plain_s": "s/op",
    "subsolver.plain_disagree": "count",
    "oracle.calls": "count/op",
    "oracle.s": "s/op",
    "oracle.self_s": "s/op",
    "generate.s": "s/op",
    "generate.self_s": "s/op",
    "generate.setup_s": "s",
    "generate.exhausted": "count/op",
    "generate.accept_ratio": "ratio",
    "trace.ops": "count",
    "trace.op_s": "s/op",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.slowdown": "ratio",
    "check.fail_ratio": "ratio",
}

# Per-layer metrics that are counts: they must repeat exactly for one seed.
COUNT_METRICS = tuple(k for k, u in PER_LAYER.items() if u.startswith("count"))

# Workloads the command builds and checks but BENCHMARK.json does not gate.
# A spread is the quartile distance over the median of 10 seeds' 30 s runs,
# found by resampling 400 (block2) and 700 (sampled) measured op times.
DROPPED = {
    "block2": (
        "unsteady across seeds: one instance takes 5 ms to 3 s and the slowest tenth "
        "takes half the time, so ops_per_s spreads ~0.19 and op_ms_p90 ~0.29"
    ),
    "sampled": (
        "unsteady across seeds: the median op sits between the cheap n<=14 draws and the "
        "n>=15 draws that often exhaust the retry budget, so op_ms_p50 spreads ~0.16"
    ),
}


def import_program():
    """Import dimatch from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import dimatch
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dimatch from {SRC}: {exc}")
    if Path(dimatch.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: dimatch imported from {dimatch.__file__}, not {SRC}")
    return dimatch


class Tally:
    """Op count, verdicts, failures and the answer digest of a sequence of ops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.verdicts: Counter = Counter()
        self.failures: Counter = Counter()
        self._digest = hashlib.sha256()
        self.first_error: str | None = None

    def record(self, workload, ans) -> None:
        self.attempted += 1
        self.verdicts[ans.verdict] += 1
        try:
            reason = workload.check(ans)
        except Exception as exc:  # a malformed answer can make the re-check raise
            reason = f"check_raised_{type(exc).__name__}"
        if reason:
            self.failures[reason] += 1
        if ans.error and self.first_error is None:
            self.first_error = ans.error
        self._digest.update(f"{ans.verdict}:{ans.weight!r};".encode())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "verdicts": dict(sorted(self.verdicts.items())),
            "failures": dict(sorted(self.failures.items())),
            "digest": self._digest.hexdigest()[:16],
            "first_error": self.first_error,
        }


def run_op(workload, item, **kwargs):
    from workloads import ERROR, Answer

    try:
        return workload.op(item, **kwargs)
    except Exception as exc:  # an exception is a failed op, not a crashed run
        return Answer(ERROR, error="".join(traceback.format_exception_only(exc)).strip())


def reference_s() -> float:
    """Time of a fixed pure-Python loop of set and dict work: the host's speed now."""
    t0 = perf_counter()
    seen: set = set()
    counts: dict = {}
    for i in range(REFERENCE_LOOPS):
        j = i * 7 & 1023
        if j in seen:
            counts[j] = counts.get(j, 0) + 1
        else:
            seen.add(j)
    return perf_counter() - t0


def scaled(t: float, r: float) -> float:
    """A time measured while the reference loop took ``r``, at the nominal speed."""
    return t * REFERENCE_S / r


def measure(workload, corpus: list, seconds: float, op=run_op, refs: list | None = None,
            rebuild=None, rebuilds: int = 0) -> tuple[Tally, list[float]]:
    """Closed loop, one op at a time, over the corpus in order, round after round.

    Runs until ``seconds`` of op time have passed.  The reference loop is
    read (into ``refs``) after every SLICE_S of op time, and an op's time is
    scaled by the mean of the readings at its slice's two ends.  Every op is
    checked; returns the tally and each visited item's median scaled op
    time.  With ``rebuild``, the corpus is dropped and replaced by
    ``rebuild()`` at ``rebuilds`` evenly spaced points of op time; it must
    build the same items in the same order.
    """
    refs = [] if refs is None else refs
    tally = Tally()
    n = len(corpus)
    items, times, slices = array("l"), array("d"), array("l")
    ends = [reference_s()]
    marks = [seconds * j / (rebuilds + 1) for j in range(rebuilds, 0, -1)] if rebuild else []
    busy = in_slice = 0.0
    i = 0
    while busy < seconds:
        k = i % n
        i += 1
        t0 = perf_counter()
        ans = op(workload, corpus[k])
        dt = perf_counter() - t0
        busy += dt
        in_slice += dt
        items.append(k)
        times.append(dt)
        slices.append(len(ends) - 1)
        tally.record(workload, ans)
        if in_slice >= SLICE_S:
            ends.append(reference_s())
            in_slice = 0.0
        if marks and busy >= marks[-1]:
            marks.pop()
            ans = corpus = None
            corpus = rebuild()
    ends.append(reference_s())
    refs.extend(ends)
    visits: list[list[float]] = [[] for _ in range(n)]
    for k, dt, j in zip(items, times, slices):
        visits[k].append(scaled(dt, (ends[j] + ends[j + 1]) / 2))
    return tally, [statistics.median(v) for v in visits if v]


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    refs: list[float] = []
    builds: list[tuple[float, float]] = []

    def build():
        gc.collect()
        r0 = reference_s()
        t0 = perf_counter()
        corpus = workload.build(seed)
        t = perf_counter() - t0
        r1 = reference_s()
        refs.extend((r0, r1))
        builds.append((t, (r0 + r1) / 2))
        return corpus

    tally, times = measure(workload, build(), seconds, refs=refs,
                           rebuild=build, rebuilds=SETUP_REPEATS - 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(scaled(t, r) for t, r in builds),
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "rounds": tally.attempted / len(times),
        "setup_runs_s": [t for t, _ in builds],
        "samples": len(times),
        "beyond_p90": sum(1 for x in times if x > deciles[8]),
        "reference_ms": {"readings": len(refs), "min": min(refs) * 1e3,
                         "median": statistics.median(refs) * 1e3},
    }
    return metrics, tally, extra


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, Tally, dict, object]:
    import dimatch
    from tracing import LAYERS, SETUP_OP, Tracer
    from workloads import FOUND, NO_DIM, EXHAUSTED, plain_solve

    tracer = Tracer()
    tracer.install(dimatch)
    tally = Tally()
    answers = []
    traced_busy = 0.0
    anchors = 0
    timings: Counter = Counter()
    try:
        tracer.current_op = SETUP_OP
        corpus = workload.build(seed)
        tracer.current_op = None
        k = max(1, min(len(corpus), math.ceil(workload.nominal_ops_per_s * seconds / 2)))
        items = [corpus[i % len(corpus)] for i in range(k)]
        hook = tracer.wrappers["subsolver.solve_precolored"]
        for i, item in enumerate(items):
            tm: dict = {}
            log: list = []
            tracer.current_op = i
            t0 = perf_counter()
            ans = run_op(workload, item, sub_solver=hook, timings=tm, anchor_log=log)
            traced_busy += perf_counter() - t0
            tracer.current_op = None
            tally.record(workload, ans)
            answers.append(ans)
            anchors += len(log)
            timings.update(tm)
    finally:
        tracer.current_op = None
        tracer.uninstall()

    replay_busy = 0.0
    solve_s = 0.0
    for item in items:
        marks: list = []
        t0 = perf_counter()
        run_op(workload, item, marks=marks)
        replay_busy += perf_counter() - t0
        if len(marks) == 2:
            solve_s += marks[1] - marks[0]
    plain_s = 0.0
    disagree = 0
    for ans in answers:
        if ans.graph is None:
            continue
        t0 = perf_counter()
        weight = plain_solve(ans.graph, workload.minimize)
        plain_s += perf_counter() - t0
        if ans.verdict in (FOUND, NO_DIM):
            if (weight is not None) != (ans.verdict == FOUND) or (
                workload.minimize and weight is not None and abs(weight - ans.weight) > 1e-9
            ):
                disagree += 1

    dur, self_t = tracer.durations_and_self()
    within = tracer.outermost_total
    layer_self = tracer.layer_self(self_t)
    gen_fns = ["generate.generate_rejection", "generate.generate_planted"]
    spider_checks = tracer.count(["patterns.find_induced_sijk"], under="generate.generate_rejection")
    produced = tracer.count(["generate.generate_rejection"]) - tally.verdicts[EXHAUSTED]
    totals = {
        "fileio.parse_s": within(dur, ["fileio.parse_edge_list"]),
        "graph.builds": tracer.count(["graph.Graph.__init__"]),
        "graph.split_s": within(dur, ["graph.Graph.connected_components", "graph.Graph.induced_subgraph"]),
        "graph.is_dim_s": within(dur, ["graph.Graph.is_dim"]),
        "patterns.spider_calls": tracer.count(["patterns.find_induced_sijk"]),
        "patterns.spider_s": within(dur, ["patterns.find_induced_sijk"]),
        "patterns.scan_s": within(dur, ["patterns.find_k4", "patterns.forced_edges_initial"]),
        "coloring.propagate_calls": tracer.count(["coloring.propagate"]),
        "coloring.propagate_s": within(dur, ["coloring.propagate"]),
        "coloring.closure_s": within(dur, ["coloring.forced_edge_closure"]),
        "solver.solve_s": within(dur, ["solver.solve"]),
        "solver.anchors_tried": anchors,
        "solver.forcing_s": timings["forcing"],
        "solver.closure_s": timings["closure"],
        "solver.deep_solve_s": timings["deep_solve"],
        "solver.verify_s": timings["verify"],
        "solver.untraced_s": solve_s,
        "subsolver.calls": tracer.count(["subsolver.solve_precolored"]),
        "subsolver.s": within(dur, ["subsolver.solve_precolored"]),
        "subsolver.plain_s": plain_s,
        "oracle.calls": tracer.count(["oracle.oracle_solve"]),
        "oracle.s": within(dur, ["oracle.oracle_solve"]),
        "generate.s": within(dur, gen_fns),
        "generate.exhausted": tally.verdicts[EXHAUSTED],
        "trace.op_s": traced_busy,
    }
    totals.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    metrics = {name: t / k for name, t in totals.items()}
    metrics.update({
        "solver.vs_plain": solve_s / plain_s if plain_s else 0.0,
        "subsolver.plain_disagree": disagree,
        "generate.setup_s": within(dur, gen_fns, ops=False),
        "generate.accept_ratio": produced / spider_checks if spider_checks else 0.0,
        "trace.ops": k,
        "trace.ops_per_s": k / traced_busy,
        "trace.untraced_ops_per_s": k / replay_busy,
        "trace.slowdown": traced_busy / replay_busy,
        "check.fail_ratio": tally.failed / tally.attempted,
    })
    metrics = {name: metrics[name] for name in PER_LAYER}
    extra = {
        "corpus_items": len(corpus),
        "spans": len(tracer),
        "layer_share": {layer: layer_self[layer] / traced_busy for layer in LAYERS},
        "vs_plain_bases_s": {"structural": solve_s, "plain": plain_s, "ops": k},
        "overhead_bases": {"traced_s": traced_busy, "untraced_s": replay_busy, "ops": k},
        "accept_bases": {"produced": produced, "spider_checks": spider_checks},
    }
    return metrics, tally, extra, tracer


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.workload in DROPPED:
        print(f"perfbench: {args.workload} is not gated by BENCHMARK.json: "
              f"{DROPPED[args.workload]}", file=sys.stderr)
    if args.trace:
        metrics, tally, extra, tracer = per_layer(workload, args.seed, args.seconds)
        units = PER_LAYER
    else:
        metrics, tally, extra = end_to_end(workload, args.seed, args.seconds)
        tracer = None
        units = END_TO_END
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **tally.summary(), **extra, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(str(stem) + "-spans.tsv.gz")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one at a time."""
    from_dir = HERE.parent
    worst = 0
    for name in NAMES:
        if name in DROPPED:
            print(f"{name}: left out of BENCHMARK.json, {DROPPED[name]}")
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=from_dir, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            worst = 1
            continue
        result = json.loads(lines[-1])
        shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}")
        worst |= not result["correct"]
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("all",) + NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
