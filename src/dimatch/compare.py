"""Differential harness: run the solver against the exact oracle.

Supports four corpus sources: exhaustive labeled enumeration of small
connected class members, rejection-sampled random members, planted
instances, and a directory of edge-list files.  Each source is a generator
of labelled graphs, and every instance goes through one check,
:func:`_check_instance`, which compares the answer with the oracle's, the
weight included in min-weight mode.  Every ``run_*`` solves on ``solve``'s
default route unless ``strict=True`` (off by default) asks for strict mode.
Work fans out over a process pool; per-instance results fold into one
deterministic report.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterator

from .fileio import read_edge_list, write_edge_list
from .generate import GenSpec, RetryBudgetExceeded, generate_planted, generate_rejection
from .graph import Graph
from .oracle import (
    bits_k4_free,
    mask_adjacency,
    mask_connected,
    mask_to_graph,
    oracle_solve,
)
from .solver import CLASS_VIOLATION, solve

_MASK_CHUNKS = 64

# Largest size of the exhaustive corpus: n = 8 alone has 2^28 labelled graphs.
EXHAUSTIVE_MAX_N = 7


def worker_count() -> int:
    """Worker processes to use: ``DIM_SOLVER_THREADS`` if set, else one per CPU.

    A set value that is not a whole number of at least 1 raises ValueError,
    as the same value given as ``compare --threads`` is a usage error.
    """
    env = os.environ.get("DIM_SOLVER_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"DIM_SOLVER_THREADS must be a worker count of at least 1, got {env!r}")
        return value
    return max(1, os.cpu_count() or 1)


@dataclass
class CompareReport:
    total: int = 0
    found: int = 0
    no_dim: int = 0
    disagreements: list = field(default_factory=list)
    weight_mismatches: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    times: array = field(default_factory=lambda: array("d"))
    wall: float = 0.0
    # The arguments of the run_* call that made the report, workers aside.
    options: dict = field(default_factory=dict)

    @property
    def agreement(self) -> bool:
        return not self.disagreements and not self.weight_mismatches and not self.errors

    def timing_percentiles(self) -> dict:
        if not self.times:
            return {}
        ts = sorted(self.times)

        def pct(p: float) -> float:
            return ts[min(len(ts) - 1, int(p * len(ts)))]

        return {
            "p50": pct(0.50),
            "p90": pct(0.90),
            "p99": pct(0.99),
            "max": ts[-1],
            "samples": len(ts),
        }

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "total": self.total,
            "found": self.found,
            "no_dim": self.no_dim,
            "disagreements": self.disagreements,
            "weight_mismatches": self.weight_mismatches,
            "errors": self.errors,
            "timing": self.timing_percentiles(),
            "wall_seconds": self.wall,
            "options": self.options,
        }


def _check_instance(
    label: str,
    g: Graph,
    report: CompareReport,
    minimize: bool,
    strict: bool,
    structural: bool = False,
) -> None:
    """Solve one instance, check the answer against :func:`oracle_solve` and
    file the outcome in ``report``.

    Every corpus holds class members, so a ``class_violation`` is an error.
    Otherwise the oracle decides: a verdict it does not share is a
    disagreement naming its verdict (``"found"`` or ``"no_dim"``), a found
    matching must be a DIM, and in min-weight mode its weight must be the
    oracle's.
    """
    t0 = time.perf_counter()
    out = solve(g, minimize=minimize, strict=strict, structural=structural)
    report.times.append(time.perf_counter() - t0)
    report.total += 1
    if out.verdict == CLASS_VIOLATION:
        report.errors.append({"instance": label, "error": "class violation"})
        return
    ref = oracle_solve(g, mode="min_weight" if minimize else "exists")
    if out.found != ref.feasible:
        report.disagreements.append(
            {"instance": label, "solver": out.verdict, "oracle": "found" if ref.feasible else "no_dim"}
        )
        return
    if not out.found:
        report.no_dim += 1
        return
    report.found += 1
    if not g.is_dim(out.matching):
        report.errors.append({"instance": label, "error": "invalid matching"})
    if minimize and abs(out.weight - ref.best[1]) > 1e-9:
        report.weight_mismatches.append(
            {
                "instance": label,
                "solver_weight": out.weight,
                "oracle_weight": ref.best[1],
            }
        )


def _check_batch(task) -> CompareReport:
    """Pool worker: check every ``(label, graph)`` of one corpus source.

    ``task`` is ``(source, args, options)``: ``source(*args)`` yields the
    instances and ``options`` are the trailing arguments of
    :func:`_check_instance`.
    """
    source, args, options = task
    report = CompareReport()
    for label, g in source(*args):
        _check_instance(label, g, report, *options)
    return report


def _merge(into: CompareReport, part: CompareReport) -> None:
    into.total += part.total
    into.found += part.found
    into.no_dim += part.no_dim
    into.disagreements.extend(part.disagreements)
    into.weight_mismatches.extend(part.weight_mismatches)
    into.errors.extend(part.errors)
    into.times.extend(part.times)


def _fan_out(tasks: list, workers: int, options: dict) -> CompareReport:
    """Run :func:`_check_batch` on every task, serially or over a process
    pool of at most one process per task, and fold the parts into one report
    with its disagreements sorted and the run's ``options``."""
    started = time.perf_counter()
    workers = min(workers, len(tasks))
    if workers <= 1:
        parts = [_check_batch(t) for t in tasks]
    else:
        with Pool(workers) as pool:
            parts = pool.map(_check_batch, tasks, chunksize=1)
    report = CompareReport(options=options)
    for part in parts:
        _merge(report, part)
    report.disagreements.sort(key=lambda d: d["instance"])
    report.wall = time.perf_counter() - started
    return report


def _mask_graphs(n: int, lo: int, hi: int) -> Iterator[tuple[str, Graph]]:
    """The connected K4-free graphs among edge masks ``lo..hi-1`` on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(lo, hi):
        bits = mask_adjacency(n, mask, pairs)
        if mask_connected(n, bits) and bits_k4_free(bits):
            yield f"n={n} mask={mask}", mask_to_graph(n, mask, pairs)


def _sampled_graphs(n: int, seeds: list[int], density: float | None) -> Iterator[tuple[str, Graph]]:
    """One rejection sample per seed; a seed that exhausts its retries is skipped."""
    for seed in seeds:
        spec = GenSpec(n=n, seed=seed, mode="rejection", density=density, connected=True)
        try:
            g = generate_rejection(spec)
        except RetryBudgetExceeded:
            continue
        yield f"n={n} seed={seed}", g


def _planted_graphs(n: int, seeds: list[int]) -> Iterator[tuple[str, Graph]]:
    for seed in seeds:
        g, _ = generate_planted(GenSpec(n=n, seed=seed, mode="planted"))
        yield f"planted n={n} seed={seed}", g


def _directory_graphs(path: str) -> Iterator[tuple[str, Graph]]:
    """The edge-list files of a directory, by name."""
    names = sorted(
        f for f in os.listdir(path) if not f.startswith(".") and f.endswith((".col", ".txt", ".graph"))
    )
    for name in names:
        yield name, read_edge_list(os.path.join(path, name))


def _seed_chunks(seed: int, count: int, chunks: int) -> list[list[int]]:
    """Seeds ``seed .. seed+count-1`` in consecutive runs, about ``chunks`` of them."""
    if count < 0:
        raise ValueError(f"instance count must be at least 0, got {count}")
    seeds = [seed + i for i in range(count)]
    step = max(1, len(seeds) // chunks)
    return [seeds[i : i + step] for i in range(0, len(seeds), step)]


def run_exhaustive(
    n_max: int, minimize: bool = False, strict: bool = False, workers: int | None = None
) -> CompareReport:
    """All labeled connected K4-free graphs up to n_max vertices, against the oracle.

    The forbidden spider needs 8 vertices, so for n <= 7 the spider filter
    is vacuous and K4-freeness is the only class filter that can trigger.
    """
    if not 2 <= n_max <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"the exhaustive corpus spans n=2..{EXHAUSTIVE_MAX_N}, got {n_max}")
    options = (minimize, strict)
    tasks = []
    for n in range(2, n_max + 1):
        top = 1 << (n * (n - 1) // 2)
        step = max(1, top // _MASK_CHUNKS)
        for lo in range(0, top, step):
            tasks.append((_mask_graphs, (n, lo, min(top, lo + step)), options))
    run = dict(n_max=n_max, minimize=minimize, strict=strict)
    return _fan_out(tasks, workers or worker_count(), run)


def run_samples(
    n: int,
    count: int,
    seed: int = 0,
    density: float | None = None,
    minimize: bool = False,
    strict: bool = False,
    workers: int | None = None,
) -> CompareReport:
    """Rejection-sampled connected class members at one size, against the oracle."""
    workers = workers or worker_count()
    tasks = [
        (_sampled_graphs, (n, seeds, density), (minimize, strict))
        for seeds in _seed_chunks(seed, count, workers * 8)
    ]
    run = dict(n=n, count=count, seed=seed, density=density, minimize=minimize, strict=strict)
    return _fan_out(tasks, workers, run)


def run_planted(
    n: int,
    count: int,
    seed: int = 0,
    minimize: bool = False,
    strict: bool = False,
    structural: bool = False,
    workers: int | None = None,
) -> CompareReport:
    """Planted instances, against the oracle like every other corpus.

    ``structural`` solves on the structural route without strict mode's
    assertions, as acceptance criterion 6a does at n = 1000.
    """
    workers = workers or worker_count()
    options = (minimize, strict, structural)
    tasks = [
        (_planted_graphs, (n, seeds), options)
        for seeds in _seed_chunks(seed, count, workers * 4)
    ]
    run = dict(n=n, count=count, seed=seed, minimize=minimize, strict=strict, structural=structural)
    return _fan_out(tasks, workers, run)


def run_directory(path: str, minimize: bool = False, strict: bool = False) -> CompareReport:
    """Compare solver and oracle on every edge-list file in a directory, in
    name order and in this process.  A file that cannot be read or parsed
    raises with its path in the message."""
    run = dict(path=path, minimize=minimize, strict=strict)
    return _fan_out([(_directory_graphs, (path,), (minimize, strict))], 1, run)


def dump_reproducer(report: CompareReport, directory: str) -> list[str]:
    """The edge-list file of each failing instance: every label among the
    disagreements, weight mismatches and errors, once, in that order.

    An exhaustive, sampled or planted instance is built again from its
    label and ``report.options`` and written to ``directory``; a
    ``run_directory`` instance is a file already, and its path is given.
    """
    failing = (*report.disagreements, *report.weight_mismatches, *report.errors)
    paths = []
    for label in dict.fromkeys(entry["instance"] for entry in failing):
        if "path" in report.options:
            paths.append(os.path.join(report.options["path"], label))
            continue
        fields = dict(part.split("=") for part in label.split() if "=" in part)
        n = int(fields["n"])
        if "mask" in fields:
            mask = int(fields["mask"])
            source = _mask_graphs(n, mask, mask + 1)
        elif label.startswith("planted"):
            source = _planted_graphs(n, [int(fields["seed"])])
        else:
            source = _sampled_graphs(n, [int(fields["seed"])], report.options["density"])
        ((_, g),) = source
        os.makedirs(directory, exist_ok=True)
        fname = os.path.join(directory, f"repro_{label.replace('=', '').replace(' ', '_')}.col")
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(g, comment=f"reproducer {label}"))
        paths.append(fname)
    return paths
