"""Differential harness: run the solver against the exact oracle.

Supports four corpus sources: exhaustive labeled enumeration of small
connected class members, rejection-sampled random members, planted
instances, and a directory of edge-list files.  Work fans out over a
process pool; per-instance results fold into one deterministic report.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass, field
from multiprocessing import Pool

from .fileio import ParseError, parse_edge_list, write_edge_list
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
        }


def _check_instance(
    label: str,
    g: Graph,
    minimize: bool,
    strict: bool,
    report: CompareReport,
    structural: bool = False,
) -> None:
    t0 = time.perf_counter()
    out = solve(g, minimize=minimize, strict=strict, structural=structural)
    report.times.append(time.perf_counter() - t0)
    report.total += 1
    if out.verdict == CLASS_VIOLATION:
        report.errors.append({"instance": label, "error": "class violation"})
        return
    mode = "min_weight" if minimize else "exists"
    ref = oracle_solve(g, mode=mode)
    if out.found != ref.feasible:
        report.disagreements.append(
            {
                "instance": label,
                "solver": out.verdict,
                "oracle": "found" if ref.feasible else "no_dim",
            }
        )
        return
    if out.found:
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
    else:
        report.no_dim += 1


def _merge(into: CompareReport, part: CompareReport) -> None:
    into.total += part.total
    into.found += part.found
    into.no_dim += part.no_dim
    into.disagreements.extend(part.disagreements)
    into.weight_mismatches.extend(part.weight_mismatches)
    into.errors.extend(part.errors)
    into.times.extend(part.times)


def _fan_out(worker, tasks: list, workers: int) -> CompareReport:
    """Run ``worker`` on every task, serially or over a process pool of at
    most one process per task, and fold the parts into one report with its
    disagreements sorted."""
    started = time.perf_counter()
    workers = min(workers, len(tasks))
    if workers <= 1:
        parts = [worker(t) for t in tasks]
    else:
        with Pool(workers) as pool:
            parts = pool.map(worker, tasks, chunksize=1)
    report = CompareReport()
    for part in parts:
        _merge(report, part)
    report.disagreements.sort(key=lambda d: d["instance"])
    report.wall = time.perf_counter() - started
    return report


def _scan_mask_range(args) -> CompareReport:
    n, lo, hi, minimize, strict = args
    report = CompareReport()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(lo, hi):
        bits = mask_adjacency(n, mask, pairs)
        if not mask_connected(n, bits):
            continue
        if not bits_k4_free(bits):
            continue
        g = mask_to_graph(n, mask, pairs)
        _check_instance(f"n={n} mask={mask}", g, minimize, strict, report)
    return report


def run_exhaustive(
    n_max: int, minimize: bool = False, strict: bool = True, workers: int | None = None
) -> CompareReport:
    """All labeled connected K4-free graphs up to n_max vertices.

    The forbidden spider needs 8 vertices, so for n <= 7 the spider filter
    is vacuous and K4-freeness is the only class filter that can trigger.
    """
    if n_max > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive corpus capped at n={EXHAUSTIVE_MAX_N}")
    tasks = []
    for n in range(2, n_max + 1):
        top = 1 << (n * (n - 1) // 2)
        step = max(1, top // _MASK_CHUNKS)
        lo = 0
        while lo < top:
            hi = min(top, lo + step)
            tasks.append((n, lo, hi, minimize, strict))
            lo = hi
    return _fan_out(_scan_mask_range, tasks, workers or worker_count())


def _sample_batch(args) -> CompareReport:
    n, seeds, density, minimize, strict = args
    report = CompareReport()
    for seed in seeds:
        spec = GenSpec(
            n=n, seed=seed, mode="rejection", density=density, connected=True
        )
        try:
            g = generate_rejection(spec)
        except RetryBudgetExceeded:
            continue
        _check_instance(f"n={n} seed={seed}", g, minimize, strict, report)
    return report


def run_samples(
    n: int,
    count: int,
    seed: int = 0,
    density: float | None = None,
    minimize: bool = False,
    strict: bool = True,
    workers: int | None = None,
) -> CompareReport:
    """Rejection-sampled connected class members at one size."""
    workers = workers or worker_count()
    seeds = [seed + i for i in range(count)]
    chunk = max(1, len(seeds) // (workers * 8))
    tasks = [
        (n, seeds[i : i + chunk], density, minimize, strict)
        for i in range(0, len(seeds), chunk)
    ]
    return _fan_out(_sample_batch, tasks, workers)


def _planted_batch(args) -> CompareReport:
    n, seeds, minimize, strict, structural, use_oracle = args
    report = CompareReport()
    for seed in seeds:
        g, planted = generate_planted(GenSpec(n=n, seed=seed, mode="planted"))
        label = f"planted n={n} seed={seed}"
        if use_oracle:
            _check_instance(label, g, minimize, strict, report, structural)
            continue
        t0 = time.perf_counter()
        out = solve(g, minimize=minimize, strict=strict, structural=structural)
        report.times.append(time.perf_counter() - t0)
        report.total += 1
        if not out.found:
            report.disagreements.append(
                {"instance": label, "solver": out.verdict, "oracle": "found (planted)"}
            )
        else:
            report.found += 1
            if not g.is_dim(out.matching):
                report.errors.append({"instance": label, "error": "invalid matching"})
    return report


def run_planted(
    n: int,
    count: int,
    seed: int = 0,
    minimize: bool = False,
    strict: bool = False,
    structural: bool = False,
    use_oracle: bool = False,
    workers: int | None = None,
) -> CompareReport:
    """Planted instances; the planted matching certifies feasibility, so the
    oracle is optional (and off by default at large sizes).

    ``structural`` solves on the structural route without strict mode's
    assertions, as acceptance criterion 6a does at n = 1000.
    """
    workers = workers or worker_count()
    seeds = [seed + i for i in range(count)]
    chunk = max(1, len(seeds) // (workers * 4))
    tasks = [
        (n, seeds[i : i + chunk], minimize, strict, structural, use_oracle)
        for i in range(0, len(seeds), chunk)
    ]
    return _fan_out(_planted_batch, tasks, workers)


def run_directory(path: str, minimize: bool = False, strict: bool = False) -> CompareReport:
    """Compare solver and oracle on every edge-list file in a directory."""
    report = CompareReport()
    started = time.perf_counter()
    names = sorted(
        f for f in os.listdir(path) if not f.startswith(".") and f.endswith((".col", ".txt", ".graph"))
    )
    for name in names:
        fname = os.path.join(path, name)
        with open(fname, "r", encoding="utf-8") as fh:
            try:
                g = parse_edge_list(fh)
            except ParseError as exc:
                raise ParseError(f"{fname}: {exc}") from exc
        _check_instance(name, g, minimize, strict, report)
    report.wall = time.perf_counter() - started
    return report


def dump_reproducer(report: CompareReport, directory: str) -> list[str]:
    """Write each disagreeing exhaustive instance to an edge-list file."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for dis in report.disagreements:
        label = dis["instance"]
        if "mask=" not in label:
            continue
        fields = dict(part.split("=") for part in label.split())
        n, mask = int(fields["n"]), int(fields["mask"])
        g = mask_to_graph(n, mask)
        fname = os.path.join(directory, f"repro_n{n}_m{mask}.col")
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(g, comment=f"reproducer {label}"))
        written.append(fname)
    return written
