"""The library names and parameters the benchmark under ``perfbench/`` binds.

ROADMAP's "benchmark's API contract" lists them.  The benchmark changes
only on its own, so a refactor that renames one of these must fail here,
in the test suite, and not first in a benchmark run.  Nothing is imported
from ``perfbench/``: the list below is the contract.
"""

from __future__ import annotations

import inspect
import sys

import pytest

import dimatch
from dimatch import coloring, fileio, generate, graph, oracle, patterns, solver, subsolver
from dimatch.graph import Graph

modules = {
    module.__name__.rpartition(".")[2]: module
    for module in (coloring, fileio, generate, graph, oracle, patterns, solver, subsolver)
}

# (module, dotted attribute, parameter names it must accept, in order).
CONTRACT = [
    ("graph", "Graph", ("n", "edges")),
    ("graph", "Graph.connected_components", ("self",)),
    ("graph", "Graph.induced_subgraph", ("self", "vertices")),
    ("graph", "Graph.is_dim", ("self", "matching")),
    ("graph", "Graph.is_connected", ("self",)),
    (
        "solver",
        "solve",
        ("g", "minimize", "verify_class", "strict", "sub_solver", "anchor_log", "timings"),
    ),
    ("oracle", "mask_adjacency", ("n", "mask", "pairs")),
    ("oracle", "mask_connected", ("n", "bits")),
    ("oracle", "bits_k4_free", ("bits",)),
    ("oracle", "mask_to_graph", ("n", "mask", "pairs")),
    ("oracle", "oracle_solve", ("g", "precoloring", "mode")),
    ("generate", "SplitMix64", ("seed",)),
    ("generate", "GenSpec", ("n", "seed", "mode", "density", "gadget_name", "connected")),
    ("generate", "generate_planted", ("spec",)),
    ("generate", "generate_rejection", ("spec",)),
    ("fileio", "parse_edge_list", ("source",)),
    ("fileio", "write_edge_list", ("g",)),
    ("patterns", "verify_witness", ("g", "w", "spider_legs")),
    ("subsolver", "solve_precolored", ("g", "coloring", "minimize", "nodes_per_vertex")),
    ("coloring", "Coloring.fresh", ("n",)),
]


def resolve(module: str, dotted: str):
    obj = modules[module]
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module,name,params", CONTRACT, ids=[f"{m}.{n}" for m, n, _ in CONTRACT])
def test_name_takes_its_parameters(module, name, params):
    got = tuple(inspect.signature(resolve(module, name)).parameters)
    assert got[: len(params)] == params


def test_names_the_benchmark_also_reads():
    # The tracer wraps these Graph methods through the class's own dict.
    methods = ("__init__", "connected_components", "induced_subgraph", "is_dim", "is_connected")
    assert all(method in vars(Graph) for method in methods)
    # Its tests read a graph's adjacency as sets; bits is the other form.
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.adj == ({1}, {0, 2}, {1})
    assert g.bits == (0b010, 0b101, 0b010)
    gen = modules["generate"]
    for method in ("next_u64", "shuffle", "randrange"):
        assert callable(getattr(gen.SplitMix64, method))
    assert issubclass(gen.RetryBudgetExceeded, Exception)
    assert all(
        hasattr(modules["solver"], name) for name in ("FOUND", "NO_DIM", "CLASS_VIOLATION")
    )


def test_record_fields_the_benchmark_reads():
    # Its ops read these fields off the records that solve, oracle_solve
    # and a class-violation witness return.
    g = generate.gadget("s_1_2_4")
    out = solver.solve(g, verify_class=True)
    assert (out.verdict, out.weight, out.matching) == (solver.CLASS_VIOLATION, None, None)
    assert (out.witness.pattern, len(out.witness.vertices)) == ("spider", 8)
    found = solver.solve(Graph(2, [(0, 1)]), minimize=True, strict=True)
    assert (found.verdict, found.weight, found.matching, found.witness) == (
        solver.FOUND, 1.0, {(0, 1)}, None
    )
    ref = oracle.oracle_solve(Graph(2, [(0, 1)]), mode="min_weight")
    assert ref.feasible and ref.best == ({(0, 1)}, 1)


def test_structural_solve_fills_the_timing_keys():
    # One pool vertex hanging three deep chains: the structural route hands
    # a residue to the sub-solver, so every timed layer runs.
    edges = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7)]
    edges += [(5, 8), (8, 11), (11, 14), (6, 9), (9, 12), (12, 15), (7, 10), (10, 13), (13, 16)]
    timings: dict = {}
    out = modules["solver"].solve(Graph(17, edges), timings=timings, structural=True)
    assert out.found
    assert {"forcing", "closure", "deep_solve", "verify"} <= set(timings)


def test_package_attribute_generate_is_the_module():
    assert dimatch.generate is sys.modules["dimatch.generate"]
    assert dimatch.generate.GenSpec(n=10).n == 10
