"""Dominating induced matchings: structural solver, exact oracle, detectors, generators.

A dominating induced matching is an edge set touched exactly once by every
edge of the graph.  The package decides existence (and minimum weight) with
a polynomial structural algorithm for graphs avoiding the three-legged
spider with leg lengths 1, 2, 4, verifies everything against an exact
oracle, and ships the pattern detectors and instance generators the
differential tests are built on.
"""

from .coloring import (
    BLACK,
    UNSET,
    WHITE,
    Coloring,
    ReductionOutcome,
    forced_edge_closure,
    propagate,
)
from .fileio import ParseError, parse_edge_list, parse_matching, write_edge_list, write_matching
from .generate import (
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
from .graph import Edge, Graph, GraphError, edge
from .oracle import (
    EnumerationCapExceeded,
    OracleResult,
    enumerate_all_graphs,
    oracle_forced_edges,
    oracle_solve,
    oracle_solve_subsets,
)
from .patterns import (
    PatternWitness,
    c4_edges,
    find_all_butterflies,
    find_all_diamonds,
    find_gem,
    find_induced_sijk,
    find_k4,
    forced_edges_initial,
    verify_witness,
)
from .solver import (
    CLASS_VIOLATION,
    FOUND,
    NO_DIM,
    NO_DIM_WITH_ANCHOR,
    AnchorContradiction,
    AnchorSolver,
    ClassViolationError,
    ComponentTask,
    SolveOutcome,
    SolverConfig,
    StructuralCheckError,
    anchor_edges,
    dim_with_anchor,
    solve,
)
from .subsolver import solve_precolored

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
