"""Exact search for dominating induced matchings under a partial coloring.

This is the default implementation behind the solver's pluggable
sub-solver slot: the structural stage hands it residual precolored
instances (the beyond-level-3 part of an anchor decomposition, plus any
pieces that reductions cut off).  It backtracks over vertex colors with
the full forcing-rule propagation from :mod:`dimatch.coloring` at every
node, which keeps it effectively linear on the long sparse residues the
solver produces while staying correct on anything.

A sub-solver is any callable ``(graph, coloring, minimize) ->
(matching, weight) | None``; None means no consistent completion exists.
"""

from __future__ import annotations

import sys
from typing import Optional

from .coloring import BLACK, UNSET, WHITE, Coloring, propagate
from .graph import Edge, Graph


def _complete_weight(g: Graph, state: list[int]) -> tuple[frozenset[Edge], float]:
    matching = frozenset(
        e for e in g.edges if state[e[0]] == BLACK and state[e[1]] == BLACK
    )
    return matching, g.matching_weight(matching)


def solve_precolored(
    g: Graph, coloring: Coloring, minimize: bool = False
) -> Optional[tuple[frozenset[Edge], float]]:
    """Extend the coloring to a full dominating induced matching, or None.

    Black vertices must end up matched, white ones unmatched, excluded
    edges never enter the matching.  With ``minimize`` the cheapest
    completion is returned, otherwise the first one found.
    """
    excluded = frozenset(coloring.excluded)
    state = list(coloring.state)
    reason = propagate(g, state, excluded, range(g.n))
    if reason:
        return None

    best: list[tuple[float, frozenset[Edge]]] = []

    def leaf(st: list[int]) -> bool:
        matching, weight = _complete_weight(g, st)
        if not best:
            best.append((weight, matching))
            return not minimize
        if weight < best[0][0]:
            best[0] = (weight, matching)
        return False

    def branch_vertex(st: list[int]) -> int:
        fallback = -1
        for v in range(g.n):
            if st[v] != UNSET:
                continue
            if fallback == -1:
                fallback = v
            if any(st[u] != UNSET for u in g.adj[v]):
                return v
        return fallback

    def search(st: list[int]) -> bool:
        v = branch_vertex(st)
        if v == -1:
            return leaf(st)
        for color in (WHITE, BLACK):
            trial = list(st)
            trial[v] = color
            if propagate(g, trial, excluded, [v]) is None:
                if search(trial):
                    return True
        return False

    # search() recurses once per branching vertex, so deep residues need
    # headroom; the caller's limit is restored afterwards.
    limit = sys.getrecursionlimit()
    if limit < g.n + 2000:
        sys.setrecursionlimit(g.n + 2000)
    try:
        search(state)
    finally:
        sys.setrecursionlimit(limit)
    if not best:
        return None
    return best[0][1], best[0][0]

