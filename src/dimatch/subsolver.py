"""Exact search for dominating induced matchings under a partial coloring.

This is the default implementation behind the solver's pluggable
sub-solver slot: the structural stage hands it residual precolored
instances (the beyond-level-3 part of an anchor decomposition, plus the
stray vertices that reductions cut off from the anchor's levels).  It
backtracks over vertex colors with the full forcing-rule propagation from
:mod:`dimatch.coloring` at every node, which keeps it effectively linear on
the long sparse residues the solver produces while staying correct on
anything.  Connected pieces are searched in turn, not as one product.

A sub-solver is any callable ``(graph, coloring, minimize) ->
(matching, weight) | None``; None means no consistent completion exists.
The graph may be disconnected: either hand-off can pass several pieces.
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
    completion is returned, otherwise the first one found.  Connected
    pieces are searched in turn, each branching in the order one search
    over the whole graph would, so both return the same completion.
    """
    excluded = frozenset(coloring.excluded)
    state = list(coloring.state)
    reason = propagate(g, state, excluded, range(g.n))
    if reason:
        return None

    # The search recurses once per branching vertex, so deep residues need
    # headroom; the caller's limit is restored afterwards.
    limit = sys.getrecursionlimit()
    if limit < g.n + 2000:
        sys.setrecursionlimit(g.n + 2000)
    try:
        for comp in g.connected_components():
            vertices = sorted(comp)
            best = _search_piece(g, vertices, state, excluded, minimize)
            if best is None:
                return None
            for v in vertices:
                state[v] = best[v]
    finally:
        sys.setrecursionlimit(limit)
    return _complete_weight(g, state)


def _search_piece(
    g: Graph, vertices: list[int], state: list[int], excluded: frozenset[Edge], minimize: bool
) -> Optional[list[int]]:
    """The first (or first cheapest) completion of one piece, given its sorted vertices."""
    edges = [(v, u) for v in vertices for u in g.adj[v] if u > v]
    best: list[tuple[float, list[int]]] = []

    def leaf(st: list[int]) -> bool:
        weight = g.matching_weight(e for e in edges if st[e[0]] == BLACK and st[e[1]] == BLACK)
        if not best:
            best.append((weight, st))
            return not minimize
        if weight < best[0][0]:
            best[0] = (weight, st)
        return False

    def branch_vertex(st: list[int]) -> int:
        fallback = -1
        for v in vertices:
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

    search(state)
    return best[0][1] if best else None
