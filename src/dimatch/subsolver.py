"""Exact search for dominating induced matchings under a partial coloring.

Two callers use it.  :func:`dimatch.solver.solve` first runs it on the
whole input under a node budget (the exact route), and the structural
route hands it residual precolored instances through its pluggable
sub-solver slot (the beyond-level-3 part of an anchor decomposition, plus
the stray vertices that reductions cut off from the anchor's levels),
without a budget.  It backtracks over vertex colors with the full
forcing-rule propagation from :mod:`dimatch.coloring` at every node, which
keeps it effectively linear on the long sparse residues the solver
produces while staying correct on anything.  Connected pieces are searched
in turn, not as one product, and each piece is searched in place: a choice
point keeps only the piece's own colors to restore, since propagation
never leaves a connected piece.

A sub-solver is any callable ``(graph, coloring, minimize) ->
(matching, weight) | None``; None means no consistent completion exists.
The graph may be disconnected: either hand-off can pass several pieces.
"""

from __future__ import annotations

from typing import Optional

from .coloring import BLACK, UNSET, WHITE, Coloring, propagate
from .graph import Edge, Graph

# Nodes a budgeted search may spend on any piece beyond its per-vertex
# allowance, so that small pieces never trip the budget.
BUDGET_SLACK = 64


class SearchBudgetExceeded(Exception):
    """A piece needed more search nodes than its budget allows."""


def _complete_weight(g: Graph, state: list[int]) -> tuple[frozenset[Edge], float]:
    matching = frozenset(
        e for e in g.edges if state[e[0]] == BLACK and state[e[1]] == BLACK
    )
    return matching, g.matching_weight(matching)


def solve_precolored(
    g: Graph,
    coloring: Coloring,
    minimize: bool = False,
    nodes_per_vertex: int | None = None,
) -> Optional[tuple[frozenset[Edge], float]]:
    """Extend the coloring to a full dominating induced matching, or None.

    Black vertices must end up matched, white ones unmatched, excluded
    edges never enter the matching.  With ``minimize`` the cheapest
    completion is returned, otherwise the first one found.  Connected
    pieces are searched in turn, each branching in the order one search
    over the whole graph would, so both return the same completion.

    A search node is one color tried at a branching vertex.  With
    ``nodes_per_vertex`` set, a piece of k vertices may use at most
    ``nodes_per_vertex * k + BUDGET_SLACK`` nodes; one that needs more
    raises :class:`SearchBudgetExceeded`.  None leaves the search unbounded.

    The search starts from the coloring closed under :func:`propagate`.
    A blank coloring, with no vertex colored and no edge excluded, is
    already closed: every vertex that propagation pops is uncolored, so
    no rule fires.  That first propagation is skipped then.
    """
    excluded = frozenset(coloring.excluded)
    state = list(coloring.state)
    # any(state) tests for a colored vertex: UNSET is 0.
    if (excluded or any(state)) and propagate(g, state, excluded, range(g.n)):
        return None
    for comp in g.connected_components():
        vertices = sorted(comp)
        limit = None
        if nodes_per_vertex is not None:
            limit = nodes_per_vertex * len(vertices) + BUDGET_SLACK
        best = _search_piece(g, vertices, state, excluded, minimize, limit)
        if best is None:
            return None
        for v, color in zip(vertices, best):
            state[v] = color
    return _complete_weight(g, state)


def _branch_vertex(g: Graph, vertices: list[int], state: list[int]) -> int:
    """The first uncolored vertex with a colored neighbor, else the first uncolored one, else -1."""
    fallback = -1
    for v in vertices:
        if state[v] != UNSET:
            continue
        if fallback == -1:
            fallback = v
        for u in g.adj[v]:
            if state[u] != UNSET:
                return v
    return fallback


def _search_piece(
    g: Graph,
    vertices: list[int],
    state: list[int],
    excluded: frozenset[Edge],
    minimize: bool,
    limit: int | None,
) -> Optional[list[int]]:
    """The first (or first cheapest) completion of one piece, given its sorted vertices.

    Returns the completion as the colors of ``vertices``, in order.  The
    search runs depth first, WHITE before BLACK, on an explicit stack of
    choice points, each holding its branching vertex, the piece's colors
    when it was reached and the next color to try.  It mutates ``state``
    in place on the piece's vertices and on nothing else.
    """
    edges = [(v, u) for v in vertices for u in g.adj[v] if u > v]
    best: Optional[list[int]] = None
    best_weight = 0.0
    nodes = 0
    stack: list[list] = []
    v = _branch_vertex(g, vertices, state)
    while True:
        if v == -1:
            weight = g.matching_weight(
                e for e in edges if state[e[0]] == BLACK and state[e[1]] == BLACK
            )
            if best is None or weight < best_weight:
                best, best_weight = [state[u] for u in vertices], weight
                if not minimize:
                    return best
        else:
            stack.append([v, [state[u] for u in vertices], 0])
        while stack:
            point = stack[-1]
            u, saved, i = point
            if i == 2:
                stack.pop()
                continue
            point[2] = i + 1
            if i:
                for w, color in zip(vertices, saved):
                    state[w] = color
            nodes += 1
            if limit is not None and nodes > limit:
                raise SearchBudgetExceeded(
                    f"a piece of {len(vertices)} vertices needs more than {limit} search nodes"
                )
            state[u] = (WHITE, BLACK)[i]
            if propagate(g, state, excluded, [u]) is None:
                v = _branch_vertex(g, vertices, state)
                break
        else:
            return best
