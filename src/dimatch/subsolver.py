"""Exact searches for dominating induced matchings.

Two engines live here.  :func:`solve_cover` is the exact route of
:func:`dimatch.solver.solve`: it runs on the whole, uncolored input under a
node budget and treats a dominating induced matching as an exact cover of
the edges by closed edge neighbourhoods (Efficient Domination on the line
graph), searched on integer bitmasks.

:func:`solve_precolored` serves only the structural route's pluggable
sub-solver slot, which hands it residual precolored instances (the
beyond-level-3 part of an anchor decomposition, plus the stray vertices
that reductions cut off from the anchor's levels), without a budget.  It
backtracks over vertex colors with the full forcing-rule propagation from
:mod:`dimatch.coloring` at every node, which keeps it effectively linear on
the long sparse residues the solver produces while staying correct on
anything.  Connected pieces are searched in turn, not as one product, and
each piece is searched in place: a choice point keeps only the piece's own
colors to restore, since propagation never leaves a connected piece.

A sub-solver is any callable ``(graph, coloring, minimize) ->
(matching, weight) | None``; None means no consistent completion exists.
The graph may be disconnected: either hand-off can pass several pieces.
"""

from __future__ import annotations

from typing import Optional

from .coloring import BLACK, UNSET, WHITE, Coloring, propagate
from .graph import Edge, Graph, iter_bits

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


def solve_cover(
    g: Graph,
    minimize: bool = False,
    nodes_per_vertex: int | None = None,
) -> Optional[tuple[frozenset[Edge], float]]:
    """A dominating induced matching of ``g`` and its weight, or None.

    M is one exactly when every edge lies in the closed line-graph
    neighbourhood N_L[e] of exactly one e in M, so each connected component
    is an exact-cover instance whose rows and columns are both its edges,
    row r covering N_L[r].  The search (Knuth's Algorithm X) keeps the
    uncovered columns and the live rows, those whose N_L is still wholly
    uncovered, as bitmasks.  At each node it takes the uncovered column with the fewest live
    rows, the first such in edge order, and tries those rows in edge order;
    choosing row r covers N_L[r] and kills every row whose N_L meets it.
    Edges are numbered per component in (u, v) order.

    With ``minimize`` the first cheapest matching in that search order is
    returned, and a branch is cut once its weight reaches the best found;
    otherwise the first one found.  A search node is one row tried.  With
    ``nodes_per_vertex`` set, a component of k vertices may use at most
    ``nodes_per_vertex * k + BUDGET_SLACK`` nodes; one that needs more
    raises :class:`SearchBudgetExceeded`.  None leaves the search unbounded.
    The search runs on an explicit stack, so the interpreter's recursion
    limit does not bound the input.
    """
    comps = g.connected_components()
    # One pass over the sorted edges numbers each component's edges in
    # (u, v) order; inc[v] is the mask of the edges at v.
    comp_of = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    edges_of: list[list[Edge]] = [[] for _ in comps]
    inc = [0] * g.n
    for e in g.edges:
        u, v = e
        edges = edges_of[comp_of[u]]
        bit = 1 << len(edges)
        edges.append(e)
        inc[u] |= bit
        inc[v] |= bit
    near = [0] * g.n
    matching: list[Edge] = []
    for comp, edges in zip(comps, edges_of):
        if not edges:
            continue
        # near[v]: the edges at some neighbour of v.  Rows meeting N_L[(u, v)]
        # are exactly the edges at a vertex of N(u) | N(v).
        for v in comp:
            acc = 0
            for u in g.adj[v]:
                acc |= inc[u]
            near[v] = acc
        cover = [inc[u] | inc[v] for u, v in edges]
        kill = [near[u] | near[v] for u, v in edges]
        # Exists mode reads no weight: zeros keep one search loop for both modes.
        weight_of = [g.weights[e] for e in edges] if minimize else [0] * len(edges)
        limit = None
        if nodes_per_vertex is not None:
            limit = nodes_per_vertex * len(comp) + BUDGET_SLACK
        full = (1 << len(edges)) - 1
        best: int | None = None
        best_weight = 0.0
        nodes = -1  # the root tries no row
        stack = [(full, full, 0, 0)]
        while stack:
            uncovered, live, chosen, weight = stack.pop()
            if best is not None and weight >= best_weight:
                continue
            nodes += 1
            if limit is not None and nodes > limit:
                raise SearchBudgetExceeded(
                    f"a component of {len(comp)} vertices needs more than {limit} search nodes"
                )
            if not uncovered:
                best, best_weight = chosen, weight
                if not minimize:
                    break
                continue
            rows = 0
            fewest = len(edges) + 1
            rest = uncovered
            while rest:
                low = rest & -rest
                here = live & cover[low.bit_length() - 1]
                count = here.bit_count()
                if count < fewest:
                    rows, fewest = here, count
                    if count <= 1:
                        break
                rest ^= low
            tried = []
            while rows:
                low = rows & -rows
                r = low.bit_length() - 1
                tried.append(
                    (uncovered & ~cover[r], live & ~kill[r], chosen | low, weight + weight_of[r])
                )
                rows ^= low
            stack.extend(reversed(tried))
        if best is None:
            return None
        matching.extend(edges[r] for r in iter_bits(best))
    found = frozenset(matching)
    return found, g.matching_weight(found)


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
