"""The exact search for dominating induced matchings.

:func:`solve_precolored` is the one exact engine.  It serves both routes of
:func:`dimatch.solver.solve`: the exact route runs it on the whole,
uncolored input under a node budget, and the structural route's pluggable
sub-solver slot hands it residual precolored instances (the beyond-level-3
part of an anchor decomposition, plus the stray vertices that reductions
cut off from the anchor's levels) without one.

It treats a dominating induced matching as an exact cover of the edges by
closed edge neighbourhoods (Efficient Domination on the line graph) and
searches each connected component in turn on integer bitmasks.  It builds
no component sets (union-find roots label the pieces) and no kill mask or
child state of a row the search never tries: a branch keeps its untried
rows as one mask, and a piece's vertex count, which only the node budget
reads, is counted only once the piece's search is past the budget's slack.
A precoloring, vertex colors only, narrows that instance: a white endpoint
removes the edge's row, and a black vertex adds a column that only the rows
at it cover.

A sub-solver is any callable ``(graph, coloring, minimize) ->
(matching, weight) | None``, the coloring a :class:`Coloring` of the
graph's vertices; None means no consistent completion exists.  The graph
may be disconnected: either hand-off can pass several pieces.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Optional

from .coloring import BLACK, WHITE, Coloring
from .graph import Edge, Graph, iter_bits

# Nodes a budgeted search may spend on any piece beyond its per-vertex
# allowance, so that small pieces never trip the budget.
BUDGET_SLACK = 64


class SearchBudgetExceeded(Exception):
    """A piece needed more search nodes than its budget allows."""


def solve_precolored(
    g: Graph,
    coloring: Coloring,
    minimize: bool = False,
    nodes_per_vertex: int | None = None,
) -> Optional[tuple[frozenset[Edge], float]]:
    """Extend the coloring to a full dominating induced matching, or None.

    Black vertices must end up matched, white ones unmatched.

    M is a dominating induced matching exactly when every edge lies in the
    closed line-graph neighbourhood N_L[e] of exactly one e in M, so each
    connected component is an exact-cover instance whose rows and columns
    are its edges, row r covering N_L[r].  The components are searched in
    order of least vertex.  The coloring removes the rows of edges with a
    white endpoint and adds one column per black vertex, covered by the
    rows at that vertex; a component with a black vertex and no edge has no
    completion, which is answered at its turn in that order.  The search
    (Knuth's Algorithm X) keeps the uncovered columns and the live rows,
    those whose columns are all still uncovered, as bitmasks.  At each node
    it takes the uncovered column with the fewest live rows, the first such
    (edges in (u, v) order, then black vertices in order), and tries those
    rows in edge order; choosing row r covers its columns and kills every
    row whose N_L meets N_L[r], which includes every row at r's endpoints.
    A branching node pushes one stack entry, its state and the mask of its
    untried rows; a pop takes the lowest of them, pushes the rest back, and
    applies that row to the state in place.  So r's kill mask and child
    state are built only when r is tried.

    With ``minimize`` the first cheapest matching in that search order is
    returned, and a branch is cut once its weight reaches the best found;
    otherwise the first one found.  A search node is one row tried.  A
    column with a single live row forces that row: the search applies it in
    place, without a stack entry, and it still counts as one node.  With
    ``nodes_per_vertex`` set, a component of k vertices may use at most
    ``nodes_per_vertex * k + BUDGET_SLACK`` nodes; one that needs more
    raises :class:`SearchBudgetExceeded`.  k is counted only when the search
    of that component passes ``BUDGET_SLACK`` nodes.  None leaves the search
    unbounded.
    The search runs on an explicit stack, so the interpreter's recursion
    limit does not bound the input.
    """
    state = coloring.state
    # any(state) tests for a colored vertex: UNSET is 0.
    precolored = any(state)
    root = g._roots()
    # One pass over the sorted edges numbers each piece's edges in (u, v)
    # order; inc[v] is the mask of the edges at v.  A piece's first edge
    # starts at its root, its least vertex, so the pieces enter
    # ``edges_of`` in order of least vertex.
    edges_of: defaultdict[int, list[Edge]] = defaultdict(list)
    inc = [0] * g.n
    for e in g.edges:
        u, v = e
        edges = edges_of[root[u]]
        bit = 1 << len(edges)
        edges.append(e)
        inc[u] |= bit
        inc[v] |= bit
    # near[v]: the edges at some neighbour of v.  Rows meeting N_L[(u, v)]
    # are exactly the edges at a vertex of N(u) | N(v).
    near = [0] * g.n
    for u, v in g.edges:
        near[u] |= inc[v]
        near[v] |= inc[u]
    # An edgeless piece is one vertex.  A black one has no completion, which
    # is answered at its turn: ``stop`` is the least such vertex.
    stop = g.n
    if precolored:
        stop = next((v for v, color in enumerate(state) if color == BLACK and not inc[v]), stop)
    # Exists mode reads no weight: shared zeros keep one search loop for both modes.
    zeros = b"" if minimize else bytes(g.m)
    matching: list[Edge] = []
    for least, edges in edges_of.items():
        if least > stop:
            break
        cover = [inc[u] | inc[v] for u, v in edges]
        uncovered = live = (1 << len(edges)) - 1
        # rows_of[c]: the rows covering column c.  An edge column's rows
        # are its own N_L, so without a precoloring both lists are one.
        rows_of = cover
        if precolored:
            rows_of = cover[:]
            for r, (u, v) in enumerate(edges):
                if state[u] == WHITE or state[v] == WHITE:
                    live &= ~(1 << r)
            for v in sorted({x for e in edges for x in e if state[x] == BLACK}):
                bit = 1 << len(rows_of)
                rows_of.append(inc[v])
                uncovered |= bit
                for r in iter_bits(inc[v]):
                    cover[r] |= bit
        weight_of = [g.weights[e] for e in edges] if minimize else zeros
        # The piece's vertex count is read only once the slack is spent.
        limit = BUDGET_SLACK if nodes_per_vertex is not None else math.inf
        size = 0
        best: int | None = None
        best_weight = 0.0
        nodes = -1  # the root tries no row
        chosen = weight = 0
        # A branch's entry holds its state and its untried rows.
        stack: list[tuple[int, int, int, float, int]] = []
        push = stack.append
        while True:
            # Each pass is one node; a forced row is taken here, in place.
            while best is None or weight < best_weight:
                nodes += 1
                if nodes > limit:
                    if not size:
                        size = root.count(least)
                        limit += nodes_per_vertex * size
                    if nodes > limit:
                        raise SearchBudgetExceeded(
                            f"a component of {size} vertices needs more than {limit} search nodes"
                        )
                if not uncovered:
                    best, best_weight = chosen, weight
                    if not minimize:
                        stack.clear()
                    break
                rows = 0
                fewest = len(edges) + 1
                rest = uncovered
                while rest:
                    low = rest & -rest
                    here = live & rows_of[low.bit_length() - 1]
                    count = here.bit_count()
                    if count < fewest:
                        rows, fewest = here, count
                        if count <= 1:
                            break
                    rest ^= low
                if fewest != 1:
                    if rows:
                        push((uncovered, live, chosen, weight, rows))
                    break
                r = rows.bit_length() - 1
                u, v = edges[r]
                uncovered &= ~cover[r]
                live &= ~(near[u] | near[v])
                chosen |= rows
                weight += weight_of[r]
            if not stack:
                break
            # The lowest untried row is tried next; the rest wait on the stack.
            uncovered, live, chosen, weight, rows = stack.pop()
            low = rows & -rows
            if rows != low:
                push((uncovered, live, chosen, weight, rows ^ low))
            r = low.bit_length() - 1
            u, v = edges[r]
            uncovered &= ~cover[r]
            live &= ~(near[u] | near[v])
            chosen |= low
            weight += weight_of[r]
        if best is None:
            return None
        while best:
            low = best & -best
            matching.append(edges[low.bit_length() - 1])
            best ^= low
    if stop < g.n:
        return None
    found = frozenset(matching)
    return found, sum(map(g.weights.__getitem__, found))
