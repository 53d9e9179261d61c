"""Exact ground truth for dominating induced matchings.

A matching M is a DIM exactly when B = V(M) induces a perfect matching (each
vertex of B has exactly one neighbour in B) and V - B is independent.
:func:`oracle_solve` searches that vertex formulation, which shares nothing
with the edge-cover formulation of the exact engine it checks; the subset
scan :func:`oracle_solve_subsets` restates the definition over edge sets
and checks the search on small graphs.  Both support a partial precoloring
of the vertices (black = must be matched, white = must stay unmatched), so
they double as the reference answer for reduced instances.

Also home to the exhaustive small-graph enumerator used by the
differential-testing harness.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

from .coloring import BLACK, WHITE, Coloring
from .graph import Edge, Graph, _bfs_layers, iter_bits
from .patterns import _first_k4


class EnumerationCapExceeded(RuntimeError):
    """The number of matchings exceeded the configured cap."""


class OracleResult(NamedTuple):
    """Outcome of an exact solve, an immutable named tuple read by field.

    ``best`` is a (matching, weight) pair in min-weight mode (and in exists
    mode, where it is whatever solution was found first); ``all_dims`` is
    populated only in enumerate mode.
    """

    feasible: bool
    best: tuple[frozenset[Edge], float] | None = None
    all_dims: tuple[frozenset[Edge], ...] | None = None


_MODES = ("exists", "min_weight", "enumerate")
# The subset scan visits 2**m edge sets, so it refuses graphs with more edges.
_SUBSET_MAX_EDGES = 20

# The memberships a vertex may take, in the order they are tried: OUT of B, then IN.
_FREE = (False, True)
_OPTIONS = {BLACK: (True,), WHITE: (False,)}


def _search_piece(
    g: Graph,
    order: list[int],
    state: list[int] | None,
    mode: str,
    cap: int,
) -> list[frozenset[Edge]]:
    """The DIMs of one connected piece whose vertices are listed in ``order``.

    The vertices are decided in that order, each OUT of B, then IN.  A
    branch dies when two OUT vertices are adjacent, when an IN vertex gets a
    second IN neighbour, and when a vertex whose closed neighbourhood is
    decided is IN with no IN neighbour.  Returns the first DIM found in
    exists mode, the first of least weight in min-weight mode (a branch
    stops once its weight reaches the best found) and every DIM in enumerate
    mode.  The search runs on an explicit stack: position ``i`` holds
    ``order[i]`` and ``tried[i]`` counts the memberships tried there.
    """
    k = len(order)
    rank = {v: i for i, v in enumerate(order)}
    bits = g.bits
    weights = g.weights
    # Sets of positions are bitmasks.  back[i]: the positions before i of
    # order[i]'s neighbours; closes[i]: the positions whose closed
    # neighbourhood is decided once position i is.
    back = []
    closes = [0] * k
    options = []
    for i, v in enumerate(order):
        mask = 0
        last = i
        for u in iter_bits(bits[v]):
            j = rank[u]
            if j < i:
                mask |= 1 << j
            elif j > last:
                last = j
        back.append(mask)
        closes[last] |= 1 << i
        options.append(_OPTIONS.get(state[v], _FREE) if state else _FREE)

    # inside[i], paired[i] and acc[i] describe positions < i: those IN, those
    # IN with an IN neighbour, and the weight of the edges they span.  Each
    # choice writes the next entry, so stepping back undoes nothing.
    inside = [0] * (k + 1)
    paired = [0] * (k + 1)
    acc = [0.0] * (k + 1)
    partner = [-1] * k  # the earlier IN neighbour of an IN position, else -1
    tried = [0] * k
    best = math.inf
    found: list[frozenset[Edge]] = []
    i = 0
    while i >= 0:
        if i == k:
            matching = frozenset(
                (order[j], v) if order[j] < v else (v, order[j])
                for v, j in zip(order, partner)
                if j >= 0
            )
            if mode == "exists":
                return [matching]
            if mode == "min_weight":
                found = [matching]
                best = acc[k]
            else:
                if len(found) >= cap:
                    raise EnumerationCapExceeded(
                        f"more than {cap} dominating induced matchings"
                    )
                found.append(matching)
            i = k - 1
            continue
        t = tried[i]
        if t == len(options[i]):
            tried[i] = 0
            i -= 1
            continue
        tried[i] = t + 1
        ins, pair, weight = inside[i], paired[i], acc[i]
        partner[i] = -1
        if options[i][t]:
            mates = back[i] & ins
            if mates:
                if mates & (mates - 1) or mates & pair:
                    continue
                j = mates.bit_length() - 1
                u, v = order[j], order[i]
                weight += weights[(u, v) if u < v else (v, u)]
                pair |= mates | 1 << i
                partner[i] = j
            ins |= 1 << i
        elif back[i] & ~ins:
            continue
        if weight >= best or closes[i] & ins & ~pair:
            continue
        i += 1
        inside[i], paired[i], acc[i] = ins, pair, weight
    return found


def oracle_solve(
    g: Graph,
    precoloring: Coloring | None = None,
    mode: str = "exists",
    cap: int = 10**6,
) -> OracleResult:
    """Exact answer restricted to matchings consistent with the precoloring.

    Searches the vertex formulation: which vertices lie in B = V(M).  Black
    vertices lie in B and white ones outside it.  Each connected piece is
    searched on its own, the pieces in order of their least vertex.  A
    piece's vertices are decided in BFS order from its least vertex,
    neighbours taken in increasing order, and each is tried OUT of B before
    IN.  That order decides the matching exists mode reports (the first
    found) and the one min-weight mode reports among equal weights (the
    first of them found).  In enumerate mode the per-piece DIM lists are
    combined as a cartesian product (still capped) and ``best`` is the least
    weight, then the least sorted edge list.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    state = precoloring.state if precoloring is not None else None

    bits = g.bits
    seen = [False] * g.n
    pieces: list[list[frozenset[Edge]]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        # The loop also visits the vertices appended while it runs.
        order = [start]
        for v in order:
            for u in iter_bits(bits[v]):
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
        found = _search_piece(g, order, state, mode, cap)
        if not found:
            return OracleResult(False)
        pieces.append(found)

    if mode != "enumerate":
        matching = frozenset().union(*(sols[0] for sols in pieces))
        weight = float(sum(map(g.weights.__getitem__, matching)))
        return OracleResult(True, (matching, weight), None)

    combos: list[frozenset[Edge]] = [frozenset()]
    for sols in pieces:
        merged = []
        for base in combos:
            for extra in sols:
                merged.append(base | extra)
                if len(merged) > cap:
                    raise EnumerationCapExceeded(
                        f"more than {cap} dominating induced matchings"
                    )
        combos = merged
    combos.sort(key=sorted)
    weights = [g.matching_weight(mm) for mm in combos]
    i = min(range(len(combos)), key=lambda t: (weights[t], sorted(combos[t])))
    return OracleResult(True, (combos[i], weights[i]), tuple(combos))


def oracle_solve_subsets(
    g: Graph,
    precoloring: Coloring | None = None,
    mode: str = "exists",
) -> OracleResult:
    """Brute subset scan over all edge sets; independent cross-check for tiny graphs."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if g.m > _SUBSET_MAX_EDGES:
        raise ValueError(f"subset scan limited to {_SUBSET_MAX_EDGES} edges, graph has {g.m}")
    state = precoloring.state if precoloring is not None else [0] * g.n
    m = len(g.edges)
    incident_mask = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        incident_mask[u] |= 1 << i
        incident_mask[v] |= 1 << i
    touch_mask = [
        incident_mask[u] | incident_mask[v] for (u, v) in g.edges
    ]
    barred = 0
    for i, e in enumerate(g.edges):
        if state[e[0]] == WHITE or state[e[1]] == WHITE:
            barred |= 1 << i
    blacks = [v for v in range(g.n) if state[v] == BLACK]

    found: list[frozenset[Edge]] = []
    for subset in range(1 << m):
        if subset & barred:
            continue
        for touch in touch_mask:
            if (touch & subset).bit_count() != 1:
                break
        else:
            # Every edge touches exactly one edge of the subset.
            if not any(incident_mask[b] & subset == 0 for b in blacks):
                found.append(frozenset(e for i, e in enumerate(g.edges) if subset >> i & 1))

    if not found:
        return OracleResult(False)
    found.sort(key=sorted)
    weights = [g.matching_weight(mm) for mm in found]
    i = min(range(len(found)), key=lambda t: (weights[t], sorted(found[t])))
    best = (found[i], weights[i])
    if mode == "enumerate":
        return OracleResult(True, best, tuple(found))
    return OracleResult(True, best, None)


# -- exhaustive small-graph enumeration ------------------------------------


# The largest n :func:`enumerate_all_graphs` accepts: n = 9 already spans
# 2**36 edge subsets.
_ENUMERATION_MAX_N = 9


def _pair_table(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def mask_adjacency(n: int, mask: int, pairs: list[Edge] | None = None) -> list[int]:
    """Per-vertex adjacency bitmasks for an edge-subset mask."""
    pairs = pairs or _pair_table(n)
    bits = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        bits[u] |= 1 << v
        bits[v] |= 1 << u
        mask ^= low
    return bits


def mask_connected(n: int, bits: list[int]) -> bool:
    """Whether the graph on n vertices with adjacency bitmasks ``bits`` is connected."""
    if n <= 1:
        return True
    full = (1 << n) - 1
    return sum(_bfs_layers(bits, 1, full)) == full


def bits_k4_free(bits: list[int]) -> bool:
    """True iff :func:`patterns.find_k4`'s scan finds no 4-clique in ``bits``."""
    return _first_k4(bits) is None


def mask_to_graph(n: int, mask: int, pairs: list[Edge] | None = None) -> Graph:
    """The graph on n vertices holding the edges ``pairs[i]`` for the set bits i of mask.

    Its ``bits`` are built here, with the graph: nearly every enumerated
    graph goes on to a 4-clique scan or the structural route, which read them.
    """
    pairs = pairs or _pair_table(n)
    g = Graph(n, [pairs[i] for i in iter_bits(mask)])
    g.bits  # the first read builds them
    return g


def enumerate_all_graphs(
    n: int,
    predicate: Callable[[Graph], bool] | None = None,
    connected: bool = True,
) -> Iterator[Graph]:
    """All labeled graphs on n vertices passing the predicate, streamed."""
    if n > _ENUMERATION_MAX_N:
        raise ValueError(f"enumeration capped at n={_ENUMERATION_MAX_N}")
    if n == 0:
        return
    pairs = _pair_table(n)
    for mask in range(1 << len(pairs)):
        bits = mask_adjacency(n, mask, pairs)
        if connected and not mask_connected(n, bits):
            continue
        g = mask_to_graph(n, mask, pairs)
        if predicate is not None and not predicate(g):
            continue
        yield g
