"""Exact ground truth for dominating induced matchings.

Two independent strategies live here: a backtracker that branches on the
lowest-index undominated edge, and a plain subset scan kept as a
cross-check for small graphs.  Both support a partial precoloring (black =
must be matched, white = must stay unmatched, plus excluded edges) so they
double as the reference answer for reduced instances.

Also home to the exhaustive small-graph enumerator used by the
differential-testing harness.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterator

from .coloring import BLACK, WHITE, Coloring
from .graph import Edge, Graph, iter_bits
from .patterns import _first_k4


class EnumerationCapExceeded(RuntimeError):
    """The number of matchings exceeded the configured cap."""


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact solve.

    ``best`` is a (matching, weight) pair in min-weight mode (and in exists
    mode, where it is whatever solution was found first); ``all_dims`` is
    populated only in enumerate mode.
    """

    feasible: bool
    best: tuple[frozenset[Edge], float] | None = None
    all_dims: tuple[frozenset[Edge], ...] | None = None


_MODES = ("exists", "min_weight", "enumerate")


class _ComponentSearch:
    """Backtracking search over one connected piece of the instance."""

    def __init__(
        self,
        g: Graph,
        vertices: list[int],
        state: list[int],
        excluded: set[Edge],
        mode: str,
        cap: int,
    ) -> None:
        self.mode = mode
        self.cap = cap
        vset = set(vertices)
        self.edges = [e for e in g.edges if e[0] in vset and e[1] in vset]
        self.m = len(self.edges)
        self.weights = [g.weights[e] for e in self.edges]
        self.incident: dict[int, list[int]] = {v: [] for v in vertices}
        for i, (u, v) in enumerate(self.edges):
            self.incident[u].append(i)
            self.incident[v].append(i)
        self.touch = [
            sorted(set(self.incident[u]) | set(self.incident[v]))
            for (u, v) in self.edges
        ]
        self.white = {v for v in vertices if state[v] == WHITE}
        self.black = {v for v in vertices if state[v] == BLACK}
        self.barred = {
            i for i, e in enumerate(self.edges) if e in excluded
        } | {
            i
            for i, (u, v) in enumerate(self.edges)
            if u in self.white or v in self.white
        }
        self.dom = [0] * self.m
        self.matched: set[int] = set()
        self.chosen: list[int] = []
        self.weight = 0.0
        self.best: tuple[float, list[int]] | None = None
        self.solutions: list[frozenset[Edge]] = []
        self.done = False

    def infeasible_upfront(self) -> bool:
        for u, v in self.edges:
            if u in self.white and v in self.white:
                return True
        for b in self.black:
            if all(i in self.barred for i in self.incident[b]):
                return True
        return False

    def run(self) -> None:
        # _search() recurses once per chosen edge, so long pieces need
        # headroom; the caller's limit is restored afterwards.
        limit = sys.getrecursionlimit()
        if limit < self.m + 2000:
            sys.setrecursionlimit(self.m + 2000)
        try:
            if not self.infeasible_upfront():
                self._search()
        finally:
            sys.setrecursionlimit(limit)

    def _viable(self, i: int) -> bool:
        if i in self.barred:
            return False
        u, v = self.edges[i]
        if u in self.matched or v in self.matched:
            return False
        return all(self.dom[t] == 0 for t in self.touch[i])

    def _choose(self, i: int) -> None:
        u, v = self.edges[i]
        self.matched.add(u)
        self.matched.add(v)
        for t in self.touch[i]:
            self.dom[t] += 1
        self.chosen.append(i)
        self.weight += self.weights[i]

    def _unchoose(self, i: int) -> None:
        u, v = self.edges[i]
        self.matched.discard(u)
        self.matched.discard(v)
        for t in self.touch[i]:
            self.dom[t] -= 1
        self.chosen.pop()
        self.weight -= self.weights[i]

    def _record(self) -> None:
        if any(b not in self.matched for b in self.black):
            return
        if self.mode == "exists":
            self.best = (self.weight, list(self.chosen))
            self.done = True
        elif self.mode == "min_weight":
            if self.best is None or self.weight < self.best[0]:
                self.best = (self.weight, list(self.chosen))
        else:
            if len(self.solutions) >= self.cap:
                raise EnumerationCapExceeded(
                    f"more than {self.cap} dominating induced matchings"
                )
            self.solutions.append(frozenset(self.edges[i] for i in self.chosen))

    def _search(self) -> None:
        if self.done:
            return
        if (
            self.mode == "min_weight"
            and self.best is not None
            and self.weight >= self.best[0]
        ):
            return
        target = -1
        for i in range(self.m):
            if self.dom[i] == 0:
                target = i
                break
        if target == -1:
            self._record()
            return
        for i in self.touch[target]:
            if self._viable(i):
                self._choose(i)
                self._search()
                self._unchoose(i)
                if self.done:
                    return


def _split(g: Graph) -> list[list[int]]:
    return [sorted(c) for c in g.connected_components()]


def oracle_solve(
    g: Graph,
    precoloring: Coloring | None = None,
    mode: str = "exists",
    cap: int = 10**6,
) -> OracleResult:
    """Exact answer restricted to matchings consistent with the precoloring.

    Components are solved independently; in enumerate mode the per-component
    solution lists are combined as a cartesian product (still capped).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    state = precoloring.state if precoloring is not None else [0] * g.n
    excluded = set(precoloring.excluded) if precoloring is not None else set()

    chosen_edges: set[Edge] = set()
    total_weight = 0.0
    per_comp_solutions: list[list[frozenset[Edge]]] = []

    for comp in _split(g):
        if len(comp) == 1:
            if state[comp[0]] == BLACK:
                return OracleResult(False)
            if mode == "enumerate":
                per_comp_solutions.append([frozenset()])
            continue
        search = _ComponentSearch(g, comp, state, excluded, mode, cap)
        search.run()
        if mode == "enumerate":
            if not search.solutions:
                return OracleResult(False)
            per_comp_solutions.append(sorted(search.solutions, key=sorted))
        else:
            if search.best is None:
                return OracleResult(False)
            total_weight += search.best[0]
            chosen_edges.update(search.edges[i] for i in search.best[1])

    if mode == "enumerate":
        combos: list[frozenset[Edge]] = [frozenset()]
        for sols in per_comp_solutions:
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
        best = None
        if combos:
            weights = [g.matching_weight(mm) for mm in combos]
            i = min(range(len(combos)), key=lambda t: (weights[t], sorted(combos[t])))
            best = (combos[i], weights[i])
        return OracleResult(True, best, tuple(combos))

    return OracleResult(True, (frozenset(chosen_edges), total_weight), None)


def oracle_solve_subsets(
    g: Graph,
    precoloring: Coloring | None = None,
    mode: str = "exists",
    max_edges: int = 20,
) -> OracleResult:
    """Brute subset scan over all edge sets; independent cross-check for tiny graphs."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if g.m > max_edges:
        raise ValueError(f"subset scan limited to {max_edges} edges, graph has {g.m}")
    state = precoloring.state if precoloring is not None else [0] * g.n
    excluded = set(precoloring.excluded) if precoloring is not None else set()
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
        if e in excluded or state[e[0]] == WHITE or state[e[1]] == WHITE:
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


def oracle_forced_edges(g: Graph) -> frozenset[Edge]:
    """Intersection of all dominating induced matchings (empty when none exist)."""
    result = oracle_solve(g, mode="enumerate")
    if not result.feasible or not result.all_dims:
        return frozenset()
    forced = set(result.all_dims[0])
    for mm in result.all_dims[1:]:
        forced &= mm
        if not forced:
            break
    return frozenset(forced)


# -- exhaustive small-graph enumeration ------------------------------------


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
    if n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= bits[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


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
    cap: int = 9,
) -> Iterator[Graph]:
    """All labeled graphs on n vertices passing the predicate, streamed."""
    if n > cap:
        raise ValueError(f"enumeration capped at n={cap}")
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
