"""Induced-subgraph detection with explicit witnesses.

The fixed family covered here: the 4-clique, the 4-clique minus one edge
("diamond"), the two-triangles-sharing-a-vertex graph ("butterfly"), the
dominated path on four vertices ("gem"), the edges on chordless 4-cycles,
and the parametric three-legged spider ``S(i, j, k)`` (a center vertex with
three induced paths of the given lengths attached, nothing else).

Every witness carries its vertices in a fixed role order so the calling code
can read off forced edges without re-deriving roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graph import Edge, Graph, edge, iter_bits


@dataclass(frozen=True)
class PatternWitness:
    """A named induced pattern plus the vertices that realise it.

    Role orders:
      * ``k4``:        four mutually adjacent vertices, ascending.
      * ``diamond``:   (a, p, b, q) where p,q are the degree-3 pair; the
                       mid edge is (p, q) and a,b are the non-adjacent pair.
      * ``butterfly``: (a, b, c, d, u) with wing edges (a,b), (c,d) and
                       shared center u.
      * ``gem``:       (p1, p2, p3, p4, u) with the path p1..p4 dominated by u.
      * ``c4``:        the 4-cycle in traversal order.
      * ``spider``:    center first, then the legs in the requested
                       (i, j, k) order, each leg listed center-outward.
    """

    pattern: str
    vertices: tuple[int, ...]

    @property
    def mid_edge(self) -> Edge:
        if self.pattern != "diamond":
            raise ValueError("mid_edge is only defined for diamond witnesses")
        return edge(self.vertices[1], self.vertices[3])

    @property
    def peripheral_edges(self) -> tuple[Edge, Edge]:
        if self.pattern != "butterfly":
            raise ValueError("peripheral_edges is only defined for butterfly witnesses")
        a, b, c, d, _ = self.vertices
        return (edge(a, b), edge(c, d))


def _first_k4(bits: Sequence[int]) -> tuple[int, ...] | None:
    """The one 4-clique scan: the first K4 of the adjacency bitmasks, sorted.

    Order: u, then each neighbor v > u, then each common neighbor w, then
    the least common neighbor x > w that w sees.
    """
    for u, bu in enumerate(bits):
        for v in iter_bits(bu >> (u + 1) << (u + 1)):
            common = bu & bits[v]
            if not common:
                continue
            for w in iter_bits(common):
                rest = bits[w] & common >> (w + 1) << (w + 1)
                if rest:
                    x = (rest & -rest).bit_length() - 1
                    return tuple(sorted((u, v, w, x)))
    return None


def find_k4(g: Graph) -> PatternWitness | None:
    """The first 4-clique of :func:`_first_k4` as a witness, or None."""
    k4 = _first_k4(g.bits)
    return None if k4 is None else PatternWitness("k4", k4)


def find_all_diamonds(g: Graph) -> list[PatternWitness]:
    """Every induced diamond, one witness per 4-vertex occurrence.

    Each diamond is reported through its unique degree-3 pair, so occurrences
    are distinct by construction.
    """
    out: list[PatternWitness] = []
    for p, q in g.edges:
        common = g.bits[p] & g.bits[q]
        if not common:
            continue
        cands = list(iter_bits(common))
        for i, a in enumerate(cands):
            for b in cands[i + 1:]:
                if not g.bits[a] >> b & 1:
                    out.append(PatternWitness("diamond", (a, p, b, q)))
    return out


def find_all_butterflies(g: Graph) -> list[PatternWitness]:
    """Every induced butterfly, one witness per 5-vertex occurrence."""
    out: list[PatternWitness] = []
    for u in range(g.n):
        nb = sorted(g.adj[u])
        if len(nb) < 4:
            continue
        wings = [(a, b) for a, b in combinations(nb, 2) if g.bits[a] >> b & 1]
        for (a, b), (c, d) in combinations(wings, 2):
            if len({a, b, c, d}) < 4:
                continue
            cross = (g.bits[a] | g.bits[b]) & ((1 << c) | (1 << d))
            if cross:
                continue
            out.append(PatternWitness("butterfly", (a, b, c, d, u)))
    return out


def find_gem(g: Graph) -> PatternWitness | None:
    """First induced gem (a 4-vertex path plus a vertex seeing all of it)."""
    for u in range(g.n):
        nb = sorted(g.adj[u])
        if len(nb) < 4:
            continue
        nb_set = g.adj[u]
        for p2, p3 in combinations(nb, 2):
            if not g.bits[p2] >> p3 & 1:
                continue
            for p1 in nb:
                if p1 in (p2, p3) or not g.bits[p1] >> p2 & 1 or g.bits[p1] >> p3 & 1:
                    continue
                for p4 in nb_set:
                    if p4 in (p1, p2, p3):
                        continue
                    if (
                        g.bits[p4] >> p3 & 1
                        and not g.bits[p4] >> p2 & 1
                        and not g.bits[p4] >> p1 & 1
                    ):
                        return PatternWitness("gem", (p1, p2, p3, p4, u))
    return None


def c4_edges(g: Graph) -> frozenset[Edge]:
    """All edges lying on at least one chordless 4-cycle."""
    out: set[Edge] = set()
    for a in range(g.n):
        for c in range(a + 1, g.n):
            if g.bits[a] >> c & 1:
                continue
            common = g.bits[a] & g.bits[c]
            if not common:
                continue
            cands = list(iter_bits(common))
            for i, b in enumerate(cands):
                for d in cands[i + 1:]:
                    if g.bits[b] >> d & 1:
                        continue
                    out.update((edge(a, b), edge(b, c), edge(c, d), edge(d, a)))
    return frozenset(out)


def forced_edges_initial(g: Graph) -> frozenset[Edge]:
    """Edges that belong to every dominating induced matching of the graph.

    These are the diamond mid edges and butterfly wing edges: a triangle
    takes exactly one matched edge, and the shared structure pins it down.
    """
    forced: set[Edge] = set()
    for w in find_all_diamonds(g):
        forced.add(w.mid_edge)
    for w in find_all_butterflies(g):
        forced.update(w.peripheral_edges)
    return frozenset(forced)


def find_induced_sijk(g: Graph, i: int, j: int, k: int) -> PatternWitness | None:
    """An induced spider with legs of lengths (i, j, k), or None.

    Backtracking over (center, leg prefixes): a vertex may extend a leg only
    if its sole neighbor among the chosen vertices is the current leg tip.
    Legs of equal length are forced into ascending first-vertex order to
    skip symmetric duplicates.
    """
    if min(i, j, k) < 0:
        raise ValueError("leg lengths must be non-negative")
    order = sorted(range(3), key=lambda t: -(i, j, k)[t])
    lengths = [(i, j, k)[t] for t in order]

    if lengths[0] == 0:
        return PatternWitness("spider", (0,)) if g.n else None

    def grow(center: int, chosen_mask: int, legs: list[list[int]], leg_idx: int) -> list[list[int]] | None:
        if leg_idx == len(lengths) or lengths[leg_idx] == 0:
            return legs
        want = lengths[leg_idx]
        floor = -1
        if leg_idx > 0 and lengths[leg_idx - 1] == want:
            floor = legs[leg_idx - 1][0]

        def extend(tip: int, path: list[int], mask: int) -> list[list[int]] | None:
            if len(path) == want:
                result = grow(center, mask, legs + [path], leg_idx + 1)
                return result
            for w in sorted(g.adj[tip]):
                if mask >> w & 1:
                    continue
                if g.bits[w] & mask != 1 << tip:
                    continue
                result = extend(w, path + [w], mask | 1 << w)
                if result is not None:
                    return result
            return None

        for first in sorted(g.adj[center]):
            if first <= floor or chosen_mask >> first & 1:
                continue
            if g.bits[first] & chosen_mask != 1 << center:
                continue
            result = extend(first, [first], chosen_mask | 1 << first)
            if result is not None:
                return result
        return None

    min_degree = sum(1 for t in lengths if t > 0)
    for center in range(g.n):
        if len(g.adj[center]) < min_degree:
            continue
        legs = grow(center, 1 << center, [], 0)
        if legs is not None:
            while len(legs) < 3:
                legs.append([])
            by_role: list[list[int]] = [[], [], []]
            for pos, role in enumerate(order):
                by_role[role] = legs[pos]
            flat = [center]
            for leg in by_role:
                flat.extend(leg)
            return PatternWitness("spider", tuple(flat))
    return None


def verify_witness(g: Graph, w: PatternWitness, spider_legs: tuple[int, int, int] | None = None) -> bool:
    """Re-check a witness against the exact adjacency of its pattern."""
    vs = w.vertices
    if len(set(vs)) != len(vs):
        return False

    def matches(required: set[tuple[int, int]]) -> bool:
        for a, b in combinations(range(len(vs)), 2):
            want = (a, b) in required or (b, a) in required
            if g.has_edge(vs[a], vs[b]) != want:
                return False
        return True

    if w.pattern == "k4":
        return matches({(a, b) for a, b in combinations(range(4), 2)})
    if w.pattern == "diamond":
        return len(vs) == 4 and matches({(0, 1), (1, 2), (0, 3), (2, 3), (1, 3)})
    if w.pattern == "butterfly":
        return len(vs) == 5 and matches({(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)})
    if w.pattern == "gem":
        return len(vs) == 5 and matches({(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)})
    if w.pattern == "c4":
        return len(vs) == 4 and matches({(0, 1), (1, 2), (2, 3), (3, 0)})
    if w.pattern == "spider":
        if spider_legs is None:
            raise ValueError("spider verification needs the intended leg lengths")
        i, j, k = spider_legs
        if len(vs) != 1 + i + j + k:
            return False
        required: set[tuple[int, int]] = set()
        pos = 1
        for length in (i, j, k):
            prev = 0
            for _ in range(length):
                required.add((prev, pos))
                prev = pos
                pos += 1
        return matches(required)
    raise ValueError(f"unknown pattern {w.pattern!r}")
