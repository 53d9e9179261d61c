"""Induced-subgraph detection with explicit witnesses.

The fixed family covered here: the 4-clique, the 4-clique minus one edge
("diamond"), the two-triangles-sharing-a-vertex graph ("butterfly"), the
dominated path on four vertices ("gem"), the edges on chordless 4-cycles,
and the parametric three-legged spider ``S(i, j, k)`` (a center vertex with
three induced paths of the given lengths attached, nothing else).

Every witness carries its vertices in a fixed role order so the calling code
can read off forced edges without re-deriving roles.  The shapes in that
order (`SHAPES` and the path, cycle and spider edge lists) live here too.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .graph import Edge, Graph, edge, iter_bits


class PatternWitness(NamedTuple):
    """A named induced pattern plus the vertices that realise it.

    An immutable named tuple, read by field.

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


def path_edges(k: int) -> list[Edge]:
    """The path 0 - 1 - ... - (k - 1), as canonical edges."""
    return [(i, i + 1) for i in range(k - 1)]


def cycle_edges(k: int) -> list[Edge]:
    """The cycle 0 - 1 - ... - (k - 1) - 0, as canonical edges."""
    return path_edges(k) + [(0, k - 1)]


def spider_edges(i: int, j: int, k: int) -> tuple[int, list[Edge]]:
    """The spider S(i, j, k) in witness role order: its vertex count and
    canonical edges."""
    edges: list[Edge] = []
    pos = 1
    for length in (i, j, k):
        prev = 0
        for _ in range(length):
            edges.append((prev, pos))
            prev = pos
            pos += 1
    return pos, edges


# The fixed patterns as (vertex count, canonical edges), vertices in the
# role order of ``PatternWitness``.
SHAPES: dict[str, tuple[int, tuple[Edge, ...]]] = {
    "k4": (4, tuple(combinations(range(4), 2))),
    "diamond": (4, ((0, 1), (1, 2), (0, 3), (1, 3), (2, 3))),
    "butterfly": (5, ((0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4))),
    "gem": (5, (*path_edges(4), (0, 4), (1, 4), (2, 4), (3, 4))),
    "c4": (4, tuple(cycle_edges(4))),
}


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
    bits = g.bits
    out: list[PatternWitness] = []
    for p, q in g.edges:
        common = bits[p] & bits[q]
        if not common:
            continue
        cands = list(iter_bits(common))
        for i, a in enumerate(cands):
            for b in cands[i + 1:]:
                if not bits[a] >> b & 1:
                    out.append(PatternWitness("diamond", (a, p, b, q)))
    return out


def find_all_butterflies(g: Graph) -> list[PatternWitness]:
    """Every induced butterfly, one witness per 5-vertex occurrence."""
    bits = g.bits
    out: list[PatternWitness] = []
    for u, bu in enumerate(bits):
        if bu.bit_count() < 4:
            continue
        nb = list(iter_bits(bu))
        wings = [(a, b) for a, b in combinations(nb, 2) if bits[a] >> b & 1]
        for (a, b), (c, d) in combinations(wings, 2):
            if len({a, b, c, d}) < 4:
                continue
            cross = (bits[a] | bits[b]) & ((1 << c) | (1 << d))
            if cross:
                continue
            out.append(PatternWitness("butterfly", (a, b, c, d, u)))
    return out


def find_gem(g: Graph) -> PatternWitness | None:
    """First induced gem (a 4-vertex path plus a vertex seeing all of it)."""
    bits = g.bits
    for u, bu in enumerate(bits):
        if bu.bit_count() < 4:
            continue
        nb = list(iter_bits(bu))
        for p2, p3 in combinations(nb, 2):
            if not bits[p2] >> p3 & 1:
                continue
            for p1 in nb:
                if p1 in (p2, p3) or not bits[p1] >> p2 & 1 or bits[p1] >> p3 & 1:
                    continue
                for p4 in nb:
                    if p4 in (p1, p2, p3):
                        continue
                    if (
                        bits[p4] >> p3 & 1
                        and not bits[p4] >> p2 & 1
                        and not bits[p4] >> p1 & 1
                    ):
                        return PatternWitness("gem", (p1, p2, p3, p4, u))
    return None


def c4_edges(g: Graph) -> frozenset[Edge]:
    """All edges lying on at least one chordless 4-cycle."""
    bits = g.bits
    out: set[Edge] = set()
    for a in range(g.n):
        for c in range(a + 1, g.n):
            if bits[a] >> c & 1:
                continue
            common = bits[a] & bits[c]
            if not common:
                continue
            cands = list(iter_bits(common))
            for i, b in enumerate(cands):
                for d in cands[i + 1:]:
                    if bits[b] >> d & 1:
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
    bits = g.bits

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
            for w in iter_bits(bits[tip]):
                if mask >> w & 1:
                    continue
                if bits[w] & mask != 1 << tip:
                    continue
                result = extend(w, path + [w], mask | 1 << w)
                if result is not None:
                    return result
            return None

        for first in iter_bits(bits[center]):
            if first <= floor or chosen_mask >> first & 1:
                continue
            if bits[first] & chosen_mask != 1 << center:
                continue
            result = extend(first, [first], chosen_mask | 1 << first)
            if result is not None:
                return result
        return None

    min_degree = sum(1 for t in lengths if t > 0)
    for center in range(g.n):
        if bits[center].bit_count() < min_degree:
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
    """Re-check a witness against the exact adjacency of its pattern: as
    many distinct vertices as its shape has (a spider's has legs
    ``spider_legs``), adjacent exactly where their roles are."""
    vs = w.vertices
    if len(set(vs)) != len(vs):
        return False
    if w.pattern == "spider":
        if spider_legs is None:
            raise ValueError("spider verification needs the intended leg lengths")
        n, edges = spider_edges(*spider_legs)
    elif w.pattern in SHAPES:
        n, edges = SHAPES[w.pattern]
    else:
        raise ValueError(f"unknown pattern {w.pattern!r}")
    if len(vs) != n:
        return False
    required = set(edges)
    return all(
        g.has_edge(vs[a], vs[b]) == ((a, b) in required) for a, b in combinations(range(n), 2)
    )
