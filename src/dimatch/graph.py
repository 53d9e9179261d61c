"""Immutable simple undirected graphs and the handful of queries everything else needs.

Vertices are dense integers ``0..n-1``.  An edge is always the sorted pair
``(u, v)`` with ``u < v``; use :func:`edge` to normalise.  Adjacency is kept
twice: as frozensets (convenient iteration) and as integer bitmasks (fast
set algebra for the pattern searches and the solver hot paths).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, Mapping

Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised for malformed graph inputs (bad vertex, self-loop, duplicate edge)."""


def edge(u: int, v: int) -> Edge:
    """Normalise an unordered vertex pair to the canonical (min, max) tuple."""
    return (u, v) if u < v else (v, u)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A finite simple undirected graph, immutable after construction.

    ``edges`` is the sorted tuple of canonical edges and ``weights`` maps
    each of them to its weight, finite and non-negative, 1 unless given;
    edge membership is read from ``weights``, the one edge container.
    Adjacency is kept as frozensets (``adj``) and as bitmasks (``bits``).
    An optional ``names`` tuple preserves external vertex labels for
    reporting.
    """

    __slots__ = ("n", "edges", "adj", "bits", "weights", "names")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        weights: Mapping[Edge, float] | None = None,
        names: tuple[str, ...] | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        bits = [0] * n
        w: dict[Edge, float] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in w:
                raise GraphError(f"duplicate edge {e}")
            w[e] = 1
            adj[u].add(v)
            adj[v].add(u)
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        if weights:
            for e, wt in weights.items():
                e = edge(*e)
                if e not in w:
                    raise GraphError(f"weight given for absent edge {e}")
                # wt != wt catches NaN; math.isfinite would overflow on a huge int.
                if wt != wt or wt in (math.inf, -math.inf):
                    raise GraphError(f"non-finite weight on {e}")
                if wt < 0:
                    raise GraphError(f"negative weight on {e}")
                w[e] = wt
        if names is not None and len(names) != n:
            raise GraphError("names tuple must have one entry per vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(w)))
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in adj))
        object.__setattr__(self, "bits", tuple(bits))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "names", names)

    def __setattr__(self, key, value):  # pragma: no cover - guard rail
        raise AttributeError("Graph is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"unknown vertex {v}")

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood of ``v``."""
        self.check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.weights

    def has_edge_canon(self, e: Edge) -> bool:
        return e in self.weights

    def weight(self, e: Edge) -> float:
        return self.weights[edge(*e)]

    def matching_weight(self, matching: Iterable[Edge]) -> float:
        return sum(self.weights[edge(*e)] for e in matching)

    def vertex_name(self, v: int) -> str:
        if self.names is not None:
            return self.names[v]
        return str(v + 1)

    # -- components --------------------------------------------------------

    def connected_components(self) -> tuple[frozenset[int], ...]:
        """Partition of the vertex set into maximal connected pieces."""
        seen = [False] * self.n
        out: list[frozenset[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp = {start}
            seen[start] = True
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for u in self.adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.add(u)
                        queue.append(u)
            out.append(frozenset(comp))
        return tuple(out)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    # -- matchings ---------------------------------------------------------

    def _mate_map(self, matching: Iterable[Edge]) -> dict[int, int] | None:
        """Vertex-to-partner map for a matching; None if edges share vertices."""
        mate: dict[int, int] = {}
        for e in matching:
            u, v = edge(*e)
            if e not in self.weights:
                raise GraphError(f"matching edge {(u, v)} not in graph")
            if u in mate or v in mate:
                return None
            mate[u] = v
            mate[v] = u
        return mate

    def is_induced_matching(self, matching: Iterable[Edge]) -> bool:
        """True iff the matching's endpoints induce exactly the matching itself."""
        mate = self._mate_map(matching)
        if mate is None:
            return False
        for v, partner in mate.items():
            for u in self.adj[v]:
                if u in mate and u != partner:
                    return False
        return True

    def is_dim(self, matching: Iterable[Edge]) -> bool:
        """True iff every edge of the graph touches exactly one matching member."""
        mate = self._mate_map(matching)
        if mate is None:
            return False
        for u, v in self.edges:
            hits = (u in mate) + (v in mate)
            if mate.get(u) == v:
                hits -= 1
            if hits != 1:
                return False
        return True

    # -- subgraphs ----------------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced by ``vertices`` plus the new->old relabeling map."""
        old = sorted(set(vertices))
        for v in old:
            self.check_vertex(v)
        index = {v: i for i, v in enumerate(old)}
        sub_edges: list[Edge] = []
        sub_weights: dict[Edge, float] = {}
        for v in old:
            iv = index[v]
            for u in self.adj[v]:
                if u > v and u in index:
                    e = (iv, index[u])
                    sub_edges.append(e)
                    sub_weights[e] = self.weights[(v, u)]
        names = tuple(self.vertex_name(v) for v in old)
        return Graph(len(old), sub_edges, sub_weights, names), tuple(old)

    def relabel_edges(self, edges_new: Iterable[Edge], old_of_new: tuple[int, ...]) -> frozenset[Edge]:
        """Map edges of an induced subgraph back into this graph's vertex ids."""
        return frozenset(edge(old_of_new[u], old_of_new[v]) for u, v in edges_new)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"
