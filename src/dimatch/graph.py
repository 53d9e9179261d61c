"""Immutable simple undirected graphs and the handful of queries everything else needs.

Vertices are dense integers ``0..n-1``.  An edge is always the sorted pair
``(u, v)`` with ``u < v``; use :func:`edge` to normalise.  A graph is stored
as its sorted edge tuple and its weight map.  Both adjacency forms, integer
bitmasks (``bits``, fast set algebra for the solve paths, the oracle and the
pattern searches) and frozensets (``adj``, for callers that want sets), are
built on first read: a solve that never reads one never builds it.  The
exact route reads neither, and no solve path reads ``adj``: it stays for
callers outside the package, the benchmark among them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised for malformed graph inputs (bad vertex, self-loop, duplicate edge)."""


def edge(u: int, v: int) -> Edge:
    """Normalise an unordered vertex pair to the canonical (min, max) tuple."""
    return (u, v) if u < v else (v, u)


# The set bit positions of every mask below 2**8, in increasing order.
_SMALL_BITS: tuple[tuple[int, ...], ...] = tuple(
    tuple(i for i in range(8) if mask >> i & 1) for mask in range(256)
)


def iter_bits(mask: int) -> Iterable[int]:
    """The set bit positions of ``mask`` in increasing order.

    A mask in ``range(256)`` is answered with a tuple from a precomputed
    table; any other mask gets a generator that peels off the lowest set
    bit.  Callers iterate the result once or copy it.
    """
    if 0 <= mask < 256:
        return _SMALL_BITS[mask]
    return _iter_low_bits(mask)


def _iter_low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A finite simple undirected graph, immutable after construction.

    ``edges`` is the sorted tuple of canonical edges and ``weights`` maps
    each of them to its weight, finite and non-negative, 1 unless given;
    the weights must also sum to a finite float.  Edge membership is read
    from ``weights``, the one edge container.  The adjacency forms ``bits``
    (bitmasks, which the solve and oracle paths read) and ``adj``
    (frozensets) are each built on first read, from ``edges``, and the
    same tuple is returned on every later read.
    An optional ``names`` tuple preserves external vertex labels for
    reporting.
    """

    # ``adj`` and ``bits`` stay unset until read; __getattr__ fills them.
    __slots__ = ("n", "edges", "weights", "names", "adj", "bits")
    adj: tuple[frozenset[int], ...]
    bits: tuple[int, ...]

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        weights: Mapping[Edge, float] | None = None,
        names: tuple[str, ...] | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
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
            # Solvers report weights as floats, so any sum of weights must be one.
            try:
                math.fsum(w.values())
            except OverflowError as exc:
                raise GraphError("total edge weight exceeds the float range") from exc
        if names is not None and len(names) != n:
            raise GraphError("names tuple must have one entry per vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(w)))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "names", names)

    def __getattr__(self, name: str):
        # Called only when normal lookup fails, so for ``adj`` and ``bits``
        # only on their first read; every later read is a plain slot read.
        if name == "bits":
            # Bit u of bits[v] is set iff uv is an edge.
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            value = tuple(masks)
        elif name == "adj":
            # The edges are sorted, so each list fills in increasing order.
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            value = tuple(map(frozenset, nbrs))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, key, value):  # pragma: no cover - guard rail
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the graph through __init__: restoring the
        # slots one by one would run into the guard above.
        return type(self), (self.n, self.edges, self.weights, self.names)

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"unknown vertex {v}")

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

    def _roots(self) -> list[int]:
        """``root[v]``: the least vertex of v's connected piece.

        One union-find pass over ``edges``.  A union hangs the larger root
        under the smaller and path halving only moves a vertex closer to its
        root, so every parent is at most its child; the final pass, in
        increasing order, finds each parent already resolved.
        """
        parent = list(range(self.n))
        for u, v in self.edges:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u < v:
                parent[v] = u
            elif v < u:
                parent[u] = v
        for v, p in enumerate(parent):
            parent[v] = parent[p]
        return parent

    def connected_components(self) -> tuple[frozenset[int], ...]:
        """Partition of the vertex set into maximal connected pieces, by least vertex.

        Read off :meth:`_roots`, which the exact search reads directly.
        """
        pieces: dict[int, list[int]] = {}
        for v, root in enumerate(self._roots()):
            # A root is the least vertex of its piece, so it is met first.
            if root == v:
                pieces[v] = [v]
            else:
                pieces[root].append(v)
        return tuple(map(frozenset, pieces.values()))

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    # -- matchings ---------------------------------------------------------

    def is_dim(self, matching: Iterable[Edge]) -> bool:
        """True iff every edge of the graph touches exactly one matching member."""
        # mate[v]: v's partner in the matching, -1 while v is unmatched.
        mate = [-1] * self.n
        weights = self.weights
        for u, v in matching:
            if u > v:
                u, v = v, u
            if (u, v) not in weights:
                raise GraphError(f"matching edge {(u, v)} not in graph")
            if mate[u] >= 0 or mate[v] >= 0:
                return False
            mate[u] = v
            mate[v] = u
        # An edge with both ends matched must itself be a matching edge.
        for u, v in self.edges:
            partner = mate[u]
            if partner >= 0:
                if partner != v and mate[v] >= 0:
                    return False
            elif mate[v] < 0:
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
        keep = 0
        for v in old:
            keep |= 1 << v
        bits = self.bits
        for v in old:
            iv = index[v]
            for u in iter_bits(bits[v] & keep >> (v + 1) << (v + 1)):
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
