"""Shared builders and strategies for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from dimatch.generate import SplitMix64
from dimatch.graph import Graph


def path(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = {(u + a.n, v + a.n): w for (u, v), w in b.weights.items()}
    return Graph(a.n + b.n, list(a.edges) + list(shifted), {**a.weights, **shifted})


# solve() keyword sets for its two routes: the structural pipeline, and the
# default dispatch that runs the exact search first.
ROUTES = ({"structural": True}, {})


def degree2_block(rng: SplitMix64, pairs: int, whites: int) -> Graph:
    """Off-class block: matched pairs 2i, 2i+1 plus white vertices of degree two,
    each joined to one end of two different pairs.  The pairs form a DIM."""
    n = 2 * pairs + whites
    edges = [(2 * i, 2 * i + 1) for i in range(pairs)]
    for w in range(2 * pairs, n):
        a = rng.randrange(pairs)
        b = rng.randrange(pairs - 1)
        b += b >= a
        for p in (a, b):
            edges.append((2 * p + rng.randrange(2), w))
    return Graph(n, edges)


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@st.composite
def small_graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    top = 1 << (n * (n - 1) // 2)
    mask = draw(st.integers(min_value=0, max_value=top - 1))
    return graph_from_mask(n, mask)


@st.composite
def small_connected_graphs(draw, min_n: int = 2, max_n: int = 8) -> Graph:
    from hypothesis import assume

    g = draw(small_graphs(min_n=min_n, max_n=max_n))
    assume(g.is_connected())
    return g
