"""Shared builders and strategies for the test suite."""

from __future__ import annotations

from typing import Optional

from hypothesis import strategies as st

from dimatch.coloring import BLACK, R_WHITE_WHITE, UNSET, WHITE, Coloring, propagate
from dimatch.generate import SplitMix64
from dimatch.graph import Edge, Graph, iter_bits
from dimatch.solver import AnchorSolver


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


def reference_precolored(
    g: Graph,
    coloring: Coloring,
    minimize: bool = False,
) -> Optional[tuple[frozenset[Edge], float]]:
    """Vertex backtracking with :func:`propagate` at every node, kept as the
    test reference of :func:`dimatch.subsolver.solve_precolored`.

    Same contract and result: black vertices end up matched, white ones
    unmatched, excluded edges stay out; with ``minimize`` the cheapest
    completion.  Connected pieces are searched in turn, each depth first,
    WHITE before BLACK, branching on the first uncolored vertex with a
    colored neighbor.
    """
    excluded = frozenset(coloring.excluded)
    state = list(coloring.state)
    # any(state) tests for a colored vertex: UNSET is 0.
    if (excluded or any(state)) and propagate(g, state, excluded, range(g.n)):
        return None
    for comp in g.connected_components():
        vertices = sorted(comp)
        best = _search_piece(g, vertices, state, excluded, minimize)
        if best is None:
            return None
        for v, color in zip(vertices, best):
            state[v] = color
    matching = frozenset(
        e for e in g.edges if state[e[0]] == BLACK and state[e[1]] == BLACK
    )
    return matching, g.matching_weight(matching)


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
) -> Optional[list[int]]:
    """The first (or first cheapest) completion of one piece, given its sorted vertices.

    Returns the completion as the colors of ``vertices``, in order.  The
    search runs on an explicit stack of choice points, each holding its
    branching vertex, the piece's colors when it was reached and the next
    color to try.  It mutates ``state`` on the piece's vertices only.
    """
    edges = [(v, u) for v in vertices for u in g.adj[v] if u > v]
    best: Optional[list[int]] = None
    best_weight = 0.0
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
            state[u] = (WHITE, BLACK)[i]
            if propagate(g, state, excluded, [u]) is None:
                v = _branch_vertex(g, vertices, state)
                break
        else:
            return best


def reference_decompose(self: AnchorSolver) -> None:
    """:meth:`AnchorSolver.decompose` as it was before its one-pass level
    BFS, kept as the test reference of the live method.  Called with an
    anchor solver as ``self``, it recomputes the level state on the alive
    graph and validates the level-1/level-2 structure, whitening level 1
    and blackening the level-2 vertices that survive."""
    g = self.g
    x, y = self.anchor
    if self.anchor in self.excluded:
        self._fail("anchor-excluded")
    for v in (x, y):
        if self.state[v] == WHITE:
            self._fail("anchor-endpoint-white")
        self.state[v] = BLACK

    masks: list[int] = []
    seen = (1 << x) | (1 << y)
    frontier = seen
    while frontier:
        masks.append(frontier)
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= self._adj(v)
        frontier = nxt & ~seen
        seen |= frontier
    lev = [-1] * g.n
    for i, mask in enumerate(masks):
        for v in iter_bits(mask):
            lev[v] = i
    self.lev = lev
    self.level_masks = masks
    self.n3_mask = masks[3] if len(masks) > 3 else 0
    self.deep_mask = 0
    for mask in masks[4:]:
        self.deep_mask |= mask

    white_mask = 0
    for v in iter_bits(self.alive):
        if self.state[v] == WHITE:
            white_mask |= 1 << v

    n1 = masks[1] if len(masks) > 1 else 0
    for v in iter_bits(n1):
        if self.state[v] == BLACK:
            self._fail("level1-black")
        if self._adj(v) & n1:
            self._fail("level1-not-independent")
        self.state[v] = WHITE
        white_mask |= 1 << v

    for v in iter_bits(white_mask):
        if self._adj(v) & white_mask:
            self._fail(R_WHITE_WHITE)

    n2 = masks[2] if len(masks) > 2 else 0
    pairs: list[Edge] = []
    singles: list[int] = []
    for v in iter_bits(n2):
        inner = self._adj(v) & n2
        count = bin(inner).count("1")
        if count > 1:
            self._fail("level2-structure")
        if count == 1:
            partner = (inner & -inner).bit_length() - 1
            if partner > v:
                pairs.append((v, partner))
        else:
            if self.state[v] == WHITE:
                self._fail("level2-white")
            self.state[v] = BLACK
            singles.append(v)

    if self.n3_mask and not self._bipartite(self.n3_mask):
        self._fail("level3-odd-cycle")

    self.pairs = tuple(pairs)
    self.singles = tuple(singles)
    self.pools = {}
    self.pool_owner = {}
    self.shared3 = set()
    if not pairs:
        acc: dict[int, list[int]] = {u: [] for u in singles}
        for t in iter_bits(self.n3_mask):
            parents = self._adj(t) & n2
            count = bin(parents).count("1")
            if count == 1:
                owner = (parents & -parents).bit_length() - 1
                self.pool_owner[t] = owner
                acc[owner].append(t)
            else:
                self.shared3.add(t)
        self.pools = {u: tuple(ts) for u, ts in acc.items()}
