"""Shared builders and strategies for the test suite."""

from __future__ import annotations

import gc
from typing import Iterable

from hypothesis import strategies as st

from dimatch.coloring import BLACK, R_WHITE_WHITE, UNSET, WHITE
from dimatch.generate import SplitMix64
from dimatch.graph import Edge, Graph, edge, iter_bits
from dimatch.oracle import oracle_solve
from dimatch.solver import AnchorContradiction, AnchorSolver, ComponentTask


def path(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = {(u + a.n, v + a.n): w for (u, v), w in b.weights.items()}
    return Graph(a.n + b.n, list(a.edges) + list(shifted), {**a.weights, **shifted})


def is_induced_matching(g: Graph, matching: Iterable[Edge]) -> bool:
    """Test reference: True iff the matching's endpoints induce exactly the
    matching itself, read off ``g.bits``.  Edges may come in either vertex
    order."""
    pairs = [edge(u, v) for u, v in matching]
    ends = [v for e in pairs for v in e]
    if len(ends) != len(set(ends)):
        return False
    matched = 0
    for v in ends:
        matched |= 1 << v
    bits = g.bits
    return all(bits[u] & matched == 1 << v and bits[v] & matched == 1 << u for u, v in pairs)


def oracle_forced_edges(g: Graph) -> frozenset[Edge]:
    """Test reference: the intersection of all dominating induced matchings
    (empty when none exist)."""
    result = oracle_solve(g, mode="enumerate")
    if not result.feasible or not result.all_dims:
        return frozenset()
    forced = set(result.all_dims[0])
    for mm in result.all_dims[1:]:
        forced &= mm
        if not forced:
            break
    return frozenset(forced)


def held_before_read(g: Graph, name: str) -> bool:
    """Whether ``g`` held its adjacency form ``name`` (``adj`` or ``bits``)
    before this read, which builds it if it was not.

    A graph references what it holds, whatever the attribute is stored in.
    Needs ``g.n >= 1``: with no vertex a form is the shared empty tuple.
    """
    held = gc.get_referents(g)
    form = getattr(g, name)
    return any(obj is form for obj in held)


# solve() keyword sets for its two routes: the structural pipeline, and the
# default dispatch that runs the exact search first.
ROUTES = ({"structural": True}, {})


# In-class inputs found by hill-climbing: connected, K4-free and
# S(1,2,4)-free.  TRIP30 trips the exact route's node budget, and the
# forced-edge closure alone refutes it.  FREE4 has a DIM of 6 edges, and
# its first anchor reaches classify_components with four free components.
TRIP30 = Graph(30, [
    (0, 11), (1, 12), (1, 22), (1, 23), (1, 24), (1, 28), (2, 7), (2, 9), (2, 10), (2, 21),
    (2, 26), (2, 27), (3, 5), (4, 9), (4, 15), (4, 16), (4, 20), (4, 27), (5, 6), (5, 13),
    (5, 17), (5, 18), (7, 8), (7, 16), (7, 19), (7, 20), (8, 9), (8, 10), (8, 20), (8, 21),
    (8, 27), (9, 10), (9, 12), (9, 13), (9, 14), (9, 15), (9, 16), (9, 21), (9, 26), (9, 27),
    (10, 15), (10, 16), (10, 19), (11, 14), (11, 25), (11, 29), (15, 21), (15, 26), (16, 19),
    (16, 26), (19, 20), (19, 21), (19, 26), (20, 21), (20, 26), (20, 27),
])
FREE4 = Graph(20, [
    (0, 4), (0, 6), (0, 17), (0, 19), (1, 4), (1, 7), (1, 14), (2, 9), (2, 18), (3, 4), (3, 7),
    (3, 12), (3, 13), (3, 17), (4, 14), (4, 16), (4, 18), (5, 8), (5, 15), (5, 17), (6, 19),
    (7, 14), (7, 16), (7, 18), (8, 15), (9, 18), (10, 11), (10, 16), (11, 16), (12, 13),
    (14, 17), (16, 17), (17, 18),
])


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


def _numbering_pair() -> tuple[Graph, Graph]:
    """The 20th block of ``degree2_block(SplitMix64(11), 50, 50)``, and the
    same block with each vertex v renamed ``perm[v]``, where ``perm`` is
    ``range(150)`` shuffled by ``SplitMix64(1004)``."""
    rng = SplitMix64(11)
    for _ in range(20):
        block = degree2_block(rng, 50, 50)
    perm = list(range(block.n))
    SplitMix64(1004).shuffle(perm)
    return block, Graph(block.n, [(perm[u], perm[v]) for u, v in block.edges])


# An off-class input (n = 150, unit weights) whose min-weight verdict on the
# default route depends on the vertex numbering: BLOCK19 answers found (50)
# through the exact search, while BLOCK19_S4 trips the search's node budget
# and the structural route answers class_violation with a spider witness.
BLOCK19, BLOCK19_S4 = _numbering_pair()


def budget_trip_block() -> Graph:
    """A degree-2 block with one planted pair edge removed (n = 450): the
    exact route's cover search needs more than its budget in both modes,
    and the structural route finds more than three coupled components."""
    block = degree2_block(SplitMix64(8), 150, 150)
    return Graph(block.n, [e for e in block.edges if e != (0, 1)])


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


def reference_decompose(self: AnchorSolver) -> None:
    """:meth:`AnchorSolver.decompose` as it was before its one-pass level
    BFS, kept as the test reference of the live method.  Called with an
    anchor solver as ``self``, it recomputes the level state on the alive
    graph and validates the level-1/level-2 structure, whitening level 1
    and blackening the level-2 vertices that survive."""
    x, y = self.anchor
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
        if self._adj(v) & n1:
            raise AnchorContradiction("level1-not-independent")
        self.state[v] = WHITE
        white_mask |= 1 << v

    for v in iter_bits(white_mask):
        if self._adj(v) & white_mask:
            raise AnchorContradiction(R_WHITE_WHITE)

    n2 = masks[2] if len(masks) > 2 else 0
    pairs: list[Edge] = []
    singles: list[int] = []
    for v in iter_bits(n2):
        inner = self._adj(v) & n2
        count = bin(inner).count("1")
        if count > 1:
            raise AnchorContradiction("level2-structure")
        if count == 1:
            partner = (inner & -inner).bit_length() - 1
            if partner > v:
                pairs.append((v, partner))
        else:
            self.state[v] = BLACK
            singles.append(v)

    if self.n3_mask and not reference_bipartite(self, self.n3_mask):
        raise AnchorContradiction("level3-odd-cycle")

    self.pairs = tuple(pairs)
    self.singles = tuple(singles)
    self.pools = {}
    self.shared_mask = 0
    if not pairs:
        self.pools = {u: 0 for u in singles}
        for t in iter_bits(self.n3_mask):
            parents = self._adj(t) & n2
            count = bin(parents).count("1")
            if count == 1:
                owner = (parents & -parents).bit_length() - 1
                self.pools[owner] |= 1 << t
            else:
                self.shared_mask |= 1 << t


def reference_bipartite(self: AnchorSolver, mask: int) -> bool:
    """:meth:`AnchorSolver._bipartite` as it was before its mask layering,
    kept as the test reference of the live method: whether the alive graph
    on ``mask`` is 2-colourable, by a depth-first colouring held in a dict."""
    color: dict[int, int] = {}
    for start in iter_bits(mask):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in iter_bits(self._adj(v) & mask):
                if u not in color:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def reference_classify(
    self: AnchorSolver,
) -> tuple[list[ComponentTask], list[ComponentTask]]:
    """:meth:`AnchorSolver.classify_components` as it was before it called
    ``graph._bfs_layers``, kept as the test reference of the live method:
    each component of the singles and their pools is flooded from its least
    single by a depth-first stack."""
    struct_mask = 0
    for u in self.singles:
        struct_mask |= 1 << u | self.pools[u]
    seen = 0
    free: list[ComponentTask] = []
    coupled: list[ComponentTask] = []
    for start in sorted(self.singles):
        if seen >> start & 1:
            continue
        comp = 1 << start
        stack = [start]
        while stack:
            v = stack.pop()
            for u in iter_bits(self._adj(v) & struct_mask & ~comp):
                comp |= 1 << u
                stack.append(u)
        seen |= comp
        singles = tuple(u for u in self.singles if comp >> u & 1)
        coupled_flag = False
        for t in iter_bits(comp & self.n3_mask):
            deep_nb = self._adj(t) & self.deep_mask
            if any(self.state[z] == UNSET for z in iter_bits(deep_nb)):
                coupled_flag = True
                break
        seeds = tuple(t for t in iter_bits(self.pools[singles[0]]) if self.state[t] == UNSET)
        task = ComponentTask(singles=singles, seeds=seeds)
        (coupled if coupled_flag else free).append(task)
    if len(coupled) > 3:
        self._check_failed("more than three coupled components")
    return free, coupled
