"""Black/white vertex colorings and the reductions that drive the solver.

Black marks a vertex that must be matched, white one that must stay
unmatched.  A partial coloring is feasible while the white vertices form an
independent set and no black vertex sees two black vertices; a complete
coloring is feasible when every black vertex sees exactly one black vertex,
at which point the black-black edges are exactly a dominating induced
matching.

`propagate` is the shared worklist closure over those semantics; the
C-reductions and `forced_edge_closure` perform the graph surgery that keeps
committed matched pairs out of the working graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from . import patterns
from .graph import Edge, Graph, GraphError, edge

UNSET = 0
BLACK = 1
WHITE = 2

# Contradiction reason codes, shared across the engine and the solver.
R_SHARED_VERTEX = "shared-vertex"
R_DISTANCE_ONE = "distance-1"
R_WHITE_WHITE = "white-adjacent-white"
R_TWO_BLACK = "black-two-black-neighbors"
R_NO_MATE = "black-no-mate"
R_EXCLUDED_PAIR = "excluded-black-pair"
R_WHITE_COMMITTED = "white-endpoint-committed"


class Coloring:
    """Per-vertex color state plus excluded-edge and committed-edge bookkeeping.

    ``committed`` records matched pairs in the coordinates of the graph they
    were committed in; reductions that delete vertices keep the record even
    though the endpoints leave the working graph.
    """

    __slots__ = ("state", "excluded", "committed")

    def __init__(
        self,
        state: Sequence[int],
        excluded: Iterable[Edge] = (),
        committed: Iterable[Edge] = (),
    ) -> None:
        self.state = list(state)
        self.excluded = {edge(*e) for e in excluded}
        self.committed = [edge(*e) for e in committed]

    @classmethod
    def fresh(cls, n: int) -> "Coloring":
        return cls([UNSET] * n)

    def copy(self) -> "Coloring":
        return Coloring(self.state, self.excluded, self.committed)

    def color(self, v: int) -> int:
        return self.state[v]

    def blacks(self) -> list[int]:
        return [v for v, c in enumerate(self.state) if c == BLACK]

    def whites(self) -> list[int]:
        return [v for v, c in enumerate(self.state) if c == WHITE]

    def is_complete(self) -> bool:
        return UNSET not in self.state

    def feasible_partial(self, g: Graph) -> bool:
        """Whites independent and every black vertex has at most one black neighbor."""
        for v, c in enumerate(self.state):
            if c == WHITE:
                if any(self.state[u] == WHITE for u in g.adj[v]):
                    return False
            elif c == BLACK:
                if sum(1 for u in g.adj[v] if self.state[u] == BLACK) > 1:
                    return False
        return True

    def feasible_complete(self, g: Graph) -> bool:
        """Complete coloring in which every black vertex has exactly one black neighbor."""
        if not self.is_complete():
            return False
        for v, c in enumerate(self.state):
            if c == WHITE:
                if any(self.state[u] == WHITE for u in g.adj[v]):
                    return False
            else:
                if sum(1 for u in g.adj[v] if self.state[u] == BLACK) != 1:
                    return False
        return True

    def matched_pairs(self, g: Graph) -> frozenset[Edge]:
        """The black-black edges; for a feasible complete coloring this is the d.i.m."""
        return frozenset(
            e for e in g.edges if self.state[e[0]] == BLACK and self.state[e[1]] == BLACK
        )


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of a reduction: either a smaller (graph, coloring) pair or a contradiction.

    ``provenance`` maps the new graph's vertex ids back to the input graph's.
    On contradiction only ``reason`` is populated.
    """

    ok: bool
    reason: str | None = None
    graph: Graph | None = None
    coloring: Coloring | None = None
    provenance: tuple[int, ...] | None = None

    @classmethod
    def contradiction(cls, reason: str) -> "ReductionOutcome":
        return cls(ok=False, reason=reason)


def propagate(
    g: Graph,
    state: list[int],
    excluded: set[Edge] | frozenset[Edge],
    queue: Iterable[int],
) -> str | None:
    """Close a partial coloring under the forcing rules; return a reason on contradiction.

    Rules applied to fixpoint, each a direct consequence of the complete
    feasible coloring semantics:
      * a white vertex forces all its neighbors black;
      * two adjacent black vertices are mates, so their other neighbors
        turn white, and the mate edge must not be excluded;
      * a black vertex with no black neighbor and a single viable mate
        candidate forces that candidate black;
      * an edge excluded from the matching whitens the far endpoint once
        the near one is black.
    Callers queue the vertices they colored since the last fixpoint; the
    colored neighborhood of each queued vertex is re-examined as well, since
    its constraints may have tightened.  Mutates ``state`` in place.
    """
    adj = g.adj
    work: list[int] = []
    pending: set[int] = set()

    def push(v: int) -> None:
        if v not in pending:
            pending.add(v)
            work.append(v)

    for v in queue:
        push(v)
        for u in adj[v]:
            if state[u] != UNSET:
                push(u)

    def assign(v: int, color: int) -> str | None:
        if state[v] == color:
            return None
        if state[v] != UNSET:
            return R_WHITE_WHITE if color == WHITE else R_TWO_BLACK
        state[v] = color
        push(v)
        for u in adj[v]:
            if state[u] != UNSET:
                push(u)
        return None

    while work:
        v = work.pop()
        pending.discard(v)
        c = state[v]
        if c == WHITE:
            for u in adj[v]:
                if state[u] == WHITE:
                    return R_WHITE_WHITE
                if state[u] == UNSET:
                    bad = assign(u, BLACK)
                    if bad:
                        return bad
        elif c == BLACK:
            mate = -1
            for u in adj[v]:
                if state[u] == BLACK:
                    if mate >= 0:
                        return R_TWO_BLACK
                    mate = u
            if mate >= 0:
                if edge(v, mate) in excluded:
                    return R_EXCLUDED_PAIR
                for u in adj[v]:
                    if u != mate and state[u] == UNSET:
                        bad = assign(u, WHITE)
                        if bad:
                            return bad
            else:
                candidate = -1
                count = 0
                for u in adj[v]:
                    if state[u] != UNSET:
                        continue
                    if edge(v, u) in excluded:
                        bad = assign(u, WHITE)
                        if bad:
                            return bad
                        continue
                    candidate = u
                    count += 1
                if count == 0:
                    return R_NO_MATE
                if count == 1:
                    bad = assign(candidate, BLACK)
                    if bad:
                        return bad
    return None


def _feasibility_reason(g: Graph, state: Sequence[int]) -> str | None:
    """Reason the partial coloring is infeasible on g, or None when it is fine."""
    for v, c in enumerate(state):
        if c == WHITE:
            if any(state[u] == WHITE for u in g.adj[v]):
                return R_WHITE_WHITE
        elif c == BLACK:
            if sum(1 for u in g.adj[v] if state[u] == BLACK) > 1:
                return R_TWO_BLACK
    return None


def _committed_conflict(g: Graph, committed: Iterable[Edge], vw: Edge) -> str | None:
    """Induced-matching check of vw against committed edges still present in g."""
    v, w = vw
    for m in committed:
        a, b = m
        if a >= g.n or b >= g.n or not g.has_edge_canon(m):
            continue
        if v in m or w in m:
            return R_SHARED_VERTEX
        if g.has_edge(v, a) or g.has_edge(v, b) or g.has_edge(w, a) or g.has_edge(w, b):
            return R_DISTANCE_ONE
    return None


def restrict(
    g: Graph,
    vertices: Collection[int],
    state: Sequence[int],
    excluded: Iterable[Edge],
    committed: Iterable[Edge] = (),
) -> tuple[Graph, Coloring, tuple[int, ...]]:
    """The piece of a colored graph induced by a vertex set, relabeled densely.

    Returns the piece, its coloring and the new->old vertex map.  The
    coloring carries the states of the kept vertices and the excluded edges
    inside the piece, in the piece's ids; ``committed`` passes through as
    given.  ``vertices`` must hold distinct vertices of ``g``; when it holds
    all of them, ``g`` itself is returned rather than a copy.
    """
    if len(vertices) == g.n:
        return g, Coloring(state, excluded, committed), tuple(range(g.n))
    sub, old_of_new = g.induced_subgraph(vertices)
    new_of_old = {v: i for i, v in enumerate(old_of_new)}
    sub_excluded = [
        (new_of_old[a], new_of_old[b])
        for a, b in excluded
        if a in new_of_old and b in new_of_old
    ]
    col = Coloring([state[v] for v in old_of_new], sub_excluded, committed)
    return sub, col, old_of_new


def reduction_step(g: Graph, coloring: Coloring, vw: Edge) -> ReductionOutcome:
    """Commit a forced edge: delete its endpoints, exclude surviving edges at distance 1.

    Contradiction when the committed set plus ``vw`` is no longer an induced
    matching, when ``vw`` is itself excluded, or when an endpoint was forced
    unmatched earlier.
    """
    vw = edge(*vw)
    if not g.has_edge_canon(vw):
        raise GraphError(f"edge {vw} not in graph")
    v, w = vw
    if vw in coloring.excluded:
        return ReductionOutcome.contradiction(R_DISTANCE_ONE)
    if coloring.state[v] == WHITE or coloring.state[w] == WHITE:
        return ReductionOutcome.contradiction(R_WHITE_COMMITTED)
    conflict = _committed_conflict(g, coloring.committed, vw)
    if conflict:
        return ReductionOutcome.contradiction(conflict)
    boundary = (g.adj[v] | g.adj[w]) - {v, w}
    dropped = {v, w}
    new_excluded = set(coloring.excluded)
    for z in boundary:
        for t in g.adj[z]:
            if t not in dropped:
                new_excluded.add(edge(z, t))
    keep = [u for u in range(g.n) if u not in dropped]
    return ReductionOutcome(
        True, None, *restrict(g, keep, coloring.state, new_excluded, coloring.committed + [vw])
    )


def vertex_c_reduction(g: Graph, coloring: Coloring, u: int) -> ReductionOutcome:
    """Remove a white vertex after forcing all of its neighbors black."""
    g.check_vertex(u)
    if coloring.state[u] != WHITE:
        raise GraphError(f"vertex {u} must be white for this reduction")
    state = list(coloring.state)
    for z in g.adj[u]:
        if state[z] == WHITE:
            return ReductionOutcome.contradiction(R_WHITE_WHITE)
        state[z] = BLACK
    keep = [x for x in range(g.n) if x != u]
    outcome = ReductionOutcome(
        True, None, *restrict(g, keep, state, coloring.excluded, coloring.committed)
    )
    reason = _feasibility_reason(outcome.graph, outcome.coloring.state)
    if reason:
        return ReductionOutcome.contradiction(reason)
    return outcome


def edge_c_reduction(g: Graph, coloring: Coloring, uw: Edge) -> ReductionOutcome:
    """Seal a black pair into the matching: whiten its neighborhood, delete the pair."""
    uw = edge(*uw)
    if not g.has_edge_canon(uw):
        raise GraphError(f"edge {uw} not in graph")
    u, w = uw
    if uw in coloring.excluded:
        return ReductionOutcome.contradiction(R_DISTANCE_ONE)
    if coloring.state[u] == WHITE or coloring.state[w] == WHITE:
        return ReductionOutcome.contradiction(R_WHITE_COMMITTED)
    conflict = _committed_conflict(g, coloring.committed, uw)
    if conflict:
        return ReductionOutcome.contradiction(conflict)
    state = list(coloring.state)
    state[u] = BLACK
    state[w] = BLACK
    for z in (g.adj[u] | g.adj[w]) - {u, w}:
        if state[z] == BLACK:
            return ReductionOutcome.contradiction(R_TWO_BLACK)
        state[z] = WHITE
    keep = [x for x in range(g.n) if x not in (u, w)]
    outcome = ReductionOutcome(
        True, None, *restrict(g, keep, state, coloring.excluded, coloring.committed + [uw])
    )
    reason = _feasibility_reason(outcome.graph, outcome.coloring.state)
    if reason:
        return ReductionOutcome.contradiction(reason)
    return outcome


def forced_edge_closure(
    g: Graph,
    seeds: Iterable[Edge],
    coloring: Coloring | None = None,
) -> ReductionOutcome:
    """Commit a forced edge set, then rescan the residual for more forced edges.

    Processes the seeds in the given order (callers wanting determinism pass
    a sorted sequence), applying the same surgery as :func:`reduction_step`
    and the neighbor whitening of :func:`edge_c_reduction`, then rescans the
    residual graph for diamonds and butterflies until none are left.  On
    success the residual graph is diamond- and butterfly-free.

    Committed edges in the outcome are expressed in the coordinates of the
    input graph.
    """
    col = coloring.copy() if coloring is not None else Coloring.fresh(g.n)
    state = list(col.state)
    excluded = set(col.excluded)
    committed = list(col.committed)
    alive = set(range(g.n))
    committed_set = {edge(*e) for e in committed}
    pending = [edge(*e) for e in seeds]

    while True:
        for vw in pending:
            if vw in committed_set:
                continue
            v, w = vw
            if v not in alive or w not in alive:
                return ReductionOutcome.contradiction(R_SHARED_VERTEX)
            if vw in excluded:
                return ReductionOutcome.contradiction(R_DISTANCE_ONE)
            if state[v] == WHITE or state[w] == WHITE:
                return ReductionOutcome.contradiction(R_WHITE_COMMITTED)
            boundary = [z for z in (g.adj[v] | g.adj[w]) if z in alive and z not in vw]
            for z in boundary:
                if state[z] == BLACK:
                    return ReductionOutcome.contradiction(R_TWO_BLACK)
                state[z] = WHITE
                for t in g.adj[z]:
                    if t in alive and t not in vw:
                        excluded.add(edge(z, t))
            alive.discard(v)
            alive.discard(w)
            for z in boundary:
                if any(t in alive and state[t] == WHITE for t in g.adj[z] if t != z):
                    return ReductionOutcome.contradiction(R_WHITE_WHITE)
            committed.append(vw)
            committed_set.add(vw)
        residual, residual_col, old_of_new = restrict(g, alive, state, excluded, committed)
        fresh = patterns.forced_edges_initial(residual)
        pending = sorted(
            residual.relabel_edges(fresh, old_of_new) - committed_set
        )
        if not pending:
            return ReductionOutcome(True, None, residual, residual_col, old_of_new)
