"""Black/white vertex colorings and the commit surgery that drives the solver.

Black marks a vertex that must be matched, white one that must stay
unmatched.  A partial coloring is feasible while the white vertices form an
independent set and no black vertex sees two black vertices; a complete
coloring is feasible when every black vertex sees exactly one black vertex,
at which point the black-black edges are exactly a dominating induced
matching.

A coloring is a state list, one color per vertex, and nothing else: a
precoloring never names edges.  `Coloring` wraps a state list for the
sub-solver protocol.

`propagate` is the shared worklist closure over those semantics, on the
subgraph an alive bitmask induces, read from ``Graph.bits``.
`commit_pair` is the one implementation of committing a matched pair: it
whitens the pair's alive neighbors, which rules out every edge at distance 1
from the pair, since a white vertex never changes color.  The anchor solver
and `forced_edge_closure` both commit through it, and the state list is
their one record of which vertices are white.  Nothing here builds a graph:
the closure answers with an alive bitmask and a state list over its input.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .graph import Edge, Graph, edge, iter_bits

UNSET = 0
BLACK = 1
WHITE = 2

# Contradiction reason codes, shared across the engine and the solver.
R_SHARED_VERTEX = "shared-vertex"
R_DISTANCE_ONE = "distance-1"
R_WHITE_WHITE = "white-adjacent-white"
R_TWO_BLACK = "black-two-black-neighbors"
R_NO_MATE = "black-no-mate"


class Coloring:
    """Per-vertex color state, the precoloring a sub-solver is handed.

    The structural route passes plain state lists and wraps one in a
    ``Coloring`` only where it hands a piece to the sub-solver.
    """

    __slots__ = ("state",)

    def __init__(self, state: Sequence[int]) -> None:
        self.state = list(state)

    @classmethod
    def fresh(cls, n: int) -> "Coloring":
        return cls([UNSET] * n)


class ReductionOutcome(NamedTuple):
    """Result of the forced-edge closure: the residual's mask and colors, or a contradiction.

    An immutable named tuple, read by field, in the input graph's ids.
    ``alive`` masks the uncommitted vertices, which induce the residual.
    ``state`` colors every input vertex: committed endpoints are black, and
    the whites are the vertices the commits whitened.  ``committed`` lists
    the committed pairs in commit order.  On contradiction only ``reason``
    is populated.
    """

    ok: bool
    reason: str | None = None
    state: list[int] | None = None
    alive: int | None = None
    committed: list[Edge] | None = None

    @classmethod
    def contradiction(cls, reason: str) -> "ReductionOutcome":
        return cls(ok=False, reason=reason)


def propagate(g: Graph, state: list[int], queue: Iterable[int], alive: int) -> str | None:
    """Close a partial coloring under the forcing rules; return a reason on contradiction.

    Works on the graph induced by ``alive``, a bitmask of vertices of ``g``:
    a vertex's neighbors are read as ``g.bits[v] & alive``, in increasing
    order, and the queued vertices must be alive.  Rules applied to
    fixpoint, each a direct consequence of the complete feasible coloring
    semantics:
      * a white vertex forces all its neighbors black;
      * two adjacent black vertices are mates, so their other neighbors
        turn white;
      * a black vertex with no black neighbor and a single uncolored
        neighbor forces that neighbor black.
    Callers queue the vertices they colored since the last fixpoint; the
    colored neighborhood of each queued vertex is re-examined as well, since
    its constraints may have tightened.  Mutates ``state`` in place.

    The rules are Horn clauses, so a closure that ends without contradiction
    does not depend on the work order; only which reason a contradiction
    reports does.  Work order: the work list is a LIFO stack, and a
    ``pending`` set keeps each vertex on it at most once.  Each queued
    vertex is pushed, then its colored neighbors; a vertex a rule colors is
    pushed the same way, at once.  A rule colors only vertices it saw
    uncolored, so coloring never conflicts.  One local ``push`` does this
    everywhere: only the anchor solver's seed colorings call ``propagate``
    now, so a call per push costs little.
    """
    bits = g.bits
    work: list[int] = []
    pending: set[int] = set()

    def push(v: int) -> None:
        if v not in pending:
            pending.add(v)
            work.append(v)
        for u in iter_bits(bits[v] & alive):
            if state[u] != UNSET and u not in pending:
                pending.add(u)
                work.append(u)

    for v in queue:
        push(v)

    while work:
        v = work.pop()
        pending.discard(v)
        c = state[v]
        if c == WHITE:
            for u in iter_bits(bits[v] & alive):
                cu = state[u]
                if cu == WHITE:
                    return R_WHITE_WHITE
                if cu == UNSET:
                    state[u] = BLACK
                    push(u)
        elif c == BLACK:
            # iter_bits may answer with a one-shot generator: one call per loop.
            nbrs = bits[v] & alive
            mate = -1
            for u in iter_bits(nbrs):
                if state[u] == BLACK:
                    if mate >= 0:
                        return R_TWO_BLACK
                    mate = u
            if mate >= 0:
                for u in iter_bits(nbrs):
                    if u != mate and state[u] == UNSET:
                        state[u] = WHITE
                        push(u)
            else:
                candidate = -1
                count = 0
                for u in iter_bits(nbrs):
                    if state[u] == UNSET:
                        candidate = u
                        count += 1
                if count == 0:
                    return R_NO_MATE
                if count == 1:
                    state[candidate] = BLACK
                    push(candidate)
    return None


def commit_pair(g: Graph, alive: int, state: list[int], vw: Edge) -> str | None:
    """Commit the canonical edge ``vw`` as a matched pair; return a reason on contradiction.

    ``alive`` is a bitmask of the vertices still in the working graph.  The
    alive neighbors of the pair turn white, then both endpoints turn black;
    every alive edge at distance 1 from the pair now has a white endpoint,
    so it can never be matched.  A white endpoint can never be matched
    either, so it fails as ``distance-1``, with ``state`` unchanged.  The
    caller removes the endpoints from ``alive``.  Mutates ``state`` in
    place, also when it fails partway.
    """
    v, w = vw
    if not (alive >> v & 1 and alive >> w & 1):
        return R_SHARED_VERTEX
    if WHITE in (state[v], state[w]):
        return R_DISTANCE_ONE
    bits = g.bits
    for z in iter_bits((bits[v] | bits[w]) & alive & ~(1 << v) & ~(1 << w)):
        if state[z] == BLACK:
            return R_TWO_BLACK
        state[z] = WHITE
    state[v] = BLACK
    state[w] = BLACK
    return None


def forced_edge_closure(g: Graph, seeds: Iterable[Edge]) -> ReductionOutcome:
    """Commit a set of forced edges in one pass; return the residual or a contradiction.

    Starts from the uncolored graph and commits the seeds in the given
    order (callers wanting determinism pass a sorted sequence) through
    :func:`commit_pair`, skipping repeats, and fails when a newly white
    vertex has an alive white neighbor.  The residual is the subgraph
    induced by the vertices left uncommitted, answered as the ``alive``
    mask over ``g`` with the ``state`` list of ``g``: no graph is built.
    Its white vertices are exactly those the commits whitened.

    The residual is diamond- and butterfly-free when the seeds hold every
    forced edge of ``g`` (every diamond mid edge and butterfly wing edge,
    as :func:`patterns.forced_edges_initial` returns them): the residual is
    an induced subgraph of ``g``, so a diamond or butterfly in it would be
    one of ``g`` whose forced edges were seeds, but committing a seed
    removes its endpoints.
    """
    state = [UNSET] * g.n
    bits = g.bits
    alive = (1 << g.n) - 1
    mask = 0
    committed: list[Edge] = []
    for vw in dict.fromkeys(edge(*e) for e in seeds):
        # Only shared-vertex and distance-1 can come back here: the only
        # black vertices are committed endpoints, no longer alive, so no
        # black-two-black-neighbors.
        reason = commit_pair(g, alive, state, vw)
        if reason:
            return ReductionOutcome.contradiction(reason)
        v, w = vw
        alive &= ~(1 << v) & ~(1 << w)
        whitened = (bits[v] | bits[w]) & alive
        mask |= whitened
        for z in iter_bits(whitened):
            if bits[z] & mask & alive:
                return ReductionOutcome.contradiction(R_WHITE_WHITE)
        committed.append(vw)
    return ReductionOutcome(True, None, state, alive, committed)
