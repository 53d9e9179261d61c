"""Structural solver for dominating induced matchings.

The driver picks an anchor edge that sits on a 3-vertex path, assumes it
is matched, and grows the consequences outward through the anchor's
distance levels: level 1 must be unmatched, level-2 vertices must be
matched (pairs inside level 2 are forced outright), and each remaining
level-2 vertex must take its mate from its private pool of level-3
neighbors.  A fixpoint of forcing rules commits every edge that has no
alternative, shrinking the graph as it goes.  What remains is a bounded
enumeration: components of the level-2/level-3 structure are colored from
at most one seed choice per pool, colorings are closed under propagation,
and anything beyond level 3 is finished by an exact sub-solver on the
residual precolored instance.

On inputs outside the intended graph class (no induced spider with legs
1, 2, 4 and no 4-clique) the bounded-enumeration guarantees can fail; the
solver then reports a class violation with a witness instead of guessing.

:func:`solve` is a dispatcher in front of this pipeline.  By default it
first runs the exact-cover search under a node budget, which answers
in-class inputs faster; the structural pipeline is the fallback when the
budget trips, and the only route in strict, class-verifying or
``structural`` mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from . import patterns
from .coloring import (
    BLACK,
    R_WHITE_WHITE,
    UNSET,
    WHITE,
    Coloring,
    commit_pair,
    forced_edge_closure,
    propagate,
)
from .graph import Edge, Graph, GraphError, _bfs_layers, edge, iter_bits
from .subsolver import SearchBudgetExceeded, solve_precolored

FOUND = "found"
NO_DIM = "no_dim"
NO_DIM_WITH_ANCHOR = "no_dim_with_anchor"
CLASS_VIOLATION = "class_violation"

# The exact route tags its answers with this trace, and its no_dim with
# this reason.
TRACE_EXACT = "exact-search"
REASON_NO_COMPLETION = "no-completion"

# Search nodes per vertex the exact route may spend on a component before
# the structural route takes over (see subsolver.BUDGET_SLACK).
EXACT_NODES_PER_VERTEX = 4


class StructuralCheckError(AssertionError):
    """A structural invariant failed at runtime; indicates a bug or an
    off-class input slipping past the guards."""


class AnchorContradiction(Exception):
    """No dominating induced matching can contain the current anchor edge."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class ClassViolationError(Exception):
    """A bounded-enumeration guarantee failed; carries a spider witness if found."""

    def __init__(self, witness: patterns.PatternWitness | None) -> None:
        super().__init__("input is outside the supported graph class")
        self.witness = witness


class ComponentTask(NamedTuple):
    """One component of the level-2/3 structure, ready for seed enumeration.

    An immutable named tuple, read by field."""

    singles: tuple[int, ...]
    seeds: tuple[int, ...]


class SolveOutcome(NamedTuple):
    """Verdict of a solve plus the evidence that produced it.

    An immutable named tuple, read by field."""

    verdict: str
    matching: frozenset[Edge] | None = None
    weight: float | None = None
    trace: tuple[str, ...] = ()
    reason: str | None = None
    witness: patterns.PatternWitness | None = None

    @property
    def found(self) -> bool:
        return self.verdict == FOUND


@dataclass
class SolverConfig:
    minimize: bool = False
    strict: bool = False
    sub_solver: Callable = solve_precolored
    anchor_log: list | None = None
    timings: dict | None = None

    def tick(self, key: str, start: float) -> None:
        if self.timings is not None:
            self.timings[key] = self.timings.get(key, 0.0) + (time.perf_counter() - start)


def anchor_edges(g: Graph) -> list[Edge]:
    """Edges lying on a 3-vertex induced path."""
    bits = g.bits
    return [(u, v) for u, v in g.edges if (bits[u] ^ bits[v]) & ~(1 << u) & ~(1 << v)]


def _level1_independent(bits: Sequence[int], anchor: Edge) -> bool:
    """Whether the anchor's level 1, N(x) ∪ N(y) − {x, y} in the graph with
    adjacency bitmasks ``bits``, is an independent set.

    Level 1 must be unmatched, so a DIM holding the anchor whitens all of
    it; an edge inside it could then not be dominated."""
    x, y = anchor
    n1 = (bits[x] | bits[y]) & ~(1 << x) & ~(1 << y)
    rest = n1
    while rest:
        low = rest & -rest
        if bits[low.bit_length() - 1] & n1:
            return False
        rest ^= low
    return True


# The answer for an anchor that fails _level1_independent; no solver is built.
_LEVEL1_DEPENDENT = SolveOutcome(NO_DIM_WITH_ANCHOR, reason="level1-not-independent")


class AnchorSolver:
    """Searches for a dominating induced matching containing one anchor edge.

    Holds the base graph's bitmasks ``bits`` and the shrinking working
    state: an alive-vertex mask over the fixed base graph, per-vertex
    colors and the committed pairs (whose endpoints have left the alive
    set).  The colors are the one record of the white vertices, the
    incoming ones the forced-edge closure whitened included; a white vertex
    never changes color, so no edge at one of them can ever be matched.

    The level state of the last :meth:`decompose` lives here too, and only
    here, in one form: the bitmasks ``level_masks``, ``n3_mask`` and
    ``deep_mask``, the level-2 ``pairs`` and ``singles``, each single's
    pool of private level-3 mates as a bitmask in ``pools``, and
    ``shared_mask``, the level-3 vertices seeing two or more level-2
    vertices, which can never be matched.  A pool vertex's owner is its
    one neighbour in ``level_masks[2]``.  The forcing
    stages and the component coloring read it from the solver; candidate
    colorings travel as plain state lists.  :func:`propagate` reads the
    alive graph off ``bits`` and the alive mask; no other adjacency form is
    built.  A :class:`Coloring` is made only to hand a piece to the
    sub-solver.

    The incoming state holds no black vertex and no white anchor endpoint
    (:class:`GraphError` otherwise; the closure's states are white or
    unset).  Level 1 of the anchor in the base graph is independent
    (:func:`_level1_independent`, which :func:`_solve_residual` tests before
    it builds a solver).  ``alive`` only shrinks, so every later level 1 is
    a subset of the first; independence is hereditary, so
    :meth:`decompose` need not test it.  A solver built directly with a
    dependent level 1 fails instead at the white–white check
    (``white-adjacent-white``), because :meth:`decompose` whitens all of
    level 1.  The contradiction checks rest on invariants of a run: the
    anchor stays black and alive; a white vertex never turns black; level
    1, the anchor's alive neighbourhood, is white from the first
    :meth:`decompose` on and never deleted; levels never decrease, so no
    alive level-3 vertex is black (blacks are the anchor, level-2 singles,
    level-4+ vertices and commit endpoints, which leave at once); and every
    stage that changes ``alive`` reports a change, so it is fixed after the
    last :meth:`decompose` of :meth:`run_forcing`.

    Strict mode checks only what an input can break: the deep residue's
    S(1,2,2) search, which off-class input fails, and two claims of the
    paper, the claw search under S(1,1,4)-freeness and the deg³ limit on
    core colorings.  The checks it once made of the pools, of descending
    5-paths and of found matchings restate invariants that hold on every
    :func:`solve` input, and were deleted:

    * A pool holds at most one edge.  Every pool vertex sees its owner u,
      so two edges inside pool(u) induce with u a diamond (the edges share
      a vertex), a K4 (three pool vertices form a triangle) or a butterfly
      (disjoint edges with no cross edge; a cross edge gives the shared
      vertex case).  :func:`solve` rejects a 4-clique anywhere in its
      input, and the solver's graph is a seedless component or a residual
      piece of :func:`forced_edge_closure`, both diamond- and
      butterfly-free; so is every induced subgraph of them.
    * Every vertex v at level 3 or deeper starts a chordless 5-path whose
      other vertices lie at lower levels, in any graph.  At level k ≥ 4 a
      shortest path from v to the anchor is induced and its first five
      vertices descend.  At level 3 take a shortest path v, w2, w1, x; if
      w1 does not see y, append y.  If it does, the anchor lies on a
      3-vertex path, so some a sees exactly one endpoint, say x (swap x
      and y otherwise); a is at level 1, which is never deleted and is
      independent, so a misses w1.  The path is v, w2, w1, x, a when a
      misses w2, and v, w2, a, x, y when it sees it.
    * No found matching pairs a level-3 vertex with a deeper one:
      committed endpoints are not alive, core pairs lie in levels 0–3,
      deep pairs in the deep mask and stray pairs outside every level.
    * No found matching pairs two level-3 vertices; by the above only a
      core pair of two black ones could.  At the fixpoint every alive
      level-3 vertex is a pool vertex whose owner is a black single.
      A level-3 vertex turns black only in the coloring phase, inside a
      :func:`propagate` call that pushes it with its colored neighbours;
      so the second of two adjacent level-3 vertices to turn black is
      examined with two black neighbours, and the coloring fails
      ``black-two-black-neighbors``.
    """

    def __init__(
        self,
        g: Graph,
        anchor: Edge,
        state: Sequence[int] | None = None,
        config: SolverConfig | None = None,
    ) -> None:
        self.g = g
        self.bits = bits = g.bits
        x, y = anchor
        if y < x:
            x, y = y, x
        self.anchor = (x, y)
        if self.anchor not in g.weights:
            raise GraphError(f"anchor edge {self.anchor} not in graph")
        if not (bits[x] ^ bits[y]) & ~(1 << x) & ~(1 << y):
            raise GraphError(f"anchor edge {self.anchor} is not on a 3-vertex path")
        self.cfg = config or SolverConfig()
        self.state = list(state) if state is not None else [UNSET] * g.n
        if BLACK in self.state or WHITE in (self.state[x], self.state[y]):
            raise GraphError("anchor state holds a black vertex or a white anchor endpoint")
        self.state[x] = self.state[y] = BLACK
        self.committed: list[Edge] = []
        self.alive = (1 << g.n) - 1
        self.trace: list[str] = []
        # Level data, refreshed by decompose():
        self.level_masks: list[int] = []
        self.deep_mask = 0
        self.n3_mask = 0
        self.pairs: tuple[Edge, ...] = ()
        self.singles: tuple[int, ...] = ()
        self.pools: dict[int, int] = {}
        self.shared_mask = 0
        self._s114_free: bool | None = None

    # -- small helpers -----------------------------------------------------

    def _adj(self, v: int) -> int:
        return self.bits[v] & self.alive

    def _tag(self, label: str) -> None:
        self.trace.append(label)

    def _commit(self, vw: Edge, tag: str) -> None:
        """Commit a matched pair through :func:`commit_pair` and delete its
        endpoints."""
        v, w = vw = edge(*vw)
        reason = commit_pair(self.g, self.alive, self.state, vw)
        if reason:
            raise AnchorContradiction(reason)
        self.alive &= ~(1 << v) & ~(1 << w)
        self.committed.append(vw)
        self._tag(tag)

    def _commit_all(self, edges, tag: str) -> bool:
        """Commit the distinct ``edges`` in sorted order; whether there were any."""
        if not edges:
            return False
        for vw in sorted(set(edges)):
            self._commit(vw, tag)
        return True

    # -- decomposition -----------------------------------------------------

    def decompose(self) -> None:
        """Recompute the level state on the alive graph, whiten level 1
        (independent, by the precondition in the class docstring), check
        that no two white vertices are adjacent, and validate the
        level-2/level-3 structure, blackening the level-2 vertices that
        survive.

        The levels are :func:`graph._bfs_layers` from the anchor over the
        alive graph, stored in ``level_masks``; vertices it does not reach
        lie in no level.  Every mask is walked lowest bit first, and every
        level mask past level 0 lies inside the alive set."""
        bits = self.bits
        alive = self.alive
        state = self.state
        x, y = self.anchor
        self.level_masks = masks = _bfs_layers(bits, (1 << x) | (1 << y), alive)
        depth = len(masks)
        n1 = masks[1] if depth > 1 else 0
        n2 = masks[2] if depth > 2 else 0
        self.n3_mask = n3 = masks[3] if depth > 3 else 0
        self.deep_mask = sum(masks[4:])

        white_mask = 0
        rest = alive
        while rest:
            low = rest & -rest
            if state[low.bit_length() - 1] == WHITE:
                white_mask |= low
            rest ^= low

        white_mask |= n1
        rest = n1
        while rest:
            low = rest & -rest
            state[low.bit_length() - 1] = WHITE
            rest ^= low

        rest = white_mask
        while rest:
            low = rest & -rest
            if bits[low.bit_length() - 1] & white_mask:
                raise AnchorContradiction(R_WHITE_WHITE)
            rest ^= low

        pairs: list[Edge] = []
        singles: list[int] = []
        rest = n2
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            inner = bits[v] & n2
            if inner:
                if inner & (inner - 1):
                    raise AnchorContradiction("level2-structure")
                if inner > low:
                    pairs.append((v, inner.bit_length() - 1))
            else:
                # Not white: its level-1 neighbour is, so the check above
                # would have failed.
                state[v] = BLACK
                singles.append(v)
            rest ^= low

        if n3 and not self._bipartite(n3):
            raise AnchorContradiction("level3-odd-cycle")

        self.pairs = tuple(pairs)
        self.singles = tuple(singles)
        pools: dict[int, int] = {}
        shared = 0
        if not pairs:
            pools = dict.fromkeys(singles, 0)
            rest = n3
            while rest:
                low = rest & -rest
                parents = bits[low.bit_length() - 1] & n2
                if parents and not parents & (parents - 1):
                    pools[parents.bit_length() - 1] |= low
                else:
                    shared |= low
                rest ^= low
        self.pools = pools
        self.shared_mask = shared

    def _owner(self, t: int) -> int:
        """The single whose pool holds ``t``: its one level-2 neighbour."""
        return (self.bits[t] & self.level_masks[2]).bit_length() - 1

    def _bipartite(self, mask: int) -> bool:
        """Whether the alive graph on ``mask`` is 2-colourable.

        Each piece is laid out by :func:`graph._bfs_layers` from its least
        vertex; every edge joins one layer to itself or to the next, so the
        piece has an odd cycle exactly when some layer holds an edge."""
        bits = self.bits
        rest = mask = mask & self.alive
        while rest:
            layers = _bfs_layers(bits, rest & -rest, mask)
            for layer in layers:
                for v in iter_bits(layer):
                    if bits[v] & layer:
                        return False
            rest &= ~sum(layers)
        return True

    # -- forcing stages ----------------------------------------------------

    def force_level2_and_triangles(self) -> bool:
        """Commit level-2 pairs, then matched pairs forced by triangles that
        hang off level 3 into the deep part."""
        if self._commit_all(self.pairs, "level2-pair-commit"):
            return True
        forced: set[Edge] = set()
        for a in iter_bits(self.n3_mask):
            nb_deep = self._adj(a) & self.deep_mask
            if not nb_deep:
                continue
            cands = list(iter_bits(nb_deep))
            for i, b in enumerate(cands):
                inner = self.bits[b] & nb_deep
                for c in cands[i + 1:]:
                    if inner >> c & 1:
                        forced.add((b, c))
        return self._commit_all(forced, "deep-triangle-commit")

    def force_contact_edges(self) -> bool:
        """Forced mates from cross-pool double contacts and from edges into
        the never-matched shared level-3 vertices; then eliminate the latter."""
        commits: set[Edge] = set()
        pools = self.pools
        for u in self.singles:
            for t in iter_bits(pools[u]):
                nb = self._adj(t)
                if any((nb & pools[o]).bit_count() > 1 for o in self.singles if o != u):
                    commits.add((min(u, t), max(u, t)))
        for s in iter_bits(self.shared_mask):
            # Each t is a pool vertex, and not white: a white one would have
            # failed the sweep at its unset neighbour s.
            for t in iter_bits(self._adj(s) & self.n3_mask & ~self.shared_mask):
                commits.add(edge(self._owner(t), t))
        if self._commit_all(commits, "contact-commit"):
            return True
        for s in iter_bits(self.shared_mask):
            self.state[s] = WHITE
        for s in iter_bits(self.shared_mask):
            for z in iter_bits(self._adj(s)):
                if self.state[z] == WHITE:
                    raise AnchorContradiction(R_WHITE_WHITE)
                self.state[z] = BLACK
            self.alive &= ~(1 << s)
            self._tag("shared-contact-white-elim")
        return self.shared_mask != 0

    def sweep_colored_boundary(self) -> bool:
        """Push colors across the level-3 boundary.

        A white vertex forces every unset neighbor to be matched: pool
        neighbors commit with their owner, deep neighbors turn black.  A
        black deep vertex can never be mated into level 3, so its unset
        level-3 neighbors turn white (no level-3 vertex is black).
        """
        changed = False
        commits: list[Edge] = []
        for v in iter_bits(self.alive):
            if self.state[v] != WHITE:
                continue
            for t in iter_bits(self._adj(v)):
                if self.state[t] != UNSET:
                    continue
                if self.n3_mask >> t & 1:
                    if self.shared_mask >> t & 1:
                        raise AnchorContradiction("shared-contact-conflict")
                    commits.append(edge(self._owner(t), t))
                elif self.deep_mask >> t & 1:
                    self.state[t] = BLACK
                    changed = True
        if self._commit_all(commits, "white-neighbor-commit"):
            return True
        for z in iter_bits(self.deep_mask):
            if self.state[z] != BLACK:
                continue
            for t in iter_bits(self._adj(z) & self.n3_mask):
                if self.state[t] == UNSET:
                    self.state[t] = WHITE
                    self._tag("deep-black-whiten")
                    changed = True
        return changed

    def prune_pools(self) -> bool:
        """Whiten pool vertices on 4-cycles through their owner, prune
        redundant pendant pool vertices, and commit pools forced to a
        single candidate."""
        bits = self.bits
        changed = False
        commits: list[Edge] = []
        removals: list[int] = []
        for u in self.singles:
            pool = self.pools[u]
            if not pool:
                raise AnchorContradiction("pool-empty")
            nb = list(iter_bits(self._adj(u)))
            closed = self._adj(u) | (1 << u)
            for i, a in enumerate(nb):
                for b in nb[i + 1:]:
                    if bits[a] >> b & 1:
                        continue
                    if bits[a] & bits[b] & self.alive & ~closed:
                        for t in (a, b):
                            if pool >> t & 1 and self.state[t] == UNSET:
                                self.state[t] = WHITE
                                self._tag("cycle4-whiten")
                                changed = True
            candidates = [t for t in iter_bits(pool) if self.state[t] == UNSET]
            if not candidates:
                raise AnchorContradiction("candidate-exhausted")
            if len(candidates) == 1:
                commits.append(edge(u, candidates[0]))
                continue
            pendants = [
                t for t in candidates if self._adj(t) == 1 << u
            ]
            if len(pendants) > 1:
                keep = min(pendants, key=lambda t: (self.g.weight((u, t)), t))
                for t in pendants:
                    if t != keep:
                        removals.append(t)
        for t in removals:
            self.alive &= ~(1 << t)
            self._tag("pendant-prune")
            changed = True
        return self._commit_all(commits, "lone-candidate-commit") or changed

    def force_isolated_deep(self) -> bool:
        """Deep vertices with no deep neighbor can never be matched: whiten them."""
        changed = False
        for z in iter_bits(self.deep_mask):
            if self.state[z] == UNSET and not self._adj(z) & self.deep_mask:
                self.state[z] = WHITE
                self._tag("isolated-deep-white")
                changed = True
        return changed

    def run_forcing(self) -> None:
        """Iterate decomposition and the forcing stages to a fixpoint."""
        while True:
            self.decompose()
            if (
                self.force_level2_and_triangles()
                or self.sweep_colored_boundary()
                or self.force_contact_edges()
                or self.prune_pools()
                or self.force_isolated_deep()
            ):
                continue
            return

    # -- component coloring -------------------------------------------------

    def classify_components(self) -> tuple[list[ComponentTask], list[ComponentTask]]:
        """Split the level-2/3 structure components into freestanding ones and
        those coupled to the deep part through an uncolored deep vertex.

        More than three coupled components cannot occur inside the
        supported class, so they fail :meth:`_check_failed`.  Every pool
        vertex is alive: the alive set has not changed since the last
        :meth:`decompose`.  A component is the set :func:`graph._bfs_layers`
        reaches from its least single inside the singles and their pools.
        """
        struct_mask = 0
        for u in self.singles:
            struct_mask |= 1 << u | self.pools[u]
        seen = 0
        free: list[ComponentTask] = []
        coupled: list[ComponentTask] = []
        for start in sorted(self.singles):
            if seen >> start & 1:
                continue
            comp = sum(_bfs_layers(self.bits, 1 << start, struct_mask & self.alive))
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

    def _completions(
        self, state: list[int], tasks: list[ComponentTask]
    ) -> Iterator[list[int]]:
        """All feasible ways to finish coloring the given tasks' pools.

        Propagation leaves a pool undecided only when the remaining
        candidates have no outside contacts, so candidates are tried
        cheapest-first and the choices are independent inside the class.
        The singles and pools are those of the last :meth:`decompose`, all
        still alive: the alive mask does not change after it.
        """
        stalled: tuple[int, int, list[int]] | None = None
        for task in tasks:
            for u in task.singles:
                pool = self.pools[u]
                if any(state[t] == BLACK for t in iter_bits(pool)):
                    continue
                cands = [t for t in iter_bits(pool) if state[t] == UNSET]
                stalled = (u, pool, cands)
                break
            if stalled:
                break
        if stalled is None:
            yield state
            return
        u, pool, cands = stalled
        cands.sort(key=lambda t: (self.g.weight((u, t)), t))
        pool_mask = 1 << u | pool
        # Candidates confined to the pool are interchangeable beyond weight,
        # so the cheapest feasible one settles the pool; anything with
        # outside contacts (off-class residue) is enumerated instead.
        inert = all(not self._adj(t) & ~pool_mask for t in cands)
        for t in cands:
            trial = list(state)
            trial[t] = BLACK
            if propagate(self.g, trial, [t], self.alive) is None:
                yield from self._completions(trial, tasks)
                if inert:
                    return

    def _seeded(
        self, seeds: Sequence[int], tasks: list[ComponentTask]
    ) -> Iterator[list[int]]:
        """The colorings of the tasks' pools that blacken the given seeds.

        Copies the state, blackens the seeds, closes under the forcing
        rules and yields from :meth:`_completions`; nothing when the seeds
        contradict.  The seeds are distinct pool vertices of distinct
        tasks, and unset: coloring a free component changes only its own
        unset vertices, which have no deep neighbour.
        """
        state = list(self.state)
        for seed in seeds:
            state[seed] = BLACK
        if propagate(self.g, state, seeds, self.alive) is None:
            yield from self._completions(state, tasks)

    def _solve_free_component(self, task: ComponentTask) -> None:
        """Fix a freestanding component to its best (or first) feasible coloring."""
        best: tuple[float, list[int]] | None = None
        for seed in task.seeds:
            state = next(self._seeded((seed,), [task]), None)
            if state is None:
                continue
            if not self.cfg.minimize:
                best = (0.0, state)
                break
            weight = sum(
                self.g.weight((u, t))
                for u in task.singles
                for t in iter_bits(self.pools[u])
                if state[t] == BLACK
            )
            if best is None or weight < best[0]:
                best = (weight, state)
        if best is None:
            raise AnchorContradiction("component-infeasible")
        self.state = best[1]
        self._tag("component-colored")

    def _iter_core_colorings(self, coupled: list[ComponentTask]) -> Iterator[list[int]]:
        """Joint seed enumeration over the coupled components.

        The cartesian product has at most three factors inside the class;
        each combination is closed under propagation across the shared deep
        vertices before being offered to the deep finisher.
        """
        if not coupled:
            # A successful closure does not depend on the queue's order, so
            # the uncolored vertices, which no rule reads, stay off it.
            state = list(self.state)
            queue = [v for v in iter_bits(self.alive) if state[v] != UNSET]
            if propagate(self.g, state, queue, self.alive) is None:
                yield state
            return
        for combo in product(*[task.seeds for task in coupled]):
            yield from self._seeded(combo, coupled)

    # -- finishing -----------------------------------------------------------

    def _solve_strays(self) -> tuple[frozenset[Edge], float] | None:
        """Solve the alive vertices that reductions cut off from the anchor's levels.

        All of them go to the sub-solver in one hand-off, which may hold
        several disconnected pieces; the sub-solver searches those in turn.
        """
        stray_mask = self.alive & ~sum(self.level_masks)
        if not stray_mask:
            return frozenset(), 0.0
        sub, state, old_of_new = restrict(self.g, stray_mask, self.state)
        res = self.cfg.sub_solver(sub, Coloring(state), minimize=self.cfg.minimize)
        if res is None:
            return None
        self._tag("stray-handoff")
        return sub.relabel_edges(res[0], old_of_new), res[1]

    def finish_deep(self, state: list[int]) -> tuple[frozenset[Edge], float] | None:
        """Complete one feasible core coloring (a state list) across the deep part.

        Returns the full matching for the anchor's component (committed
        pairs included) and its weight, or None when the deep instance has
        no consistent completion.
        """
        deep_alive = self.deep_mask & self.alive
        deep_matching: frozenset[Edge] = frozenset()
        deep_weight = 0.0
        if deep_alive:
            sub, sub_state, old_of_new = restrict(self.g, deep_alive, state)
            if self.cfg.strict:
                self._strict_deep_checks(sub)
            start = time.perf_counter()
            res = self.cfg.sub_solver(sub, Coloring(sub_state), minimize=self.cfg.minimize)
            self.cfg.tick("deep_solve", start)
            if res is None:
                return None
            deep_matching = sub.relabel_edges(res[0], old_of_new)
            deep_weight = res[1]
            self._tag("deep-handoff")
        # Pairs strictly inside levels 0..3: deeper pairs come back from the
        # sub-solver, stray pairs from the stray pass (their vertices sit
        # outside every level mask).  They go into the set in
        # the order of ``g.edges``, which fixes the order in which
        # ``matching_weight`` adds their weights.
        black = 0
        for mask in self.level_masks[:4]:
            for v in iter_bits(mask & self.alive):
                if state[v] == BLACK:
                    black |= 1 << v
        bits = self.bits
        core_pairs: set[Edge] = set()
        for u in iter_bits(black):
            for v in iter_bits(bits[u] & black >> (u + 1) << (u + 1)):
                core_pairs.add((u, v))
        matching = frozenset(self.committed) | core_pairs | deep_matching
        weight = (
            self.g.matching_weight(self.committed)
            + self.g.matching_weight(core_pairs)
            + deep_weight
        )
        return matching, weight

    # -- structural checks ----------------------------------------------------

    def _check_failed(self, message: str) -> None:
        """A structural check failed: report the spider of an off-class
        input, or raise :class:`StructuralCheckError` when no spider that
        :func:`patterns.verify_witness` accepts turns up."""
        witness = patterns.find_induced_sijk(self.g, 1, 2, 4)
        if witness is not None and patterns.verify_witness(self.g, witness, (1, 2, 4)):
            raise ClassViolationError(witness)
        raise StructuralCheckError(message)

    def _strict_deep_checks(self, deep_sub: Graph) -> None:
        if patterns.find_induced_sijk(deep_sub, 1, 2, 2) is not None:
            self._check_failed("deep residue contains a (1,2,2)-spider")
        if self._s114_free is None and self.g.n <= 32:
            self._s114_free = patterns.find_induced_sijk(self.g, 1, 1, 4) is None
        if self._s114_free:
            if patterns.find_induced_sijk(deep_sub, 1, 1, 1) is not None:
                self._check_failed("deep residue contains a claw")

    # -- driver ---------------------------------------------------------------

    def run(self) -> SolveOutcome:
        """Search for a matching containing the anchor; full anchor pipeline."""
        try:
            start = time.perf_counter()
            self.run_forcing()
            self.cfg.tick("forcing", start)
            strays = self._solve_strays()
            if strays is None:
                raise AnchorContradiction("stray-infeasible")
            stray_matching, stray_weight = strays
            free, coupled = self.classify_components()
            for task in free:
                self._solve_free_component(task)
            colorings = self._iter_core_colorings(coupled)
            if self.cfg.strict and coupled:
                # Every single has degree 2 or more: a level-1 neighbour and
                # a pool that prune_pools found non-empty.
                limit = max(self.bits[u].bit_count() for t in coupled for u in t.singles) ** 3
            best: tuple[float, frozenset[Edge]] | None = None
            count = 0
            for state in colorings:
                count += 1
                if self.cfg.strict and coupled and count > limit:
                    self._check_failed("more core colorings than the degree bound allows")
                finished = self.finish_deep(state)
                if finished is None:
                    continue
                matching = finished[0] | stray_matching
                weight = finished[1] + stray_weight
                if not self.cfg.minimize:
                    return self._found(matching, weight)
                if best is None or weight < best[0]:
                    best = (weight, matching)
            if best is not None:
                return self._found(best[1], best[0])
            raise AnchorContradiction("no-feasible-core-coloring")
        except AnchorContradiction as fail:
            return SolveOutcome(
                NO_DIM_WITH_ANCHOR,
                trace=tuple(self.trace),
                reason=fail.reason,
            )
        except ClassViolationError as violation:
            return SolveOutcome(
                CLASS_VIOLATION,
                trace=tuple(self.trace),
                witness=violation.witness,
            )

    def _found(self, matching: frozenset[Edge], weight: float) -> SolveOutcome:
        state = self.state
        if any(WHITE in (state[u], state[v]) for u, v in matching):
            raise StructuralCheckError("matching uses an edge at a white vertex")
        return SolveOutcome(
            FOUND,
            matching=matching,
            weight=weight,
            trace=tuple(self.trace),
        )


def _solve_residual(g: Graph, state: list[int], cfg: SolverConfig) -> SolveOutcome:
    """Solve one connected residual piece left over after the forced closure.

    ``state`` holds the piece's vertex colors.  The piece has at least one
    edge: :func:`_solve_connected` hands over its connected input, or each
    connected piece of its residual that has two or more vertices.
    """
    bits = g.bits
    m = g.m
    singles: list[tuple[float, Edge]] = []
    for u, v in g.edges:
        if state[u] == WHITE or state[v] == WHITE:
            continue
        if bits[u].bit_count() + bits[v].bit_count() - 1 == m:
            singles.append((g.weights[(u, v)], (u, v)))
            if not cfg.minimize:
                break
    if singles:
        weight, e = min(singles)
        return SolveOutcome(
            FOUND, matching=frozenset([e]), weight=weight, trace=("single-edge",)
        )
    best: SolveOutcome | None = None
    last: SolveOutcome | None = None
    for anchor in anchor_edges(g):
        if state[anchor[0]] == WHITE or state[anchor[1]] == WHITE:
            continue
        if _level1_independent(bits, anchor):
            out = AnchorSolver(g, anchor, state, cfg).run()
        else:
            out = _LEVEL1_DEPENDENT
        if cfg.anchor_log is not None:
            cfg.anchor_log.append(
                (g.vertex_name(anchor[0]), g.vertex_name(anchor[1]), out.verdict, out.reason)
            )
        if out.verdict == CLASS_VIOLATION:
            return out
        if out.found:
            if not cfg.minimize:
                return out
            if best is None or out.weight < best.weight:
                best = out
        else:
            last = out
    if best is not None:
        return best
    reason = last.reason if last is not None else "no-anchor-candidates"
    return SolveOutcome(NO_DIM, reason=reason, trace=last.trace if last else ())


def _solve_connected(g: Graph, cfg: SolverConfig) -> SolveOutcome:
    """Algorithm backbone for one connected component with at least one edge.

    The component is K4-free: :func:`solve` rejects a 4-clique in the whole
    input first.  The matching is verified once, by :func:`solve`, after all
    components are merged.
    """
    start = time.perf_counter()
    seeds = patterns.forced_edges_initial(g)
    if not seeds:
        # Nothing is committed, so the residual is the connected input.
        cfg.tick("closure", start)
        return _solve_residual(g, [UNSET] * g.n, cfg)
    trace = [f"forced-closure:{len(seeds)}"]
    if g.is_dim(seeds):
        cfg.tick("closure", start)
        return SolveOutcome(
            FOUND,
            matching=frozenset(seeds),
            weight=g.matching_weight(seeds),
            trace=tuple(trace) + ("forced-dominates",),
        )
    closure = forced_edge_closure(g, sorted(seeds))
    cfg.tick("closure", start)
    if not closure.ok:
        return SolveOutcome(NO_DIM, reason=closure.reason, trace=tuple(trace))
    return _solve_pieces(
        g,
        closure.state,
        closure.alive,
        lambda sub, sub_state: _solve_residual(sub, sub_state, cfg),
        set(closure.committed),
        g.matching_weight(closure.committed),
        trace,
    )


def restrict(g: Graph, mask: int, state: Sequence[int]) -> tuple[Graph, list[int], tuple[int, ...]]:
    """The piece of a colored graph induced by a vertex bitmask, relabeled densely.

    Returns the piece, its state list (the kept vertices' colors, in the
    piece's ids) and the new->old vertex map.  A mask holding every vertex
    returns ``g`` itself with a copy of ``state``.
    """
    if mask.bit_count() == g.n:
        return g, list(state), tuple(range(g.n))
    sub, old_of_new = g.induced_subgraph(iter_bits(mask))
    return sub, [state[v] for v in old_of_new], old_of_new


def _solve_pieces(
    g: Graph,
    state: list[int],
    alive: int,
    solve_piece: Callable[[Graph, list[int]], SolveOutcome],
    matching: set[Edge],
    weight: float,
    trace: list[str],
) -> SolveOutcome:
    """Solve each connected piece of the subgraph ``alive`` induces and merge the answers.

    ``alive`` is a bitmask over ``g``, whose vertex colors ``state`` holds.
    Each piece is laid out by :func:`graph._bfs_layers` from its least
    vertex, cut from ``g`` once by :func:`restrict` and handed its own
    state list, in the piece's ids.  Pieces go in order of their least
    vertex; a one-vertex piece has nothing to match and is skipped.  The
    answer is in the ids of ``g``: the pieces' matchings join ``matching``,
    their weights are added to ``weight`` in piece order and their traces
    extend ``trace``.  The first piece without a matching ends the merge;
    its verdict, reason and witness come back with the trace so far.
    """
    while alive:
        piece = sum(_bfs_layers(g.bits, alive & -alive, alive))
        alive &= ~piece
        if not piece & (piece - 1):
            continue
        sub, sub_state, old_of_new = restrict(g, piece, state)
        out = solve_piece(sub, sub_state)
        if not out.found:
            witness = out.witness
            if witness is not None:
                witness = patterns.PatternWitness(
                    witness.pattern, tuple(old_of_new[v] for v in witness.vertices)
                )
            return SolveOutcome(
                out.verdict,
                reason=out.reason,
                witness=witness,
                trace=tuple(trace) + out.trace,
            )
        matching.update(g.relabel_edges(out.matching, old_of_new))
        weight += out.weight
        trace.extend(out.trace)
    return SolveOutcome(FOUND, matching=frozenset(matching), weight=weight, trace=tuple(trace))


def solve(
    g: Graph,
    minimize: bool = False,
    verify_class: bool = False,
    strict: bool = False,
    sub_solver: Callable | None = None,
    anchor_log: list | None = None,
    timings: dict | None = None,
    structural: bool = False,
) -> SolveOutcome:
    """Decide whether the graph has a dominating induced matching and return one.

    ``minimize`` returns a minimum total-weight matching instead of the
    first one found.  There are two routes to the answer:

    * the exact route (the default) runs the budgeted exact-cover search
      :func:`solve_precolored` once on the whole, uncolored input, which
      searches each component in turn.  Its answer carries the trace
      ``(TRACE_EXACT,)``; a ``no_dim`` carries the reason
      ``REASON_NO_COMPLETION``.  When any component needs more than
      ``EXACT_NODES_PER_VERTEX`` search nodes per vertex (plus a small
      slack), the structural route answers instead, so the answer is then
      exactly the structural route's;
    * the structural route first answers ``no_dim`` with the reason
      ``clique4`` and the trace ``("clique4-reject",)`` when the whole input
      holds a 4-clique, whichever component it lies in; otherwise
      :func:`_solve_pieces` hands each connected piece to the anchor pipeline.
      ``structural`` selects it outright, and so do ``verify_class`` and
      ``strict``.  ``strict`` turns on three runtime assertions for the
      test harness: no deep residue holds an induced S(1,2,2), none holds a
      claw when its piece is S(1,1,4)-free (tested on pieces of at most 32
      vertices), and an anchor's coupled components have at most deg³ core
      colorings.

    ``verify_class`` first checks the whole input for the out-of-class
    spider S(1,2,4) and, when it holds one, returns ``class_violation``
    with the spider of least centre as witness before any route runs.  A
    graph is S(1,2,4)-free exactly when each of its components is, so the
    verdict does not depend on how the components are numbered.

    ``sub_solver`` and ``anchor_log`` serve and observe the structural
    route, and ``timings`` collects per-layer times of either; none of them
    chooses the route.  A found matching is re-verified on both routes.
    """
    if verify_class:
        witness = patterns.find_induced_sijk(g, 1, 2, 4)
        if witness is not None:
            return SolveOutcome(CLASS_VIOLATION, witness=witness)
    cfg = SolverConfig(
        minimize=minimize,
        strict=strict,
        sub_solver=sub_solver or solve_precolored,
        anchor_log=anchor_log,
        timings=timings,
    )
    out = None
    if not (structural or strict or verify_class):
        out = _solve_exact(g, cfg)
    if out is None:
        if patterns.find_k4(g) is not None:
            return SolveOutcome(NO_DIM, reason="clique4", trace=("clique4-reject",))
        out = _solve_pieces(
            g,
            [UNSET] * g.n,
            (1 << g.n) - 1,
            lambda sub, _: _solve_connected(sub, cfg),
            set(),
            0.0,
            [],
        )
    if out.found:
        start = time.perf_counter()
        if not g.is_dim(out.matching):
            raise StructuralCheckError("assembled matching fails verification")
        cfg.tick("verify", start)
    return out


def _solve_exact(g: Graph, cfg: SolverConfig) -> SolveOutcome | None:
    """The exact route's answer, or None when the node budget trips.

    The route runs :func:`solve_precolored`, the engine that also fills
    the structural route's default sub-solver slot, on the uncolored input.
    """
    start = time.perf_counter()
    try:
        res = solve_precolored(
            g, Coloring.fresh(g.n), cfg.minimize, nodes_per_vertex=EXACT_NODES_PER_VERTEX
        )
    except SearchBudgetExceeded:
        return None
    finally:
        cfg.tick("exact", start)
    if res is None:
        return SolveOutcome(NO_DIM, reason=REASON_NO_COMPLETION, trace=(TRACE_EXACT,))
    matching, weight = res
    return SolveOutcome(FOUND, matching=matching, weight=float(weight), trace=(TRACE_EXACT,))
