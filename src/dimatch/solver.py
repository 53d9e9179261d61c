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
from typing import Callable, Iterator, Sequence

from . import patterns
from .coloring import (
    BLACK,
    R_TWO_BLACK,
    R_WHITE_WHITE,
    UNSET,
    WHITE,
    Coloring,
    commit_pair,
    forced_edge_closure,
    propagate,
    restrict,
)
from .graph import Edge, Graph, GraphError, edge, iter_bits
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


@dataclass(frozen=True)
class ComponentTask:
    """One component of the level-2/3 structure, ready for seed enumeration."""

    singles: tuple[int, ...]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict of a solve plus the evidence that produced it."""

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


class AnchorSolver:
    """Searches for a dominating induced matching containing one anchor edge.

    Holds the base graph's bitmasks ``bits`` and the shrinking working
    state: an alive-vertex mask over the fixed base graph, per-vertex
    colors, the committed pairs (whose endpoints have left the alive set)
    and ``whitened``, the mask of the vertices commits turned white.  It
    starts as the incoming white vertices, which the forced-edge closure
    whitened through commits; a white vertex never changes color, so no
    edge at one of them can ever be matched.

    The level state of the last :meth:`decompose` lives here too, and only
    here: the bitmasks ``level_masks``, ``n3_mask`` and ``deep_mask``, the
    per-vertex level ``lev``, the level-2 ``pairs`` and ``singles``, each
    single's ``pools`` of private level-3 mates (``pool_owner`` maps a pool
    vertex back to its single), and ``shared3``, the level-3 vertices seeing
    two or more level-2 vertices, which can never be matched.  The forcing
    stages and the component coloring read it from the solver; candidate
    colorings travel as plain state lists.  :func:`propagate` reads the
    alive graph off ``bits`` and the alive mask; no other adjacency form is
    built.  A :class:`Coloring` is made only to hand a piece to the
    sub-solver.
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
        self.anchor = edge(*anchor)
        if not g.has_edge_canon(self.anchor):
            raise GraphError(f"anchor edge {self.anchor} not in graph")
        x, y = self.anchor
        if not (bits[x] ^ bits[y]) & ~(1 << x) & ~(1 << y):
            raise GraphError(f"anchor edge {self.anchor} is not on a 3-vertex path")
        self.cfg = config or SolverConfig()
        self.state = list(state) if state is not None else [UNSET] * g.n
        self.whitened = sum(1 << v for v, c in enumerate(self.state) if c == WHITE)
        self.committed: list[Edge] = []
        self.alive = (1 << g.n) - 1
        self.trace: list[str] = []
        # Level data, refreshed by decompose():
        self.lev: list[int] = []
        self.level_masks: list[int] = []
        self.deep_mask = 0
        self.n3_mask = 0
        self.pairs: tuple[Edge, ...] = ()
        self.singles: tuple[int, ...] = ()
        self.pools: dict[int, tuple[int, ...]] = {}
        self.pool_owner: dict[int, int] = {}
        self.shared3: set[int] = set()
        self._s114_free: bool | None = None

    # -- small helpers -----------------------------------------------------

    def _fail(self, reason: str) -> None:
        raise AnchorContradiction(reason)

    def _adj(self, v: int) -> int:
        return self.bits[v] & self.alive

    def _tag(self, label: str) -> None:
        self.trace.append(label)

    def _commit(self, vw: Edge, tag: str) -> None:
        """Commit a matched pair through :func:`commit_pair` and delete its endpoints."""
        v, w = vw = edge(*vw)
        reason = commit_pair(self.g, self.alive, self.state, self.whitened, vw)
        if reason:
            self._fail(reason)
        self.alive &= ~(1 << v) & ~(1 << w)
        self.whitened |= (self.bits[v] | self.bits[w]) & self.alive
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
        """Recompute the level state on the alive graph and validate the
        level-1/level-2 structure, whitening level 1 and blackening the
        level-2 vertices that survive.

        One breadth-first pass from the anchor over the alive graph fills
        both ``level_masks`` and ``lev``; vertices it does not reach keep
        level -1.  Every mask is walked lowest bit first, and every level
        mask past level 0 lies inside the alive set."""
        bits = self.bits
        alive = self.alive
        state = self.state
        x, y = self.anchor
        for v in (x, y):
            if state[v] == WHITE:
                self._fail("anchor-endpoint-white")
            state[v] = BLACK

        lev = [-1] * self.g.n
        masks: list[int] = []
        seen = (1 << x) | (1 << y)
        frontier = seen
        while frontier:
            level = len(masks)
            masks.append(frontier)
            nxt = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                lev[v] = level
                nxt |= bits[v]
                frontier ^= low
            frontier = nxt & alive & ~seen
            seen |= frontier
        self.lev = lev
        self.level_masks = masks
        depth = len(masks)
        n1 = masks[1] if depth > 1 else 0
        n2 = masks[2] if depth > 2 else 0
        n3 = masks[3] if depth > 3 else 0
        self.n3_mask = n3
        deep = 0
        for mask in masks[4:]:
            deep |= mask
        self.deep_mask = deep

        white_mask = 0
        rest = alive
        while rest:
            low = rest & -rest
            if state[low.bit_length() - 1] == WHITE:
                white_mask |= low
            rest ^= low

        rest = n1
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if state[v] == BLACK:
                self._fail("level1-black")
            if bits[v] & n1:
                self._fail("level1-not-independent")
            state[v] = WHITE
            white_mask |= low
            rest ^= low

        rest = white_mask
        while rest:
            low = rest & -rest
            if bits[low.bit_length() - 1] & white_mask:
                self._fail(R_WHITE_WHITE)
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
                    self._fail("level2-structure")
                if inner > low:
                    pairs.append((v, inner.bit_length() - 1))
            else:
                if state[v] == WHITE:
                    self._fail("level2-white")
                state[v] = BLACK
                singles.append(v)
            rest ^= low

        if n3 and not self._bipartite(n3):
            self._fail("level3-odd-cycle")

        self.pairs = tuple(pairs)
        self.singles = tuple(singles)
        pool_owner: dict[int, int] = {}
        shared3: set[int] = set()
        acc: dict[int, list[int]] = {}
        if not pairs:
            acc = {u: [] for u in singles}
            rest = n3
            while rest:
                low = rest & -rest
                t = low.bit_length() - 1
                parents = bits[t] & n2
                if parents and not parents & (parents - 1):
                    owner = parents.bit_length() - 1
                    pool_owner[t] = owner
                    acc[owner].append(t)
                else:
                    shared3.add(t)
                rest ^= low
        self.pools = {u: tuple(ts) for u, ts in acc.items()}
        self.pool_owner = pool_owner
        self.shared3 = shared3

    def _bipartite(self, mask: int) -> bool:
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
        shared_mask = 0
        for s in self.shared3:
            shared_mask |= 1 << s
        for u in self.singles:
            for t in self.pools[u]:
                per_owner: dict[int, int] = {}
                for w in iter_bits(self._adj(t) & self.n3_mask):
                    owner = self.pool_owner.get(w)
                    if owner is not None and owner != u:
                        per_owner[owner] = per_owner.get(owner, 0) + 1
                if any(cnt >= 2 for cnt in per_owner.values()):
                    commits.add((min(u, t), max(u, t)))
        for s in sorted(self.shared3):
            for t in iter_bits(self._adj(s) & self.n3_mask & ~shared_mask):
                owner = self.pool_owner.get(t)
                if owner is None:
                    continue
                if self.state[t] == WHITE:
                    self._fail("white-endpoint-committed")
                commits.add(edge(owner, t))
        if self._commit_all(commits, "contact-commit"):
            return True
        changed = False
        for s in sorted(self.shared3):
            self.state[s] = WHITE
        for s in sorted(self.shared3):
            for z in iter_bits(self._adj(s)):
                if self.state[z] == WHITE:
                    self._fail(R_WHITE_WHITE)
                self.state[z] = BLACK
            self.alive &= ~(1 << s)
            self._tag("shared-contact-white-elim")
            changed = True
        return changed

    def sweep_colored_boundary(self) -> bool:
        """Push colors across the level-3 boundary.

        A white vertex forces every unset neighbor to be matched: pool
        neighbors commit with their owner, deep neighbors turn black.  A
        black deep vertex can never be mated into level 3, so its unset
        level-3 neighbors turn white.
        """
        changed = False
        commits: list[Edge] = []
        for v in iter_bits(self.alive):
            if self.state[v] != WHITE:
                continue
            for t in iter_bits(self._adj(v)):
                if self.state[t] != UNSET:
                    if self.state[t] == WHITE:
                        self._fail(R_WHITE_WHITE)
                    continue
                if self.lev[t] == 3:
                    owner = self.pool_owner.get(t)
                    if owner is None:
                        self._fail("shared-contact-conflict")
                    commits.append(edge(owner, t))
                elif self.lev[t] >= 4:
                    self.state[t] = BLACK
                    changed = True
        if self._commit_all(commits, "white-neighbor-commit"):
            return True
        for z in iter_bits(self.deep_mask):
            if self.state[z] != BLACK:
                continue
            for t in iter_bits(self._adj(z) & self.n3_mask):
                if self.state[t] == BLACK:
                    self._fail(R_TWO_BLACK)
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
            pool = [t for t in self.pools[u] if self.alive >> t & 1]
            if not pool:
                self._fail("pool-empty")
            nb = list(iter_bits(self._adj(u)))
            closed = self._adj(u) | (1 << u)
            for i, a in enumerate(nb):
                for b in nb[i + 1:]:
                    if bits[a] >> b & 1:
                        continue
                    if bits[a] & bits[b] & self.alive & ~closed:
                        for t in (a, b):
                            if self.pool_owner.get(t) == u and self.state[t] == UNSET:
                                self.state[t] = WHITE
                                self._tag("cycle4-whiten")
                                changed = True
            candidates = [t for t in pool if self.state[t] == UNSET]
            if not candidates:
                self._fail("candidate-exhausted")
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
            if self.cfg.strict:
                self._strict_decomposition_checks()
            return

    # -- component coloring -------------------------------------------------

    def classify_components(self) -> tuple[list[ComponentTask], list[ComponentTask]]:
        """Split the level-2/3 structure components into freestanding ones and
        those coupled to the deep part through an uncolored deep vertex.

        Raises :class:`ClassViolationError` when more than three coupled
        components exist, which cannot happen inside the supported class.
        """
        struct_mask = 0
        for u in self.singles:
            struct_mask |= 1 << u
        for t in self.pool_owner:
            if self.alive >> t & 1:
                struct_mask |= 1 << t
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
            first = singles[0]
            seeds = tuple(
                t for t in self.pools[first]
                if self.alive >> t & 1 and self.state[t] == UNSET
            )
            task = ComponentTask(singles=singles, seeds=seeds)
            (coupled if coupled_flag else free).append(task)
        if len(coupled) > 3:
            witness = patterns.find_induced_sijk(self.g, 1, 2, 4)
            raise ClassViolationError(witness)
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
        stalled: tuple[int, tuple[int, ...], list[int]] | None = None
        for task in tasks:
            for u in task.singles:
                pool = self.pools[u]
                if any(state[t] == BLACK for t in pool):
                    continue
                cands = [t for t in pool if state[t] == UNSET]
                stalled = (u, pool, cands)
                break
            if stalled:
                break
        if stalled is None:
            yield state
            return
        u, pool, cands = stalled
        cands.sort(key=lambda t: (self.g.weight((u, t)), t))
        pool_mask = 1 << u
        for t in pool:
            pool_mask |= 1 << t
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

    def propagate_component(self, task: ComponentTask, seed: int) -> list[int] | None:
        """Color one structure component from a single seed choice.

        Seeds the given pool vertex black, closes under the forcing rules,
        finishes any undecided pools, and returns the resulting state list,
        or None when the seed contradicts.
        """
        if self.state[seed] != UNSET:
            return None
        trial = list(self.state)
        trial[seed] = BLACK
        if propagate(self.g, trial, [seed], self.alive) is not None:
            return None
        return next(self._completions(trial, [task]), None)

    def _solve_free_component(self, task: ComponentTask) -> None:
        """Fix a freestanding component to its best (or first) feasible coloring."""
        best: tuple[float, list[int]] | None = None
        for seed in task.seeds:
            state = self.propagate_component(task, seed)
            if state is None:
                continue
            if not self.cfg.minimize:
                best = (0.0, state)
                break
            weight = sum(
                self.g.weight((u, t))
                for u in task.singles
                for t in iter_bits(self._adj(u))
                if state[t] == BLACK and self.pool_owner.get(t) == u
            )
            if best is None or weight < best[0]:
                best = (weight, state)
        if best is None:
            self._fail("component-infeasible")
        self.state = best[1]
        self._tag("component-colored")

    def _iter_core_colorings(self, coupled: list[ComponentTask]) -> Iterator[list[int]]:
        """Joint seed enumeration over the coupled components.

        The cartesian product has at most three factors inside the class;
        each combination is closed under propagation across the shared deep
        vertices before being offered to the deep finisher.
        """
        if not coupled:
            state = list(self.state)
            if propagate(self.g, state, list(iter_bits(self.alive)), self.alive) is None:
                yield state
            return
        for combo in product(*[task.seeds for task in coupled]):
            state = list(self.state)
            ok = True
            for seed in combo:
                if state[seed] == WHITE:
                    ok = False
                    break
                state[seed] = BLACK
            if not ok:
                continue
            if propagate(self.g, state, list(combo), self.alive) is not None:
                continue
            yield from self._completions(state, coupled)

    # -- finishing -----------------------------------------------------------

    def _solve_strays(self) -> tuple[frozenset[Edge], float] | None:
        """Solve the alive vertices that reductions cut off from the anchor's levels.

        All of them go to the sub-solver in one hand-off, which may hold
        several disconnected pieces; the sub-solver searches those in turn.
        """
        level_union = 0
        for mask in self.level_masks:
            level_union |= mask
        stray_mask = self.alive & ~level_union
        if not stray_mask:
            return frozenset(), 0.0
        sub, state, old_of_new = restrict(self.g, list(iter_bits(stray_mask)), self.state)
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
            sub, sub_state, old_of_new = restrict(self.g, list(iter_bits(deep_alive)), state)
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
        # outside the levels entirely, lev == -1).
        core_pairs = {
            e
            for e in self.g.edges
            if self.alive >> e[0] & 1
            and self.alive >> e[1] & 1
            and 0 <= self.lev[e[0]] <= 3
            and 0 <= self.lev[e[1]] <= 3
            and state[e[0]] == BLACK
            and state[e[1]] == BLACK
        }
        matching = frozenset(self.committed) | core_pairs | deep_matching
        weight = (
            self.g.matching_weight(self.committed)
            + self.g.matching_weight(core_pairs)
            + deep_weight
        )
        return matching, weight

    # -- strict-mode checks ---------------------------------------------------

    def _check_failed(self, message: str) -> None:
        """A strict-mode check failed: report the spider of an off-class
        input, or raise :class:`StructuralCheckError` for an in-class one."""
        witness = patterns.find_induced_sijk(self.g, 1, 2, 4)
        if witness is not None:
            raise ClassViolationError(witness)
        raise StructuralCheckError(message)

    def _strict_decomposition_checks(self) -> None:
        for u in self.singles:
            inner = [
                (a, b)
                for a in self.pools[u]
                for b in self.pools[u]
                if a < b and self.bits[a] >> b & 1
            ]
            if len(inner) > 1:
                self._check_failed(f"pool of {u} holds more than one edge")
        if self.g.n <= 64:
            self._strict_path_endpoints()

    def _strict_path_endpoints(self) -> None:
        """Every vertex at level 3 or deeper starts a chordless 5-path descending
        into the lower levels."""
        for v in iter_bits(self.alive):
            if self.lev[v] < 3:
                continue

            def extend(path: list[int]) -> bool:
                if len(path) == 5:
                    return True
                tail = path[-1]
                for u in iter_bits(self._adj(tail)):
                    if u in path or self.lev[u] >= self.lev[v]:
                        continue
                    if any(self.bits[u] >> p & 1 for p in path[:-1]):
                        continue
                    if extend(path + [u]):
                        return True
                return False

            if not extend([v]):
                self._check_failed(f"vertex {v} lacks a descending 5-path")

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
                bound = max(
                    (self.bits[u].bit_count() for t in coupled for u in t.singles),
                    default=1,
                )
                limit = max(bound, 1) ** 3
            best: tuple[float, frozenset[Edge]] | None = None
            count = 0
            for state in colorings:
                count += 1
                if self.cfg.strict and coupled and count > limit:
                    raise ClassViolationError(
                        patterns.find_induced_sijk(self.g, 1, 2, 4)
                    )
                finished = self.finish_deep(state)
                if finished is None:
                    continue
                matching = finished[0] | stray_matching
                weight = finished[1] + stray_weight
                if self.cfg.strict:
                    self._strict_matching_checks(matching)
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

    def _strict_matching_checks(self, matching: frozenset[Edge]) -> None:
        for u, v in matching:
            lu, lv = self.lev[u], self.lev[v]
            if lu == 3 and lv == 3:
                self._check_failed("matched pair inside level 3")
            if 3 in (lu, lv) and max(lu, lv) >= 4:
                self._check_failed("matched pair between level 3 and deeper")

    def _found(self, matching: frozenset[Edge], weight: float) -> SolveOutcome:
        if any((self.whitened >> u | self.whitened >> v) & 1 for u, v in matching):
            raise StructuralCheckError("matching uses an edge at a whitened vertex")
        return SolveOutcome(
            FOUND,
            matching=matching,
            weight=weight,
            trace=tuple(self.trace),
        )


def _solve_residual(g: Graph, state: list[int], cfg: SolverConfig) -> SolveOutcome:
    """Solve one connected residual piece left over after the forced closure.

    ``state`` holds the piece's vertex colors.  The piece has at least one
    edge: :func:`_solve_pieces` hands over only connected pieces with two or
    more vertices.
    """
    bits = g.bits
    singles: list[tuple[float, Edge]] = []
    for u, v in g.edges:
        if state[u] == WHITE or state[v] == WHITE:
            continue
        if bits[u].bit_count() + bits[v].bit_count() - 1 == g.m:
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
        out = AnchorSolver(g, anchor, state, cfg).run()
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
    trace: list[str] = []
    committed: list[Edge] = []
    residual, residual_state, old_of_new = g, [UNSET] * g.n, tuple(range(g.n))
    if seeds:
        trace.append(f"forced-closure:{len(seeds)}")
        if g.is_dim(seeds):
            cfg.tick("closure", start)
            return SolveOutcome(
                FOUND,
                matching=frozenset(seeds),
                weight=g.matching_weight(seeds),
                trace=tuple(trace) + ("forced-dominates",),
            )
        closure = forced_edge_closure(g, sorted(seeds))
        if not closure.ok:
            cfg.tick("closure", start)
            return SolveOutcome(NO_DIM, reason=closure.reason, trace=tuple(trace))
        committed = closure.committed
        residual, residual_state, old_of_new = closure.graph, closure.state, closure.provenance
    cfg.tick("closure", start)

    return _solve_pieces(
        residual,
        residual_state,
        old_of_new,
        lambda sub, sub_state: _solve_residual(sub, sub_state, cfg),
        set(committed),
        g.matching_weight(committed),
        trace,
    )


def _solve_pieces(
    g: Graph,
    state: list[int],
    ids: Sequence[int],
    solve_piece: Callable[[Graph, list[int]], SolveOutcome],
    matching: set[Edge],
    weight: float,
    trace: list[str],
) -> SolveOutcome:
    """Solve each connected piece of a colored graph and merge the answers.

    ``state`` holds the vertex colors of ``g``; each piece is handed its own
    state list, in the piece's ids.  Pieces go in order of their least
    vertex; a one-vertex piece has nothing to match and is skipped.  ``ids``
    maps the vertices of ``g`` to the caller's, in which the answer is
    given: the pieces' matchings join ``matching``, their weights are added
    to ``weight`` in piece order and their traces extend ``trace``.  The
    first piece without a matching ends the merge; its verdict and reason
    come back with the trace so far and its witness in the caller's ids.
    """
    for comp in g.connected_components():
        if len(comp) == 1:
            continue
        sub, sub_state, sub_ids = restrict(g, comp, state)
        out = solve_piece(sub, sub_state)
        if not out.found:
            witness = out.witness
            if witness is not None:
                witness = patterns.PatternWitness(
                    witness.pattern, tuple(ids[sub_ids[v]] for v in witness.vertices)
                )
            return SolveOutcome(
                out.verdict,
                reason=out.reason,
                witness=witness,
                trace=tuple(trace) + out.trace,
            )
        matching.update(edge(ids[sub_ids[a]], ids[sub_ids[b]]) for a, b in out.matching)
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
      holds a 4-clique, whichever component it lies in; otherwise it
      handles components independently with the anchor pipeline.
      ``structural`` selects it outright, and so do ``strict``, which turns
      on the structural runtime assertions used by the test harness, and
      ``verify_class``.

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
            range(g.n),
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
