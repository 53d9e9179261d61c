"""Every contradiction the anchor solver can report is reached through `solve`.

`TestReachability` pins one small graph per reason the anchor solver, or
the level-1 test before it, reports, found through ``solve``'s anchor log
and checked against the oracle, and scans ``solver.py`` so that a reason
without a row fails: a branch no ``solve`` input reaches is deleted, not
exempted.  `TestStructuralChecks` does the same for the messages of the
structural checks, save the two that test a claim of the paper and are
listed with a reason.  The branches and checks that were deleted as
unreachable rest on invariants of a run (see the `AnchorSolver`
docstring); `TestInvariantGuard` asserts them at each stage over a fixed
corpus, in the tests only, so that the solve path pays nothing for them.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from dimatch import coloring, patterns, solver
from dimatch.coloring import BLACK, UNSET, WHITE
from dimatch.generate import GenSpec, SplitMix64, generate_planted
from dimatch.graph import Graph, GraphError, iter_bits
from dimatch.oracle import enumerate_all_graphs, oracle_solve
from dimatch.patterns import verify_witness
from dimatch.solver import CLASS_VIOLATION, AnchorSolver, solve

from conftest import FREE4, budget_trip_block, cycle, degree2_block, path

# (reason, graph, solve kwargs): the anchor log of the solve shows the reason.
ROWS = [
    ("level1-not-independent", cycle(4), {}),
    ("pool-empty", Graph(5, [(0, 1), (0, 2), (1, 4), (3, 4)]), {}),
    ("level2-structure",
     Graph(7, [(0, 2), (0, 5), (0, 6), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)]), {}),
    ("candidate-exhausted",
     Graph(7, [(0, 4), (1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (5, 6)]), {}),
    ("distance-1",
     Graph(7, [(0, 5), (1, 4), (1, 6), (2, 3), (2, 4), (3, 5), (3, 6)]), {}),
    ("shared-vertex",
     Graph(8, [(0, 7), (1, 3), (1, 7), (2, 5), (3, 5), (3, 6), (4, 6)]), {}),
    ("white-adjacent-white",
     Graph(7, [(0, 4), (1, 2), (1, 6), (2, 5), (3, 4), (3, 5), (3, 6), (5, 6)]), {}),
    ("stray-infeasible",
     Graph(7, [(0, 1), (0, 4), (2, 3), (2, 5), (3, 6), (4, 5)]), {}),
    ("no-feasible-core-coloring",
     Graph(8, [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (3, 5), (4, 6), (6, 7)]), {}),
    # Anchor 0-1: level 1 holds 2, 3, 4; 5, 6, 7 hang off 3 at level 2, and
    # their private mates 8, 9, 10 form a triangle at level 3.
    ("level3-odd-cycle",
     Graph(11, [(0, 1), (0, 2), (0, 3), (1, 4), (3, 5), (3, 6), (3, 7),
                (5, 8), (6, 9), (7, 10), (8, 9), (9, 10), (8, 10)]), {}),
    # Anchor 0-1: the shared level-3 vertex 5 sees 3 and 4 at level 2 and
    # the level-4 vertex 6, which the closure of the diamond 6, 7, 8, 9
    # (mid edge 7-8) whitened.
    ("shared-contact-conflict",
     Graph(10, [(0, 1), (0, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6),
                (6, 7), (6, 8), (7, 8), (7, 9), (8, 9)]), {}),
    # Anchor 0-1: the closure of the diamond 9, 10, 11, 12 (mid edge 9-10)
    # whitens 6 and 8.  The sweep then blackens 7, next to the white 8, and
    # commits 3-4, since 4 sees the white 6; but 4 also sees the black 7.
    ("black-two-black-neighbors",
     Graph(13, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (7, 8),
                (9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (6, 9), (8, 10)]), {}),
    # Anchor 0-1: the pools {7, 8, 9} of 5 and {10, 11, 12} of 6 are joined
    # by three disjoint contacts, so every seed of the component fails.
    ("component-infeasible",
     Graph(13, [(0, 1), (0, 2), (0, 3), (1, 4), (3, 5), (4, 6), (5, 7), (5, 8),
                (5, 9), (6, 10), (6, 11), (6, 12), (7, 10), (8, 11), (9, 12)]), {}),
]


def _commit_pair_reasons() -> set[str]:
    """The reason constants that :func:`coloring.commit_pair` returns."""
    tree = ast.parse(inspect.getsource(coloring.commit_pair))
    return {
        getattr(coloring, node.value.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
    }


def _anchor_outcome_reasons(tree: ast.AST) -> set[str]:
    """The constant reasons of the ``NO_DIM_WITH_ANCHOR`` outcomes built in
    ``tree``: the anchors rejected before a solver is built."""
    return {
        kw.value.value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", None) == "SolveOutcome"
        and call.args
        and getattr(call.args[0], "id", None) == "NO_DIM_WITH_ANCHOR"
        for kw in call.keywords
        if kw.arg == "reason" and isinstance(kw.value, ast.Constant)
    }


def reported_reasons() -> set[str]:
    """Every reason ``solver.py`` reports for an anchor, read from its
    source: raised as an ``AnchorContradiction``, or given outright to a
    ``NO_DIM_WITH_ANCHOR`` outcome."""
    tree = ast.parse(inspect.getsource(solver))
    reasons = _anchor_outcome_reasons(tree)
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call) or not call.args:
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name != "AnchorContradiction":
                continue
            arg = call.args[0]
            if isinstance(arg, ast.Constant):
                reasons.add(arg.value)
            elif isinstance(arg, ast.Name) and arg.id.startswith("R_"):
                reasons.add(getattr(coloring, arg.id))
            elif isinstance(arg, ast.Name) and func.name == "_commit":
                reasons |= _commit_pair_reasons()
            else:
                raise AssertionError(f"unresolved reason {ast.unparse(arg)} in {func.name}")
    return reasons


class TestReachability:
    def test_every_reason_has_a_row(self):
        rows = {reason for reason, _, _ in ROWS}
        assert len(rows) == len(ROWS)
        assert reported_reasons() == rows

    @pytest.mark.parametrize("reason, g, kwargs", ROWS, ids=[row[0] for row in ROWS])
    def test_solve_reaches_the_reason(self, reason, g, kwargs):
        log: list = []
        out = solve(g, structural=True, anchor_log=log, **kwargs)
        assert reason in {entry[3] for entry in log}
        minimize = kwargs.get("minimize", False)
        ref = oracle_solve(g, mode="min_weight" if minimize else "exists")
        assert out.found == ref.feasible
        if out.found and minimize:
            assert out.weight == ref.best[1]

    @pytest.mark.parametrize("minimize", [False, True])
    def test_solve_reaches_four_free_components(self, monkeypatch, minimize):
        """FREE4 is in class, and one anchor of its residual reaches
        ``classify_components`` with four free components and no coupled
        one, in strict mode; the weight agrees with the oracle."""
        split = spy_split(monkeypatch)
        out = solve(FREE4, minimize=minimize, strict=True)
        assert (4, 0) in split
        assert out.found and out.weight == 6.0
        assert oracle_solve(FREE4, mode="min_weight").best[1] == 6.0

    def test_solve_reaches_two_coupled_components(self, monkeypatch):
        """An off-class degree-2 block (n = 28) takes the structural route
        to an anchor with two coupled components, whose seeds
        ``_iter_core_colorings`` enumerates as a product; the minimum
        weight agrees with the oracle.  No in-class corpus reaches more
        than one coupled component."""
        g = degree2_block(SplitMix64(1), 10, 8)
        split = spy_split(monkeypatch)
        out = solve(g, minimize=True, structural=True)
        assert any(coupled == 2 for _, coupled in split)
        assert out.found and out.weight == 10.0
        assert oracle_solve(g, mode="min_weight").best[1] == 10.0


def spy_split(monkeypatch) -> list[tuple[int, int]]:
    """Record the free and coupled component counts of every
    ``classify_components`` call."""
    split: list[tuple[int, int]] = []
    real = AnchorSolver.classify_components

    def classify(self):
        free, coupled = real(self)
        split.append((len(free), len(coupled)))
        return free, coupled

    monkeypatch.setattr(AnchorSolver, "classify_components", classify)
    return split


# (message, graph, solve kwargs): the solve fails the structural check with
# this message and answers with the spider it finds.
CHECK_ROWS = [
    ("more than three coupled components", budget_trip_block(), {"structural": True}),
    ("deep residue contains a (1,2,2)-spider",
     degree2_block(SplitMix64(1), 6, 6), {"minimize": True, "strict": True}),
]

# The strict checks of a claim of the paper, which no input fails.
PAPER_CLAIMS = {
    "deep residue contains a claw":
        "an S(1,1,4)-free input leaves a claw-free deep residue",
    "more core colorings than the degree bound allows":
        "an anchor's coupled components have at most deg³ core colorings",
}


def structural_checks() -> set[str]:
    """Every message ``solver.py`` hands to ``_check_failed``, read from its source."""
    messages = set()
    for call in ast.walk(ast.parse(inspect.getsource(solver))):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_check_failed":
            arg = call.args[0]
            if not isinstance(arg, ast.Constant):
                raise AssertionError(f"unresolved message {ast.unparse(arg)}")
            messages.add(arg.value)
    return messages


class TestStructuralChecks:
    def test_every_check_has_a_row_or_a_reason(self):
        rows = {message for message, _, _ in CHECK_ROWS}
        assert len(rows) == len(CHECK_ROWS) and not rows & PAPER_CLAIMS.keys()
        assert structural_checks() == rows | PAPER_CLAIMS.keys()

    @pytest.mark.parametrize(
        "message, g, kwargs", CHECK_ROWS, ids=["coupled-components", "deep-spider"]
    )
    def test_solve_fails_the_check(self, monkeypatch, message, g, kwargs):
        failed: list[str] = []
        real = AnchorSolver._check_failed

        def check_failed(self, msg):
            failed.append(msg)
            return real(self, msg)

        monkeypatch.setattr(AnchorSolver, "_check_failed", check_failed)
        out = solve(g, **kwargs)
        assert failed == [message]
        assert out.verdict == CLASS_VIOLATION
        assert verify_witness(g, out.witness, (1, 2, 4))

    def test_strict_runs_the_claw_search(self, monkeypatch):
        """A tree, so K4-free, and S(1,1,4)-free: the strict solve searches
        a deep residue for a claw; the minimum weight agrees with the
        oracle."""
        g = Graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 8), (1, 6), (4, 5), (5, 9), (6, 7)])
        real = patterns.find_induced_sijk
        assert real(g, 1, 1, 4) is None
        legs: list[tuple[int, int, int]] = []

        def find(h, i, j, k):
            legs.append((i, j, k))
            return real(h, i, j, k)

        monkeypatch.setattr(patterns, "find_induced_sijk", find)
        out = solve(g, minimize=True, strict=True)
        assert (1, 1, 1) in legs
        assert out.found and out.weight == 3.0
        assert oracle_solve(g, mode="min_weight").best[1] == 3.0


class TestPrecondition:
    @pytest.mark.parametrize("state", [
        [BLACK, UNSET, UNSET, UNSET],
        [UNSET, UNSET, UNSET, BLACK],
        [UNSET, WHITE, UNSET, UNSET],
        [UNSET, UNSET, WHITE, UNSET],
    ])
    def test_black_vertex_or_white_anchor_rejected(self, state):
        with pytest.raises(GraphError):
            AnchorSolver(path(4), (1, 2), state)

    def test_white_off_the_anchor_accepted(self):
        AnchorSolver(path(4), (1, 2), [WHITE, UNSET, UNSET, UNSET])


def guard_stages(monkeypatch) -> dict[str, int]:
    """Wrap the anchor solver's stages with the invariants the deleted
    checks rest on; returns the counts of guarded calls."""
    seen = {"decompose": 0, "pools": 0, "seeds": 0, "commits": 0, "found": 0}
    real_decompose = AnchorSolver.decompose

    def decompose(self):
        x, y = self.anchor
        level1 = (self.bits[x] | self.bits[y]) & self.alive & ~(1 << x) & ~(1 << y)
        # Level 1 stays independent, so decompose need not test it.
        assert all(not self.bits[v] & level1 for v in iter_bits(level1))
        assert self.state[x] != WHITE and self.state[y] != WHITE
        assert all(self.state[v] != BLACK for v in range(self.g.n) if level1 >> v & 1)
        seen["decompose"] += 1
        real_decompose(self)
        assert all(self.state[t] != BLACK for t in range(self.g.n) if self.n3_mask >> t & 1)

    def pools_alive(real):
        def wrapped(self, *args):
            # The owner lookup: a pool vertex's one level-2 neighbour is
            # the single whose pool holds it.
            assert all(
                self.bits[t] & self.level_masks[2] == 1 << u
                for u in self.singles
                for t in iter_bits(self.pools[u])
            )
            assert all(not self.pools[u] & ~self.alive for u in self.singles)
            # A pool holds at most one edge, each counted from both ends:
            # two would make a diamond, K4 or butterfly with the owner.
            assert all(
                sum((self.bits[t] & pool).bit_count() for t in iter_bits(pool)) <= 2
                for pool in map(self.pools.get, self.singles)
            )
            seen["pools"] += 1
            return real(self, *args)
        return wrapped

    real_seeded = AnchorSolver._seeded

    def seeded(self, seeds, tasks):
        assert len(set(seeds)) == len(seeds)
        assert all(self.state[t] == UNSET for t in seeds)
        seen["seeds"] += 1
        return real_seeded(self, seeds, tasks)

    real_found = AnchorSolver._found

    def found(self, matching, weight):
        # propagate never blackens both ends of an edge inside level 3.
        assert not any(self.n3_mask >> u & self.n3_mask >> v & 1 for u, v in matching)
        seen["found"] += 1
        return real_found(self, matching, weight)

    real_commit_pair = solver.commit_pair

    def commit_pair(g, alive, state, vw):
        seen["commits"] += 1
        return real_commit_pair(g, alive, state, vw)

    monkeypatch.setattr(AnchorSolver, "decompose", decompose)
    for stage in (
        "sweep_colored_boundary", "force_contact_edges", "prune_pools", "classify_components"
    ):
        monkeypatch.setattr(AnchorSolver, stage, pools_alive(getattr(AnchorSolver, stage)))
    monkeypatch.setattr(AnchorSolver, "_seeded", seeded)
    monkeypatch.setattr(AnchorSolver, "_found", found)
    monkeypatch.setattr(solver, "commit_pair", commit_pair)
    return seen


class TestInvariantGuard:
    def test_small_graphs_strict(self, monkeypatch):
        seen = guard_stages(monkeypatch)
        for n in range(2, 7):
            for g in enumerate_all_graphs(n):
                for minimize in (False, True):
                    solve(g, minimize=minimize, strict=True)
        assert seen["decompose"] > 10000 and seen["pools"] > 1000 and seen["found"] > 1000

    def test_random_k4_free_structural(self, monkeypatch):
        """A pool with two edges needs seven vertices: the anchor, a level-1
        vertex, the single and three pool vertices.  These K4-free graphs
        of 7 to 11 vertices reach such pools when the forced-edge closure
        is left out, so the pool-edge guard can fail here."""
        seen = guard_stages(monkeypatch)
        rng = SplitMix64(7)
        solved = 0
        while solved < 1000:
            n = rng.randint(7, 11)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, [e for e in pairs if rng.random() < 0.35])
            if patterns.find_k4(g) is None:
                solve(g, minimize=True, structural=True)
                solved += 1
        assert seen["pools"] > 1000 and seen["found"] > 100

    def test_planted_structural(self, monkeypatch):
        seen = guard_stages(monkeypatch)
        g = generate_planted(GenSpec(n=300, seed=1))[0]
        for minimize in (False, True):
            assert solve(g, minimize=minimize, structural=True).found
        assert seen["decompose"] > 100 and seen["seeds"] > 10 and seen["commits"] > 10
        assert seen["found"] > 10
