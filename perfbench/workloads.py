"""The benchmark's workloads: seeded corpora, the timed op, the checker.

Every call into dimatch goes through a module attribute (``solver.solve``,
``fileio.parse_edge_list``, ...) looked up at call time, so the tracing
wrappers installed for a traced run are the ones that run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter

from dimatch import coloring, fileio, graph, oracle, patterns, solver, subsolver

# The package re-exports the function generate(), which shadows the module.
generate = importlib.import_module("dimatch.generate")

FOUND = solver.FOUND
NO_DIM = solver.NO_DIM
CLASS_VIOLATION = solver.CLASS_VIOLATION
EXHAUSTED = "exhausted"
ERROR = "error"


@dataclass
class Answer:
    """What one op produced: the verdict, its evidence and the graph solved."""

    verdict: str
    weight: float | None = None
    matching: frozenset | None = None
    witness: object = None
    graph: object = None
    ref: object = None
    error: str | None = None


class Workload:
    """One corpus plus the op run on each of its items.

    ``nominal_ops_per_s`` is the untraced op rate on a 2-core x86 box with
    Python 3.11.  It only sizes the traced sample (half a run's seconds),
    so that the sample's op count, and with it every count metric, depends
    on the seed and ``--seconds`` alone.
    """

    name = ""
    why = ""
    minimize = False
    strict = False
    oracle_mode: str | None = None
    in_class = True
    planted = False
    nominal_ops_per_s = 1.0

    def build(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, item):
        """The part of an op before the solve; returns the graph to solve."""
        return item

    def op(self, item, marks: list | None = None, **solve_kwargs) -> Answer:
        g = self.prepare(item)
        if g is None:
            return Answer(EXHAUSTED)
        if marks is not None:
            marks.append(perf_counter())
        out = solver.solve(g, minimize=self.minimize, strict=self.strict, **solve_kwargs)
        if marks is not None:
            marks.append(perf_counter())
        ref = oracle.oracle_solve(g, mode=self.oracle_mode) if self.oracle_mode else None
        return Answer(out.verdict, out.weight, out.matching, out.witness, g, ref)

    def check(self, ans: Answer) -> str | None:
        """Failure reason for one answer, or None when it is right."""
        if ans.verdict == ERROR:
            return "exception"
        if ans.verdict == EXHAUSTED:
            return None
        g = ans.graph
        if ans.verdict == CLASS_VIOLATION:
            if self.in_class:
                return "class_violation"
            # Off-class input: the solver may decline, but only with a real
            # induced S(1,2,4) to show for it.
            if ans.witness is None or not patterns.verify_witness(g, ans.witness, (1, 2, 4)):
                return "uncertified_class_violation"
            return None
        found = ans.verdict == FOUND
        if self.planted and not found:
            return "planted_not_found"
        if ans.ref is not None:
            if found != ans.ref.feasible:
                return "oracle_mismatch"
            if self.minimize and found and abs(ans.weight - ans.ref.best[1]) > 1e-9:
                return "weight_mismatch"
        if found and not g.is_dim(ans.matching):
            return "invalid_matching"
        return None


class Exhaustive6(Workload):
    name = "exhaustive6"
    why = (
        "all 22,667 connected K4-free graphs on 2-6 vertices in min-weight strict mode: "
        "per-call overhead and the oracle dominate, as in tier-1's largest test"
    )
    minimize = True
    strict = True
    oracle_mode = "min_weight"
    nominal_ops_per_s = 2400.0

    def build(self, seed: int) -> list:
        # The same enumeration as compare.run_exhaustive; the seed only
        # shuffles the order in which the fixed corpus is visited.
        corpus = []
        for n in range(2, 7):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(1 << len(pairs)):
                bits = oracle.mask_adjacency(n, mask, pairs)
                if oracle.mask_connected(n, bits) and oracle.bits_k4_free(bits):
                    corpus.append(oracle.mask_to_graph(n, mask, pairs))
        generate.SplitMix64(seed).shuffle(corpus)
        return corpus


class Planted(Workload):
    name = "planted"
    why = (
        "parse plus exists-mode solve of planted n=1000 DIMACS text, the CLI solve path: "
        "about 120 small components stress the split, closure and forcing rules"
    )
    planted = True
    nominal_ops_per_s = 15.0
    corpus_size = 110
    n = 1000

    def build(self, seed: int) -> list:
        rng = generate.SplitMix64(seed)
        texts = []
        for _ in range(self.corpus_size):
            g, _ = generate.generate_planted(generate.GenSpec(n=self.n, seed=rng.next_u64()))
            texts.append(fileio.write_edge_list(g))
        return texts

    def prepare(self, text: str):
        return fileio.parse_edge_list(text)


def degree2_block(rng, pairs: int = 100, whites: int = 100):
    """Off-class block: matched pairs plus white vertices of degree two.

    Vertices 2i, 2i+1 form pair i; each white vertex is joined to one end of
    two different pairs.  Whites are independent and blacks induce only the
    pairs, so the pairs are a dominating induced matching and the graph is
    K4-free.  Returns the graph and the planted matching.
    """
    n = 2 * pairs + whites
    matching = [(2 * i, 2 * i + 1) for i in range(pairs)]
    edges = list(matching)
    for w in range(2 * pairs, n):
        a = rng.randrange(pairs)
        b = rng.randrange(pairs - 1)
        b += b >= a
        for p in (a, b):
            edges.append((2 * p + rng.randrange(2), w))
    return graph.Graph(n, edges), frozenset(matching)


class Block2(Workload):
    name = "block2"
    why = (
        "off-class degree-2 blocks with n=300 in exists mode: the deep-residue "
        "sub-solver dominates and per-instance time has a heavy tail"
    )
    in_class = False
    planted = True
    nominal_ops_per_s = 7.0
    corpus_size = 400

    def build(self, seed: int) -> list:
        rng = generate.SplitMix64(seed)
        return [degree2_block(rng)[0] for _ in range(self.corpus_size)]


class Sampled(Workload):
    name = "sampled"
    why = (
        "rejection-sampled connected class members, n cycling 12-16 at density 0.25, "
        "drawn inside the op as compare --samples does: the spider detector dominates"
    )
    strict = True
    oracle_mode = "exists"
    nominal_ops_per_s = 13.0
    corpus_size = 5000

    def build(self, seed: int) -> list:
        rng = generate.SplitMix64(seed)
        return [
            generate.GenSpec(
                n=12 + i % 5, seed=rng.next_u64(), mode="rejection", density=0.25, connected=True
            )
            for i in range(self.corpus_size)
        ]

    def prepare(self, spec):
        try:
            return generate.generate_rejection(spec)
        except generate.RetryBudgetExceeded:
            return None


WORKLOADS = {w.name: w for w in (Exhaustive6(), Planted(), Block2(), Sampled())}


def plain_solve(g, minimize: bool) -> float | None:
    """Plain backtracking: solve_precolored per component, no structural front end.

    Returns the total weight, or None when some component has no DIM.
    """
    total = 0.0
    for comp in g.connected_components():
        if len(comp) == 1:
            continue
        sub, _ = g.induced_subgraph(comp)
        res = subsolver.solve_precolored(sub, coloring.Coloring.fresh(sub.n), minimize=minimize)
        if res is None:
            return None
        total += res[1]
    return total
