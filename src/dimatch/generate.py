"""Instance generators: planted matchings, rejection-sampled class members, gadgets.

Randomness comes from a self-contained SplitMix64 generator (the published
64-bit mixer with increment 0x9E3779B97F4A7C15 and the 0xBF58476D1CE4E5B9 /
0x94D049BB133111EB finalizer constants), so identical specs reproduce
identical graphs on any platform.

Planted instances are assembled from independently verified blocks: small
dense gadgets, paths, cycles of length divisible by three, and hub stars.
Each block carries its matching by construction, every block is built free
of K4 and of the spider S(1,2,4), and the union of blocks inherits both
properties.  Arbitrary connected random graphs of this size essentially
always contain the forbidden spider, so block composition is what makes
large in-class instances reachable at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import patterns
from .graph import Edge, Graph

_MASK64 = (1 << 64) - 1
_WEIGHT_LO, _WEIGHT_HI = 1, 10
_RETRY_BUDGET = 400


class GenerationError(ValueError):
    """Bad generator specification."""


class RetryBudgetExceeded(RuntimeError):
    """Rejection sampling did not find a conforming graph within budget."""


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring for constants."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform-enough draw in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


@dataclass(frozen=True)
class GenSpec:
    """Reproducible description of one generated instance."""

    n: int
    seed: int = 0
    mode: str = "planted"
    density: float | None = None
    gadget_name: str | None = None
    connected: bool = False


# -- named gadgets -----------------------------------------------------------


_SPIDER_RE = re.compile(r"^s[_ ](\d+)[_ ](\d+)[_ ](\d+)$")


def gadget(name: str) -> Graph:
    """Construct a named small graph; the shapes of ``patterns.SHAPES`` and
    the spiders are labelled in witness role order."""
    name = name.strip().lower()
    if name in patterns.SHAPES:
        return Graph(*patterns.SHAPES[name])
    if name == "claw":
        return gadget("s_1_1_1")
    if name.startswith("c") and name[1:].isdigit():
        k = int(name[1:])
        if not 3 <= k <= 12:
            raise GenerationError(f"cycle length {k} out of range 3..12")
        return Graph(k, patterns.cycle_edges(k))
    if name.startswith("p") and name[1:].isdigit():
        k = int(name[1:])
        if not 2 <= k <= 12:
            raise GenerationError(f"path length {k} out of range 2..12")
        return Graph(k, patterns.path_edges(k))
    m = _SPIDER_RE.match(name)
    if m:
        i, j, k = (int(t) for t in m.groups())
        if i + j + k > 8:
            raise GenerationError("spider legs limited to total length 8")
        return Graph(*patterns.spider_edges(i, j, k))
    raise GenerationError(f"unknown gadget {name!r}")


# -- planted instances --------------------------------------------------------


def _block_chunk(size: int, rng: SplitMix64) -> tuple[list[Edge], list[Edge]]:
    """Small planted gadget: matched pairs plus an independent set wired to them.

    Only unmatched-to-matched edges are ever added, so every edge is
    dominated exactly once by construction and no 4-clique can appear.
    """
    pairs = 2 if size >= 6 and rng.randrange(2) else 1
    blacks = list(range(2 * pairs))
    matching = [(2 * i, 2 * i + 1) for i in range(pairs)]
    edges = list(matching)
    whites = list(range(2 * pairs, size))
    for idx, w in enumerate(whites):
        if pairs == 2 and idx == 0:
            edges.append((rng.choice(blacks[:2]), w))
            edges.append((rng.choice(blacks[2:]), w))
        else:
            edges.append((rng.choice(blacks), w))
        for b in blacks:
            if (b, w) not in edges and rng.random() < 0.25:
                edges.append((b, w))
    return edges, matching


def _path_chunk(size: int) -> tuple[list[Edge], list[Edge]]:
    edges = patterns.path_edges(size)
    r = size % 3
    if r == 2:
        picks = list(range(0, size - 1, 3))
    else:
        picks = list(range(1, size - 1, 3))
    matching = [edges[i] for i in picks]
    return edges, matching


def _cycle_chunk(size: int) -> tuple[list[Edge], list[Edge]]:
    if size % 3:
        raise GenerationError("cycle blocks need length divisible by 3")
    edges = patterns.cycle_edges(size)
    matching = [(i, i + 1) for i in range(0, size - 1, 3)]
    return edges, matching


def _hub_chunk(size: int, rng: SplitMix64) -> tuple[list[Edge], list[Edge]]:
    """A hub vertex holding several matched pairs, leaves hanging off the far ends."""
    max_pairs = min((size - 1) // 2, 6)
    pairs = rng.randint(2, max_pairs)
    hub = 0
    edges: list[Edge] = []
    matching: list[Edge] = []
    for i in range(pairs):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges.append((hub, a))
        edges.append((a, b))
        matching.append((a, b))
    far = [2 + 2 * i for i in range(pairs)]
    for leaf in range(1 + 2 * pairs, size):
        edges.append((rng.choice(far), leaf))
    return edges, matching


def generate_planted(spec: GenSpec) -> tuple[Graph, frozenset[Edge]]:
    """Graph with a known dominating induced matching, assembled from blocks."""
    if spec.n < 2:
        raise GenerationError("planted instances need at least 2 vertices")
    rng = SplitMix64(spec.seed)
    edges: list[Edge] = []
    matching: list[Edge] = []
    offset = 0
    remaining = spec.n
    # A last single vertex stays isolated.
    while remaining > 1:
        if remaining <= 4:
            chunk_edges, chunk_matching = _path_chunk(remaining)
            size = remaining
        else:
            kind = rng.choice(["block", "block", "path", "cycle", "hub"])
            if kind == "block":
                size = min(rng.randint(4, 7), remaining)
                chunk_edges, chunk_matching = _block_chunk(size, rng)
            elif kind == "path":
                size = min(rng.randint(5, 12), remaining)
                chunk_edges, chunk_matching = _path_chunk(size)
            elif kind == "cycle":
                size = min(3 * rng.randint(2, 4), remaining)
                if size % 3:
                    size = 5
                    chunk_edges, chunk_matching = _path_chunk(size)
                else:
                    chunk_edges, chunk_matching = _cycle_chunk(size)
            else:
                size = min(rng.randint(7, 21), remaining)
                chunk_edges, chunk_matching = _hub_chunk(size, rng)
        edges.extend((u + offset, v + offset) for u, v in chunk_edges)
        matching.extend((u + offset, v + offset) for u, v in chunk_matching)
        offset += size
        remaining -= size
    g = Graph(spec.n, edges)
    planted = frozenset(matching)
    if not g.is_dim(planted):
        raise GenerationError("internal: planted matching failed verification")
    return g, planted


# -- rejection sampling --------------------------------------------------------


def generate_rejection(spec: GenSpec) -> Graph:
    """Random graph resampled until it is K4-free and S(1,2,4)-free."""
    if spec.n < 1:
        raise GenerationError("need at least one vertex")
    density = spec.density if spec.density is not None else 0.3
    rng = SplitMix64(spec.seed)
    pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    for _ in range(_RETRY_BUDGET):
        edges = [e for e in pairs if rng.random() < density]
        g = Graph(spec.n, edges)
        if spec.connected and not g.is_connected():
            continue
        # The K4 check first: it is much cheaper than the spider search.
        if patterns.find_k4(g) is None and patterns.find_induced_sijk(g, 1, 2, 4) is None:
            return g
    raise RetryBudgetExceeded(
        f"no conforming graph within {_RETRY_BUDGET} draws (n={spec.n}, density={density})"
    )


def generate(spec: GenSpec) -> tuple[Graph, frozenset[Edge] | None]:
    """Dispatch on the spec's mode; planted mode also returns its matching."""
    if spec.mode == "planted":
        return generate_planted(spec)
    if spec.mode == "rejection":
        return generate_rejection(spec), None
    if spec.mode == "gadget":
        if not spec.gadget_name:
            raise GenerationError("gadget mode needs a gadget name")
        return gadget(spec.gadget_name), None
    raise GenerationError(f"unknown mode {spec.mode!r}")


def with_random_weights(g: Graph, seed: int) -> Graph:
    """Copy of the graph with integer edge weights drawn uniformly from [1, 10]."""
    rng = SplitMix64(seed)
    weights = {e: float(rng.randint(_WEIGHT_LO, _WEIGHT_HI)) for e in g.edges}
    return Graph(g.n, g.edges, weights)
