"""Golden solve outputs: the full answer of `solve` pinned on a fixed corpus.

Each case is recorded as verdict, sorted matching, weight, trace, reason,
witness and the anchor-log entries, serialised canonically and hashed; the
hashes live in ``golden_solve.json``.  A family case pins a whole graph
family with one hash over the records of its graphs, in enumeration order.
Refactors of the solve path must keep every hash.  To re-record after a deliberate behaviour change, run
``PYTHONPATH=src python tests/test_golden.py`` and say why in the changelog.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

from dimatch.generate import GenSpec, SplitMix64, gadget, generate_planted, with_random_weights
from dimatch.graph import Graph
from dimatch.oracle import enumerate_all_graphs
from dimatch.patterns import find_k4
from dimatch.solver import solve

from conftest import FREE4, TRIP30, degree2_block

GOLDEN = Path(__file__).with_name("golden_solve.json")

GADGETS = (
    ["diamond", "butterfly", "gem", "claw", "k4"]
    + [f"c{k}" for k in range(3, 13)]
    + [f"p{k}" for k in range(2, 13)]
    + ["s_1_1_4", "s_1_2_2", "s_1_2_3", "s_1_2_4", "s_2_2_2", "s_1_3_4", "s_2_2_4"]
)

# (seed, pairs, whites) of the off-class blocks; seeds 11 and 2 give
# class violations with a witness in min-weight mode.
BLOCKS = ((1, 6, 6), (1, 10, 8), (1, 25, 25), (11, 25, 25), (1, 50, 40), (2, 50, 40), (2, 60, 40))

# Solve kwargs per mode.  Strict mode asserts in-class structure, so the
# off-class blocks run min-weight without it.  The exact modes take solve's
# default route: the cover search, or the structural answer when it trips
# its node budget.
MODES = {
    "exists": {"structural": True},
    "minw": {"minimize": True, "strict": True},
    "min": {"minimize": True, "structural": True},
    "verify": {"verify_class": True},
    "exact": {},
    "exact-min": {"minimize": True},
}
EXACT = ("exact", "exact-min")


def corpus():
    """Yield (case id, graph, solve kwargs) for every pinned solve."""
    for n in range(2, 6):
        graphs = enumerate_all_graphs(n, predicate=lambda g: find_k4(g) is None)
        for i, g in enumerate(graphs):
            yield f"small/n{n}/{i}/exists", g, MODES["exists"]
            yield f"small/n{n}/{i}/minw", g, MODES["minw"]
    for seed in range(1, 6):
        g, _ = generate_planted(GenSpec(n=120, seed=seed))
        yield f"planted/{seed}/exists", g, MODES["exists"]
        weighted = with_random_weights(g, seed)
        yield f"planted/{seed}/minw", weighted, MODES["minw"]
        for mode in EXACT:
            yield f"planted/{seed}/{mode}", g, MODES[mode]
            yield f"planted/{seed}/weighted/{mode}", weighted, MODES[mode]
    # The benchmark's scale: about 120 pieces per graph on the exact route.
    for seed in range(1, 4):
        g, _ = generate_planted(GenSpec(n=1000, seed=seed))
        weighted = with_random_weights(g, seed)
        for mode in EXACT:
            yield f"planted1000/{seed}/{mode}", g, MODES[mode]
            yield f"planted1000/{seed}/weighted/{mode}", weighted, MODES[mode]
    for name in GADGETS:
        for mode in ("exists", "minw", "verify") + EXACT:
            yield f"gadget/{name}/{mode}", gadget(name), MODES[mode]
    # Hill-climbed in-class inputs: a budget trip and four free components.
    for name, g in (("trip30", TRIP30), ("free4", FREE4)):
        for mode in ("exists", "minw", "verify") + EXACT:
            yield f"inclass/{name}/{mode}", g, MODES[mode]
    for seed, pairs, whites in BLOCKS:
        g = degree2_block(SplitMix64(seed), pairs, whites)
        for mode in ("exists", "min") + EXACT:
            yield f"block2/{seed}/{pairs}x{whites}/{mode}", g, MODES[mode]


def families():
    """Yield (case id, graphs, solve kwargs) for every pinned graph family:
    all connected K4-free graphs on 6 vertices, in two structural modes."""
    for mode in ("exists", "minw"):
        graphs = enumerate_all_graphs(6, predicate=lambda g: find_k4(g) is None)
        yield f"small/n6/{mode}", graphs, MODES[mode]


def record(g: Graph, kwargs: dict) -> dict:
    log: list = []
    out = solve(g, anchor_log=log, **kwargs)
    witness = out.witness
    return {
        "verdict": out.verdict,
        "matching": sorted(out.matching) if out.matching is not None else None,
        "weight": out.weight,
        "trace": list(out.trace),
        "reason": out.reason,
        "witness": [witness.pattern, list(witness.vertices)] if witness else None,
        "anchor_log": [list(entry) for entry in log],
    }


def canonical(rec: dict) -> bytes:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()


def digest(rec: dict) -> str:
    return hashlib.sha256(canonical(rec)).hexdigest()[:16]


def family_digest(graphs: Iterable[Graph], kwargs: dict) -> str:
    """One hash over the records of ``graphs``, one line per graph."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(canonical(record(g, kwargs)) + b"\n")
    return h.hexdigest()[:16]


def test_solve_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    seen = set()
    mismatched = []
    for case, g, kwargs in corpus():
        seen.add(case)
        rec = record(g, kwargs)
        if golden.get(case) != digest(rec):
            mismatched.append((case, rec))
    for case, graphs, kwargs in families():
        seen.add(case)
        if golden.get(case) != family_digest(graphs, kwargs):
            mismatched.append((case, None))
    assert not mismatched, f"{len(mismatched)} outputs changed, first: {mismatched[0]}"
    assert seen == set(golden), "corpus and golden file list different cases"


if __name__ == "__main__":
    table = {case: digest(record(g, kwargs)) for case, g, kwargs in corpus()}
    table.update((case, family_digest(graphs, kwargs)) for case, graphs, kwargs in families())
    GOLDEN.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {GOLDEN}")
