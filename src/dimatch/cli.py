"""Command-line front end.

Subcommands: solve, check, detect, oracle, generate, compare.  Exit codes
for ``solve``: 0 a matching was found, 1 no matching exists, 2 usage or
input error, 3 the input is outside the supported graph class.

:func:`main` is the one error boundary: a file that cannot be read,
decoded, parsed or written, a bad generator or corpus specification, an
exhausted retry budget or enumeration cap ends any subcommand with an
``error:`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import patterns
from .compare import (
    dump_reproducer,
    run_directory,
    run_exhaustive,
    run_planted,
    run_samples,
    worker_count,
)
from .fileio import read_edge_list, read_matching, write_edge_list, write_matching
from .generate import GenSpec, RetryBudgetExceeded, generate
from .graph import Graph, GraphError
from .oracle import EnumerationCapExceeded, oracle_solve
from .solver import CLASS_VIOLATION, FOUND, StructuralCheckError, solve

EXIT_FOUND = 0
EXIT_NO_DIM = 1
EXIT_USAGE = 2
EXIT_CLASS = 3


def _named_edges(g: Graph, edges) -> list[list[str]]:
    return [[g.vertex_name(u), g.vertex_name(v)] for u, v in sorted(edges)]


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
        return
    verdict = payload.get("verdict")
    if verdict is not None:
        print(f"verdict: {verdict}")
    for key in ("reason", "weight"):
        if payload.get(key) is not None:
            print(f"{key}: {payload[key]}")
    if payload.get("matching") is not None:
        pairs = " ".join(f"{u}-{v}" for u, v in payload["matching"])
        print(f"matching: {pairs if pairs else '(empty)'}")
    if payload.get("witness"):
        print(f"witness: {payload['witness']}")


def cmd_solve(args) -> int:
    g = read_edge_list(args.path)
    anchor_log: list | None = [] if args.all_anchors else None
    timings: dict = {}
    started = time.perf_counter()
    try:
        out = solve(
            g,
            minimize=args.min_weight,
            verify_class=args.verify_class,
            anchor_log=anchor_log,
            timings=timings,
            structural=args.structural,
        )
    except StructuralCheckError:
        # A structural guarantee failed mid-solve; on a conforming input this
        # cannot happen, so report the instance as outside the class.
        witness = patterns.find_induced_sijk(g, 1, 2, 4)
        print(
            "error: structural guarantees failed; input is outside the supported class",
            file=sys.stderr,
        )
        if witness is not None:
            names = [g.vertex_name(v) for v in witness.vertices]
            print(f"spider witness: {' '.join(names)}", file=sys.stderr)
        return EXIT_CLASS
    timings["total"] = time.perf_counter() - started
    payload = {
        "schema": 1,
        "instance": args.path,
        "verdict": out.verdict,
        "reason": out.reason,
        "matching": _named_edges(g, out.matching) if out.matching is not None else None,
        "weight": out.weight,
        "trace": list(out.trace),
        "witness": (
            {"pattern": out.witness.pattern, "vertices": [g.vertex_name(v) for v in out.witness.vertices]}
            if out.witness is not None
            else None
        ),
        "anchors": anchor_log,
        "class_check": "rejected" if out.verdict == CLASS_VIOLATION else "ok",
        "timings": timings,
    }
    _emit(payload, args.json)
    if out.verdict == FOUND:
        return EXIT_FOUND
    if out.verdict == CLASS_VIOLATION:
        return EXIT_CLASS
    return EXIT_NO_DIM


def cmd_check(args) -> int:
    g = read_edge_list(args.graph)
    matching = read_matching(args.matching, g)
    ok = g.is_dim(matching)
    print("valid dominating induced matching" if ok else "not a dominating induced matching")
    return EXIT_FOUND if ok else EXIT_NO_DIM


def _detect(g: Graph, spec: list[str]) -> list[dict]:
    kind = spec[0].lower()
    out: list[dict] = []

    def pack(w: patterns.PatternWitness) -> dict:
        entry = {
            "pattern": w.pattern,
            "vertices": [g.vertex_name(v) for v in w.vertices],
        }
        if w.pattern == "diamond":
            entry["mid_edge"] = [g.vertex_name(v) for v in w.mid_edge]
        if w.pattern == "butterfly":
            entry["peripheral_edges"] = [
                [g.vertex_name(a) for a in e] for e in w.peripheral_edges
            ]
        return entry

    if kind == "k4":
        w = patterns.find_k4(g)
        return [pack(w)] if w else []
    if kind == "diamond":
        return [pack(w) for w in patterns.find_all_diamonds(g)]
    if kind == "butterfly":
        return [pack(w) for w in patterns.find_all_butterflies(g)]
    if kind == "gem":
        w = patterns.find_gem(g)
        return [pack(w)] if w else []
    if kind == "c4":
        return [
            {"pattern": "c4-edge", "edge": [g.vertex_name(u), g.vertex_name(v)]}
            for u, v in sorted(patterns.c4_edges(g))
        ]
    if kind == "s":
        if len(spec) != 4:
            raise GraphError("spider spec needs three leg lengths, e.g. 's 1 2 4'")
        i, j, k = (int(t) for t in spec[1:])
        w = patterns.find_induced_sijk(g, i, j, k)
        return [pack(w)] if w else []
    raise GraphError(f"unknown pattern {kind!r}")


def cmd_detect(args) -> int:
    witnesses = _detect(read_edge_list(args.path), args.pattern)
    print(json.dumps({"schema": 1, "witnesses": witnesses}, sort_keys=True))
    return EXIT_FOUND if witnesses else EXIT_NO_DIM


def cmd_oracle(args) -> int:
    g = read_edge_list(args.path)
    mode = {"exists": "exists", "min": "min_weight", "enumerate": "enumerate"}[args.mode]
    res = oracle_solve(g, mode=mode, cap=args.cap)
    payload = {
        "schema": 1,
        "feasible": res.feasible,
        "best": (
            {"matching": _named_edges(g, res.best[0]), "weight": res.best[1]}
            if res.best
            else None
        ),
        "count": len(res.all_dims) if res.all_dims is not None else None,
        "all": (
            [_named_edges(g, m) for m in res.all_dims]
            if res.all_dims is not None and len(res.all_dims) <= 1000
            else None
        ),
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_FOUND if res.feasible else EXIT_NO_DIM


def cmd_generate(args) -> int:
    spec = GenSpec(
        n=args.n,
        seed=args.seed,
        mode=args.mode,
        density=args.density,
        gadget_name=args.gadget,
        connected=args.connected,
    )
    g, matching = generate(spec)
    comment = f"generated mode={spec.mode} n={g.n} seed={spec.seed}"
    text = write_edge_list(g, comment=comment)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if matching is not None and args.matching_out:
        with open(args.matching_out, "w", encoding="utf-8") as fh:
            fh.write(write_matching(matching, comment="planted matching"))
    return EXIT_FOUND


def cmd_compare(args) -> int:
    workers = args.threads or worker_count()
    if args.exhaustive is not None:
        report = run_exhaustive(
            args.exhaustive, minimize=args.min_weight, strict=args.strict, workers=workers
        )
    elif args.samples is not None:
        report = run_samples(
            args.n,
            args.samples,
            seed=args.seed,
            density=args.density,
            minimize=args.min_weight,
            strict=args.strict,
            workers=workers,
        )
    elif args.planted is not None:
        count, size = args.planted
        report = run_planted(
            size,
            count,
            seed=args.seed,
            minimize=args.min_weight,
            strict=args.strict,
            use_oracle=args.use_oracle,
            workers=workers,
        )
    elif args.dir is not None:
        report = run_directory(args.dir, minimize=args.min_weight, strict=args.strict)
    else:
        print("error: pick one of --exhaustive/--samples/--planted/--dir", file=sys.stderr)
        return EXIT_USAGE
    if report.total == 0:
        print("warning: corpus is empty; nothing compared", file=sys.stderr)
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"instances={report.total} found={report.found} no_dim={report.no_dim} "
            f"disagreements={len(report.disagreements)} "
            f"weight_mismatches={len(report.weight_mismatches)} errors={len(report.errors)} "
            f"wall={report.wall:.2f}s"
        )
        for key, value in sorted(report.timing_percentiles().items()):
            print(f"  timing {key}: {value}")
    if not report.agreement:
        if args.repro_dir:
            written = dump_reproducer(report, args.repro_dir)
            for fname in written:
                print(f"reproducer: {fname}", file=sys.stderr)
        return EXIT_NO_DIM
    return EXIT_FOUND


def _positive_arg(text: str) -> int:
    """A ``--threads`` or ``--cap`` value: a whole number, at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return value


def _planted_arg(text: str) -> tuple[int, int]:
    """A ``--planted`` value ``COUNTxSIZE``: (count, size) of whole numbers."""
    count, sep, size = text.partition("x")
    try:
        if not sep:
            raise ValueError
        return int(count), int(size)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected COUNTxSIZE, e.g. 5x60, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimatch",
        description="Dominating induced matchings: solve, verify, detect, generate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide the instance and print a matching")
    p.add_argument("path")
    p.add_argument("--min-weight", action="store_true")
    p.add_argument("--verify-class", action="store_true")
    p.add_argument("--all-anchors", action="store_true")
    p.add_argument(
        "--structural",
        action="store_true",
        help="solve with the structural pipeline, not exact search first (--verify-class implies it)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify a matching file against a graph")
    p.add_argument("graph")
    p.add_argument("matching")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("detect", help="find induced patterns with witnesses")
    p.add_argument("path")
    p.add_argument("pattern", nargs="+", help="k4|diamond|butterfly|gem|c4|s I J K")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="run the exact reference solver")
    p.add_argument("path")
    p.add_argument("--mode", choices=("exists", "min", "enumerate"), default="exists")
    p.add_argument("--cap", type=_positive_arg, default=10**6)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("generate", help="emit a test instance")
    p.add_argument("--mode", choices=("planted", "rejection", "gadget"), default="planted")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--gadget", default=None)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--matching-out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compare", help="differential-test solver vs oracle")
    p.add_argument("--exhaustive", type=int, default=None, metavar="N_MAX")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--planted", type=_planted_arg, default=None, metavar="COUNTxSIZE")
    p.add_argument("--dir", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--min-weight", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--use-oracle", action="store_true")
    p.add_argument("--threads", type=_positive_arg, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--repro-dir", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_FOUND
    try:
        return args.func(args)
    except (OSError, ValueError, RetryBudgetExceeded, EnumerationCapExceeded) as exc:
        # ValueError covers ParseError, GraphError, GenerationError and
        # UnicodeDecodeError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
