"""Edge-list text format.

Graphs: a `p edge <n> <m>` header, then one `e <u> <v> [w]` line per edge
with 1-indexed vertices and an optional weight token.  Lines starting with
`c` are comments.  Matchings travel in sidecar files of `m <u> <v>` lines.
A header may declare at most `MAX_VERTICES` vertices, and no more edge
lines may follow than it declares.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Edge, Graph, GraphError


# Header cap: a graph allocates per-vertex state up front, so an unchecked
# `p edge N 0` could exhaust memory.  It is about 12x the largest graph any
# corpus uses, an 8,000-vertex path.
MAX_VERTICES = 100_000


class ParseError(ValueError):
    """Malformed edge-list input."""


def _parse_weight(token: str) -> float:
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError as exc:
            raise ParseError(f"bad weight token {token!r}") from exc


def parse_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse an edge list given as one string or as an iterable of lines.

    An open text file is read line by line, so an input that declares too
    few edges fails at the first edge line beyond the header's count,
    without the rest being read.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    n = -1
    declared_m = -1
    edges: list[Edge] = []
    weights: dict[Edge, float] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n >= 0:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad problem line") from exc
            if n < 0 or declared_m < 0:
                raise ParseError(f"line {lineno}: header declares a negative count")
            if n > MAX_VERTICES:
                raise ParseError(
                    f"line {lineno}: header declares {n} vertices, more than {MAX_VERTICES}"
                )
        elif parts[0] == "e":
            if n < 0:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(edges) == declared_m:
                raise ParseError(
                    f"line {lineno}: edge line beyond the {declared_m} edges the header declares"
                )
            if len(parts) not in (3, 4):
                raise ParseError(f"line {lineno}: expected 'e <u> <v> [w]'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex token") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            e = (min(u, v) - 1, max(u, v) - 1)
            edges.append(e)
            if len(parts) == 4:
                weights[e] = _parse_weight(parts[3])
        else:
            raise ParseError(f"line {lineno}: unknown line type {parts[0]!r}")
    if n < 0:
        raise ParseError("missing 'p edge' problem line")
    if declared_m != len(edges):
        raise ParseError(f"header declares {declared_m} edges, found {len(edges)}")
    try:
        return Graph(n, edges, weights)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def read_edge_list(path: str) -> Graph:
    """Parse the edge-list file at ``path``, read as UTF-8.

    A decode or parse error is raised as :class:`ParseError` with the path
    in front of its message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_edge_list(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def write_edge_list(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for chunk in comment.splitlines():
            lines.append(f"c {chunk}")
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in g.edges:
        w = g.weights[(u, v)]
        if w == 1:
            lines.append(f"e {u + 1} {v + 1}")
        else:
            tok = str(int(w)) if float(w).is_integer() else repr(w)
            lines.append(f"e {u + 1} {v + 1} {tok}")
    return "\n".join(lines) + "\n"


def parse_matching(text: str, g: Graph) -> frozenset[Edge]:
    out: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "m" or len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'm <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad vertex token") from exc
        if not (1 <= u <= g.n and 1 <= v <= g.n):
            raise ParseError(f"line {lineno}: vertex out of range 1..{g.n}")
        e = (min(u, v) - 1, max(u, v) - 1)
        if not g.has_edge_canon(e):
            raise ParseError(f"line {lineno}: edge {u}-{v} absent from graph")
        out.add(e)
    return frozenset(out)


def read_matching(path: str, g: Graph) -> frozenset[Edge]:
    """Parse the matching file at ``path`` against ``g``, read as UTF-8.

    A decode or parse error is raised as :class:`ParseError` with the path
    in front of its message, as in :func:`read_edge_list`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_matching(fh.read(), g)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def write_matching(matching, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"c {comment}")
    for u, v in sorted(matching):
        lines.append(f"m {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
