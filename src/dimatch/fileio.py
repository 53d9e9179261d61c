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
    without the rest being read.  Each line is split into tokens once; a
    line with no tokens, or whose first token starts with ``c``, is skipped.
    A string in the plain form that :func:`write_edge_list` gives an
    unweighted graph is parsed in bulk, to the same graph.
    """
    lines = source
    if isinstance(source, str):
        plain = _parse_plain(source)
        if plain is not None:
            try:
                return Graph(*plain)
            except GraphError:
                pass  # the line loop gives the message
        lines = source.splitlines()
    n, edges, weights = _parse_lines(lines)
    try:
        return Graph(n, edges, weights)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


# The characters of a plain header line and of a plain body.
_HEADER_DROP = b"pedg0123456789 \t"
_BODY_DROP = b"e0123456789 \t\n"


def _parse_plain(text: str) -> tuple[int, list[Edge]] | None:
    """The vertex count and edges of a plain text, or None for any other text.

    Plain means a first line ``p edge <n> <m>``, then exactly ``m`` lines
    ``e <u> <v>``, each starting with its ``e`` and ending in a newline, in
    ASCII digits, spaces and tabs.  The body is split into tokens once.
    Anything else is left to :func:`_parse_lines`, the one source of error
    messages.  The edges come back 0-based and in the text's order: the
    range check and the pair order belong to :class:`Graph`, and
    :func:`parse_edge_list` hands any :class:`GraphError` it raises to
    :func:`_parse_lines` too.  The character check also keeps out every
    line break but ``\\n`` (``\\r``, ``\\v``, ``\\x85``, ...), at which
    ``str.splitlines`` would break a line.
    """
    header, newline, body = text.partition("\n")
    head = header.split()
    if not newline or len(head) != 4 or head[0] != "p" or head[1] != "edge":
        return None
    try:
        if header.encode("ascii").translate(None, _HEADER_DROP):
            return None
        if body.encode("ascii").translate(None, _BODY_DROP):
            return None
    except UnicodeEncodeError:
        return None
    if not (head[2].isdigit() and head[3].isdigit()):
        return None
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:  # more digits than int() converts
        return None
    if n > MAX_VERTICES:
        return None
    if m == 0:
        return (n, []) if not body else None
    # m lines, each starting with an "e".  The tokens are m triples whose
    # first is "e" and whose other two are integers, so those m "e" tokens
    # start the lines, and each line is one triple.
    if not (
        body.startswith("e")
        and body.endswith("\n")
        and body.count("\n") == m
        and body.count("\ne") == m - 1
    ):
        return None
    tokens = body.split()
    if len(tokens) != 3 * m or tokens[0::3].count("e") != m:
        return None
    try:
        pairs = zip(map(int, tokens[1::3]), map(int, tokens[2::3]))
        return n, [(u - 1, v - 1) for u, v in pairs]
    except ValueError:  # an "e" off its place, or more digits than int() converts
        return None


def _parse_lines(lines: Iterable[str]) -> tuple[int, list[Edge], dict[Edge, float]]:
    """The vertex count, edges and given weights of an edge list, line by line."""
    n = -1
    declared_m = -1
    edges: list[Edge] = []
    weights: dict[Edge, float] = {}
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
        tag = parts[0]
        if tag == "e":
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
            e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            edges.append(e)
            if len(parts) == 4:
                weights[e] = _parse_weight(parts[3])
        elif tag == "p":
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
        else:
            raise ParseError(f"line {lineno}: unknown line type {tag!r}")
    if n < 0:
        raise ParseError("missing 'p edge' problem line")
    if declared_m != len(edges):
        raise ParseError(f"header declares {declared_m} edges, found {len(edges)}")
    return n, edges, weights


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
        if e not in g.weights:
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
