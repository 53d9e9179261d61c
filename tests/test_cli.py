"""Command-line interface: exit codes, JSON round-trips, determinism."""

from __future__ import annotations

import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimatch import fileio
from dimatch.cli import EXIT_CLASS, EXIT_FOUND, EXIT_NO_DIM, EXIT_USAGE, main
from dimatch.fileio import (
    ParseError,
    parse_edge_list,
    parse_matching,
    read_edge_list,
    read_matching,
    write_edge_list,
    write_matching,
)
from dimatch.generate import GenSpec, gadget, generate_planted, generate_rejection
from dimatch.graph import Graph
from dimatch.oracle import mask_to_graph
from dimatch.patterns import PatternWitness, verify_witness
from dimatch.solver import CLASS_VIOLATION, SolveOutcome, solve

from conftest import disjoint_union, small_graphs


def write_gadget(tmp_path, name, fname="g.col"):
    p = tmp_path / fname
    p.write_text(write_edge_list(gadget(name)))
    return str(p)


class TestFileFormat:
    def test_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], weights={(1, 2): 3})
        text = write_edge_list(g, comment="round trip")
        back = parse_edge_list(text)
        assert back.edges == g.edges
        assert back.weight((1, 2)) == 3

    def test_rejects_missing_header(self):
        from dimatch.fileio import ParseError

        with pytest.raises(ParseError):
            parse_edge_list("e 1 2\n")

    def test_rejects_count_mismatch(self):
        from dimatch.fileio import ParseError

        with pytest.raises(ParseError):
            parse_edge_list("p edge 3 2\ne 1 2\n")

    def test_rejects_out_of_range(self):
        from dimatch.fileio import ParseError

        with pytest.raises(ParseError):
            parse_edge_list("p edge 2 1\ne 1 5\n")

    def test_rejects_oversized_header(self):
        from dimatch.fileio import MAX_VERTICES, ParseError

        for n in (MAX_VERTICES + 1, 10**9):
            with pytest.raises(ParseError, match="vertices"):
                parse_edge_list(f"p edge {n} 0\n")

    def test_rejects_negative_header(self):
        from dimatch.fileio import ParseError

        for text in ("p edge -1 0\np edge 3 0\n", "p edge -3 0\n", "p edge 3 -1\n"):
            with pytest.raises(ParseError, match="line 1: header declares a negative count"):
                parse_edge_list(text)

    def test_rejects_edge_lines_beyond_header_at_the_first(self):
        from dimatch.fileio import ParseError

        def lines():
            yield "p edge 4 1\n"
            yield "e 1 2\n"
            yield "e 2 3\n"
            raise AssertionError("read past the first surplus edge line")
            yield "e 3 4\n"

        with pytest.raises(ParseError, match="line 3: edge line beyond the 1 edges"):
            fileio._parse_lines(lines())
        with pytest.raises(ParseError, match="line 3: edge line beyond the 1 edges"):
            parse_edge_list("p edge 4 1\ne 1 2\ne 2 3\ne 3 4\n")

    def test_read_edge_list_names_the_path(self, tmp_path):
        from dimatch.fileio import ParseError, read_edge_list

        p = tmp_path / "g.col"
        p.write_text(write_edge_list(gadget("c6")))
        assert read_edge_list(str(p)).edges == gadget("c6").edges
        p.write_text("p edge 2 1\ne 1 5\n")
        with pytest.raises(ParseError) as err:
            read_edge_list(str(p))
        assert str(err.value) == f"{p}: line 2: vertex out of range 1..2"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_weight(self, token):
        with pytest.raises(ParseError, match=r"non-finite weight on \(0, 1\)"):
            parse_edge_list(f"p edge 2 1\ne 1 2 {token}\n")

    @pytest.mark.parametrize(
        "text",
        [
            "p edge 3 2\n   \t \ne 1 2\ne 2 3\n",
            "p edge 3 2\n   c note\ne 1 2\ne 2 3\n",
            "cfoo\np edge 3 2\ne 1 2\ncfoo 1 2\ne 2 3\n",
            "p edge 3 2\ne\t1\t2\ne 2\t3 \t4\n",
        ],
        ids=["whitespace-line", "indented-comment", "c-prefixed-word", "tab-separated"],
    )
    def test_comment_blank_and_tab_lines(self, text):
        g = parse_edge_list(text)
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))
        assert g.weight((1, 2)) == (4 if "\t4" in text else 1)

    def test_matching_round_trip(self):
        g = Graph(4, [(0, 1), (2, 3)])
        text = write_matching([(0, 1), (2, 3)])
        assert parse_matching(text, g) == {(0, 1), (2, 3)}

    @pytest.mark.parametrize("comment", ["two\nlines", "a\r\nb\x85c"])
    def test_matching_round_trip_with_a_multi_line_comment(self, comment):
        g = Graph(4, [(0, 1), (2, 3)])
        text = write_matching([(0, 1)], comment=comment)
        assert parse_matching(text, g) == {(0, 1)}

    def test_matching_rejects_absent_edge(self):
        from dimatch.fileio import ParseError

        g = Graph(4, [(0, 1)])
        with pytest.raises(ParseError):
            parse_matching("m 3 4\n", g)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m 1 x\n", "line 1: bad vertex token"),
            ("c note\nm 0 1\n", "line 2: vertex out of range 1..4"),
            ("m 1 5\n", "line 1: vertex out of range 1..4"),
        ],
        ids=["bad-token", "zero", "past-n"],
    )
    def test_matching_rejects_bad_vertices(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_matching(text, Graph(4, [(0, 1)]))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, line", [("p edge 2 0\np edge 2 0\n", 2), ("p edge 2 1\ne 1 2\np edge 2 1\n", 3)]
    )
    def test_rejects_a_second_problem_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == f"line {line}: duplicate problem line"


# Pieces of edge-list text, with every character str.splitlines breaks at
# besides "\n".
LINE_BREAKS = ["\r", "\v", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
TEXT_PIECES = ["p", "edge", "e", "c", " ", "\t", "\n", *LINE_BREAKS, *"0123456789"]


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list text: pieces at random, or write_edge_list output, with
    or without weights and leading comment lines, mutated."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=40)))
    g = draw(small_graphs(min_n=2, max_n=7))
    if draw(st.booleans()):
        g = Graph(g.n, g.edges, {e: draw(st.integers(1, 3)) for e in g.edges})
    text = write_edge_list(g, comment=draw(st.sampled_from([None, "lead", "two\n lines"])))
    # Each mutation replaces up to two characters with a piece, or with
    # nothing; whitespace pieces move tokens across lines.
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        piece = draw(st.sampled_from(TEXT_PIECES + ["", " \n", "\n "]))
        text = text[:at] + piece + text[at + cut:]
    return text


def parse_outcome(source, parse=parse_edge_list):
    """The graph's n, edges and weights that ``parse(source)`` gives, or
    the ParseError message."""
    try:
        g = parse(source)
    except ParseError as exc:
        return str(exc)
    return g.n, g.edges, g.weights


class TestBulkParse:
    """A plain text is parsed in bulk, to what the line loop gives."""

    @settings(max_examples=1500, deadline=None)
    @given(edge_list_texts())
    @example("p edge 3\v1\ne 1 2\n")
    @example("p edge 3 1\ne 1 2\x85\n")
    @example("p edge 3 1\r\ne 1 2\r\n")
    @example("p edge 3 2\ne 1 2 e\n2 3\n")
    @example("p edge 4 2\ne 1\n2\ne 3 4\n")
    @example("p edge 4 2\n \ne 1 2 e 3 4\n")
    @example("p edge 4 2\ne 1 2\ne 3\n4")
    @example("p edge 3 1\ne 1 " + "9" * 5000 + "\n")
    # Faults the bulk path leaves to Graph: the line parser gives the message.
    @example("p edge 3 1\ne 0 2\n")
    @example("p edge 3 1\ne 1 4\n")
    @example("p edge 3 1\ne 2 2\n")
    @example("p edge 3 2\ne 1 2\ne 2 1\n")
    @example("p edge 3 3\ne 1 2\ne 2 1\ne 1 4\n")
    def test_string_and_lines_agree(self, text):
        assert parse_outcome(text) == parse_outcome(text.splitlines(), fileio._parse_lines)

    @settings(max_examples=200, deadline=None)
    @given(
        small_graphs(min_n=1, max_n=12),
        st.sampled_from([None, "lead", "two\n lines", "blank\n\n line"]),
    )
    def test_written_unweighted_graphs_take_the_bulk_path(self, g, comment):
        text = write_edge_list(g, comment=comment)
        assert fileio._parse_plain(text) is not None
        back = parse_edge_list(text)
        assert (back.n, back.edges, back.weights) == (g.n, g.edges, g.weights)


def read_outcome(text: str):
    """:func:`parse_outcome` of ``text`` written raw to a file and read back
    with ``read_edge_list``, the message without the path in front."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.col")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            g = read_edge_list(path)
        except ParseError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            return message[len(path) + 2:]
    return g.n, g.edges, g.weights


class LineCountingFile:
    """An open file that counts the lines read from it."""

    def __init__(self, fh):
        self.fh = fh
        self.lines = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self.fh)
        self.lines += 1
        return line


class TestReadPath:
    """A file parses exactly as its text does."""

    @settings(max_examples=1500, deadline=None)
    @given(edge_list_texts())
    @example("p edge 3\v1\ne 1 2\n")
    @example("p edge 3 1\ne 1\x85 2\n")
    @example("p edge 3 1\ne 1\u20282\n")
    @example("p edge 3 1\ne 1\x0c2\n")
    @example("p edge 3 1\ne 1 2 5\x1d3\n")
    @example("p edge 3 1\r\ne 1 2\r\n")
    @example("p edge 3 1\re 1 2\r")
    @example("p edge 3 1\ne 1 2 5\n")
    @example("p edge 3 1\ne 1 2\ne 2 3\ne 1 3\n")
    @example("c lead\np edge 3 1\ne 1 2\ne 2 3\n")
    @example("c lead\n\n  c more\np edge 3 1\ne 1 2\n")
    @example("c lead\x85e 1 2\np edge 3 1\ne 1 2\n")
    @example("c lead\np edge 3 1\ne 2 2\n")
    @example("c lead\np edge 3 1\ne 1 4\n")
    @example("c lead\np edge 3 1\ne 1 2 5\n")
    @example("c lead\n")
    @example("p edge 3 1\ne 1 2\n\n")
    @example("p edge 3 1\ne 1 2")
    @example("p edge 3 0\n")
    @example("p edge 3 99999999999999999999\ne 1 2\n")
    @example("")
    def test_file_and_text_agree(self, text):
        assert read_outcome(text) == parse_outcome(text)

    @pytest.mark.parametrize("comment", [None, "planted\nn = 6"], ids=["plain", "comment-led"])
    def test_written_files_take_the_bulk_path(self, tmp_path, monkeypatch, comment):
        def no_line_loop(lines):
            raise AssertionError("took the line loop")

        g = Graph(6, [(0, 1), (1, 2), (3, 5)])
        p = tmp_path / "g.col"
        p.write_text(write_edge_list(g, comment=comment))
        monkeypatch.setattr(fileio, "_parse_lines", no_line_loop)
        back = read_edge_list(str(p))
        assert (back.n, back.edges, back.weights) == (g.n, g.edges, g.weights)

    def test_weighted_files_skip_the_bulk_parse(self, tmp_path):
        g = Graph(6, [(0, 1), (1, 2), (3, 5)], weights={(0, 1): 4})
        p = tmp_path / "g.col"
        for comment in (None, "weighted"):
            text = write_edge_list(g, comment=comment)
            assert fileio._parse_plain(text) is None
            p.write_text(text)
            back = read_edge_list(str(p))
            assert (back.n, back.edges, back.weights) == (g.n, g.edges, g.weights)

    @pytest.mark.parametrize(
        "lead, m, lineno",
        [("", 1, 3), ("", 5, 7), ("c one comment\n", 1, 4)],
        ids=["plain", "plain-m5", "comment-led"],
    )
    def test_surplus_edge_fails_before_the_rest_is_read(
        self, tmp_path, monkeypatch, lead, m, lineno
    ):
        p = tmp_path / "long.col"
        p.write_text(lead + f"p edge 10 {m}\n" + "e 1 2\n" * 100_000)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(LineCountingFile(open(*args, **kwargs)))
            return opened[-1]

        monkeypatch.setattr(fileio, "open", counting_open, raising=False)
        with pytest.raises(ParseError, match=f"line {lineno}: edge line beyond the {m} edges"):
            read_edge_list(str(p))
        assert len(opened) == 1 and opened[0].lines <= lineno

    def test_decode_error_mid_read_names_the_path(self, tmp_path):
        g = Graph(3, [(0, 1)])
        p = tmp_path / "bad.col"
        body = b"c " + b"x" * 100 + b"\n"
        for data in (
            b"p edge 3 1\n" + body * 1000 + b"e 1 2\n\xff\n",
            b"p edge 1000 100000\n" + b"e 1 2\n" * 10_000 + b"\xff\n",
        ):
            p.write_bytes(data)
            with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: 'utf-8' codec"):
                read_edge_list(str(p))
        p.write_bytes(body * 1000 + b"\xff\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: 'utf-8' codec"):
            read_matching(str(p), g)


class TestSolveCommand:
    def test_diamond_found(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "diamond")
        code = main(["solve", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["matching"] == [["2", "4"]]

    def test_c4_no_dim(self, tmp_path):
        assert main(["solve", write_gadget(tmp_path, "c4")]) == EXIT_NO_DIM

    def test_k4_rejected_with_reason(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "k4")
        code = main(["solve", path, "--verify-class", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_NO_DIM
        assert payload["reason"] == "clique4"

    def test_spider_class_violation(self, tmp_path):
        path = write_gadget(tmp_path, "s_1_2_4")
        assert main(["solve", path, "--verify-class"]) == EXIT_CLASS

    def test_verify_class_checks_the_whole_input(self, tmp_path):
        # C4 (no DIM) numbered before the spider.
        p = tmp_path / "g.col"
        p.write_text(write_edge_list(disjoint_union(gadget("c4"), gadget("s_1_2_4"))))
        assert main(["solve", str(p), "--verify-class"]) == EXIT_CLASS

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.col"
        p.write_text("p edge nope\n")
        assert main(["solve", str(p)]) == EXIT_USAGE

    def test_oversized_header_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "huge.col"
        p.write_text("p edge 1000000000 0\n")
        assert main(["solve", str(p)]) == EXIT_USAGE
        assert "1000000000 vertices" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["solve", "/nonexistent/graph.col"]) == EXIT_USAGE

    @pytest.mark.parametrize("flags", [[], ["--min-weight"], ["--structural"]])
    @pytest.mark.parametrize(
        "text",
        [
            "p edge 2 1\ne 1 2 " + "9" * 400 + "\n",
            "p edge 4 2\ne 1 2 1" + "0" * 308 + "\ne 3 4 1" + "0" * 308 + "\n",
        ],
        ids=["huge-weight", "weights-sum-overflows"],
    )
    def test_weight_beyond_float_range_is_a_parse_error(self, tmp_path, capsys, flags, text):
        p = tmp_path / "big.col"
        p.write_text(text)
        assert main(["solve", str(p), "--json", *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "total edge weight exceeds the float range" in err

    def test_all_anchors_reported(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "p5")
        code = main(["solve", path, "--all-anchors", "--structural", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["anchors"]

    def test_default_route_reports_exact_search(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "p5")
        code = main(["solve", path, "--all-anchors", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["trace"] == ["exact-search"]
        assert payload["anchors"] == []

    def test_failed_structural_check_reports_a_spider(self, tmp_path, monkeypatch, capsys):
        import dimatch.cli
        from dimatch.solver import StructuralCheckError

        def fail(g, **kwargs):
            raise StructuralCheckError("pool of u holds two edges")

        monkeypatch.setattr(dimatch.cli, "solve", fail)
        g = gadget("s_1_2_4")
        assert main(["solve", write_gadget(tmp_path, "s_1_2_4"), "--json"]) == EXIT_CLASS
        captured = capsys.readouterr()
        assert captured.out == ""
        first, second = captured.err.splitlines()
        assert first.startswith("error: structural guarantees failed")
        names = second.removeprefix("spider witness: ").split()
        w = PatternWitness("spider", tuple(int(v) - 1 for v in names))
        assert second.startswith("spider witness: ") and verify_witness(g, w, (1, 2, 4))

    def test_text_output_of_a_matching(self, tmp_path, capsys):
        assert main(["solve", write_gadget(tmp_path, "p5"), "--min-weight"]) == EXIT_FOUND
        assert capsys.readouterr().out == "verdict: found\nweight: 2.0\nmatching: 1-2 4-5\n"

    def test_json_round_trips_through_check(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "c6")
        assert main(["solve", path, "--json"]) == EXIT_FOUND
        payload = json.loads(capsys.readouterr().out)
        m_path = tmp_path / "m.txt"
        lines = [f"m {u} {v}" for u, v in payload["matching"]]
        m_path.write_text("\n".join(lines) + "\n")
        assert main(["check", path, str(m_path)]) == EXIT_FOUND

    def test_deterministic_output_modulo_timings(self, tmp_path, capsys):
        from dimatch.generate import GenSpec, generate_planted
        from dimatch.fileio import write_edge_list

        g, _ = generate_planted(GenSpec(n=60, seed=21))
        path = tmp_path / "inst.col"
        path.write_text(write_edge_list(g))
        runs = []
        for _ in range(2):
            assert main(["solve", str(path), "--min-weight", "--json"]) == EXIT_FOUND
            payload = json.loads(capsys.readouterr().out)
            payload.pop("timings")
            runs.append(json.dumps(payload, sort_keys=True))
        assert runs[0] == runs[1]


class TestCheckCommand:
    def test_valid(self, tmp_path):
        gpath = write_gadget(tmp_path, "c6")
        mpath = tmp_path / "m.txt"
        mpath.write_text("m 1 2\nm 4 5\n")
        assert main(["check", gpath, str(mpath)]) == EXIT_FOUND

    def test_incomplete(self, tmp_path):
        gpath = write_gadget(tmp_path, "c6")
        mpath = tmp_path / "m.txt"
        mpath.write_text("m 1 2\n")
        assert main(["check", gpath, str(mpath)]) == EXIT_NO_DIM

    def test_malformed(self, tmp_path):
        gpath = write_gadget(tmp_path, "p3")
        mpath = tmp_path / "m.txt"
        mpath.write_text("m 1 3\n")  # not an edge of the path
        assert main(["check", gpath, str(mpath)]) == EXIT_USAGE

    def test_malformed_matching_names_the_path(self, tmp_path, capsys):
        gpath = write_gadget(tmp_path, "p3")
        mpath = tmp_path / "m.txt"
        mpath.write_text("x 1 2\n")
        assert main(["check", gpath, str(mpath)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {mpath}: line 1: expected 'm <u> <v>'\n"


class TestDetectCommand:
    def test_spider_in_itself(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "s_1_2_4")
        code = main(["detect", path, "s", "1", "2", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND and len(payload["witnesses"]) == 1

    def test_p7_clean(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "p7")
        code = main(["detect", path, "s", "1", "2", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_NO_DIM and payload["witnesses"] == []

    def test_diamond_mid_edge_annotated(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "diamond")
        code = main(["detect", path, "diamond"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["witnesses"][0]["mid_edge"] == ["2", "4"]

    def test_gem_witness_on_ten_vertices(self, tmp_path, capsys):
        # Hub 2 (1-indexed) sees the path 10-5-9-8 and vertex 1; hub 6 sees
        # the path 1-3-4-7.  Masks reach bit 9, past the small-mask table.
        g = Graph(
            10,
            [(0, 1), (1, 4), (1, 7), (1, 8), (1, 9), (4, 8), (7, 8), (4, 9)]
            + [(0, 2), (2, 3), (3, 6), (5, 0), (5, 2), (5, 3), (5, 6)],
        )
        path = tmp_path / "g.col"
        path.write_text(write_edge_list(g))
        code = main(["detect", str(path), "gem"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["witnesses"] == [{"pattern": "gem", "vertices": ["10", "5", "9", "8", "2"]}]

    @pytest.mark.parametrize(
        "pattern, gadget_name, witnesses",
        [
            ("k4", "k4", [{"pattern": "k4", "vertices": ["1", "2", "3", "4"]}]),
            (
                "butterfly",
                "butterfly",
                [
                    {
                        "pattern": "butterfly",
                        "peripheral_edges": [["1", "2"], ["3", "4"]],
                        "vertices": ["1", "2", "3", "4", "5"],
                    }
                ],
            ),
            (
                "c4",
                "c4",
                [
                    {"pattern": "c4-edge", "edge": pair}
                    for pair in (["1", "2"], ["1", "4"], ["2", "3"], ["3", "4"])
                ],
            ),
            ("k4", "diamond", []),
            ("butterfly", "k4", []),
            ("c4", "diamond", []),
        ],
    )
    def test_k4_butterfly_and_c4(self, pattern, gadget_name, witnesses, tmp_path, capsys):
        code = main(["detect", write_gadget(tmp_path, gadget_name), pattern])
        payload = json.loads(capsys.readouterr().out)
        assert code == (EXIT_FOUND if witnesses else EXIT_NO_DIM)
        assert payload == {"schema": 1, "witnesses": witnesses}

    def test_spider_spec_needs_three_legs(self, tmp_path, capsys):
        assert main(["detect", write_gadget(tmp_path, "p3"), "s", "1", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: spider spec needs three leg lengths, e.g. 's 1 2 4'\n"

    def test_unknown_pattern(self, tmp_path):
        path = write_gadget(tmp_path, "p3")
        assert main(["detect", path, "pentagon"]) == EXIT_USAGE

    def test_leg_longer_than_the_recursion_limit(self, tmp_path, capsys):
        g = Graph(3000, [(v, v + 1) for v in range(2999)])
        gpath = tmp_path / "p3000.col"
        gpath.write_text(write_edge_list(g))
        assert main(["detect", str(gpath), "s", "0", "1", "2000"]) == EXIT_FOUND
        (entry,) = json.loads(capsys.readouterr().out)["witnesses"]
        w = PatternWitness(entry["pattern"], tuple(int(v) - 1 for v in entry["vertices"]))
        assert verify_witness(g, w, (0, 1, 2000))


class TestOracleCommand:
    def test_enumerate_c6(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "c6")
        code = main(["oracle", path, "--mode", "enumerate"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND and payload["count"] == 3

    def test_infeasible_exit(self, tmp_path):
        assert main(["oracle", write_gadget(tmp_path, "c5")]) == EXIT_NO_DIM


class TestGenerateCommand:
    def test_planted_with_sidecar(self, tmp_path):
        gpath = tmp_path / "g.col"
        mpath = tmp_path / "g.m"
        code = main(
            [
                "generate", "--mode", "planted", "--n", "40", "--seed", "3",
                "--out", str(gpath), "--matching-out", str(mpath),
            ]
        )
        assert code == EXIT_FOUND
        assert main(["check", str(gpath), str(mpath)]) == EXIT_FOUND

    def test_gadget_to_stdout(self, capsys):
        code = main(["generate", "--mode", "gadget", "--gadget", "c6"])
        out = capsys.readouterr().out
        assert code == EXIT_FOUND and "p edge 6 6" in out

    def test_bad_gadget(self, capsys):
        assert main(["generate", "--mode", "gadget", "--gadget", "blob"]) == EXIT_USAGE

    def test_rejection_sample(self, capsys):
        argv = ["generate", "--mode", "rejection", "--n", "9", "--seed", "4", "--density", "0.4"]
        assert main([*argv, "--connected"]) == EXIT_FOUND
        g = parse_edge_list(capsys.readouterr().out)
        spec = GenSpec(n=9, seed=4, mode="rejection", density=0.4, connected=True)
        assert g.edges == generate_rejection(spec).edges and g.is_connected()

    @pytest.mark.parametrize(
        "argv, option",
        [
            (
                ["gadget", "--gadget", "c6", "--matching-out", "M", "--density", "0.9", "--connected"],
                "--connected",
            ),
            (["gadget", "--gadget", "c6", "--matching-out", "M"], "--matching-out"),
            (["rejection", "--n", "6", "--matching-out", "M"], "--matching-out"),
            (["planted", "--density", "0.9"], "--density"),
            (["planted", "--connected", "--matching-out", "M"], "--connected"),
            (["planted", "--gadget", "c6"], "--gadget"),
            (["rejection", "--gadget", "c6"], "--gadget"),
        ],
    )
    def test_option_the_mode_does_not_read_is_a_usage_error(self, argv, option, tmp_path, capsys):
        target = tmp_path / "m.txt"
        argv = [str(target) if arg == "M" else arg for arg in argv]
        assert main(["generate", "--mode", *argv]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {option} does not apply to --mode {argv[0]}\n")
        assert not target.exists()


class TestInputErrors:
    """Every subcommand reports an unreadable or unwritable file as
    ``error: ...`` with exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(lambda good, bad: ["solve", bad], id="solve"),
            pytest.param(lambda good, bad: ["check", bad, good], id="check-graph"),
            pytest.param(lambda good, bad: ["check", good, bad], id="check-matching"),
            pytest.param(lambda good, bad: ["oracle", bad], id="oracle"),
            pytest.param(lambda good, bad: ["detect", bad, "k4"], id="detect"),
            pytest.param(
                lambda good, bad: ["compare", "--dir", os.path.dirname(bad)],
                id="compare-dir",
            ),
        ],
    )
    def test_undecodable_file(self, argv, tmp_path, capsys):
        good = write_gadget(tmp_path, "c6")
        (tmp_path / "inputs").mkdir()
        bad = tmp_path / "inputs" / "bad.col"
        bad.write_bytes(b"\xff\xfep edge 2 1\ne 1 2\n")
        args = argv(good, str(bad))
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if args[0] == "compare":
            assert str(bad) in err

    @pytest.mark.parametrize("flag", ["--out", "--matching-out"])
    def test_generate_into_a_missing_directory(self, flag, tmp_path, capsys):
        target = tmp_path / "absent" / "out.col"
        argv = ["generate", "--mode", "planted", "--n", "20", "--seed", "1", flag, str(target)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


class TestCompareCommand:
    def test_worker_count_env_override(self, monkeypatch):
        from dimatch.compare import worker_count

        monkeypatch.setenv("DIM_SOLVER_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.delenv("DIM_SOLVER_THREADS")
        assert worker_count() >= 1

    @pytest.mark.parametrize("threads", ["-1", "0", "two"])
    def test_bad_threads_is_a_usage_error(self, threads, capsys):
        assert main(["compare", "--exhaustive", "3", "--threads", threads]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exists", "min", "enumerate"])
    @pytest.mark.parametrize("cap", ["-1", "0", "many"])
    def test_bad_oracle_cap_is_a_usage_error(self, mode, cap, tmp_path, capsys):
        p = tmp_path / "p3.col"
        p.write_text(write_edge_list(Graph(3, [(0, 1), (1, 2)])))
        assert main(["oracle", str(p), "--mode", mode, "--cap", cap]) == EXIT_USAGE
        assert "at least 1" in capsys.readouterr().err
        # P3 has two DIMs: a cap of 1 is accepted and trips in enumerate mode only.
        code = main(["oracle", str(p), "--mode", mode, "--cap", "1"])
        assert code == (EXIT_USAGE if mode == "enumerate" else EXIT_FOUND)
        assert main(["oracle", str(p), "--mode", mode, "--cap", "2"]) == EXIT_FOUND

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_worker_env_is_a_usage_error(self, value, monkeypatch, capsys):
        from dimatch.compare import worker_count

        monkeypatch.setenv("DIM_SOLVER_THREADS", value)
        with pytest.raises(ValueError, match="at least 1"):
            worker_count()
        assert main(["compare", "--exhaustive", "3"]) == EXIT_USAGE
        assert "error: DIM_SOLVER_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--planted", "3"],
            ["--planted", "3xbig"],
            ["--exhaustive", "9"],
            ["--exhaustive", "x"],
            # One corpus per run: a second corpus option is not ignored.
            ["--exhaustive", "3", "--samples", "2"],
            ["--planted", "2x30", "--dir", "."],
        ],
    )
    def test_bad_corpus_argument_is_a_usage_error(self, argv, capsys):
        assert main(["compare", *argv, "--threads", "1"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_bad_worker_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("DIM_SOLVER_THREADS", "two")
        assert main(["compare", "--exhaustive", "3"]) == EXIT_USAGE
        assert "error: DIM_SOLVER_THREADS" in capsys.readouterr().err

    def test_pool_capped_at_task_count(self, monkeypatch):
        import dimatch.compare

        sizes: list[int] = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(dimatch.compare, "Pool", SerialPool)
        assert dimatch.compare.run_planted(30, 3, workers=1000).found == 3
        assert sizes == [3]
        assert dimatch.compare.run_planted(30, 1, workers=1000).found == 1
        assert sizes == [3]

    def test_small_exhaustive(self, capsys):
        code = main(["compare", "--exhaustive", "4", "--json", "--threads", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["disagreements"] == []
        assert payload["total"] > 0

    def test_text_summary(self, capsys):
        assert main(["compare", "--exhaustive", "3", "--threads", "1"]) == EXIT_FOUND
        summary, *timing = capsys.readouterr().out.splitlines()
        assert re.fullmatch(
            r"instances=5 found=5 no_dim=0 disagreements=0 weight_mismatches=0 errors=0 "
            r"wall=\d+\.\d\ds",
            summary,
        )
        assert [line.split(":")[0] for line in timing] == [
            f"  timing {key}" for key in ("max", "p50", "p90", "p99", "samples")
        ]
        assert timing[-1] == "  timing samples: 5"

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--exhaustive", "3", "--density", "0.9", "--n", "50", "--threads", "1"], "--density"),
            (["--exhaustive", "3", "--n", "50"], "--n"),
            (["--exhaustive", "3", "--seed", "3"], "--seed"),
            (["--planted", "2x30", "--n", "50"], "--n"),
            (["--planted", "2x30", "--density", "0.9"], "--density"),
            (["--dir", "D", "--threads", "4", "--seed", "3"], "--seed"),
            (["--dir", "D", "--threads", "4"], "--threads"),
            (["--dir", "D", "--n", "5"], "--n"),
        ],
    )
    def test_option_the_corpus_does_not_read_is_a_usage_error(self, argv, option, tmp_path, capsys):
        (tmp_path / "a.col").write_text(write_edge_list(gadget("c6")))
        argv = [str(tmp_path) if arg == "D" else arg for arg in argv]
        assert main(["compare", *argv]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {option} does not apply to {argv[0]}\n")

    def test_samples_read_every_sampling_option(self, capsys):
        argv = ["--samples", "2", "--n", "6", "--seed", "3", "--density", "0.5", "--threads", "1"]
        assert main(["compare", *argv, "--json"]) == EXIT_FOUND
        options = json.loads(capsys.readouterr().out)["options"]
        assert options == {
            "n": 6, "count": 2, "seed": 3, "density": 0.5, "minimize": False, "strict": False
        }

    def test_report_records_its_options(self, capsys):
        payloads = []
        for extra in ([], ["--min-weight", "--strict"]):
            main(["compare", "--exhaustive", "4", "--json", "--threads", "1"] + extra)
            payloads.append(json.loads(capsys.readouterr().out))
        exists, minw = (p["options"] for p in payloads)
        assert exists == {"n_max": 4, "minimize": False, "strict": False}
        assert minw == {"n_max": 4, "minimize": True, "strict": True}

    def test_planted_batch(self, capsys):
        code = main(["compare", "--planted", "5x60", "--threads", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND and payload["found"] == 5

    def test_planted_passes_strict(self, monkeypatch, capsys):
        import dimatch.compare

        real = dimatch.compare.solve
        seen: list[bool] = []

        def spy(g, minimize=False, strict=False, structural=False):
            seen.append(strict)
            return real(g, minimize=minimize, strict=strict, structural=structural)

        monkeypatch.setattr(dimatch.compare, "solve", spy)
        code = main(["compare", "--planted", "2x60", "--threads", "1", "--strict", "--json"])
        capsys.readouterr()
        assert code == EXIT_FOUND
        assert seen == [True, True]

    def test_run_planted_passes_structural(self, monkeypatch):
        import dimatch.compare

        real = dimatch.compare.solve
        seen: list[bool] = []

        def spy(g, minimize=False, strict=False, structural=False):
            seen.append(structural)
            return real(g, minimize=minimize, strict=strict, structural=structural)

        monkeypatch.setattr(dimatch.compare, "solve", spy)
        rep = dimatch.compare.run_planted(20, 2, structural=True, workers=1)
        assert rep.agreement and rep.found == 2
        assert seen == [True, True]

    def test_planted_class_violation(self, monkeypatch):
        import dimatch.compare

        monkeypatch.setattr(dimatch.compare, "solve", class_violation)
        rep = dimatch.compare.run_planted(20, 2, workers=1)
        labels = ["planted n=20 seed=0", "planted n=20 seed=1"]
        assert not rep.disagreements
        assert rep.errors == [{"instance": x, "error": "class violation"} for x in labels]

    def test_planted_disagreement_names_the_oracle_verdict(self, monkeypatch):
        import dimatch.compare

        monkeypatch.setattr(dimatch.compare, "solve", no_dim)
        rep = dimatch.compare.run_planted(20, 1, workers=1)
        assert rep.disagreements == [
            {"instance": "planted n=20 seed=0", "solver": "no_dim", "oracle": "found"}
        ]

    def test_directory_mode(self, tmp_path, capsys):
        (tmp_path / "a.col").write_text(write_edge_list(gadget("c6")))
        (tmp_path / "b.col").write_text(write_edge_list(gadget("c4")))
        code = main(["compare", "--dir", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["total"] == 2 and payload["found"] == 1

    def test_empty_corpus_passes_with_warning(self, tmp_path, capsys):
        code = main(["compare", "--dir", str(tmp_path), "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_FOUND
        assert "empty" in captured.err

    def test_requires_a_source(self, capsys):
        assert main(["compare"]) == EXIT_USAGE

    def test_samples_without_vertices_is_a_usage_error(self, capsys):
        assert main(["compare", "--samples", "3", "--n", "0", "--threads", "1"]) == EXIT_USAGE
        assert "error: need at least one vertex" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--samples", "-3"], "error: instance count must be at least 0, got -3"),
            (["--planted=-2x60"], "error: instance count must be at least 0, got -2"),
            (["--exhaustive", "-1"], "the exhaustive corpus spans n=2..7, got -1"),
            (["--exhaustive", "1"], "the exhaustive corpus spans n=2..7, got 1"),
        ],
        ids=["samples", "planted", "exhaustive-negative", "exhaustive-one"],
    )
    def test_bad_corpus_size_is_a_usage_error(self, argv, message, capsys):
        assert main(["compare", *argv, "--threads", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "corpus is empty" not in err

    @pytest.mark.parametrize("n_max", [-1, 1, 8])
    def test_run_exhaustive_rejects_sizes_outside_2_to_7(self, n_max):
        from dimatch.compare import run_exhaustive

        with pytest.raises(ValueError, match=f"spans n=2..7, got {n_max}"):
            run_exhaustive(n_max, workers=1)

    def test_planted_single_vertex_is_a_usage_error(self, capsys):
        assert main(["compare", "--planted", "3x1", "--threads", "1"]) == EXIT_USAGE
        assert "error: planted instances need at least 2 vertices" in capsys.readouterr().err

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        assert main(["compare", "--dir", str(missing)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_malformed_directory_file_names_the_file(self, tmp_path, capsys):
        (tmp_path / "a.col").write_text(write_edge_list(gadget("c6")))
        bad = tmp_path / "b.col"
        bad.write_text("p edge 2 1\ne 1 5\n")
        assert main(["compare", "--dir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err
        assert "vertex out of range 1..2" in err


def no_dim(g, **kwargs):
    """A solver that never finds a matching."""
    return SolveOutcome("no_dim")


def class_violation(g, **kwargs):
    """A solver that rejects every input as outside the class."""
    return SolveOutcome(CLASS_VIOLATION)


def weight_off(g, **kwargs):
    """``solve`` with every found weight one too high."""
    out = solve(g, **kwargs)
    return out._replace(weight=out.weight + 1) if out.found else out


# Each generated corpus: a small run, and the graph its label names built
# again from the generator.
GENERATED = pytest.mark.parametrize(
    "run, build",
    [
        (
            lambda compare, **kw: compare.run_exhaustive(3, workers=1, **kw),
            lambda label: mask_to_graph(*(int(f.split("=")[1]) for f in label.split())),
        ),
        (
            lambda compare, **kw: compare.run_samples(8, 2, seed=5, density=0.3, workers=1, **kw),
            lambda label: generate_rejection(
                GenSpec(
                    n=8,
                    seed=int(label.split("seed=")[1]),
                    mode="rejection",
                    density=0.3,
                    connected=True,
                )
            ),
        ),
        (
            lambda compare, **kw: compare.run_planted(30, 2, workers=1, **kw),
            lambda label: generate_planted(
                GenSpec(n=30, seed=int(label.split("seed=")[1]), mode="planted")
            )[0],
        ),
    ],
    ids=["exhaustive", "samples", "planted"],
)


class TestReproducer:
    """``dump_reproducer`` gives a file for every failing instance."""

    @GENERATED
    def test_generated_instances_are_written(self, run, build, tmp_path, monkeypatch):
        import dimatch.compare

        monkeypatch.setattr(dimatch.compare, "solve", no_dim)
        report = run(dimatch.compare)
        assert report.disagreements
        paths = dimatch.compare.dump_reproducer(report, str(tmp_path / "repro"))
        assert len(paths) == len(report.disagreements)
        assert len(set(paths)) == len(paths)
        for dis, path in zip(report.disagreements, paths):
            assert os.path.dirname(path) == str(tmp_path / "repro")
            g, want = read_edge_list(path), build(dis["instance"])
            assert (g.n, g.edges, g.weights) == (want.n, want.edges, want.weights)

    @pytest.mark.parametrize("fault", [class_violation, weight_off], ids=["class", "weight"])
    @GENERATED
    def test_errors_and_weight_mismatches_are_written(self, fault, run, build, tmp_path, monkeypatch):
        import dimatch.compare

        monkeypatch.setattr(dimatch.compare, "solve", fault)
        report = run(dimatch.compare, minimize=True)
        failing = report.errors if fault is class_violation else report.weight_mismatches
        labels = [entry["instance"] for entry in failing]
        assert labels and len(set(labels)) == len(labels) and not report.disagreements
        paths = dimatch.compare.dump_reproducer(report, str(tmp_path / "repro"))
        assert len(paths) == len(labels) == len(set(paths))
        for label, path in zip(labels, paths):
            g, want = read_edge_list(path), build(label)
            assert (g.n, g.edges, g.weights) == (want.n, want.edges, want.weights)

    def test_directory_instances_are_named(self, tmp_path, monkeypatch):
        import dimatch.compare

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.col").write_text(write_edge_list(gadget("c6")))
        (corpus / "b.col").write_text(write_edge_list(gadget("c4")))
        monkeypatch.setattr(dimatch.compare, "solve", no_dim)
        report = dimatch.compare.run_directory(str(corpus))
        paths = dimatch.compare.dump_reproducer(report, str(tmp_path / "repro"))
        assert paths == [str(corpus / "a.col")]
        assert not (tmp_path / "repro").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--planted", "2x30", "--threads", "1"], ["--dir"]],
        ids=["planted", "dir"],
    )
    def test_cli_names_every_reproducer(self, argv, tmp_path, monkeypatch, capsys):
        import dimatch.compare

        if argv == ["--dir"]:
            (tmp_path / "a.col").write_text(write_edge_list(gadget("c6")))
            argv = ["--dir", str(tmp_path)]
        monkeypatch.setattr(dimatch.compare, "solve", no_dim)
        repro = tmp_path / "repro"
        code = main(["compare", *argv, "--json", "--repro-dir", str(repro)])
        captured = capsys.readouterr()
        disagreements = json.loads(captured.out)["disagreements"]
        named = [
            line.removeprefix("reproducer: ")
            for line in captured.err.splitlines()
            if line.startswith("reproducer: ")
        ]
        assert code == EXIT_NO_DIM and disagreements
        assert len(named) == len(disagreements)
        assert all(os.path.isfile(path) for path in named)
