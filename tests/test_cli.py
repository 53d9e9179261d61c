"""Command-line interface: exit codes, JSON round-trips, determinism."""

from __future__ import annotations

import json

import pytest

from dimatch.cli import EXIT_CLASS, EXIT_FOUND, EXIT_NO_DIM, EXIT_USAGE, main
from dimatch.fileio import parse_edge_list, parse_matching, write_edge_list, write_matching
from dimatch.generate import gadget
from dimatch.graph import Graph


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

    def test_matching_round_trip(self):
        g = Graph(4, [(0, 1), (2, 3)])
        text = write_matching([(0, 1), (2, 3)])
        assert parse_matching(text, g) == {(0, 1), (2, 3)}

    def test_matching_rejects_absent_edge(self):
        from dimatch.fileio import ParseError

        g = Graph(4, [(0, 1)])
        with pytest.raises(ParseError):
            parse_matching("m 3 4\n", g)


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

    def test_all_anchors_reported(self, tmp_path, capsys):
        path = write_gadget(tmp_path, "p5")
        code = main(["solve", path, "--all-anchors", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["anchors"]

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

    def test_unknown_pattern(self, tmp_path):
        path = write_gadget(tmp_path, "p3")
        assert main(["detect", path, "pentagon"]) == EXIT_USAGE


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


class TestCompareCommand:
    def test_worker_count_env_override(self, monkeypatch):
        from dimatch.compare import worker_count

        monkeypatch.setenv("DIM_SOLVER_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.delenv("DIM_SOLVER_THREADS")
        assert worker_count() >= 1

    def test_small_exhaustive(self, capsys):
        code = main(["compare", "--exhaustive", "4", "--json", "--threads", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND
        assert payload["disagreements"] == []
        assert payload["total"] > 0

    def test_planted_batch(self, capsys):
        code = main(["compare", "--planted", "5x60", "--threads", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FOUND and payload["found"] == 5

    def test_planted_passes_strict(self, monkeypatch, capsys):
        import dimatch.compare

        real = dimatch.compare.solve
        seen: list[bool] = []

        def spy(g, minimize=False, strict=False):
            seen.append(strict)
            return real(g, minimize=minimize, strict=strict)

        monkeypatch.setattr(dimatch.compare, "solve", spy)
        code = main(["compare", "--planted", "2x60", "--threads", "1", "--strict", "--json"])
        capsys.readouterr()
        assert code == EXIT_FOUND
        assert seen == [True, True]

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
