"""Command-line interface: exit codes, JSON round-trips, determinism."""

from __future__ import annotations

import json
import os

import pytest

from dimatch.cli import EXIT_CLASS, EXIT_FOUND, EXIT_NO_DIM, EXIT_USAGE, main
from dimatch.fileio import (
    ParseError,
    parse_edge_list,
    parse_matching,
    write_edge_list,
    write_matching,
)
from dimatch.generate import gadget
from dimatch.graph import Graph
from dimatch.solver import CLASS_VIOLATION, SolveOutcome

from conftest import disjoint_union


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
            parse_edge_list(lines())
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

    def test_parses_an_open_file(self, tmp_path):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], weights={(1, 2): 3})
        p = tmp_path / "g.col"
        p.write_text(write_edge_list(g, comment="file"))
        with open(p, encoding="utf-8") as fh:
            back = parse_edge_list(fh)
        assert back.edges == g.edges and back.weights == g.weights

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
                lambda good, bad: ["compare", "--dir", os.path.dirname(bad), "--threads", "1"],
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
        [["--planted", "3"], ["--planted", "3xbig"], ["--exhaustive", "9"], ["--exhaustive", "x"]],
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
        for use_oracle in (False, True):
            seen.clear()
            rep = dimatch.compare.run_planted(
                20, 2, structural=True, use_oracle=use_oracle, workers=1
            )
            assert rep.agreement and rep.found == 2
            assert seen == [True, True]

    @pytest.mark.parametrize("use_oracle", [False, True])
    def test_planted_class_violation(self, use_oracle, monkeypatch):
        import dimatch.compare

        monkeypatch.setattr(
            dimatch.compare, "solve", lambda g, **kwargs: SolveOutcome(CLASS_VIOLATION)
        )
        rep = dimatch.compare.run_planted(20, 2, use_oracle=use_oracle, workers=1)
        labels = ["planted n=20 seed=0", "planted n=20 seed=1"]
        if use_oracle:
            assert not rep.disagreements
            assert rep.errors == [{"instance": x, "error": "class violation"} for x in labels]
        else:
            assert not rep.errors
            assert rep.disagreements == [
                {"instance": x, "solver": CLASS_VIOLATION, "oracle": "found (planted)"}
                for x in labels
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

    def test_planted_single_vertex_is_a_usage_error(self, capsys):
        assert main(["compare", "--planted", "3x1", "--threads", "1"]) == EXIT_USAGE
        assert "error: planted instances need at least 2 vertices" in capsys.readouterr().err

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        assert main(["compare", "--dir", str(missing), "--threads", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_malformed_directory_file_names_the_file(self, tmp_path, capsys):
        (tmp_path / "a.col").write_text(write_edge_list(gadget("c6")))
        bad = tmp_path / "b.col"
        bad.write_text("p edge 2 1\ne 1 5\n")
        assert main(["compare", "--dir", str(tmp_path), "--threads", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err
        assert "vertex out of range 1..2" in err
