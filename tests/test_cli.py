import random
import re
from pathlib import Path

import pytest

from liftgirth import bounds, cli, construct, graphs
from liftgirth.construct import high_girth_cover
from liftgirth.lifts import LiftAssignment, build_lift, serialize_cover_map
from test_names import loaded_after


@pytest.fixture
def h23_file(tmp_path):
    p = tmp_path / "h23.g"
    p.write_text(graphs.serialize_graph(graphs.h23()))
    return str(p)


class TestSeedMixing:
    def test_deterministic(self):
        assert cli.mix(0, 0) == cli.mix(0, 0)
        assert cli.mix(123, 45) == cli.mix(123, 45)

    def test_spread(self):
        seeds = {cli.mix(7, i) for i in range(10000)}
        assert len(seeds) == 10000
        assert all(0 <= s < 2 ** 64 for s in seeds)


class TestAnalyze:
    def test_default_base(self, capsys):
        assert cli.main(["analyze", "--gmin", "3", "--gmax", "10"]) == 0
        out = capsys.readouterr().out
        assert "rho        1.521380" in out
        assert "rho == Lambda: no" in out

    def test_csv_output(self, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        assert cli.main(["analyze", "--gmin", "3", "--gmax", "30",
                         "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "g,moore_raw,moore_adjusted,es_bound,ahl_n0"
        assert len(lines) == 29

    def test_past_float_range(self, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        assert cli.main(["analyze", "--gmin", "3415", "--gmax", "3415",
                         "--csv", str(csv)]) == 0
        [r] = bounds.bounds_table(graphs.h23(), 3415, 3415)
        cells = [r.moore_raw, r.moore_adjusted, r.es_bound]
        assert capsys.readouterr().out.splitlines()[-1].split() \
            == ["3415", *map(str, cells), "inf"]
        assert csv.read_text().splitlines()[1] \
            == ",".join(["3415", *map(str, cells), "inf"])

    def test_balls(self, capsys):
        assert cli.main(["analyze", "--gmin", "5", "--gmax", "5",
                         "--balls", "3"]) == 0
        assert "ball sizes from vertex 1: 1 4 8 14" in capsys.readouterr().out
        assert cli.main(["analyze", "--gmin", "5", "--gmax", "5",
                         "--balls", "0"]) == 0
        out = capsys.readouterr().out
        assert "ball sizes from vertex 0: 1\n" in out
        assert "ball sizes from vertex 1: 1\n" in out

    def test_inadmissible_exit(self, tmp_path, capsys):
        p = tmp_path / "c6.g"
        p.write_text(graphs.serialize_graph(graphs.cycle_graph(6)))
        assert cli.main(["analyze", "--graph", str(p)]) == cli.EXIT_PRECONDITION

    @pytest.mark.parametrize("text", [
        "vertices 1\nhalfloop 0\n",
        "vertices 1\nhalfloop 0\nhalfloop 0\n",
        "vertices 2\nhalfloop 0\nedge 0 1\nhalfloop 1\n",
        "vertices 5\nedge 0 1\nedge 0 2\nedge 0 3\nedge 1 2\nedge 1 3\n"
        "edge 2 3\n",
    ])
    def test_degenerate_base_exit(self, tmp_path, capsys, text):
        p = tmp_path / "base.g"
        p.write_text(text)
        assert cli.main(["analyze", "--graph", str(p)]) == cli.EXIT_PRECONDITION
        assert "not admissible" in capsys.readouterr().err

    def test_bad_file_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.g"
        for text in ("vertices two\n", "vertices 0\n",
                     "vertices 2\nedge 0 5\n"):
            p.write_text(text)
            assert cli.main(["analyze", "--graph", str(p)]) == cli.EXIT_PARSE
        assert cli.main(["analyze", "--graph",
                         str(tmp_path / "nope.g")]) == cli.EXIT_PARSE

    def test_missing_csv_dir_before_output(self, tmp_path, capsys):
        # the second path is a directory itself, the third is empty
        for path in (tmp_path / "no" / "t.csv", tmp_path, ""):
            code = cli.main(["analyze", "--csv", str(path)])
            assert code == cli.EXIT_PARSE
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["--gmin", "2", "--gmax", "2"],
                                      ["--gmin", "0", "--gmax", "0"],
                                      ["--gmin", "9", "--gmax", "5"],
                                      ["--gmin", "2", "--gmax", "5"]])
    def test_bad_girth_range_before_output(self, argv, capsys):
        assert cli.main(["analyze", *argv]) == cli.EXIT_PRECONDITION
        assert capsys.readouterr().out == ""


class TestConstruct:
    def test_gf_g5(self, tmp_path, capsys):
        out = tmp_path / "w.g"
        code = cli.main(["construct", "--alg", "gf", "--g", "5",
                         "--trials", "30", "--seed", "1",
                         "--out", str(out)])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("5,gf,30,")
        assert int(row.split(",")[4]) == 8
        g = graphs.parse_graph(out.read_text())
        assert graphs.girth(g) >= 5 and g.vertex_count == 8

    def test_csv_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            cli.main(["construct", "--alg", "gd", "--g", "6",
                      "--trials", "10", "--seed", "3"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_es_jobs_do_not_change_output(self, tmp_path, capsys):
        """es through the process pool prints the row and writes the
        graph that --jobs 1 does."""
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"es{jobs}.g"
            assert cli.main(["construct", "--alg", "es", "--g", "9",
                             "--trials", "6", "--seed", "3", "--jobs", jobs,
                             "--out", str(out)]) == 0
            outs.append((capsys.readouterr().out, out.read_text()))
        assert outs[0] == outs[1]
        assert outs[0][0].splitlines()[1].startswith("9,es,6,6,")

    def test_zero_successes_budget_exit(self, capsys):
        code = cli.main(["construct", "--alg", "a", "--g", "7", "--n", "12",
                         "--trials", "30", "--seed", "0"])
        assert code == cli.EXIT_BUDGET
        assert capsys.readouterr().out.splitlines()[1] == "7,a,30,0,,"

    @pytest.mark.parametrize("g", ["0", "1", "2"])
    @pytest.mark.parametrize("alg", ["es", "2lift", "gf"])
    def test_small_girth_precondition(self, alg, g, capsys):
        code = cli.main(["construct", "--alg", alg, "--g", g,
                         "--trials", "3"])
        assert code == cli.EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    def test_missing_n_precondition(self, capsys):
        code = cli.main(["construct", "--alg", "a", "--g", "5",
                         "--trials", "5"])
        assert code == cli.EXIT_PRECONDITION

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv", [["--alg", "a", "--g", "5", "--n", "6"],
                                      ["--alg", "es", "--g", "3"]])
    def test_trial_precondition_exit(self, argv, jobs, capsys):
        code = cli.main(["construct", *argv, "--trials", "3",
                         "--jobs", jobs])
        assert code == cli.EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("n", ["6", "0"])
    def test_bad_n_before_trials(self, n, jobs, monkeypatch, capsys):
        """--n is checked before any trial runs or any pool starts."""
        import concurrent.futures

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the --n check")
        monkeypatch.setattr(cli, "run_trial", forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            forbidden)
        code = cli.main(["construct", "--alg", "b", "--g", "5", "--n", n,
                         "--trials", "3", "--jobs", jobs])
        assert code == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be a positive multiple of 4\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_es_below_g0_before_trials(self, jobs, monkeypatch, capsys):
        """es needs g >= g0 = 2 diam(T) + 2 (4 on H23), checked before
        any trial runs or any pool starts."""
        import concurrent.futures

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the g0 check")
        monkeypatch.setattr(cli, "run_trial", forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            forbidden)
        code = cli.main(["construct", "--alg", "es", "--g", "3",
                         "--trials", "3", "--jobs", jobs])
        assert code == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: g=3 below g0=4\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv", [["--alg", "gf", "--g", "6"],
                                      ["--alg", "a", "--g", "5", "--n", "8"]])
    def test_graph_for_h23_only_alg_rejected(self, argv, jobs, h23_file,
                                            capsys):
        code = cli.main(["construct", *argv, "--graph", h23_file,
                         "--trials", "3", "--jobs", jobs])
        assert code == cli.EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("alg", ["es", "gd", "gf", "2lift"])
    def test_n_for_non_greedy_alg_rejected(self, alg, jobs, capsys):
        code = cli.main(["construct", "--alg", alg, "--g", "6", "--n", "8",
                         "--trials", "3", "--jobs", jobs])
        assert code == cli.EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_base_file_exit(self, tmp_path, jobs, capsys):
        p = tmp_path / "bad.g"
        p.write_text("vertices 2\nedge 0 5\n")
        code = cli.main(["construct", "--alg", "es", "--g", "6",
                         "--graph", str(p), "--trials", "3", "--jobs", jobs])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_2lift_on_base_file(self, h23_file, jobs, capsys):
        code = cli.main(["construct", "--alg", "2lift", "--g", "6",
                         "--graph", h23_file, "--trials", "3", "--seed", "2",
                         "--jobs", jobs])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("6,2lift,3,3,")

    def test_2lift_on_path_precondition(self, tmp_path, capsys):
        p = tmp_path / "path.g"
        p.write_text("vertices 3\nedge 0 1\nedge 1 2\n")
        code = cli.main(["construct", "--alg", "2lift", "--g", "5",
                         "--graph", str(p), "--trials", "2"])
        assert code == cli.EXIT_PRECONDITION

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("flag", ["--out"])
    def test_missing_output_dir_before_trials(self, tmp_path, flag, jobs,
                                              capsys):
        # the second path is a directory itself, the third is empty
        for path in (tmp_path / "missing" / "x", tmp_path, ""):
            code = cli.main(["construct", "--alg", "gf", "--g", "5",
                             "--trials", "3", "--jobs", jobs, flag,
                             str(path)])
            assert code == cli.EXIT_PARSE
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["--alg", "gf", "--g", "8", "--trials", "200"],
        ["--alg", "c", "--g", "8", "--n", "24", "--trials", "300"],
        ["--alg", "es", "--g", "7", "--trials", "4"],
    ])
    def test_jobs_do_not_change_output(self, tmp_path, argv, capsys):
        outputs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"best-{jobs}.g"
            assert cli.main(["construct", *argv, "--seed", "5",
                             "--jobs", jobs, "--out", str(path)]) == 0
            outputs.append((capsys.readouterr().out, path.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.fixture
    def in_process_pool(self, monkeypatch):
        """A stand-in for the process pool that runs the trials in-process
        and records the number of workers each pool built asks for."""
        import concurrent.futures
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        return asked

    def test_workers_capped_at_trials(self, in_process_pool, capsys):
        """A fork-based pool starts all its workers at once, so --jobs 8
        with two trials asks for two, and one trial for none; the output
        is --jobs 1's."""
        for trials in ("2", "1"):
            outputs = []
            for jobs in ("1", "8"):
                assert cli.main(["construct", "--alg", "gf", "--g", "6",
                                 "--trials", trials, "--seed", "3",
                                 "--jobs", jobs]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
        assert in_process_pool == [2]

    @pytest.mark.parametrize("alg, g", [("2lift", "5"), ("es", "6")])
    def test_low_degree_base_before_pool(self, tmp_path, in_process_pool,
                                         alg, g, capsys):
        """A base with a degree-1 vertex exits 3 before a pool is built,
        for es at its g0 (a triangle with a pendant vertex: g0 = 6) too;
        so does a disconnected base (two disjoint triangles), whose
        2-lifts would be disconnected too."""
        p = tmp_path / "base.g"
        for pairs, message in (
                ([(0, 1), (1, 2), (2, 0), (0, 3)], "minimal degree >= 2"),
                ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                 "connected")):
            p.write_text(graphs.serialize_graph(
                graphs.MultiGraph.from_pairs(1 + max(map(max, pairs)),
                                             pairs)))
            code = cli.main(["construct", "--alg", alg, "--g", g, "--graph",
                             str(p), "--trials", "2", "--jobs", "2"])
            assert code == cli.EXIT_PRECONDITION
            assert message in capsys.readouterr().err
        assert in_process_pool == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("name, value, argv, code, row", [
        ("_MAX_STEPS", 1, ["--alg", "gd", "--g", "10"], cli.EXIT_BUDGET,
         "10,gd,2,0,,"),
        ("_BUDGET", 1, ["--alg", "2lift", "--g", "9"], cli.EXIT_BUDGET,
         "9,2lift,2,0,,"),
        ("_on_short_cycle", lambda *args: True,
         ["--alg", "es", "--g", "11", "--seed", "1"], cli.EXIT_PRECONDITION,
         None),
    ], ids=["gd_steps", "2lift_budget", "es_short_cycle"])
    def test_failed_trial_is_no_invariant_violation(
            self, in_process_pool, monkeypatch, capsys, jobs, name, value,
            argv, code, row):
        """Trials that run out of growth steps or of candidate 2-lifts
        fail and are counted (exit 4, no success); a trim that keeps a
        short cycle violates an invariant and ends the run (exit 3,
        nothing on stdout), with or without a pool."""
        monkeypatch.setattr(construct, name, value)
        assert cli.main(["construct", *argv, "--trials", "2",
                         "--jobs", jobs]) == code
        out, err = capsys.readouterr()
        if row is None:
            assert out == "" and "internal invariant violated" in err
        else:
            assert out.splitlines() == [cli.CONSTRUCT_CSV_HEADER, row]
        assert in_process_pool == ([2] if jobs == "2" else [])

    def test_es_on_base_file(self, h23_file, capsys):
        code = cli.main(["construct", "--alg", "es", "--g", "6",
                         "--graph", h23_file, "--trials", "2", "--seed", "4"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert int(row.split(",")[4]) <= 132


@pytest.mark.parametrize("argv", [
    ["construct", "--alg", "gf", "--g", "5", "--jobs", "0"],
    ["construct", "--alg", "gf", "--g", "5", "--trials", "0"],
    ["search", "--g", "6", "--max-n", "-4"],
    ["analyze", "--balls", "-1"],
    # abbreviations of --trials, --seed, --max-n and --certify
    ["construct", "--alg", "gf", "--g", "5", "--tri", "3", "--se", "1"],
    ["search", "--g", "6", "--max", "6", "--cert"],
])
def test_bad_argument_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE
    assert capsys.readouterr().out == ""


class TestSearch:
    def test_minimum(self, capsys):
        assert cli.main(["search", "--g", "6", "--max-n", "10"]) == 0
        assert "g,6,minimum,12," in capsys.readouterr().out

    def test_certificate(self, capsys):
        assert cli.main(["search", "--g", "7", "--max-n", "8",
                         "--certify"]) == 0
        assert "g,7,refuted_up_to,8,nodes," in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--g", "-5", "--max-n", "1",
                                       "--certify"],
                                      ["--g", "2", "--max-n", "1"],
                                      ["--g", "2", "--max-n", "4"],
                                      ["--g", "2", "--max-n", "4",
                                       "--certify"]])
    def test_small_girth_precondition(self, argv, capsys):
        assert cli.main(["search", *argv]) == cli.EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    def test_certify_prints_the_minimum_it_finds(self, tmp_path, capsys):
        # a lift of height <= max-n refutes the certificate: the outcome is
        # the minimum, as plain search prints it
        argv = ["search", "--g", "6", "--max-n", "8", "--certify"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "g,6,minimum,12,nodes,3\n"
        out = tmp_path / "witness.g"
        assert cli.main([*argv, "--out", str(out)]) == 0
        graph = graphs.parse_graph(out.read_text())
        assert graph.vertex_count == 12 and graphs.girth(graph) >= 6

    def test_unresolved_budget_exit(self, capsys):
        assert cli.main(["search", "--g", "9", "--max-n", "4"]) \
            == cli.EXIT_BUDGET

    @pytest.mark.parametrize("certify", [[], ["--certify"]])
    def test_missing_output_dir_before_search(self, tmp_path, certify,
                                              capsys):
        # the second path is a directory itself, the third is empty
        for path in (tmp_path / "missing" / "x.g", tmp_path, ""):
            code = cli.main(["search", "--g", "11", "--max-n", "40",
                             *certify, "--out", str(path)])
            assert code == cli.EXIT_PARSE
            assert capsys.readouterr().out == ""


class TestVerify:
    def make_files(self, tmp_path, corrupt=False):
        base = graphs.h23()
        g, m = build_lift(high_girth_cover(base, 6, random.Random(5)))
        gp = tmp_path / "G.g"
        hp = tmp_path / "H.g"
        mp = tmp_path / "m.map"
        gp.write_text(graphs.serialize_graph(g))
        hp.write_text(graphs.serialize_graph(base))
        text = serialize_cover_map(m, g, base)
        if corrupt:
            lines = text.splitlines()
            v, hv = lines[0].split()[1:]
            lines[0] = f"vmap {v} {1 - int(hv)}"
            text = "\n".join(lines) + "\n"
        mp.write_text(text)
        return str(gp), str(hp), str(mp)

    def test_pass(self, tmp_path, capsys):
        gp, hp, mp = self.make_files(tmp_path)
        assert cli.main(["verify", "--graph", gp, "--base", hp,
                         "--map", mp]) == 0
        out = capsys.readouterr().out
        assert "cover: pass" in out and "girth 6" in out

    def test_malformed_map_exit(self, tmp_path, capsys):
        gp, hp, mp = self.make_files(tmp_path)
        with open(mp, "a", encoding="utf-8") as fh:
            fh.write("vmap 1 0 7\n")
        assert cli.main(["verify", "--graph", gp, "--base", hp,
                         "--map", mp]) == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("line", ["vmap 0 1", "emap 0 4"])
    def test_map_line_given_twice_exit(self, tmp_path, capsys, line):
        """A map that opens with a conflicting line for an index the rest
        of the file maps is a parse error, not a passing cover."""
        base = graphs.h23()
        g, m = build_lift(LiftAssignment.identity(base, 2))
        gp, hp, mp = (tmp_path / "G.g", tmp_path / "H.g", tmp_path / "m.map")
        gp.write_text(graphs.serialize_graph(g))
        hp.write_text(graphs.serialize_graph(base))
        mp.write_text(line + "\n" + serialize_cover_map(m, g, base))
        assert cli.main(["verify", "--graph", str(gp), "--base", str(hp),
                         "--map", str(mp)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "given twice" in captured.err

    def test_edge_over_the_other_parallel_edge(self, tmp_path, capsys):
        """A lifted u -> v edge remapped from base edge 1 to base edge 3,
        the other u -> v edge, keeps its ends, but its inverse still lies
        over edge 0, not over inv(3) = 2."""
        gp, hp, mp = self.make_files(tmp_path)
        lines = Path(mp).read_text().splitlines()
        k = next(k for k, line in enumerate(lines)
                 if line.startswith("emap ") and line.endswith(" 1"))
        lines[k] = lines[k][:-1] + "3"
        Path(mp).write_text("\n".join(lines) + "\n")
        assert cli.main(["verify", "--graph", gp, "--base", hp,
                         "--map", mp]) == cli.EXIT_PRECONDITION
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "cover: FAIL"
        assert f"  edge {lines[k].split()[1]}: inverse does not commute" \
            in out

    def test_corrupted_map_fails(self, tmp_path, capsys):
        gp, hp, mp = self.make_files(tmp_path, corrupt=True)
        assert cli.main(["verify", "--graph", gp, "--base", hp,
                         "--map", mp]) == cli.EXIT_PRECONDITION
        assert "cover: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_disconnected_cover(self, tmp_path, capsys, corrupt):
        """Two disjoint copies of H23 over H23: the diameter is inf and
        the cover verdict still prints."""
        base = graphs.h23()
        g, m = build_lift(LiftAssignment.identity(base, 2))
        assert not graphs.is_connected(g)
        gp, hp, mp = (tmp_path / "G.g", tmp_path / "H.g", tmp_path / "m.map")
        gp.write_text(graphs.serialize_graph(g))
        hp.write_text(graphs.serialize_graph(base))
        text = serialize_cover_map(m, g, base)
        if corrupt:
            text = text.replace("vmap 0 0", "vmap 0 1")
        mp.write_text(text)
        code = cli.main(["verify", "--graph", str(gp), "--base", str(hp),
                         "--map", str(mp)])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "girth 1  diameter inf"
        if corrupt:
            assert code == cli.EXIT_PRECONDITION and out[1] == "cover: FAIL"
        else:
            assert code == cli.EXIT_OK and out[1:] == ["cover: pass"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--graph", "BAD"],
    ["construct", "--alg", "es", "--g", "6", "--graph", "BAD"],
    ["verify", "--graph", "BAD", "--base", "H", "--map", "M"],
    ["verify", "--graph", "G", "--base", "H", "--map", "BAD"],
])
def test_non_utf8_file_exit(argv, tmp_path, capsys):
    """A graph or map file that is not UTF-8 is malformed: exit 2, not a
    traceback."""
    files = dict(zip("GHM", TestVerify().make_files(tmp_path)))
    files["BAD"] = str(tmp_path / "bad.g")
    Path(files["BAD"]).write_bytes(b"vertices 2\n\xff\n")
    assert cli.main([files.get(a, a) for a in argv]) == cli.EXIT_PARSE
    assert capsys.readouterr().out == ""


def test_readme_commands_parse():
    """Every `liftgirth ...` command in README, on a code-block line or in
    backticks, parses, so no example keeps an option that is gone."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = (re.findall(r"^liftgirth (.+)$", text, re.M)
                + re.findall(r"`liftgirth ([^`]+)`", text))
    assert commands
    parser = cli.build_parser()
    for command in commands:
        parser.parse_args(command.split())


# Runs the CLI as `python -m liftgirth.cli` does.
RUN_CLI = """
import runpy, sys
sys.argv = ["liftgirth.cli", *{argv!r}]
try:
    runpy.run_module("liftgirth.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""

# Runs the CLI as the installed `liftgirth` script does.
RUN_SCRIPT = """
import sys
sys.argv = ["liftgirth", *{argv!r}]
from liftgirth.__main__ import main
try:
    main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""

ANALYZE = {"graphs", "bounds", "cover_tree", "spectral"}


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], {"graphs"}),
    (["analyze", "--gmin", "5", "--gmax", "5", "--balls", "2"], ANALYZE),
    (["verify"], {"graphs", "lifts"}),
    (["search", "--g", "6", "--max-n", "6"], {"graphs", "lifts", "search"}),
    (["search", "--g", "6", "--max-n", "4", "--certify"],
     {"graphs", "search"}),
    (["construct", "--alg", "gf", "--g", "5", "--trials", "2"],
     {"graphs", "cover_tree", "construct"}),
    (["construct", "--alg", "gd", "--g", "5", "--trials", "2"],
     {"graphs", "construct"}),
    (["construct", "--alg", "2lift", "--g", "4", "--trials", "2"],
     {"graphs", "construct", "lifts"}),
    (["construct", "--alg", "c", "--g", "4", "--n", "8", "--trials", "2"],
     {"graphs", "construct", "search"}),
    (["construct", "--alg", "es", "--g", "5", "--trials", "1"],
     {"graphs", "bounds", "construct", "lifts"}),
])
def test_command_loads_only_its_modules(argv, loaded, tmp_path):
    """Each invocation compiles what it imports when bytecode is not
    cached, so a command imports only the modules it runs.  The installed
    script loads the same, and liftgirth.__main__."""
    if argv == ["verify"]:
        gp, hp, mp = TestVerify().make_files(tmp_path)
        argv = ["verify", "--graph", gp, "--base", hp, "--map", mp]
    assert loaded_after(RUN_CLI.format(argv=argv)) == loaded
    assert loaded_after(RUN_SCRIPT.format(argv=argv)) == loaded | {"__main__"}


def test_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml",
              "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"liftgirth": "liftgirth.__main__:main"}
