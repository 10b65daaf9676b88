import random

import pytest

from liftgirth import cli, graphs
from liftgirth.construct import high_girth_cover
from liftgirth.lifts import LiftAssignment, build_lift, serialize_cover_map


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
        assert lines[0] == "g,moore_raw,moore_adjusted,es_bound,ahl_n0,best_known"
        assert len(lines) == 29

    def test_balls(self, capsys):
        assert cli.main(["analyze", "--g", "5", "--balls", "3"]) == 0
        assert "ball sizes from vertex 1: 1 4 8 14" in capsys.readouterr().out

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
        code = cli.main(["analyze", "--csv", str(tmp_path / "no" / "t.csv")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["--g", "2"], ["--g", "0"],
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

    def test_csv_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            cli.main(["construct", "--alg", "gd", "--g", "6",
                      "--trials", "10", "--seed", "3", "--csv", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_zero_successes_budget_exit(self, capsys):
        code = cli.main(["construct", "--alg", "a", "--g", "7", "--n", "12",
                         "--trials", "30", "--seed", "0"])
        assert code == cli.EXIT_BUDGET
        assert capsys.readouterr().out.splitlines()[1] == "7,a,30,0,,"

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
    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_missing_output_dir_before_trials(self, tmp_path, flag, jobs,
                                              capsys):
        missing = str(tmp_path / "missing" / "x")
        code = cli.main(["construct", "--alg", "gf", "--g", "5",
                         "--trials", "3", "--jobs", jobs, flag, missing])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["--alg", "gf", "--g", "8", "--trials", "200"],
        ["--alg", "c", "--g", "8", "--n", "24", "--trials", "300"],
    ])
    def test_jobs_do_not_change_output(self, tmp_path, argv, capsys):
        outputs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"best-{jobs}.g"
            assert cli.main(["construct", *argv, "--seed", "5",
                             "--jobs", jobs, "--out", str(path)]) == 0
            outputs.append((capsys.readouterr().out, path.read_bytes()))
        assert outputs[0] == outputs[1]

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
        missing = str(tmp_path / "missing" / "x.g")
        code = cli.main(["search", "--g", "11", "--max-n", "40", *certify,
                         "--out", missing])
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
