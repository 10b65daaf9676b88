"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

The smoke and --jobs tests start CLI subprocesses and take about half a
minute together; the others are instant.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import sessions  # noqa: E402
from tracing import Tracer, installed  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# -- tracing ---------------------------------------------------------------

def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3] and c [4, 9]; c holds b [5, 6]
    t = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 9, 10))
    t.enter("a")
    t.enter("b")
    t.exit()
    t.enter("c")
    t.enter("b")
    t.exit()
    t.exit()
    t.exit()
    assert (t.calls("a"), t.self_s("a"), t.stats["a"].total_s) == (1, 3, 10)
    assert (t.calls("b"), t.self_s("b"), t.stats["b"].total_s) == (2, 3, 3)
    assert (t.calls("c"), t.self_s("c"), t.stats["c"].total_s) == (1, 4, 5)
    assert t.calls_under("b", ("a",)) == 1
    assert t.calls_under("b", ("c",)) == 1
    assert t.calls("missing") == 0 and t.self_s("missing") == 0.0


def test_recursive_span_counts_inner_call_as_child():
    t = Tracer(clock=fake_clock(0, 2, 7, 10))
    t.enter("f")
    t.enter("f")
    t.exit()
    t.exit()
    assert t.calls("f") == 2
    assert t.self_s("f") == 5 + 5     # outer 10 - 5, inner 5
    assert t.stats["f"].total_s == 15


def test_span_closes_when_the_call_raises():
    t = Tracer(keep=("boom",))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert t.calls("boom") == 1 and len(t.durations["boom"]) == 1
    assert not t._stack


def test_installed_rebinds_every_alias_and_restores():
    from liftgirth import construct, graphs

    original = graphs.girth
    t = Tracer()
    with installed(t, ("graphs.girth", "graphs.farthest_pair")):
        assert construct.girth is graphs.girth is not original
        graphs.diameter(graphs.petersen())     # calls farthest_pair
        graphs.girth(graphs.petersen())
    assert construct.girth is graphs.girth is original
    assert t.calls("graphs.farthest_pair") == 1
    assert t.calls("graphs.girth") == 1


# -- statistics and checks -------------------------------------------------

def test_upper_percentile_needs_ten_samples_beyond():
    assert run.upper_percentile(list(range(19))) is None
    assert run.upper_percentile(list(range(20)))[0] == "p50"
    assert run.upper_percentile(list(range(100)))[0] == "p90"
    assert run.upper_percentile(list(range(1000))) == ("p99", 989)


def test_nb_ball_sizes_of_k32():
    from liftgirth.graphs import k32, serialize_graph

    g = checks.Graph(serialize_graph(k32()))
    assert g.nb_ball_sizes(0, 5) == [1, 4, 7, 13, 19, 31]
    assert g.nb_ball_sizes(2, 5) == [1, 3, 7, 11, 19, 27]


def test_graph_girth_sees_loops_and_parallel_edges():
    assert checks.Graph("vertices 2\nedge 0 1\nhalfloop 1\n").girth() == 1
    assert checks.Graph("vertices 2\nedge 0 1\nedge 1 0\n").girth() == 2
    assert checks.Graph(
        "vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n").girth() == 4


def test_bounds_csv_check_catches_a_wrong_value():
    from liftgirth.bounds import bounds_table, table_to_csv
    from liftgirth.graphs import h23

    text = table_to_csv(bounds_table(h23(), 3, 12))
    assert checks.check_bounds_csv(text, 3, 12) == []
    bad = text.replace("\n12,", "\n13,")
    assert checks.check_bounds_csv(bad, 3, 12)
    assert checks.check_bounds_csv(text.replace(",84,", ",85,"), 3, 12)


def test_probe_runs_the_cli_unchanged_and_records_samples(tmp_path):
    argv = ("search", "--g", "11", "--max-n", "22", "--certify")
    env = run.Runner(tmp_path, 0).env
    plain = subprocess.run([sys.executable, "-m", "liftgirth.cli", *argv],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    out = tmp_path / "probe"
    probed = subprocess.run([sys.executable, run.PROBE, str(out), *argv],
                            cwd=ROOT, env=env, capture_output=True, text=True)
    assert (probed.returncode, probed.stdout) == (plain.returncode,
                                                  plain.stdout)
    samples = [float(x) for x in out.read_text().split()]
    assert samples and all(0 < x < 1 for x in samples)


def test_timed_takes_the_probes_out_and_scales(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    scale, (wall, code, _, out, _) = runner.timed(["--help"])
    assert code == 0 and "usage:" in out
    assert 0.2 < scale < 5 and 0 < wall < 60


def test_wrong_exit_code_is_a_failure():
    inv = sessions.Invocation("x", "verify", "primary", (), 0,
                              lambda out: [])
    result = run.check(run.Result(inv, 0.1, 3, 0.0, "", ""))
    assert result.problems == ["exit 3, expected 0 []"]


# -- the benchmark as a whole ----------------------------------------------

def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(sessions.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} \
            == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_and_check(trace):
    proc = bench("--workload", "all", "--smoke", "--seed", "5",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(sessions.WORKLOADS)
    names = set(run.PER_LAYER if trace == "1" else run.END_TO_END)
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
    assert not (ROOT / ".perfbench_work").exists()


def test_traced_counts_repeat():
    runs = [bench("--workload", "construct_deep", "--smoke", "--seed", "2",
                  "--trace", "1") for _ in range(2)]
    counts = [{k: v["value"] for k, v in
               json.loads(p.stdout.splitlines()[-1])["metrics"].items()
               if v["unit"] == "count"} for p in runs]
    assert counts[0] == counts[1] and counts[0]["graphs.girth.calls"] > 0


def test_construct_output_does_not_depend_on_jobs(tmp_path):
    """The README's promise: --jobs parallelizes trials without changing
    the output.  Thousands of cheap trials, outside timed runs."""
    for alg, g, n, trials in sessions.JOBS_CHECK:
        inv = sessions.construct_invocation(tmp_path, 7, 0, alg, g, n,
                                            trials, jobs=2)
        outs = [subprocess.run(
            [sys.executable, "-m", "liftgirth.cli",
             *sessions.with_jobs(inv.argv, jobs)],
            cwd=ROOT, env=run.Runner(tmp_path, 0).env, capture_output=True,
            text=True, timeout=300).stdout for jobs in (1, 2)]
        assert outs[0] == outs[1] and outs[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tables", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
