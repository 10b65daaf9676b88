#!/usr/bin/env python3
"""liftgirth benchmark: scripted CLI sessions, end to end and traced.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: the CLI is imported from ./src with
PYTHONPATH and run as `__main__` in a fresh interpreter, as `python -m
liftgirth.cli` runs it, so interpreter start-up and imports count.

--trace 0  runs sessions of the workload as subprocesses, one invocation
           at a time, for --seconds, checks every output and reports the
           end-to-end metrics.  Each invocation runs under probe.py,
           which times a fixed loop every 50 ms; with the same loop timed
           just before and just after, that gives the machine speed
           during the invocation, and its wall time is scaled to the
           speed at which calibrate() takes CAL_REF_S.
--trace 1  runs session 0 once as subprocesses, then each invocation
           four times in this process with --jobs 1: timing only
           `cli.run_trial`, with spans around each module's public
           functions, with spans again, and timing only `cli.run_trial`
           again.  It reports the per-layer metrics, and the tracing
           overhead as the traced minus the untraced in-process wall
           time.  The stdout of every pass must hash the same.

`--workload all` runs every workload in turn.  `--smoke` shrinks every
workload to a few seconds, for the tests.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import probe
import sessions
import tracing

ROOT = Path(__file__).resolve().parent.parent
PROBE = str(Path(probe.__file__).resolve())
MIN_SESSIONS = 3
DEADLINE_S = 170.0        # hard stop: invocations still running then are killed
IMPORT_SAMPLES = 5
SETUP_SAMPLES = 3         # setup_s samples before the first session
CAL_ITERATIONS = 600_000
CAL_REF_S = 0.040         # reference time of one calibrate() call

# Per-layer metrics read from the spans: `.calls` and `.self_s` per name.
CALLS = (
    "bounds.es_upper_bound", "cover_tree.layer_counts",
    "cover_tree.ball_size_vertex", "cover_tree.ball_size_edge_two_sided",
    "graphs.farthest_pair", "graphs.girth", "graphs.distance",
    "graphs.is_connected", "lifts.build_lift", "lifts.verify_cover",
    "construct.nb_cycle_profile", "construct.es_trim_step",
    "construct.cycles_of_length", "construct.grow",
    "construct.surgery_transform", "construct.greedy_cycle",
)
SELF = (
    "bounds.es_upper_bound", "bounds.moore_lift_bound", "bounds.spanning_tree",
    "cover_tree.layer_counts", "cover_tree.ball_size_vertex",
    "cover_tree.ball_size_edge_two_sided", "spectral.summarize",
    "graphs.farthest_pair", "graphs.girth", "graphs.distance",
    "graphs.is_connected", "graphs.parse_graph", "lifts.build_lift",
    "lifts.parse_cover_map", "lifts.verify_cover",
    "construct.nb_cycle_profile", "construct.es_trim_step",
    "construct.high_girth_cover", "construct.cycles_of_length",
    "construct.grow", "construct.greedy_cycle",
)
SEARCH_SPANS = ("search.minimum_size", "search.certify_lower_bound")
RUN_TRIAL = "cli.run_trial"
SPANS = tuple(sorted(set(CALLS) | set(SELF) | set(SEARCH_SPANS)
                     | {RUN_TRIAL}))

# name -> (unit, better) of every metric the benchmark reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "primary_s": ("s", "lower"),
    "secondary_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    **{f"{n}.calls": ("count", "lower") for n in CALLS},
    **{f"{n}.self_s": ("s", "lower") for n in SELF},
    "construct.surgery_transform.calls": ("count", "lower"),
    "spectral.iterations": ("count", "lower"),
    "construct.success_frac": ("ratio", "higher"),
    "search.nodes": ("count", "lower"),
    "search.self_s": ("s", "lower"),
    "search.leaf_frac": ("ratio", "higher"),
    "cli.run_trial.calls": ("count", "lower"),
    "cli.run_trial.p50_s": ("s", "lower"),
    "cli.run_trial.p99_s": ("s", "lower"),
    "cli.dispatch_overhead_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_networkx_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Result:
    """One CLI invocation as run and checked."""
    inv: sessions.Invocation
    wall_s: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str
    scale: float = 1.0  # reference over measured speed, from timed()
    problems: list = field(default_factory=list)

    @property
    def norm_s(self):
        """Wall time scaled to the reference machine speed."""
        return self.wall_s * self.scale

    @property
    def sha256(self):
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def check(result):
    inv = result.inv
    if result.exit_code != inv.exit_code:
        last = result.stderr.strip().splitlines()[-1:]
        result.problems.append(
            f"exit {result.exit_code}, expected {inv.exit_code} {last}")
    try:
        result.problems += inv.check(result.stdout)
    except Exception as exc:          # a malformed output is a failure
        result.problems.append(f"check raised {exc!r}")
    return result


def _clear_outputs(invocations):
    """Remove the files a session writes, so a check never reads a file
    left by an earlier session."""
    for inv in invocations:
        if inv.output is not None:
            inv.output.unlink(missing_ok=True)


def calibrate():
    """Seconds this process takes for a fixed pure-Python loop.

    The shared machine runs the same code up to about 1.5x slower for
    periods from under a second to minutes.  This loop, timed just before
    and just after an invocation and in short probes during it, gives the
    speed the invocation ran at.
    """
    return probe.spin(CAL_ITERATIONS)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs Python subprocesses from the checkout root, one at a time."""

    def __init__(self, work, deadline):
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        calibrate()                   # warm-up of the loop itself
        self.last_cal = calibrate()

    def spawn(self, args):
        """(wall s, exit code, peak RSS of the process tree in MB, stdout,
        stderr) of `python args`."""
        self.attempted += 1
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 reports the child's peak RSS, including the pool
                # workers it waited for
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)         # workers a crashed parent left behind
        return (wall, proc.returncode, usage.ru_maxrss / 1024,
                out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"))

    def timed(self, argv):
        """(scale, spawn result) of the CLI with `argv` under probe.py.

        The wall time excludes the probes.  scale is the reference time
        per loop step over the mean time per step of the calibration just
        before, the probes during and the calibration just after.
        """
        before = self.last_cal
        samples = self.work / "probe"
        samples.unlink(missing_ok=True)
        wall, *rest = self.spawn([PROBE, str(samples), *argv])
        self.last_cal = calibrate()
        probes = ([float(x) for x in samples.read_text().split()]
                  if samples.exists() else [])
        per_step = ([before / CAL_ITERATIONS, self.last_cal / CAL_ITERATIONS]
                    + [x / probe.PROBE_ITERATIONS for x in probes])
        scale = CAL_REF_S / CAL_ITERATIONS / statistics.fmean(per_step)
        return scale, (wall - sum(probes), *rest)

    def setup_sample(self):
        """Scaled wall time of a fresh `liftgirth --help`."""
        scale, (wall, code, _, out, _) = self.timed(["--help"])
        if code != 0 or "usage:" not in out:
            self.failed += 1
        return wall * scale

    def import_sample(self, module):
        """Seconds to import `module` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); "
                f"import {module}; print(time.perf_counter() - t)")
        _, status, _, out, _ = self.spawn(["-c", code])
        try:
            if status == 0:
                return float(out)
        except ValueError:
            pass
        self.failed += 1
        return math.nan

    def session(self, invocations):
        """Run a session as subprocesses; its checked results."""
        _clear_outputs(invocations)
        raw = [(inv, self.timed(inv.argv)) for inv in invocations]
        results = [check(Result(inv, *r, scale=scale))
                   for inv, (scale, r) in raw]
        self.failed += sum(1 for r in results if r.problems)
        return results


def in_process(runner, inv):
    """Run one invocation inside this process with --jobs 1, checked."""
    from liftgirth import cli

    _clear_outputs([inv])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(sessions.with_jobs(inv.argv, 1)))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    result = check(Result(inv, wall, code, 0.0, out.getvalue(),
                          err.getvalue()))
    runner.attempted += 1
    runner.failed += bool(result.problems)
    return result


# -- statistics ------------------------------------------------------------

def _rank(n, q):
    """1-based nearest rank of the q-quantile among n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(xs, q):
    """Nearest-rank q-quantile of xs, 0.0 for no samples."""
    if not xs:
        return 0.0
    return sorted(xs)[_rank(len(xs), q) - 1]


def upper_percentile(xs):
    """(label, value) of the highest of p50/p90/p99/p99.9 with at least
    ten samples beyond it, or None."""
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"),
                     (0.5, "p50")):
        if len(xs) - _rank(len(xs), q) >= 10:
            return label, percentile(xs, q)
    return None


def describe(name, unit, xs):
    line = f"  {name:<24} {statistics.median(xs):>12.6f} {unit:<6} n={len(xs)}"
    upper = upper_percentile(xs)
    if upper:
        line += f"  {upper[0]}={upper[1]:.6f}"
    else:
        line += "  (under 20 samples: no percentile with 10 beyond it)"
    return line


# -- the two modes ---------------------------------------------------------

def measure(runner, workload, seconds, smoke):
    """--trace 0: (metrics, report lines)."""
    runner.setup_sample()             # warm-up: bytecode caches, page cache
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    walls, raw_walls, rss, trials_per_s, done = [], [], [], [], []
    groups = {"primary": [], "secondary": []}
    start = time.perf_counter()
    index = 0
    while True:
        setup.append(runner.setup_sample())
        results = runner.session(workload.session(index))
        walls.append(sum(r.norm_s for r in results))
        raw_walls.append(sum(r.wall_s for r in results))
        for group, xs in groups.items():
            xs.append(sum(r.norm_s for r in results if r.inv.group == group))
        rss.append(max(r.rss_mb for r in results))
        trials = sum(r.inv.trials for r in results)
        if trials:
            trials_per_s.append(
                trials / sum(r.norm_s for r in results if r.inv.trials))
        done += [(index, r) for r in results]
        index += 1
        elapsed = time.perf_counter() - start
        if smoke or time.monotonic() > runner.deadline - 60 or (
                index >= MIN_SESSIONS and elapsed * (index + 1) / index
                > seconds):
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "primary_s": statistics.median(groups["primary"]),
        "secondary_s": statistics.median(groups["secondary"]),
        "peak_rss_mb": statistics.median(rss),
    }
    first, second = workload.group_names
    lines = [describe("setup_s", "s", setup),
             describe("wall_s", "s", walls),
             describe(f"primary_s = {first}", "s", groups["primary"]),
             describe(f"secondary_s = {second}", "s", groups["secondary"]),
             describe("peak_rss_mb", "MB", rss),
             describe("unscaled wall_s", "s", raw_walls)]
    if trials_per_s:
        lines.append(describe("trials_per_s", "1/s", trials_per_s))
    lines += [f"  sha256 session {i} {r.inv.label:<14} {r.sha256}"
              for i, r in done]
    lines += [f"  FAIL session {i} {r.inv.label}: {p}"
              for i, r in done for p in r.problems]
    return metrics, lines


def trace(runner, workload, smoke):
    """--trace 1: (metrics, report lines)."""
    runner.setup_sample()
    setup = [runner.setup_sample() for _ in range(1 if smoke else 3)]
    invocations = workload.session(0)
    untraced = runner.session(invocations)

    # Each invocation runs four times in this process, in the order
    # baseline, traced, traced, baseline, so that a drift in machine speed
    # cancels from the overhead.  The baseline passes time only
    # cli.run_trial.  Counts and times come from the first pass of each.
    baseline = tracing.Tracer(keep=(RUN_TRIAL,))
    traced = tracing.Tracer(keep_results=("spectral.summarize",))
    passes = ((baseline, (RUN_TRIAL,)), (traced, SPANS),
              (tracing.Tracer(), SPANS), (tracing.Tracer(), (RUN_TRIAL,)))
    lines = []
    overhead = base_wall = traced_wall = 0.0
    traced_results = []
    for sub in untraced:
        runs = []
        for tracer, names in passes:
            with tracing.installed(tracer, names):
                runs.append(in_process(runner, sub.inv))
        base_wall += runs[0].wall_s
        traced_wall += runs[1].wall_s
        overhead += (runs[1].wall_s + runs[2].wall_s
                     - runs[0].wall_s - runs[3].wall_s) / 2
        traced_results.append(runs[1])
        for r in runs:
            if r.sha256 != sub.sha256:
                runner.failed += 1
                lines.append(f"  FAIL in-process stdout of {r.inv.label} "
                             f"differs from the subprocess run")
        lines += [f"  FAIL in-process {r.inv.label}: {p}"
                  for r in runs for p in r.problems]

    samples = 1 if smoke else IMPORT_SAMPLES
    import_cli = [runner.import_sample("liftgirth.cli")
                  for _ in range(samples)]
    import_nx = [runner.import_sample("networkx") for _ in range(samples)]

    m = {f"{n}.calls": traced.calls(n) for n in CALLS}
    m.update({f"{n}.self_s": traced.self_s(n) for n in SELF})
    m["construct.surgery_transform.calls"] = traced.calls(
        "construct.surgery_transform")
    m["spectral.iterations"] = sum(
        s.iterations for s in traced.results["spectral.summarize"])
    rows = [checks.parse_construct_row(r.stdout) for r in traced_results
            if r.inv.kind == "construct" and not r.problems]
    tried = sum(t for t, _, _ in rows)
    m["construct.success_frac"] = (
        sum(s for _, s, _ in rows) / tried if tried else 0.0)
    nodes = sum(checks.search_nodes(r.stdout) for r in traced_results
                if r.inv.kind in ("search", "certify"))
    m["search.nodes"] = nodes
    m["search.self_s"] = sum(traced.self_s(n) for n in SEARCH_SPANS)
    leaves = traced.calls_under("graphs.is_connected", SEARCH_SPANS)
    m["search.leaf_frac"] = leaves / nodes if nodes else 0.0
    trial_s = baseline.durations[RUN_TRIAL]
    m["cli.run_trial.calls"] = len(trial_s)
    m["cli.run_trial.p50_s"] = percentile(trial_s, 0.5)
    m["cli.run_trial.p99_s"] = percentile(trial_s, 0.99)
    constructs = [r for r in untraced if r.inv.kind == "construct"]
    m["cli.dispatch_overhead_s"] = (
        sum(r.wall_s for r in constructs)
        - len(constructs) * statistics.median(setup)
        - sum(trial_s) / workload.jobs) if constructs else 0.0
    m["cli.import_s"] = statistics.median(import_cli)
    m["cli.import_networkx_s"] = statistics.median(import_nx)
    m["trace.overhead_s"] = overhead

    lines += [f"  in-process wall {base_wall:.6f} s, traced "
              f"{traced_wall:.6f} s, overhead {overhead:.6f} s",
              describe("cli.run_trial", "s", trial_s or [0.0])]
    lines += [f"  sha256 session 0 {r.inv.label:<14} {r.sha256}"
              for r in untraced]
    lines += [f"  FAIL {r.inv.label}: {p}"
              for r in untraced for p in r.problems]
    return m, lines


def _import_cli():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import liftgirth.cli  # noqa: F401


# -- entry point -----------------------------------------------------------

def run_workload(name, seed, seconds, traced, smoke):
    """Run one workload; returns the result object for the JSON line."""
    start = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, start + DEADLINE_S)
        _import_cli()
        workload = sessions.Workload(name, work, seed, smoke)
        if traced:
            metrics, lines = trace(runner, workload, smoke)
            units = PER_LAYER
        else:
            metrics, lines = measure(runner, workload, seconds, smoke)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    fail_frac = runner.failed / runner.attempted
    print(f"perfbench {name} seed={seed} trace={int(traced)} "
          f"attempted={runner.attempted} failed={runner.failed} "
          f"fail_frac={fail_frac:g}")
    for line in lines:
        print(line)
    if traced:
        for key in sorted(metrics):
            print(f"  {key:<44} {metrics[key]!r:>22} {units[key][0]}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]}
                    for k in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sessions.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one session, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liftgirth" / "cli.py").is_file():
        print(f"error: no liftgirth sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sessions.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
