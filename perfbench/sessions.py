"""The three workloads as scripted CLI sessions, with their seeded inputs.

A session is the list of `liftgirth` invocations one client runs, one
after the other (a closed loop with one client).  Every input is made
from the workload seed: the verify lift and its maps for `tables`, the
`--seed` of every construct command.  The CLI receives only the files
and arguments made here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import checks

WORKLOADS = ("tables", "exact_search", "construct_deep")

# Sizes per workload.  SMOKE runs every workload and every check in a
# few seconds; FULL is what the benchmark measures (about 3 to 5 s per
# session on 2 CPUs).  A construct run is (alg, g, n, trials, group).
FULL = {
    "tables": {"h23_gmax": 34, "k32_gmax": 30, "balls": 10, "height": 300},
    "exact_search": {"minima": ((10, 40, 32), (11, 40, 48)),
                     "certificates": ((11, 22), (9, 12))},
    "construct_deep": {"jobs": 1, "runs": (("es", 11, None, 4, "primary"),
                                           ("gf", 12, None, 8, "secondary"),
                                           ("gd", 13, None, 3, "secondary"),
                                           ("c", 8, 24, 400, "secondary"))},
}
SMOKE = {
    "tables": {"h23_gmax": 20, "k32_gmax": 12, "balls": 4, "height": 20},
    "exact_search": {"minima": ((7, 16, 20),), "certificates": ((7, 8),)},
    "construct_deep": {"jobs": 1, "runs": (("es", 8, None, 1, "primary"),
                                           ("gf", 8, None, 2, "secondary"),
                                           ("gd", 8, None, 2, "secondary"),
                                           ("c", 6, 12, 30, "secondary"))},
}

# Many cheap trials with --jobs 1 and 2, for the test that --jobs does
# not change the output.  Not a timed workload: two pool workers on two
# shared CPUs time the scheduler more than the program.
JOBS_CHECK = (("gf", 8, None, 1000), ("c", 8, 24, 1500))

# Which commands each workload sums into the end-to-end metrics
# primary_s and secondary_s, under the names the report prints.
GROUP_NAMES = {
    "tables": ("analyze_s", "verify_s"),
    "exact_search": ("search_s", "certify_s"),
    "construct_deep": ("es_s", "grow_greedy_s"),
}


@dataclass(frozen=True)
class Invocation:
    label: str          # stable name of the command within a session
    kind: str           # analyze, verify, search, certify or construct
    group: str          # "primary" or "secondary"
    argv: tuple         # arguments after `python -m liftgirth.cli`
    exit_code: int      # what a correct program exits with
    check: object       # callable(stdout) -> list of problems
    output: Path = None  # file the invocation writes, removed beforehand
    trials: int = 0     # construct trials dispatched


def derived_seed(seed, *parts):
    """A 32-bit seed for one use of the workload seed."""
    key = "/".join(str(p) for p in (seed, *parts))
    return random.Random(key).getrandbits(32)


def _inverse(p):
    q = [0] * len(p)
    for i, j in enumerate(p):
        q[j] = i
    return q


def write_verify_inputs(work, height, rng):
    """A random connected height-`height` lift of H23 with its cover map,
    and a copy of the map with one edge image corrupted.

    The parallel pair gets two random permutations and the half-loop a
    random fixed-point-free involution.  Returns the file paths and the
    lift read back by checks.Graph.
    """
    from liftgirth.graphs import h23, serialize_graph
    from liftgirth.lifts import (LiftAssignment, build_lift,
                                 serialize_cover_map)

    base = h23()
    for _ in range(100):
        s1 = list(range(height))
        s2 = list(range(height))
        order = list(range(height))
        rng.shuffle(s1)
        rng.shuffle(s2)
        rng.shuffle(order)
        mu = [0] * height
        for a, b in zip(order[::2], order[1::2]):
            mu[a], mu[b] = b, a
        # base directed ids: 0 v->u, 1 u->v, 2 v->u, 3 u->v, 4 half-loop
        perms = [s1, _inverse(s1), s2, _inverse(s2), mu]
        graph, cover = build_lift(LiftAssignment(base, height, perms))
        lift = checks.Graph(serialize_graph(graph))
        if lift.is_connected():
            break
    else:
        raise RuntimeError("no connected lift in 100 draws")
    paths = {name: work / name
             for name in ("base.g", "lift.g", "good.map", "bad.map")}
    paths["base.g"].write_text(serialize_graph(base), encoding="utf-8")
    paths["lift.g"].write_text(serialize_graph(graph), encoding="utf-8")
    good = serialize_cover_map(cover, graph, base)
    paths["good.map"].write_text(good, encoding="utf-8")
    lines = good.splitlines()
    emaps = [i for i, line in enumerate(lines) if line.startswith("emap ")]
    i = emaps[rng.randrange(len(emaps))]
    _, e, he = lines[i].split()
    # every base edge id differs from its successor mod 5 in tail or head
    lines[i] = f"emap {e} {(int(he) + 1) % base.edge_count}"
    paths["bad.map"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths, lift


class Workload:
    """Inputs for one run of a workload and the sessions over them."""

    def __init__(self, name, work, seed, smoke=False):
        self.name = name
        self.work = Path(work)
        self.seed = seed
        self.size = (SMOKE if smoke else FULL)[name]
        self.group_names = GROUP_NAMES[name]
        self.jobs = self.size.get("jobs", 1)
        if name == "tables":
            self._prepare_tables()

    def _prepare_tables(self):
        from liftgirth.graphs import k32, serialize_graph

        rng = random.Random(derived_seed(self.seed, "verify-lift"))
        self.paths, lift = write_verify_inputs(
            self.work, self.size["height"], rng)
        self.lift_girth = lift.girth()
        self.lift_diameter = lift.diameter()
        self.paths["k32.g"] = self.work / "k32.g"
        self.paths["k32.g"].write_text(serialize_graph(k32()),
                                       encoding="utf-8")
        self.k32 = checks.Graph(self.paths["k32.g"].read_text())

    def session(self, index):
        """The invocations of session `index`."""
        return getattr(self, f"_{self.name}")(index)

    def _tables(self, index):
        s, p = self.size, self.paths
        csv_path = self.work / "h23.csv"
        gmax = s["h23_gmax"]

        def check_h23(out):
            text = csv_path.read_text() if csv_path.exists() else ""
            return (checks.check_spectral(out, checks.RHO_H23, 1e-4,
                                          checks.LAMBDA_H23)
                    + checks.check_bounds_csv(text, 3, gmax))

        def check_k32(out):
            return (checks.check_spectral(out, checks.RHO_K32, 1e-6)
                    + checks.check_balls(out, self.k32, s["balls"]))

        def check_verify(passes):
            return lambda out: checks.check_verify(
                out, passes, self.lift_girth, self.lift_diameter)

        verify = ("verify", "--graph", str(p["lift.g"]),
                  "--base", str(p["base.g"]), "--map")
        return [
            Invocation("analyze-h23", "analyze", "primary",
                       ("analyze", "--gmin", "3", "--gmax", str(gmax),
                        "--csv", str(csv_path)), 0, check_h23, csv_path),
            Invocation("analyze-k32", "analyze", "primary",
                       ("analyze", "--graph", str(p["k32.g"]),
                        "--balls", str(s["balls"]), "--gmin", "3",
                        "--gmax", str(s["k32_gmax"])), 0, check_k32),
            Invocation("verify-pass", "verify", "secondary",
                       verify + (str(p["good.map"]),), 0, check_verify(True)),
            Invocation("verify-fail", "verify", "secondary",
                       verify + (str(p["bad.map"]),), 3, check_verify(False)),
        ]

    def _exact_search(self, index):
        out = []
        for g, max_n, minimum in self.size["minima"]:
            path = self.work / f"witness-g{g}.g"
            out.append(Invocation(
                f"search-g{g}", "search", "primary",
                ("search", "--g", str(g), "--max-n", str(max_n),
                 "--out", str(path)), 0,
                lambda o, g=g, m=minimum, p=path:
                    checks.check_search(o, g, m, p), path))
        for g, n in self.size["certificates"]:
            out.append(Invocation(
                f"certify-g{g}-n{n}", "certify", "secondary",
                ("search", "--g", str(g), "--max-n", str(n), "--certify"), 0,
                lambda o, g=g, n=n: checks.check_certificate(o, g, n)))
        return out

    def _construct_deep(self, index):
        return [construct_invocation(self.work, self.seed, index, alg, g, n,
                                     trials, self.jobs, group)
                for alg, g, n, trials, group in self.size["runs"]]


def construct_invocation(work, seed, index, alg, g, n, trials, jobs,
                         group="primary"):
    """`construct` of session `index`, checked, writing under `work`."""
    label = f"{alg}-g{g}"
    path = Path(work) / f"best-{label}.g"
    argv = ["construct", "--alg", alg, "--g", str(g),
            "--trials", str(trials),
            "--seed", str(derived_seed(seed, index, label)),
            "--jobs", str(jobs), "--out", str(path)]
    if n is not None:
        argv += ["--n", str(n)]
    return Invocation(
        label, "construct", group, tuple(argv), 0,
        lambda o: checks.check_construct(o, g, alg, trials, path),
        path, trials)


def with_jobs(argv, jobs):
    """argv with its --jobs value replaced."""
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return tuple(argv)
