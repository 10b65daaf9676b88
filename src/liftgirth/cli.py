"""Command line front end: analyze, construct, search, verify.

Exit codes: 0 success, 2 argument or file parse error, 3 precondition
failure (inadmissible graph, bad parameters), 4 budget exhausted without
a success.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .graphs import (GraphError, ParseError, TrialFailed, diameter, girth,
                     h23, is_connected, parse_graph, serialize_graph)

# Each command imports the modules it runs, since every invocation compiles
# what it imports when bytecode is not cached.  A library import still
# loads them all: `perfbench/run.py --trace 1` imports this module and
# then looks each traced function up in sys.modules.
if __name__ != "__main__":
    from . import bounds, construct, lifts, search, spectral  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

# splitmix64 constants; trial i of a run seeded with s uses mix(s, i), so
# repeated runs agree bit for bit on any platform.
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix(seed: int, i: int) -> int:
    """Derive the 64-bit seed for trial i from the run seed."""
    z = (seed + (i + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _load_graph(path):
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_output_dirs(*paths):
    """Reject an output path that is empty, is a directory or whose
    directory does not exist (exit 2), so a run fails before its work and
    its stdout, not after."""
    for path in paths:
        if path is not None:
            if not path:
                raise FileNotFoundError("empty output file path")
            if os.path.isdir(path):
                raise IsADirectoryError(f"output file {path!r} is a "
                                        f"directory")
            folder = os.path.dirname(path) or "."
            if not os.path.isdir(folder):
                raise FileNotFoundError(f"no directory {folder!r} for "
                                        f"output file {path!r}")


def _int_at_least(low):
    """argparse type: an integer >= low (exit 2 otherwise)."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return integer


# -- analyze ---------------------------------------------------------------

def cmd_analyze(args) -> int:
    from .bounds import bounds_table, table_to_csv
    from .cover_tree import ball_sizes
    from .spectral import summarize

    if not 3 <= args.gmin <= args.gmax:
        raise GraphError(f"girth range needs 3 <= gmin <= gmax, got "
                         f"{args.gmin}..{args.gmax}")
    _check_output_dirs(args.csv)
    base = h23() if args.graph is None else _load_graph(args.graph)
    s = summarize(base)
    rows = bounds_table(base, args.gmin, args.gmax)
    print(f"rho        {s.rho:.6f}   ({s.iterations} iterations, "
          f"residual {s.residual:.2e})")
    print(f"Lambda     {s.lam:.6f}")
    print(f"avg deg -1 {s.avg_degree_minus_one:.6f}")
    print(f"rho == Lambda: {'yes' if s.equality_rho_lambda else 'no'}")
    if args.balls is not None:
        for v in range(base.vertex_count):
            print(f"ball sizes from vertex {v}: "
                  + " ".join(map(str, ball_sizes(base, v, args.balls))))
    print()
    print(f"{'g':>4} {'moore_raw':>12} {'moore_adj':>12} {'es_bound':>12} "
          f"{'ahl_n0':>14}")
    for r in rows:
        es = "-" if r.es_bound is None else str(r.es_bound)
        print(f"{r.g:>4} {r.moore_raw:>12} {r.moore_adjusted:>12} {es:>12} "
              f"{r.ahl_n0:>14.2f}")
    if args.csv is not None:
        _write(args.csv, table_to_csv(rows))
    return EXIT_OK


# -- construct -------------------------------------------------------------

def run_trial(alg, g, n, seed, base):
    """One construction attempt; the graph, or None when the trial
    fails (TrialFailed).  Other errors are violated preconditions or
    invariants and propagate.

    Top level so a process pool can dispatch it.
    """
    from .construct import es_construct, greedy_cycle, grow, high_girth_cover

    rng = random.Random(seed)
    try:
        if alg in ("a", "b", "c"):
            graph = greedy_cycle(alg, n, g, rng)
        elif alg in ("gd", "gf"):
            graph = grow(alg, g, rng)
        elif alg == "es":
            graph, _ = es_construct(base, g, rng)
        else:
            from .lifts import build_lift
            graph, _ = build_lift(high_girth_cover(base, g, rng))
    except TrialFailed:
        return None
    return graph


CONSTRUCT_CSV_HEADER = "g,alg,trials,successes,best_size,seed_of_best"


def cmd_construct(args) -> int:
    if args.g < 3:
        raise GraphError("g must be >= 3")
    if (args.alg in ("a", "b", "c")) != (args.n is not None):
        raise GraphError("--alg a/b/c need --n, and no other --alg takes it")
    if args.n is not None and (args.n <= 0 or args.n % 4):
        raise GraphError("n must be a positive multiple of 4")
    if args.graph is not None and args.alg not in ("es", "2lift"):
        raise GraphError(f"--alg {args.alg} builds covers of H23; --graph "
                         f"applies only to --alg es/2lift")
    _check_output_dirs(args.out)
    base = h23() if args.graph is None else _load_graph(args.graph)
    if args.alg in ("es", "2lift"):     # before any trial or pool starts
        from .construct import check_min_degree, es_tree
        if args.alg == "es":
            es_tree(base, args.g)       # connected, and g >= g0
        elif not is_connected(base):
            raise GraphError("--alg 2lift needs a connected base")
        check_min_degree(base)
    seeds = [mix(args.seed, i) for i in range(args.trials)]
    jobs = [(args.alg, args.g, args.n, s, base) for s in seeds]
    # the pool forks every worker at once, so none beyond one per trial
    workers = min(args.jobs, args.trials)
    if workers > 1:
        # imported here: it costs every other invocation start-up time
        from concurrent.futures import ProcessPoolExecutor
        # loaded before the pool forks, so the workers inherit them
        from . import construct, lifts  # noqa: F401
        # about four chunks per worker: few round trips, balanced load
        chunksize = -(-args.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, *zip(*jobs),
                                    chunksize=chunksize))
    else:
        results = map(run_trial, *zip(*jobs))
    # keep only the running best: the smallest, the earliest seed on a tie
    n_succ, best, best_seed = 0, None, None
    for seed, graph in zip(seeds, results):
        if graph is not None:
            n_succ += 1
            if best is None or graph.vertex_count < best.vertex_count:
                best, best_seed = graph, seed
    if best is None:
        row = f"{args.g},{args.alg},{args.trials},0,,"
    else:
        row = (f"{args.g},{args.alg},{args.trials},{n_succ},"
               f"{best.vertex_count},{best_seed}")
    print(CONSTRUCT_CSV_HEADER)
    print(row)
    if best is None:
        return EXIT_BUDGET
    if args.out is not None:
        _write(args.out, serialize_graph(best))
    return EXIT_OK


# -- search ----------------------------------------------------------------

def cmd_search(args) -> int:
    from .search import minimum_size

    _check_output_dirs(args.out)
    outcome = minimum_size(args.g, args.max_n)
    if outcome.witness is None:
        # with --certify, no lift up to max-n is the answer, not a failure
        word = "refuted" if args.certify else "unresolved"
        print(f"g,{args.g},{word}_up_to,{args.max_n},nodes,{outcome.nodes}")
        return EXIT_OK if args.certify else EXIT_BUDGET
    print(f"g,{args.g},minimum,{outcome.size},nodes,{outcome.nodes}")
    if args.out is not None:
        from .lifts import build_lift
        _write(args.out, serialize_graph(build_lift(outcome.witness)[0]))
    return EXIT_OK


# -- verify ----------------------------------------------------------------

def cmd_verify(args) -> int:
    from .lifts import parse_cover_map, verify_cover

    graph = _load_graph(args.graph)
    base = _load_graph(args.base)
    with open(args.map, encoding="utf-8") as fh:
        m = parse_cover_map(fh.read(), graph, base)
    report = verify_cover(graph, base, m)
    print(f"girth {girth(graph)}  diameter {diameter(graph)}")
    if report.ok:
        print("cover: pass")
        return EXIT_OK
    print("cover: FAIL")
    for v in report.violations:
        print(f"  {v}")
    return EXIT_PRECONDITION


# -- argument parsing ------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftgirth", allow_abbrev=False,
        description="girth bounds and small high-girth lifts of multigraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectral summary and bounds table",
                       allow_abbrev=False)
    p.add_argument("--graph", help="base graph file (default: built-in H23)")
    p.add_argument("--gmin", type=int, default=3, help="least girth")
    p.add_argument("--gmax", type=int, default=30, help="largest girth")
    p.add_argument("--balls", type=_int_at_least(0), metavar="R",
                   help="also print universal cover ball sizes up to R")
    p.add_argument("--csv", help="write the bounds table as CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="randomized constructions",
                       allow_abbrev=False)
    p.add_argument("--alg", required=True,
                   choices=["a", "b", "c", "gd", "gf", "es", "2lift"])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, help="cycle length for variants a/b/c")
    p.add_argument("--graph", help="base graph file for es/2lift (default: "
                   "built-in H23)")
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--out", help="write the best graph found")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="exhaustive search over H23 lifts",
                       allow_abbrev=False)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--max-n", type=_int_at_least(1), required=True,
                   help="largest lift height to try")
    p.add_argument("--certify", action="store_true",
                   help="emit a nonexistence certificate line")
    p.add_argument("--out", help="write the witness graph")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="check a cover map", allow_abbrev=False)
    p.add_argument("--graph", required=True, help="covering graph file")
    p.add_argument("--base", required=True, help="base graph file")
    p.add_argument("--map", required=True, help="cover map file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
