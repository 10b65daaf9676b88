"""Correctness checks on CLI outputs that do not trust the code under test.

Graph files are read by a parser of this module's own, girth and
diameter come from networkx, universal-cover ball sizes from an explicit
walk enumeration, and the exact values are pinned constants.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import networkx as nx

# Adjusted Moore bound for g = 3..30 and Erdos-Sachs bound for g = 4..30
# over H23: the paper's columns, pinned as in tests/test_acceptance.py.
MOORE_COLUMN = [4, 8, 8, 12, 16, 20, 24, 32, 40, 48, 60, 76, 96, 116, 144,
                176, 224, 272, 340, 412, 520, 628, 792, 960, 1208, 1456,
                1836, 2220]
ES_COLUMN = [52, 84, 132, 200, 308, 476, 724, 1104, 1684, 2564, 3908, 5944,
             9044, 13772, 20948, 31872, 48500, 73780, 112260, 170792,
             259828, 395324, 601428, 914992, 1392084, 2117860, 3222084]
PINNED_GMAX = 30
RHO_H23 = 1.5214          # Perron radius of B(H23), to 1e-4
LAMBDA_H23 = 2 ** 0.6     # degree-geometric mean of H23
RHO_K32 = math.sqrt(2)


class Graph:
    """A graph file read independently of liftgirth.parse_graph."""

    def __init__(self, text):
        self.n = None
        self.edges = []           # (a, b) per undirected edge, loops a == b
        self.halfloops = []
        for raw in text.splitlines():
            words = raw.split("#", 1)[0].split()
            if not words:
                continue
            args = [int(w) for w in words[1:]]
            if words[0] == "vertices":
                self.n = args[0]
            elif words[0] == "edge":
                self.edges.append((args[0], args[1]))
            elif words[0] == "wholeloop":
                self.edges.append((args[0], args[0]))
            elif words[0] == "halfloop":
                self.halfloops.append(args[0])
            else:
                raise ValueError(f"unknown directive {words[0]!r}")
        if self.n is None:
            raise ValueError("missing vertices line")

    def simple(self):
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges)
        return g

    def girth(self):
        if self.halfloops or any(a == b for a, b in self.edges):
            return 1
        if len({frozenset(e) for e in self.edges}) < len(self.edges):
            return 2
        return nx.girth(self.simple())

    def diameter(self):
        return nx.diameter(self.simple())

    def is_connected(self):
        return nx.is_connected(self.simple())

    def nb_ball_sizes(self, v, rmax):
        """|B_r| for r = 0..rmax around a universal-cover vertex over v,
        by enumerating the non-backtracking walks from v one by one."""
        arcs = []                 # (tail, head, id of the reverse arc)
        for a, b in self.edges:
            i = len(arcs)
            arcs += [(a, b, i + 1), (b, a, i)]
        for a in self.halfloops:
            arcs.append((a, a, len(arcs)))
        out = [[] for _ in range(self.n)]
        for i, (a, _, _) in enumerate(arcs):
            out[a].append(i)
        layers = [0] * (rmax + 1)

        def walk(arc, depth):
            layers[depth] += 1
            if depth < rmax:
                for nxt in out[arcs[arc][1]]:
                    if nxt != arcs[arc][2]:
                        walk(nxt, depth + 1)

        layers[0] = 1
        if rmax:
            for arc in out[v]:
                walk(arc, 1)
        sizes, total = [], 0
        for x in layers:
            total += x
            sizes.append(total)
        return sizes


def _float_after(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def check_spectral(stdout, rho, tol_rho, lam=None):
    problems = []
    got = _float_after(stdout, "rho ")
    if got is None or abs(got - rho) > tol_rho:
        problems.append(f"rho {got} != {rho}")
    if lam is not None:
        got = _float_after(stdout, "Lambda ")
        if got is None or abs(got - lam) > 1e-6:
            problems.append(f"Lambda {got} != {lam}")
    return problems


def check_bounds_csv(text, gmin, gmax):
    """Rows g = gmin..gmax; Moore and ES columns equal the pinned values
    where they are pinned."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["g"]) for r in rows] != list(range(gmin, gmax + 1)):
        return [f"csv rows are not g={gmin}..{gmax}"]
    problems = []
    for r in rows:
        g = int(r["g"])
        if g > PINNED_GMAX:
            continue
        if int(r["moore_adjusted"]) != MOORE_COLUMN[g - 3]:
            problems.append(f"g={g}: moore {r['moore_adjusted']}")
        want_es = str(ES_COLUMN[g - 4]) if g >= 4 else ""
        if r["es_bound"] != want_es:
            problems.append(f"g={g}: es {r['es_bound']!r} != {want_es!r}")
    return problems


def check_balls(stdout, graph, r):
    problems = []
    for v in range(graph.n):
        want = " ".join(str(x) for x in graph.nb_ball_sizes(v, r))
        line = f"ball sizes from vertex {v}: {want}"
        if line not in stdout.splitlines():
            problems.append(f"ball sizes from vertex {v} differ")
    return problems


def check_verify(stdout, passes, girth, diameter):
    lines = stdout.splitlines()
    want = f"girth {girth}  diameter {diameter}"
    problems = [] if lines[:1] == [want] else [f"first line != {want!r}"]
    verdict = "cover: pass" if passes else "cover: FAIL"
    if verdict not in lines:
        problems.append(f"no {verdict!r} line")
    return problems


def check_graph_file(path, g, size):
    """A written graph has `size` vertices and girth >= g."""
    try:
        with open(path, encoding="utf-8") as fh:
            graph = Graph(fh.read())
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    problems = []
    if graph.n != size:
        problems.append(f"{path}: {graph.n} vertices, expected {size}")
    if graph.girth() < g:
        problems.append(f"{path}: girth {graph.girth()} < {g}")
    return problems


def check_search(stdout, g, minimum, out_path):
    want = f"g,{g},minimum,{minimum},nodes,"
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith(want):
        return [f"search g={g}: {lines!r} does not start with {want!r}"]
    return check_graph_file(out_path, g, minimum)


def check_certificate(stdout, g, n):
    want = f"g,{g},refuted_up_to,{n},nodes,"
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith(want):
        return [f"certify ({g},{n}): {lines!r} is not a refutation"]
    return []


def parse_construct_row(stdout):
    """(trials, successes, best_size or None) from the CSV row."""
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != \
            "g,alg,trials,successes,best_size,seed_of_best":
        raise ValueError(f"unexpected construct output {lines!r}")
    fields = lines[1].split(",")
    best = int(fields[4]) if fields[4] else None
    return int(fields[2]), int(fields[3]), best


def check_construct(stdout, g, alg, trials, out_path):
    try:
        got_trials, successes, best = parse_construct_row(stdout)
    except ValueError as exc:
        return [str(exc)]
    if got_trials != trials or not 0 < successes <= trials:
        return [f"construct {alg}: {successes}/{got_trials} successes"]
    return check_graph_file(out_path, g, best)


def search_nodes(stdout):
    """The node count a search or certify line reports, else 0."""
    fields = stdout.strip().split(",")
    return int(fields[-1]) if "nodes" in fields else 0
