"""Lifts of multigraphs: permutation assignments, cover maps, 2-lifts."""

from __future__ import annotations

from typing import NamedTuple

from .graphs import GraphError, MultiGraph, ParseError, file_edge_ids, tokenize


def _perm_inverse(p):
    q = [0] * len(p)
    for i, j in enumerate(p):
        q[j] = i
    return tuple(q)


class LiftAssignment:
    """Height-n lift of a base graph given by one permutation of [n] per
    directed base edge; perm(e^-1) = perm(e)^-1 and half-loop permutations
    are involutions."""

    __slots__ = ("base", "height", "perms")

    def __init__(self, base: MultiGraph, height: int, perms):
        if height < 1:
            raise GraphError("height must be >= 1")
        perms = tuple(tuple(p) for p in perms)
        if len(perms) != base.edge_count:
            raise GraphError("one permutation per directed base edge required")
        for e, p in enumerate(perms):
            if sorted(p) != list(range(height)):
                raise GraphError(f"edge {e}: not a permutation of the fiber")
            if perms[base.inv[e]] != _perm_inverse(p):
                raise GraphError(f"edge {e}: perm(e^-1) != perm(e)^-1")
        self.base = base
        self.height = height
        self.perms = perms

    @staticmethod
    def identity(base: MultiGraph, height: int) -> "LiftAssignment":
        ident = tuple(range(height))
        return LiftAssignment(base, height, [ident] * base.edge_count)

    def double(self, flips) -> "LiftAssignment":
        """The 2-lift of this lift's graph in which lifted edge f joins the
        two copies iff flips[f] (equal on f and its inverse), as a height-2n
        assignment over the same base.  Copy s of layer i becomes layer
        s*n + i, so build_lift numbers vertices and edges exactly as a
        2-lift of the built graph would."""
        n, ne = self.height, self.base.edge_count
        perms = [tuple((s ^ flips[i * ne + e]) * n + p[i]
                       for s in (0, 1) for i in range(n))
                 for e, p in enumerate(self.perms)]
        return LiftAssignment(self.base, 2 * n, perms)


class CoverMap(NamedTuple):
    """Projection G -> H as dense vertex and directed-edge maps."""

    vertex_map: tuple
    edge_map: tuple


class CoverReport(NamedTuple):
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def build_lift(a: LiftAssignment):
    """Materialize the lift graph and its canonical cover map.

    Lifted vertex (v, i) gets id i*|V(H)| + v and the lifted copy of edge e
    with tail in layer i gets id i*|E(H)| + e.
    """
    h = a.base
    n = a.height
    nv, ne = h.vertex_count, h.edge_count
    tail = [0] * (n * ne)
    head = [0] * (n * ne)
    inv = [0] * (n * ne)
    for i in range(n):
        for e in range(ne):
            eid = i * ne + e
            tail[eid] = i * nv + h.tail[e]
            head[eid] = a.perms[e][i] * nv + h.head[e]
            inv[eid] = a.perms[e][i] * ne + h.inv[e]
    g = MultiGraph(n * nv, tail, head, inv)
    cover = CoverMap(
        vertex_map=tuple(v % nv for v in range(n * nv)),
        edge_map=tuple(e % ne for e in range(n * ne)),
    )
    return g, cover


def verify_cover(g: MultiGraph, h: MultiGraph, m: CoverMap) -> CoverReport:
    """Check the cover-map invariants; violations are reported, not raised."""
    bad = []
    if len(m.vertex_map) != g.vertex_count or len(m.edge_map) != g.edge_count:
        return CoverReport(False, ["map size mismatch"])
    for v in range(g.vertex_count):
        if not 0 <= m.vertex_map[v] < h.vertex_count:
            bad.append(f"vertex {v}: image out of range")
    for e in range(g.edge_count):
        fe = m.edge_map[e]
        if not 0 <= fe < h.edge_count:
            bad.append(f"edge {e}: image out of range")
            continue
        if m.vertex_map[g.tail[e]] != h.tail[fe]:
            bad.append(f"edge {e}: tail does not commute")
        if m.vertex_map[g.head[e]] != h.head[fe]:
            bad.append(f"edge {e}: head does not commute")
        if m.edge_map[g.inv[e]] != h.inv[fe]:
            bad.append(f"edge {e}: inverse does not commute")
    if bad:
        return CoverReport(False, bad)
    for v in range(g.vertex_count):
        images = sorted(m.edge_map[e] for e in g.out[v])
        expected = sorted(h.out[m.vertex_map[v]])
        if images != expected:
            bad.append(f"vertex {v}: emanating edges not a local bijection")
    vertex_fibers = [0] * h.vertex_count
    for v in range(g.vertex_count):
        vertex_fibers[m.vertex_map[v]] += 1
    edge_fibers = [0] * h.edge_count
    for e in range(g.edge_count):
        edge_fibers[m.edge_map[e]] += 1
    sizes = set(vertex_fibers) | set(edge_fibers)
    if len(sizes) != 1:
        bad.append(f"fiber sizes not constant: {sorted(sizes)}")
    return CoverReport(not bad, bad)


def half_loop_elimination(h: MultiGraph) -> LiftAssignment:
    """The 2-lift in which each half-loop becomes the cross edge between the
    two copies of its vertex and every other edge lifts by identity."""
    return LiftAssignment.identity(h, 1).double(
        [h.is_half_loop(e) for e in range(h.edge_count)])


def normalize_tree_layers(a: LiftAssignment, tree_edges) -> LiftAssignment:
    """Relabel fibers per base vertex so every spanning-tree edge lifts by
    the identity (each copy of the tree then lies in one layer); with tau_v
    the relabelling over v, e: v -> w lifts by q[tau_v[x]] = tau_w[p[x]]."""
    h = a.base
    n = a.height
    tree_set = set(tree_edges) | {h.inv[e] for e in tree_edges}
    tau = [None] * h.vertex_count
    tau[0] = tuple(range(n))
    stack = [0]
    while stack:
        v = stack.pop()
        for e in h.out[v]:
            if e not in tree_set:
                continue
            w = h.head[e]
            if tau[w] is None:
                # want tau_w o perm(e) o tau_v^-1 = id
                tau[w] = tuple(tau[v][x] for x in a.perms[h.inv[e]])
                stack.append(w)
    if any(t is None for t in tau):
        raise GraphError("tree does not span the base graph")
    perms = []
    for e, p in enumerate(a.perms):
        q, tw = [0] * n, tau[h.head[e]]
        for x, y in zip(tau[h.tail[e]], p):
            q[x] = tw[y]
        perms.append(tuple(q))
    return LiftAssignment(h, n, perms)


# -- cover map files -------------------------------------------------------

def serialize_cover_map(m: CoverMap, g: MultiGraph, h: MultiGraph) -> str:
    """Write the cover map m of g onto h, with the edge ids parse_graph
    reassigns after a serialize_graph round trip, so the file stays
    consistent with saved graph files."""
    gid, hid = file_edge_ids(g), file_edge_ids(h)
    lines = [f"vmap {v} {hv}" for v, hv in enumerate(m.vertex_map)]
    lines += [f"emap {e} {he}" for e, he in
              sorted((gid[e], hid[he]) for e, he in enumerate(m.edge_map))]
    return "\n".join(lines) + "\n"


def parse_cover_map(text: str, g: MultiGraph, h: MultiGraph) -> CoverMap:
    vmap = [None] * g.vertex_count
    emap = [None] * g.edge_count
    targets = {"vmap": (vmap, h.vertex_count), "emap": (emap, h.edge_count)}
    for lineno, word, (src, dst) in tokenize(text, {"vmap": 2, "emap": 2}):
        images, image_count = targets[word]
        if not (0 <= src < len(images) and 0 <= dst < image_count):
            raise ParseError(f"line {lineno}: {word} index out of range")
        if images[src] is not None:
            raise ParseError(f"line {lineno}: {word} {src} given twice")
        images[src] = dst
    if None in vmap or None in emap:
        raise ParseError("cover map file leaves vertices or edges unmapped")
    return CoverMap(tuple(vmap), tuple(emap))


__all__ = [
    "LiftAssignment", "CoverMap", "CoverReport", "build_lift", "verify_cover",
    "half_loop_elimination", "normalize_tree_layers",
    "serialize_cover_map", "parse_cover_map",
]
