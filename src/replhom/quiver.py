"""Quivers and replication specs.

A quiver here is a finite connected acyclic multigraph presenting a
hereditary path algebra; the replication spec pairs it with the replication
degree m.  Vertex and arrow ids are caller-supplied strings; internal order
is sorted id, so every downstream basis and output is reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Quiver", "ReplicationSpec", "QuiverError", "CycleFound", "Disconnected",
    "validate_hereditary", "grothendieck_rank", "replicated_vertex_set",
    "load_quiver", "quiver_from_dict", "dynkin_type", "knit_ind", "IndTable",
    "LVertex",
]


class QuiverError(ValueError):
    pass


class CycleFound(QuiverError):
    def __init__(self, arrows):
        self.arrows = list(arrows)
        super().__init__(f"directed cycle through arrows {self.arrows}")


class Disconnected(QuiverError):
    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(f"underlying graph is disconnected: {self.components}")


class Quiver:
    """Finite directed multigraph with string vertex/arrow ids.

    Vertices and arrows are reordered by sorted id on construction. The
    constructor enforces id uniqueness and endpoint existence; acyclicity and
    connectedness are checked by validate_hereditary (called by default).
    """

    def __init__(self, vertices, arrows, check=True):
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise QuiverError("duplicate vertex ids")
        self.vertices = tuple(sorted(vs))
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        arrs = [(str(a), str(s), str(t)) for (a, s, t) in arrows]
        ids = [a for a, _, _ in arrs]
        if len(set(ids)) != len(ids):
            raise QuiverError("duplicate arrow ids")
        for a, s, t in arrs:
            if s not in self.vindex or t not in self.vindex:
                raise QuiverError(f"arrow {a}: unknown endpoint {s}->{t}")
        self.arrows = tuple(sorted(arrs))
        self.arrow_src = {a: s for a, s, t in self.arrows}
        self.arrow_tgt = {a: t for a, s, t in self.arrows}
        self.out_arrows = {v: [] for v in self.vertices}
        self.in_arrows = {v: [] for v in self.vertices}
        for a, s, t in self.arrows:
            self.out_arrows[s].append(a)
            self.in_arrows[t].append(a)
        self._paths = None
        if check:
            validate_hereditary(self)

    @property
    def n(self):
        return len(self.vertices)

    def __repr__(self):
        arr = ", ".join(f"{a}:{s}->{t}" for a, s, t in self.arrows)
        return f"Quiver({list(self.vertices)}; {arr})"

    def topological_order(self):
        """Vertices sorted sources-first (stable within ties)."""
        indeg = {v: len(self.in_arrows[v]) for v in self.vertices}
        order, ready = [], [v for v in self.vertices if indeg[v] == 0]
        while ready:
            v = ready.pop(0)
            order.append(v)
            for a in self.out_arrows[v]:
                t = self.arrow_tgt[a]
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        if len(order) != self.n:
            raise CycleFound([a for a, s, t in self.arrows])
        return order

    def paths(self):
        """dict (src, tgt) -> tuple of paths; a path is a tuple of arrow ids.

        Includes the empty path (x, x) -> ((),). Deterministic DFS order over
        sorted arrow ids; finite because the quiver is acyclic.
        """
        if self._paths is None:
            table = {(x, y): [] for x in self.vertices for y in self.vertices}

            def walk(start, here, pref):
                table[(start, here)].append(tuple(pref))
                for a in self.out_arrows[here]:
                    pref.append(a)
                    walk(start, self.arrow_tgt[a], pref)
                    pref.pop()

            for x in self.vertices:
                walk(x, x, [])
            self._paths = {k: tuple(v) for k, v in table.items()}
        return self._paths

    def to_dict(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a, "src": s, "tgt": t} for a, s, t in self.arrows],
        }


def validate_hereditary(q: Quiver) -> None:
    """Check the hereditary hypothesis: connected and acyclic.

    Raises CycleFound (with the arrows of a directed cycle, loops included)
    or Disconnected (with the vertex components). Result is independent of
    the vertex listing order.
    """
    # directed cycle search, reporting an explicit witness
    color = {v: 0 for v in q.vertices}
    stack_arrows = []

    def dfs(v):
        color[v] = 1
        for a in q.out_arrows[v]:
            t = q.arrow_tgt[a]
            if color[t] == 1:
                # unwind to the arrow entering t
                cyc = [a]
                for b in reversed(stack_arrows):
                    cyc.append(b)
                    if q.arrow_src[b] == t:
                        break
                raise CycleFound(list(reversed(cyc)))
            if color[t] == 0:
                stack_arrows.append(a)
                dfs(t)
                stack_arrows.pop()
        color[v] = 2

    for v in q.vertices:
        if color[v] == 0:
            dfs(v)

    if q.n:
        seen = set()
        todo = [q.vertices[0]]
        nbrs = {v: set() for v in q.vertices}
        for a, s, t in q.arrows:
            nbrs[s].add(t)
            nbrs[t].add(s)
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(nbrs[v] - seen)
        if len(seen) != q.n:
            rest = set(q.vertices) - seen
            raise Disconnected([seen, rest])


@dataclass(frozen=True)
class LVertex:
    """Vertex of the replicated algebra: base vertex tagged with a level."""
    vertex: str
    level: int

    @property
    def label(self):
        return f"{self.vertex}_{self.level}"

    def __repr__(self):
        return self.label


@dataclass(frozen=True)
class ReplicationSpec:
    """Base quiver plus replication degree m >= 1."""
    base: Quiver
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("replication degree m must be >= 1")


def grothendieck_rank(spec: ReplicationSpec) -> int:
    """Rank of the Grothendieck group of the replicated algebra: n*(m+1)."""
    return spec.base.n * (spec.m + 1)


def replicated_vertex_set(spec: ReplicationSpec):
    """All level-tagged vertices x_i, ordered by (level, base order)."""
    return [LVertex(x, i) for i in range(spec.m + 1) for x in spec.base.vertices]


def quiver_from_dict(d) -> Quiver:
    try:
        vertices = [str(v) for v in d["vertices"]]
        arrows = [(a["id"], a["src"], a["tgt"]) for a in d["arrows"]]
    except (KeyError, TypeError) as exc:
        raise QuiverError(f"malformed quiver description: {exc}") from exc
    return Quiver(vertices, arrows)


def load_quiver(path) -> Quiver:
    """Read a quiver from a JSON file {"vertices": [...], "arrows": [...]}"""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise QuiverError(f"invalid JSON in {path}: {exc}") from exc
    return quiver_from_dict(d)


def dynkin_type(q: Quiver):
    """Classify the underlying graph: ('A', n) / ('D', n) / ('E', n),
    'kronecker' for two parallel arrows, or None (unsupported)."""
    n = q.n
    if n == 2 and len(q.arrows) == 2:
        return "kronecker"
    if len(q.arrows) != n - 1:
        return None  # a tree has n-1 edges; anything else is not Dynkin ADE
    deg = {v: 0 for v in q.vertices}
    nbrs = {v: [] for v in q.vertices}
    for a, s, t in q.arrows:
        if s == t:
            return None
        deg[s] += 1
        deg[t] += 1
        nbrs[s].append(t)
        nbrs[t].append(s)
    degs = sorted(deg.values(), reverse=True)
    if not degs or degs[0] <= 2:
        return ("A", n)
    if degs[0] > 3 or degs.count(3) > 1:
        return None
    center = next(v for v in q.vertices if deg[v] == 3)
    lengths = []
    for start in nbrs[center]:
        ln, prev, cur = 1, center, start
        while deg[cur] == 2:
            nxt = next(w for w in nbrs[cur] if w != prev)
            prev, cur = cur, nxt
            ln += 1
        lengths.append(ln)
    lengths.sort()
    if lengths[0] == 1 and lengths[1] == 1:
        return ("D", n)
    if lengths[:2] == [1, 2] and lengths[2] in (2, 3, 4):
        return ("E", n)
    return None


# Coxeter number and exponents of E6, E7, E8 (Bourbaki, Lie groups ch. VI,
# plates V-VII)
_E_EXPONENTS = {6: (12, (1, 4, 5, 7, 8, 11)),
                7: (18, (1, 5, 7, 9, 11, 13, 17)),
                8: (30, (1, 7, 11, 13, 17, 19, 23, 29))}


def coxeter_exponents(kind) -> tuple:
    """(Coxeter number h, exponents e_1..e_n) of a Dynkin type as
    dynkin_type returns it: A_n has h = n + 1 and exponents 1..n, D_n has
    h = 2n - 2 and exponents 1, 3, ..., 2n - 3 and n - 1."""
    letter, n = kind
    if letter == "A":
        return n + 1, tuple(range(1, n + 1))
    if letter == "D":
        return 2 * n - 2, tuple(sorted([*range(1, 2 * n - 2, 2), n - 1]))
    return _E_EXPONENTS[n]


def fuss_catalan(kind, m: int) -> int:
    """The number of m-cluster tilting objects of a Dynkin type:
    prod (m h + e_i + 1) / (e_i + 1) over the exponents (Fomin-Reading)."""
    h, exponents = coxeter_exponents(kind)
    num = den = 1
    for e in exponents:
        num *= m * h + e + 1
        den *= e + 1
    count, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"non-integral Fuss-Catalan number {num}/{den}")
    return count


class IndTable(NamedTuple):
    """Ind A in integers: dims[k] over q.vertices, tau[k] (None for a
    projective), hom[a][b] = dim Hom(ind[a], ind[b]), positions of P(x)
    and I(x) in proj[x] and inj[x]."""
    dims: list
    tau: list
    hom: list
    proj: dict
    inj: dict

    def ext1(self, a, b):
        """dim Ext^1(ind[a], ind[b]) = dim Hom(ind[b], tau ind[a])."""
        t = self.tau[a]
        return 0 if t is None else self.hom[b][t]


def knit_ind(q: Quiver) -> IndTable:
    """Ind A of a Dynkin quiver knitted from dimension vectors, ordered
    like repa.enumerate_ind: by total dimension, then dimension vector.

    Node (x, r) is tau^{-r} P(x).  P(x) counts the paths out of x and
    rad P(x) is the sum of P(y) over the arrows x -> y, so the arrows into
    (x, r) come from (y, r) and, over the arrows z -> x, from (z, r - 1);
    tau^{-1} X is the sum of X's successors minus X, up to an injective.
    Round by round, sinks first, each node follows its predecessors, so
    Hom(X, Y) = sum of Hom(X, E) over E -> Y - Hom(X, tau Y) + [X = Y].
    """
    paths, vs = q.paths(), q.vertices
    injective = {tuple(len(paths[(y, x)]) for y in vs): x for x in vs}
    sinks_first = q.topological_order()[::-1]

    def preds(x, r):
        return ([(q.arrow_tgt[a], r) for a in q.out_arrows[x]]
                + [(q.arrow_src[a], r - 1) for a in q.in_arrows[x] if r])

    nodes = {(x, 0): tuple(len(paths[(x, y)]) for y in vs)
             for x in sinks_first}
    knit, r = sinks_first, 0
    while knit:
        r += 1
        knit = [x for x in knit if nodes[(x, r - 1)] not in injective]
        for x in knit:
            rows = [nodes[p] for p in preds(x, r)]
            nodes[(x, r)] = tuple(sum(col) - d for col, d in
                                  zip(zip(*rows), nodes[(x, r - 1)]))
    hom = {node: {} for node in nodes}
    for x, r in nodes:
        into = preds(x, r)
        for node, row in hom.items():
            row[(x, r)] = (sum(row[p] for p in into) + (node == (x, r))
                           - row.get((x, r - 1), 0))
    order = sorted(nodes, key=lambda n: (sum(nodes[n]), nodes[n]))
    rank = {n: k for k, n in enumerate(order)}
    at = {nodes[n]: k for n, k in rank.items()}
    return IndTable(
        dims=[nodes[n] for n in order],
        tau=[rank.get((x, r - 1)) for x, r in order],
        hom=[[hom[a][b] for b in order] for a in order],
        proj={x: rank[(x, 0)] for x in vs},
        inj={x: at[d] for d, x in injective.items()})
