"""Quivers and replication specs.

A quiver here is a finite connected acyclic multigraph presenting a
hereditary path algebra; the replication spec pairs it with the replication
degree m.  Vertex and arrow ids are caller-supplied strings; internal order
is sorted id, so every downstream basis and output is reproducible.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ClosureIncomplete, NotSupported
from .linalg import quo

__all__ = [
    "Quiver", "ReplicationSpec", "QuiverError", "CycleFound", "Disconnected",
    "validate_hereditary", "grothendieck_rank", "replicated_vertex_set",
    "load_quiver", "quiver_from_dict", "dynkin_type", "knit", "KnitTable",
    "knit_ind", "IndTable", "LVertex", "mesh_hom", "MeshTable", "HomRow",
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


class KnitTable(NamedTuple):
    """The AR quiver of A^(m) in integers, nodes in a topological order:
    dims[k] flat over (layer, vertex), tau[k] (None for a projective),
    in_arrows[k] the sorted (node, multiplicity) pairs of the arrows into
    k, and the nodes of P(x, i) and I(x, i) in proj[(x, i)], inj[(x, i)]."""
    dims: list
    tau: list
    in_arrows: list
    proj: dict
    inj: dict


def knit(q: Quiver, m: int) -> KnitTable:
    """The AR quiver of the m-replicated algebra A^(m) of a Dynkin quiver,
    knitted from dimension vectors alone (Assem-Simson-Skowronski IV.4);
    m = 0 gives ind A.

    A^(m) is representation-directed, so a node is fixed by its dimension
    vector.  With dim P_A(x)_y the number of paths x -> y and dim I_A(x)_y
    that of paths y -> x, P(x, 0) is P_A(x) in layer 0, its radical the
    sum of the P(y, 0) over the arrows x -> y; P(x, i), i >= 1, is P_A(x)
    in layer i over I_A(x) in layer i - 1, its radical indecomposable of
    dimension vector dim P(x, i) - e(x, i); I(x, i) is P(x, i + 1) for
    i < m, and I_A(x) in layer m.  A node is knitted once its
    predecessors are: its arrows go to tau^{-1} E for each non-injective
    E -> X and to each projective whose radical holds X, and tau^{-1} X is
    the sum of those targets minus X.
    """
    if dynkin_type(q) in (None, "kronecker"):
        raise NotSupported("AR quiver construction needs a Dynkin base")
    paths, vs, n = q.paths(), q.vertices, q.n

    def placed(*parts):         # (layer, counts over vs) -> flat vector
        vec = [0] * (n * (m + 1))
        for i, counts in parts:
            vec[i * n:(i + 1) * n] = counts
        return tuple(vec)

    p_a = {x: [len(paths[(x, y)]) for y in vs] for x in vs}
    i_a = {x: [len(paths[(y, x)]) for y in vs] for x in vs}
    proj = {(x, 0): placed((0, p_a[x])) for x in vs}
    proj.update({(x, i): placed((i, p_a[x]), (i - 1, i_a[x]))
                 for i in range(1, m + 1) for x in vs})
    inj = {(x, i): proj[(x, i + 1)] if i < m else placed((m, i_a[x]))
           for i in range(m + 1) for x in vs}
    injective = set(inj.values())
    in_arrows, into = {}, {}     # into: radical summand -> its projectives
    for (x, i), p in proj.items():
        if i:
            rad = list(p)
            rad[i * n + q.vindex[x]] -= 1
            in_arrows[p] = Counter([tuple(rad)])
        else:
            in_arrows[p] = Counter(proj[(q.arrow_tgt[a], 0)]
                                   for a in q.out_arrows[x])
        for r, mult in in_arrows[p].items():
            into.setdefault(r, Counter())[p] += mult
    waiting = {p: len(rad) for p, rad in in_arrows.items()}
    ready = deque(p for p, w in waiting.items() if not w)
    order, tau, tau_inv = [], {}, {}
    while ready:
        X = ready.popleft()
        order.append(X)
        out = Counter(into.get(X, ()))
        for E, mult in in_arrows[X].items():
            if E not in injective:
                out[tau_inv[E]] += mult
        for T in out:
            waiting[T] -= 1
            if not waiting[T]:
                ready.append(T)
        if X not in injective:
            Y = tuple(sum(mult * T[k] for T, mult in out.items()) - X[k]
                      for k in range(len(X)))
            if Y in in_arrows or min(Y) < 0 or not out:
                raise ArithmeticError(f"knitting met {Y} as tau^-1 of {X}")
            tau_inv[X], tau[Y], in_arrows[Y], waiting[Y] = Y, X, out, len(out)
    if len(order) != len(in_arrows) or not injective <= in_arrows.keys():
        raise ArithmeticError("knitting stalled before every injective")
    at = {d: k for k, d in enumerate(order)}
    return KnitTable(
        dims=order,
        tau=[at[tau[d]] if d in tau else None for d in order],
        in_arrows=[sorted((at[e], mult) for e, mult in in_arrows[d].items())
                   for d in order],
        proj={site: at[d] for site, d in proj.items()},
        inj={site: at[d] for site, d in inj.items()})


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
    """Ind A of a Dynkin quiver, knit(q, 0) ordered like repa.enumerate_ind:
    by total dimension, then dimension vector.

    Hom is counted along the meshes (mesh_hom) in knit's topological
    order.
    """
    t = knit(q, 0)
    hom = mesh_hom(range(len(t.dims)), t.in_arrows, t.tau)
    order = sorted(range(len(t.dims)), key=lambda k: (sum(t.dims[k]),
                                                      t.dims[k]))
    rank = {k: r for r, k in enumerate(order)}
    return IndTable(
        dims=[t.dims[k] for k in order],
        tau=[None if t.tau[k] is None else rank[t.tau[k]] for k in order],
        hom=[[hom[a][b] for b in order] for a in order],
        proj={x: rank[t.proj[(x, 0)]] for x in q.vertices},
        inj={x: rank[t.inj[(x, 0)]] for x in q.vertices})


def mesh_hom(order, in_arrows, tau) -> list:
    """dim Hom between the nodes 0..N-1 of the AR quiver of a
    representation-directed algebra, counted along the meshes: hom[a][b] =
    dim Hom(a, b).

    order is a topological order of the nodes, in_arrows[b] the (node,
    multiplicity) pairs of the arrows into b and tau[b] its translate (None
    for a projective).  Hom(X, -) keeps the AR sequence 0 -> tau Y -> E ->
    Y -> 0 (rad Y -> Y for a projective Y) left exact, and as E -> Y is
    right almost split and End Y = k, the cokernel of Hom(X, E) -> Hom(X, Y)
    is k for X = Y and 0 otherwise.  So Hom(X, Y) is the sum of Hom(X, E)
    over the arrows E -> Y, minus Hom(X, tau Y), plus [X = Y].  Hom(X, Y) =
    0 unless X <= Y in path order, so a row starts at its own node.
    """
    order = list(order)
    hom = [None] * len(order)
    for s, a in enumerate(order):
        row = [0] * len(order)
        row[a] = 1
        for b in order[s + 1:]:
            t = tau[b]
            row[b] = sum(mult * row[e] for e, mult in in_arrows[b]) - (
                0 if t is None else row[t])
        hom[a] = row
    return hom


class HomRow(NamedTuple):
    """P_x = Hom(x, -) of the mesh category from one source node x.

    dims[n] = dim P_x(n).  For every node n with dims[n] > 0, origin[n]
    says where each basis vector of P_x(n) comes from: (e, l), the image of
    basis vector l of P_x(e) under the arrow e -> n, or (None, 0) for id_x
    at n = x.  blocks[n][e] is the arrow map P_x(e) -> P_x(n) as a list of
    columns, one per basis vector of P_x(e)."""
    dims: list
    origin: dict
    blocks: dict


class MeshTable:
    """Hom(x, -) of the mesh category of a representation-directed AR
    quiver in integer matrices, one source node at a time, built on first
    use and cached.

    P_x(x) = k.  A projective n != x has P_x(n) = sum of P_x(e) over its
    in-arrows e -> n, since rad n -> n is right almost split.  A
    non-projective n != x has P_x(n) the cokernel of P_x(tau n) -> sum of
    P_x(e) (the AR sequence, Hom(x, -) being exact on it away from n = x;
    mesh relations with all signs +), with the coordinates that are no
    pivot of the image as its basis, so the section is an inclusion and the
    block at e of the cokernel projection is the arrow map e -> n.  Every
    dim P_x(n), P_x(x) = k = End x included, must equal hom[x][n], the
    count of mesh_hom, else ClosureIncomplete names the pair: the check
    that the maps P_x(tau n) -> sum P_x(e) are injective.  An arrow of
    multiplicity above 1 raises NotSupported; none occurs on a Dynkin
    base.

    pull(x, t, i) is g* for g = e_i in P_x(t): the natural map P_t -> P_x,
    h -> h g, one matrix per node n, column by column: a basis vector of
    P_t(n) from (e, l) goes to blocks_x[n][e] applied to column l of g*_e.
    """

    def __init__(self, order, in_arrows, tau, hom):
        self.order = list(order)
        self.pos = {a: s for s, a in enumerate(self.order)}
        self.in_arrows = in_arrows
        self.tau = tau
        self.hom = hom
        self._rows = {}
        self._pulls = {}

    def row(self, x) -> HomRow:
        """P_x, knitted along the meshes from x on first use."""
        out = self._rows.get(x)
        if out is None:
            out = self._rows[x] = self._knit(x)
        return out

    def _knit(self, x) -> HomRow:
        dims = [0] * len(self.order)
        dims[x] = 1
        self._check(x, x, 1)
        origin, blocks = {x: [(None, 0)]}, {x: {}}
        for n in self.order[self.pos[x] + 1:]:
            coords = []
            for e, mult in self.in_arrows[n]:
                if mult != 1:
                    raise NotSupported(
                        f"mesh table: arrow n{e} -> n{n} has multiplicity "
                        f"{mult}")
                coords.extend((e, l) for l in range(dims[e]))
            t = self.tau[n]
            pivots = {} if t is None or not dims[t] else \
                _reduced_pivots(self._mesh_images(blocks, dims, t, n))
            free = [c for c in range(len(coords)) if c not in pivots]
            self._check(x, n, len(free))
            if not free:
                continue
            dims[n] = len(free)
            origin[n] = [coords[c] for c in free]
            slot = {c: k for k, c in enumerate(free)}
            cols = []
            for c in range(len(coords)):
                if c in slot:
                    col = [0] * len(free)
                    col[slot[c]] = 1
                else:
                    col = [-pivots[c][f] for f in free]
                cols.append(col)
            arrows, start = {}, 0
            for e, _ in self.in_arrows[n]:
                if dims[e]:
                    arrows[e] = cols[start:start + dims[e]]
                    start += dims[e]
            blocks[n] = arrows
        return HomRow(dims, origin, blocks)

    def _check(self, x, n, dim):
        """dim P_x(n) as knitted must be hom[x][n]."""
        if dim != self.hom[x][n]:
            raise ClosureIncomplete(
                f"Hom(n{x}, n{n}) has a basis of {dim} maps, the mesh table "
                f"dimension {self.hom[x][n]}")

    def _mesh_images(self, blocks, dims, t, n):
        """The image of each basis vector of P_x(tau n) in the sum of the
        P_x(e) over the arrows e -> n, stacked in in-arrow order (a missing
        arrow map counts as zero)."""
        images = [[] for _ in range(dims[t])]
        for e, _ in self.in_arrows[n]:
            if not dims[e]:
                continue
            cols = blocks[e].get(t)
            for b, image in enumerate(images):
                image.extend(cols[b] if cols else [0] * dims[e])
        return images

    def pull(self, x, t, i) -> dict:
        """g* for g = e_i in P_x(t): node n -> its matrix P_t(n) -> P_x(n)
        as a list of columns, for every n with both spaces nonzero."""
        key = x, t, i
        out = self._pulls.get(key)
        if out is not None:
            return out
        src, dst = self.row(x), self.row(t)
        dx = src.dims
        g = [0] * dx[t]
        g[i] = 1
        out = {t: [g]}
        for n in self.order[self.pos[t] + 1:]:
            height = dx[n]
            if not height or n not in dst.origin:
                continue
            arrows = src.blocks[n]
            cols = []
            for e, l in dst.origin[n]:
                col = [0] * height
                before = out.get(e)
                if before is not None:
                    for a, image in zip(before[l], arrows[e]):
                        if a:
                            for r, v in enumerate(image):
                                if v:
                                    col[r] += a * v
                cols.append(col)
            out[n] = cols
        self._pulls[key] = out
        return out


def _reduced_pivots(vectors):
    """pivot coordinate -> row of a reduced echelon basis of the span of
    vectors: the row is 1 at its pivot and 0 at every other pivot.  A pivot
    is the first coordinate of a remainder that holds +-1, else its first
    nonzero one."""
    pivots = {}
    for vec in vectors:
        row = list(vec)
        for c, prow in pivots.items():
            f = row[c]
            if f:
                row = [a - f * b for a, b in zip(row, prow)]
        nonzero = [c for c, a in enumerate(row) if a]
        if not nonzero:
            continue
        c = next((c for c in nonzero if row[c] in (1, -1)), nonzero[0])
        p = row[c]
        if p != 1:
            row = [quo(a, p) for a in row]
        for c2, prow in pivots.items():
            f = prow[c]
            if f:
                pivots[c2] = [a - f * b for a, b in zip(prow, row)]
        pivots[c] = row
    return pivots
