"""Modules over the m-replicated algebra, as layered tuples.

A module is m+1 base-algebra representations M^0..M^m glued by connector
maps delta_i: nu(M^i) -> M^{i-1}, the right action of the dual-bimodule
block; delta_{i-1} . nu(delta_i) = 0 encodes the square-zero multiplication
of the matrix algebra.  Projectives P(x_i) carry [I(x) @ i-1, P(x) @ i] with
identity connector, injectives I(x_i) = [I(x) @ i, P(x) @ i+1], so
P(x_{i+1}) and I(x_i) coincide: those are the projective-injectives.

Covers, envelopes, syzygies, Ext and the AR translate all reduce to exact
linear algebra through the blockwise Nakayama calculus on sums of P(x_i)
and I(x_i).  A connector is read as an action on elements only through
dual_path_action, the action of u* for a path u; Hom, socle, envelope,
Ext and the maps out of projective sums (LProjSum.hom_to) are built on it,
while the constructions that make or check a connector on nu(M^i) itself
(layered_sub, cokernel_rep, validate, LModMorphism.compatible) take
Nakayama images.  A direct sum is a module and nothing more: its layers
carry presentation and Nakayama caches aligned summand by summand, but no
inclusions or projections.

Radicals, tops, Loewy layers and the syzygies of a resolution are column
spans in an ambient module (radical_span), not submodules: a syzygy lives
as kernel columns inside the previous cover's shared sum and is covered
there.  layered_sub builds a module only where one is needed: a kernel,
image or radical handed to a caller, or a split part of a decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import repa
from .errors import (IndexOutOfRange, InjectiveInput, ProjectiveInput,
                     ZeroModule)
from .linalg import QMatrix, SparseMatrix, span_basis
from .quiver import ReplicationSpec
from .repa import (AMorphism, ARep, compose, hom_basis, injective,
                   inj_sum_of, nu_data, nu_module, nu_morphism, projective,
                   proj_sum_of, simple)

_ZERO = 0


class LayeredModule:
    """Module over the m-replicated algebra."""

    def __init__(self, spec: ReplicationSpec, layers, connectors, check=True):
        self.spec = spec
        m = spec.m
        layers = list(layers)
        if len(layers) != m + 1:
            raise ValueError(f"expected {m + 1} layers")
        self.layers = tuple(layers)
        conns = [None] * (m + 1)
        for i in range(1, m + 1):
            c = connectors[i] if connectors and len(connectors) > i else None
            if c is None:
                c = AMorphism.zero(nu_module(self.layers[i]), self.layers[i - 1])
            conns[i] = c
        self.connectors = tuple(conns)
        self._cache = {}
        if check:
            self.validate()

    @property
    def m(self):
        return self.spec.m

    @property
    def quiver(self):
        return self.spec.base

    def validate(self):
        m = self.spec.m
        for i in range(1, m + 1):
            d = self.connectors[i]
            nu_i = nu_module(self.layers[i])
            if d.src.dim != nu_i.dim or d.tgt.dim != self.layers[i - 1].dim:
                raise ValueError(f"connector {i} has wrong shape")
            if not d.commutes():
                raise ValueError(f"connector {i} is not a module morphism")
        for i in range(2, m + 1):
            d_hi = self.connectors[i]
            d_lo = self.connectors[i - 1]
            if d_hi.tgt.total_dim() and not d_lo.src.is_zero():
                if not compose(d_lo, nu_morphism(d_hi)).is_zero():
                    raise ValueError(f"square-zero violated at layer {i}")

    def total_dim(self):
        return sum(l.total_dim() for l in self.layers)

    def is_zero(self):
        return self.total_dim() == 0

    def dim_vector(self):
        """Flat dimension vector ordered by (level, base vertex order),
        cached on the module."""
        dv = self._cache.get("dim_vector")
        if dv is None:
            dv = self._cache["dim_vector"] = tuple(
                l.dim[v] for l in self.layers for v in self.quiver.vertices)
        return dv

    def layer_support(self):
        return tuple(i for i, l in enumerate(self.layers) if not l.is_zero())

    def __repr__(self):
        sup = {f"{v}_{i}": l.dim[v] for i, l in enumerate(self.layers)
               for v in self.quiver.vertices if l.dim[v]}
        return f"LayeredModule({sup or 0})"

    def to_dict(self):
        return {
            "m": self.spec.m,
            "layers": [l.to_dict() for l in self.layers],
            "connectors": [
                None if i == 0 else
                {v: self.connectors[i].mats[v].to_lists()
                 for v in self.quiver.vertices}
                for i in range(self.spec.m + 1)
            ],
        }

    @classmethod
    def from_dict(cls, spec: ReplicationSpec, d):
        layers = [ARep.from_dict(spec.base, ld) for ld in d["layers"]]
        conns = [None]
        for i in range(1, spec.m + 1):
            cd = d["connectors"][i]
            nu_i = nu_module(layers[i])
            mats = {}
            for v in spec.base.vertices:
                rows = cd.get(v) if cd else None
                mats[v] = QMatrix(layers[i - 1].dim[v], nu_i.dim[v],
                                  rows if rows else None)
            conns.append(AMorphism(nu_i, layers[i - 1], mats))
        return cls(spec, layers, conns)


class LModMorphism:
    """Morphism of layered modules: one base-level morphism per layer."""

    __slots__ = ("src", "tgt", "parts")

    def __init__(self, src: LayeredModule, tgt: LayeredModule, parts):
        self.src = src
        self.tgt = tgt
        ps = []
        for i in range(src.spec.m + 1):
            p = parts[i] if parts and len(parts) > i and parts[i] is not None \
                else AMorphism.zero(src.layers[i], tgt.layers[i])
            ps.append(p)
        self.parts = tuple(ps)

    @classmethod
    def zero(cls, src, tgt):
        return cls(src, tgt, None)

    @classmethod
    def identity(cls, M):
        return cls(M, M, [AMorphism.identity(l) for l in M.layers])

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def is_mono(self):
        return all(p.is_mono() for p in self.parts)

    def is_epi(self):
        return all(p.is_epi() for p in self.parts)

    def is_iso(self):
        return all(p.is_iso() for p in self.parts)

    def add(self, other):
        return LModMorphism(self.src, self.tgt,
                            [a.add(b) for a, b in zip(self.parts, other.parts)])

    def scale(self, c):
        return LModMorphism(self.src, self.tgt,
                            [p.scale(c) for p in self.parts])

    def compatible(self):
        """Layerwise commuting squares plus connector compatibility."""
        for p in self.parts:
            if not p.commutes():
                return False
        for i in range(1, self.src.spec.m + 1):
            lhs = compose(self.parts[i - 1], self.src.connectors[i])
            rhs = compose(self.tgt.connectors[i], nu_morphism(self.parts[i]))
            for v in self.src.quiver.vertices:
                if lhs.mats[v] != rhs.mats[v]:
                    return False
        return True


def lcompose(g: LModMorphism, f: LModMorphism) -> LModMorphism:
    return LModMorphism(f.src, g.tgt,
                        [compose(a, b) for a, b in zip(g.parts, f.parts)])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_module(spec: ReplicationSpec) -> LayeredModule:
    z = [ARep(spec.base, {}) for _ in range(spec.m + 1)]
    return LayeredModule(spec, z, None, check=False)


def from_level(spec: ReplicationSpec, M: ARep, level: int) -> LayeredModule:
    """Embed a base-algebra module at the given level (fully faithfully)."""
    if not 0 <= level <= spec.m:
        raise IndexOutOfRange(f"level {level} outside 0..{spec.m}")
    layers = [M if i == level else ARep(spec.base, {})
              for i in range(spec.m + 1)]
    return LayeredModule(spec, layers, None, check=False)


def simple_rep(spec: ReplicationSpec, x, i) -> LayeredModule:
    return from_level(spec, simple(spec.base, x), i)


def projective_rep(spec: ReplicationSpec, x, i) -> LayeredModule:
    """P(x_i) = [I(x) at layer i-1 (if i>0), P(x) at layer i], identity glue."""
    if not 0 <= i <= spec.m:
        raise IndexOutOfRange(f"level {i} outside 0..{spec.m}")
    q = spec.base
    layers = [ARep(q, {}) for _ in range(spec.m + 1)]
    layers[i] = projective(q, x)
    conns = [None] * (spec.m + 1)
    if i > 0:
        layers[i - 1] = injective(q, x)
        nu_p = nu_module(layers[i])
        conns[i] = AMorphism(nu_p, layers[i - 1],
                             {v: QMatrix.identity(nu_p.dim[v])
                              for v in q.vertices})
    return LayeredModule(spec, layers, conns, check=False)


def injective_rep(spec: ReplicationSpec, x, i) -> LayeredModule:
    """I(x_i) = [I(x) at layer i, P(x) at layer i+1 (if i<m)]; equals P(x_{i+1})
    for i < m."""
    if not 0 <= i <= spec.m:
        raise IndexOutOfRange(f"level {i} outside 0..{spec.m}")
    if i < spec.m:
        return projective_rep(spec, x, i + 1)
    return from_level(spec, injective(spec.base, x), spec.m)


def layered_direct_sum(spec: ReplicationSpec, mods):
    """Block direct sum with aligned Nakayama data."""
    mods = list(mods)
    if not mods:
        return zero_module(spec)
    m = spec.m
    layers = [repa.direct_sum_areps([M.layers[l] for M in mods])
              for l in range(m + 1)]
    conns = [None] * (m + 1)
    for i in range(1, m + 1):
        nu_i = nu_module(layers[i])
        mats = {v: QMatrix.block_diag([M.connectors[i].mats[v] for M in mods])
                for v in spec.base.vertices}
        conns[i] = AMorphism(nu_i, layers[i - 1], mats)
    return LayeredModule(spec, layers, conns, check=False)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

def hom_basis_rep(M: LayeredModule, N: LayeredModule):
    """Basis of Hom over the replicated algebra.

    Unknowns are coordinates in the layerwise base Hom spaces; constraints
    say that the layer maps commute with every dual-path action,
    h^{i-1}_x u*_M = u*_N h^i_y for each path u: x -> y (dual_path_action).
    The elements m (x) u* span nu(M^i), so this is the connector
    compatibility h^{i-1} delta^M_i = delta^N_i nu(h^i), with no Nakayama
    image of a basis element.
    """
    cache = M._cache.setdefault("hom", {})
    hit = cache.get(id(N))
    if hit is not None and hit[0] is N:
        return hit[1]
    m = M.spec.m
    paths = M.quiver.paths()
    layer_bases = [hom_basis(M.layers[l], N.layers[l]) for l in range(m + 1)]
    offsets, total = [], 0
    for lb in layer_bases:
        offsets.append(total)
        total += len(lb)
    rows = []
    for i in range(1, m + 1):
        if not layer_bases[i - 1] and not layer_bases[i]:
            continue
        for (x, y), us in paths.items():
            for u in us:
                act_m = dual_path_action(M, i, u, x, y)
                act_n = dual_path_action(N, i, u, x, y)
                if act_m.is_zero() and act_n.is_zero():
                    continue
                lhs = [(offsets[i - 1] + k, h.mats[x] * act_m)
                       for k, h in enumerate(layer_bases[i - 1])]
                rhs = [(offsets[i] + k, act_n * h.mats[y])
                       for k, h in enumerate(layer_bases[i])]
                for r in range(act_n.rows):
                    for c in range(act_m.cols):
                        row = [_ZERO] * total
                        for idx, mat in lhs:
                            row[idx] = mat.data[r][c]
                        for idx, mat in rhs:
                            row[idx] = -mat.data[r][c]
                        rows.append(row)
    basis = []
    if total:
        system = QMatrix(len(rows), total, rows if rows else None)
        ker = system.kernel_basis()
        basis = _lmorphisms(M, N, layer_bases,
                            [ker.col(c) for c in range(ker.cols)])
    cache[id(N)] = (N, basis)
    return basis


def _lmorphisms(M, N, layer_bases, vecs):
    """Morphisms M -> N from vectors of coefficients on the layer bases,
    concatenated layer by layer as in hom_basis_rep's system."""
    out = []
    for vec in vecs:
        parts, base = [], 0
        for lb in layer_bases:
            mor = None
            for k, h in enumerate(lb):
                c = vec[base + k]
                if c:
                    # basis elements are never changed in place, so a
                    # coefficient 1 can share h's matrices
                    hm = h if c == 1 else h.scale(c)
                    mor = hm if mor is None else mor.add(hm)
            parts.append(mor)
            base += len(lb)
        out.append(LModMorphism(M, N, parts))
    return out


def _free_position(h):
    """(vertex, row, column) of the last nonzero entry of h, vertex blocks
    in quiver order and row-major: the free position of a canonical Hom
    basis element."""
    for v in reversed(h.src.quiver.vertices):
        data = h.mats[v].data
        for i in range(len(data) - 1, -1, -1):
            for j in range(len(data[i]) - 1, -1, -1):
                if data[i][j]:
                    return v, i, j
    raise ValueError("zero morphism has no free position")


def _row_times(vec, mat):
    """The row vector vec times the matrix mat."""
    out = [_ZERO] * mat.cols
    for a, x in enumerate(vec):
        if x:
            for b, y in enumerate(mat.data[a]):
                if y:
                    out[b] += x * y
    return out


def _derive_end(M, end, X, incl, proj):
    """End(X) for a direct summand X of M, derived from end, a basis of
    End(M), and from M's layer End bases, and cached as hom_basis_rep(X, X)
    would cache it; incl and proj hold the (layer, vertex) blocks of X's
    inclusion and projection.

    Each layer's End(X^l) is derived from End(M^l) (repa.derive_end_a).  A
    canonical layer basis element has a 1 at its free position and zeros
    at the others', so the coefficients of an endomorphism of X^l on that
    basis are its entries at the free positions.  Those of proj e incl, e
    running over End(M), span the coefficient space of End(X), which
    span_basis reduces to hom_basis_rep's kernel basis."""
    vertices = M.quiver.vertices
    layer_bases, reads = [], []
    for l, layer in enumerate(X.layers):
        lb = repa.derive_end_a(
            M.layers[l], hom_basis(M.layers[l], M.layers[l]), layer,
            {v: incl[(l, v)] for v in vertices},
            {v: proj[(l, v)] for v in vertices})
        layer_bases.append(lb)
        reads.extend((l,) + _free_position(h) for h in lb)
    vecs = []
    for e in end:
        pe = {}
        vec = []
        for l, v, i, j in reads:
            row = pe.get((l, v, i))
            if row is None:
                row = pe[(l, v, i)] = _row_times(proj[(l, v)].data[i],
                                                 e.parts[l].mats[v])
            col = incl[(l, v)].data
            vec.append(sum([x * col[b][j] for b, x in enumerate(row) if x],
                           _ZERO))
        vecs.append(vec)
    total = len(reads)
    basis = _lmorphisms(X, X, layer_bases, span_basis(vecs, total))
    X._cache.setdefault("hom", {})[id(X)] = (X, basis)
    return basis


def hom_dim_rep(M, N):
    return len(hom_basis_rep(M, N))


# ---------------------------------------------------------------------------
# sub/quotient machinery
# ---------------------------------------------------------------------------

def layered_sub(M: LayeredModule, cols):
    """Submodule spanned by column matrices keyed (layer, vertex)."""
    m = M.spec.m
    layers, incl_parts = [], []
    for l in range(m + 1):
        K, incl = repa.sub_from_columns(
            M.layers[l], {v: cols[(l, v)] for v in M.quiver.vertices})
        layers.append(K)
        incl_parts.append(incl)
    conns = [None] * (m + 1)
    for i in range(1, m + 1):
        nu_incl = nu_morphism(incl_parts[i])
        comp = compose(M.connectors[i], nu_incl)
        mats = {v: incl_parts[i - 1].mats[v].solve_matrix(comp.mats[v])
                for v in M.quiver.vertices}
        conns[i] = AMorphism(nu_incl.src, layers[i - 1], mats)
    K = LayeredModule(M.spec, layers, conns)
    return K, LModMorphism(K, M, incl_parts)


def _kernel_columns(f: LModMorphism):
    """Column bases of ker f inside f.src, keyed (layer, vertex)."""
    return {(l, v): p.mats[v].kernel_basis()
            for l, p in enumerate(f.parts) for v in f.src.quiver.vertices}


def kernel_rep(f: LModMorphism):
    return layered_sub(f.src, _kernel_columns(f))


def image_rep(f: LModMorphism):
    return layered_sub(f.tgt, {(l, v): p.mats[v].column_space_basis()
                               for l, p in enumerate(f.parts)
                               for v in f.src.quiver.vertices})


def cokernel_rep(f: LModMorphism):
    """Returns (C, proj: tgt -> C)."""
    N = f.tgt
    m = N.spec.m
    layers, proj_parts = [], []
    for l in range(m + 1):
        C, proj, _ = repa.cokernel_of_morphism(f.parts[l])
        layers.append(C)
        proj_parts.append(proj)
    conns = [None] * (m + 1)
    for i in range(1, m + 1):
        nu_proj = nu_morphism(proj_parts[i])   # nu(N^i) -> nu(C^i), onto
        nu_ci = nu_proj.tgt
        sect = {v: nu_proj.mats[v].solve_matrix(QMatrix.identity(nu_ci.dim[v]))
                for v in N.quiver.vertices}
        comp = compose(proj_parts[i - 1], N.connectors[i])
        mats = {v: comp.mats[v] * sect[v] for v in N.quiver.vertices}
        conns[i] = AMorphism(nu_ci, layers[i - 1], mats)
    C = LayeredModule(N.spec, layers, conns)
    return C, LModMorphism(N, C, proj_parts)


def _radical_columns(M: LayeredModule):
    """Column bases of rad M, keyed (layer, vertex): the base-algebra
    radical plus the image of the connector from the layer above."""
    m = M.spec.m
    cols = {}
    for l in range(m + 1):
        rad_a = repa.radical_columns(M.layers[l])
        for v in M.quiver.vertices:
            pieces = [rad_a[v]]
            if l < m:
                pieces.append(M.connectors[l + 1].mats[v])
            cols[(l, v)] = QMatrix.hstack(pieces).column_space_basis()
    return cols


def radical_sub(M: LayeredModule):
    """rad M: base-algebra radical plus the connector images, per layer."""
    return layered_sub(M, _radical_columns(M))


def radical_span(P: LayeredModule, C):
    """Column bases of J.N inside P, for the submodule N of P spanned by
    the columns C, keyed (layer, vertex); J is the radical of the
    replicated algebra.

    J.N is spanned by the arrow images P(a) C[(l, s)] and by the images of
    the dual paths, u*_P C[(l + 1, y)] for u: v -> y (dual_path_action):
    the connector of N is delta_P . nu(incl), and the elements n (x) u*
    span nu(N).  No submodule is built."""
    m = P.spec.m
    q = P.quiver
    paths = q.paths()
    out = {}
    for l in range(m + 1):
        layer = P.layers[l]
        for v in q.vertices:
            pieces = [layer.mats[a] * C[(l, q.arrow_src[a])]
                      for a in q.in_arrows[v] if C[(l, q.arrow_src[a])].cols]
            if l < m and layer.dim[v]:
                for y in q.vertices:
                    if C[(l + 1, y)].cols:
                        pieces += [dual_path_action(P, l + 1, u, v, y)
                                   * C[(l + 1, y)] for u in paths[(v, y)]]
            out[(l, v)] = QMatrix.hstack(pieces).column_space_basis() \
                if pieces else QMatrix.zeros(layer.dim[v], 0)
    return out


def top_data(M: LayeredModule):
    """Generators of M/rad M: list of (layer, vertex, column vector)."""
    rad = _radical_columns(M)
    return [(l, v, col) for (l, v), span in rad.items()
            for col in repa.complement_columns(span, M.layers[l].dim[v])]


def socle_data(M: LayeredModule):
    """Socle bases: dict (layer, vertex) -> QMatrix of columns.

    An element of M^l(x) sits in the socle iff the base-algebra arrows out
    of x kill it and (for layers >= 1) so does every dual-path action
    u*: M^l(x) -> M^{l-1}(w), u: w -> x (dual_path_action).
    """
    cached = M._cache.get("socle")
    if cached is not None:
        return cached
    q = M.quiver
    paths = q.paths()
    out = {}
    for l in range(M.spec.m + 1):
        for x in q.vertices:
            n = M.layers[l].dim[x]
            if n == 0:
                out[(l, x)] = QMatrix.zeros(0, 0)
                continue
            conditions = [M.layers[l].mats[a] for a in q.out_arrows[x]]
            if l >= 1:
                conditions += [dual_path_action(M, l, u, w, x)
                               for w in q.vertices for u in paths[(w, x)]]
            stacked = QMatrix.vstack(conditions) if conditions else None
            out[(l, x)] = stacked.kernel_basis() if stacked and stacked.rows \
                else QMatrix.identity(n)
    M._cache["socle"] = out
    return out


# ---------------------------------------------------------------------------
# sums of layered projectives / injectives
# ---------------------------------------------------------------------------

class LProjSum:
    """Direct sum of P(x_i), with the layout needed for blockwise Nakayama.

    Instances come from lproj_sum() and are shared per quiver and m: never
    mutate them, their module or its matrices.
    """

    def __init__(self, spec: ReplicationSpec, members):
        self.spec = spec
        self.members = tuple(members)
        self.components = [projective_rep(spec, x, i) for x, i in self.members]
        self.module = layered_direct_sum(spec, self.components)

    def gen_position(self, j):
        """(layer, vertex, column) of the j-th generator inside the sum."""
        x, i = self.members[j]
        psum = proj_sum_of(self.spec.base, x)
        local = psum.gen_pos(0)
        off = sum(self.components[k].layers[i].dim[x] for k in range(j))
        return i, x, off + local

    def hom_to(self, N: LayeredModule, gen_cols) -> LModMorphism:
        """Morphism sending the j-th generator to gen_cols[j] in N^{i_j}(x_j).

        A morphism out of P(x_i) is fixed by the generator's image g: on
        the layer I(x) below, the column of u* (u a path w -> x) at vertex
        w is u* applied to g (dual_path_action)."""
        q = self.spec.base
        m = self.spec.m
        comps = []
        for j, (x, i) in enumerate(self.members):
            psum = proj_sum_of(q, x)
            phi = psum.hom_to(N.layers[i], [gen_cols[j]])
            parts = [None] * (m + 1)
            parts[i] = phi
            if i > 0:
                g = phi.mats[x].col(psum.gen_pos(0))
                below = N.layers[i - 1]
                isum = inj_sum_of(q, x)
                parts[i - 1] = AMorphism(isum.rep, below, {
                    w: QMatrix.from_cols(
                        [dual_path_action(N, i, u, w, x).apply(g)
                         for _, u in isum.basis[w]], rows=below.dim[w])
                    for w in q.vertices})
            comps.append(LModMorphism(self.components[j], N, parts))
        parts = []
        for l in range(m + 1):
            mats = {}
            for v in q.vertices:
                blocks = [c.parts[l].mats[v] for c in comps]
                mats[v] = QMatrix.hstack(blocks) if blocks else \
                    QMatrix.zeros(N.layers[l].dim[v], 0)
            parts.append(AMorphism(self.module.layers[l], N.layers[l], mats))
        return LModMorphism(self.module, N, parts)

    def piece_offset(self, j, layer, vertex):
        return sum(self.components[k].layers[layer].dim[vertex]
                   for k in range(j))


class LInjSum:
    """Direct sum of I(x_i), mirroring LProjSum.

    Instances come from linj_sum() and are shared per quiver and m: never
    mutate them, their module or its matrices.
    """

    def __init__(self, spec: ReplicationSpec, members):
        self.spec = spec
        self.members = tuple(members)
        self.components = [injective_rep(spec, x, i) for x, i in self.members]
        self.module = layered_direct_sum(spec, self.components)

    def piece_offset(self, j, layer, vertex):
        return sum(self.components[k].layers[layer].dim[vertex]
                   for k in range(j))


def lproj_sum(spec: ReplicationSpec, members) -> LProjSum:
    """The LProjSum of the (vertex, level) tuple, built once per quiver."""
    return repa.shared(spec.base, ("LP", spec.m, members),
                       lambda: LProjSum(spec, members))


def linj_sum(spec: ReplicationSpec, members) -> LInjSum:
    """The LInjSum of the (vertex, level) tuple, built once per quiver."""
    return repa.shared(spec.base, ("LI", spec.m, members),
                       lambda: LInjSum(spec, members))


def _assemble(src_mod: LayeredModule, tgt_mod: LayeredModule,
              src_sum, tgt_sum, contributions) -> LModMorphism:
    """Build a morphism between sums from per-block base-level morphisms.

    contributions: list of (src member j, tgt member l, layer, AMorphism)
    where the AMorphism runs between the standalone piece representations.
    """
    m = src_mod.spec.m
    q = src_mod.quiver
    parts = []
    for lay in range(m + 1):
        mats = {v: QMatrix.zeros(tgt_mod.layers[lay].dim[v],
                                 src_mod.layers[lay].dim[v])
                for v in q.vertices}
        parts.append(mats)
    for (j, l, lay, h) in contributions:
        for v in q.vertices:
            block = h.mats[v]
            if block.rows == 0 or block.cols == 0 or block.is_zero():
                continue
            ro = tgt_sum.piece_offset(l, lay, v)
            co = src_sum.piece_offset(j, lay, v)
            tgtm = parts[lay][v]
            for r in range(block.rows):
                for c in range(block.cols):
                    if block.data[r][c]:
                        tgtm.data[ro + r][co + c] += block.data[r][c]
    return LModMorphism(src_mod, tgt_mod,
                        [AMorphism(src_mod.layers[lay], tgt_mod.layers[lay],
                                   parts[lay]) for lay in range(m + 1)])


def _from_coeffs(q, x, tgt_sum, coeffs):
    """Base morphism P(x) -> tgt_sum.rep, the P(y) or I(y) of a one-member
    sum, sending the generator to sum c_u u over paths or dual paths u."""
    gen = [_ZERO] * tgt_sum.rep.dim[x]
    for u, c in coeffs.items():
        gen[tgt_sum.pos[x][(0, u)]] += c
    return proj_sum_of(q, x).hom_to(tgt_sum.rep, [gen])


def _psi_from_coeffs(q, x, y, coeffs):
    """Base morphism I(x) -> I(y): Nakayama image of the phi with the same
    path coefficients."""
    phi = _from_coeffs(q, x, proj_sum_of(q, y), coeffs)
    return repa.nu_projsum_morphism(proj_sum_of(q, x), proj_sum_of(q, y), phi)


def _piece_coeffs(vec, off, basis):
    """Nonzero entries of vec on the piece at off with the (summand, path)
    basis, keyed by path."""
    return {u: vec[idx] for idx, (_, u) in enumerate(basis, off) if vec[idx]}


def _generator_blocks(q, S, i, lay, v, col):
    """(l, kind, coeffs) per member l of the sum S that col, the image at
    (lay, v) of a generator of level i, meets: a member y of level i is a
    "same" piece, coefficients on the paths of P(y) at v, one of level
    i + 1 a "cross" piece, on the dual paths of I(y) at v.  These members
    fill layer lay = i of a projective sum, and layer lay = i + 1 of an
    injective one when i < m."""
    out = []
    for l, (y, il) in enumerate(S.members):
        if il == i:
            kind, basis = "same", proj_sum_of(q, y).basis[v]
        elif il == i + 1:
            kind, basis = "cross", inj_sum_of(q, y).basis[v]
        else:
            continue
        coeffs = _piece_coeffs(col, S.piece_offset(l, lay, v), basis)
        if coeffs:
            out.append((l, kind, coeffs))
    return out


def lproj_blocks(P: LProjSum, Q: LProjSum, f: LModMorphism):
    """Decompose f: P -> Q into same-layer and connector-crossing blocks.

    Returns list of (j, l, kind, coeffs); kind "same" carries path
    coefficients (maps P(x_j,i) -> P(y_l,i)), kind "cross" dual-path
    coefficients (maps P(x_j,i) -> P(y_l,i+1)).  The same and crossing
    pieces fill the generator's layer of Q, so a nonzero entry past them
    means that f does not map into Q: ArithmeticError.
    """
    q = P.spec.base
    out = []
    for j, (_, i) in enumerate(P.members):
        lay, v, colpos = P.gen_position(j)
        mat = f.parts[lay].mats[v]
        col = mat.col(colpos) if mat.rows else []
        if any(col[Q.module.layers[lay].dim[v]:]):
            raise ArithmeticError("unexpected component in projective-sum "
                                  "morphism block structure")
        out += [(j, l, kind, coeffs)
                for l, kind, coeffs in _generator_blocks(q, Q, i, lay, v, col)]
    return out


def nu_lproj_morphism(P: LProjSum, Q: LProjSum, f: LModMorphism):
    """Nakayama image of f between layered projective sums.

    Same-layer blocks (g, nu g) shift one layer up to (nu g, g); crossing
    blocks shift unchanged; components above layer m are truncated.
    """
    spec = P.spec
    q = spec.base
    m = spec.m
    nuP = linj_sum(spec, P.members)
    nuQ = linj_sum(spec, Q.members)
    contributions = []
    for (j, l, kind, coeffs) in lproj_blocks(P, Q, f):
        x, i = P.members[j]
        y, _ = Q.members[l]
        if kind == "same":
            contributions.append((j, l, i, _psi_from_coeffs(q, x, y, coeffs)))
            if i < m:
                contributions.append((j, l, i + 1, _from_coeffs(
                    q, x, proj_sum_of(q, y), coeffs)))
        else:
            contributions.append((j, l, i + 1, _from_coeffs(
                q, x, inj_sum_of(q, y), coeffs)))
    nud = _assemble(nuP.module, nuQ.module, nuP, nuQ, contributions)
    return nuP, nuQ, nud


def linj_blocks(I0: LInjSum, I1: LInjSum, g: LModMorphism):
    """Decompose g: I0 -> I1 into same-layer and crossing blocks."""
    q = I0.spec.base
    m = I0.spec.m
    out = []
    for j, (x, i) in enumerate(I0.members):
        if i < m:
            # read off the generator column of the P(x) piece at layer i+1
            lay = i + 1
            colpos = I0.piece_offset(j, lay, x) + proj_sum_of(q, x).gen_pos(0)
            mat = g.parts[lay].mats[x]
            col = mat.col(colpos) if mat.rows else []
            out += [(j, l, kind, coeffs) for l, kind, coeffs
                    in _generator_blocks(q, I1, i, lay, x, col)]
            continue
        # single-layer member: read rows at the socle coordinate of I(y)
        mats = g.parts[m].mats
        for l, (y, il) in enumerate(I1.members):
            if il != m or not mats[y].rows:
                continue
            rowpos = I1.piece_offset(l, m, y) + inj_sum_of(q, y).pos[y][(0, ())]
            coeffs = _piece_coeffs(mats[y].data[rowpos],
                                   I0.piece_offset(j, m, y),
                                   inj_sum_of(q, x).basis[y])
            if coeffs:
                out.append((j, l, "same", coeffs))
    return out


def nu_inv_linj_morphism(I0: LInjSum, I1: LInjSum, g: LModMorphism):
    """Inverse Nakayama image of g between layered injective sums."""
    spec = I0.spec
    q = spec.base
    P0 = lproj_sum(spec, I0.members)
    P1 = lproj_sum(spec, I1.members)
    contributions = []
    for (j, l, kind, coeffs) in linj_blocks(I0, I1, g):
        x, i = I0.members[j]
        y, _ = I1.members[l]
        if kind == "same":
            contributions.append((j, l, i, _from_coeffs(
                q, x, proj_sum_of(q, y), coeffs)))
            if i > 0:
                contributions.append((j, l, i - 1,
                                      _psi_from_coeffs(q, x, y, coeffs)))
        else:
            contributions.append((j, l, i, _from_coeffs(
                q, x, inj_sum_of(q, y), coeffs)))
    nug = _assemble(P0.module, P1.module, P0, P1, contributions)
    return P0, P1, nug


# ---------------------------------------------------------------------------
# covers, envelopes, syzygies
# ---------------------------------------------------------------------------

def projective_cover_rep(M: LayeredModule):
    """Minimal projective cover (LProjSum, epi)."""
    if M.is_zero():
        raise ZeroModule("cover of the zero module")
    gens = top_data(M)
    P = lproj_sum(M.spec, tuple((v, l) for l, v, _ in gens))
    epi = P.hom_to(M, [col for _, _, col in gens])
    if not epi.is_epi():
        raise ArithmeticError("projective cover failed to be surjective")
    return P, epi


def injective_envelope_rep(M: LayeredModule):
    """Minimal injective envelope (LInjSum, mono)."""
    if M.is_zero():
        raise ZeroModule("envelope of the zero module")
    q = M.quiver
    m = M.spec.m
    soc = socle_data(M)
    members, lams = [], []
    for l in range(m + 1):
        for x in q.vertices:
            s = soc[(l, x)]
            if s.cols:
                for lam in repa._dual_functionals(s, M.layers[l].dim[x]):
                    members.append((x, l))
                    lams.append((x, l, lam))
    I = linj_sum(M.spec, tuple(members))
    comps = []
    for j, (x, l, lam) in enumerate(lams):
        f_l = repa.functional_to_inj_morphism(M.layers[l], x, lam)
        parts = [None] * (m + 1)
        parts[l] = f_l
        if l < m:
            # the P(x) component at layer l+1: row u (a path x -> z) at
            # vertex z is lam read after the dual-path action u*
            up = M.layers[l + 1]
            basis = proj_sum_of(q, x).basis
            mats = {}
            for z in q.vertices:
                rows = [_row_times(lam, dual_path_action(M, l + 1, u, x, z))
                        for _, u in basis[z]]
                mats[z] = QMatrix(len(rows), up.dim[z], rows or None)
            parts[l + 1] = AMorphism(up, projective(q, x), mats)
        comps.append(LModMorphism(M, I.components[j], parts))
    parts = []
    for lay in range(m + 1):
        mats = {}
        for v in q.vertices:
            blocks = [c.parts[lay].mats[v] for c in comps]
            mats[v] = QMatrix.vstack(blocks) if blocks else \
                QMatrix.zeros(0, M.layers[lay].dim[v])
        parts.append(AMorphism(M.layers[lay], I.module.layers[lay], mats))
    mono = LModMorphism(M, I.module, parts)
    if not mono.is_mono():
        raise ArithmeticError("injective envelope failed to be injective")
    return I, mono


def syzygy(M: LayeredModule):
    """Kernel of the minimal projective cover."""
    _, epi = projective_cover_rep(M)
    K, _ = kernel_rep(epi)
    return K


def cosyzygy(M: LayeredModule):
    """Cokernel of the minimal injective envelope."""
    _, mono = injective_envelope_rep(M)
    C, _ = cokernel_rep(mono)
    return C


def is_projective_rep(M: LayeredModule) -> bool:
    """Whether the minimal projective cover, checked onto, is injective:
    whether it has M's dimension."""
    flag = M._cache.get("is_proj")
    if flag is None:
        flag = M.is_zero() or \
            projective_cover_rep(M)[0].module.total_dim() == M.total_dim()
        M._cache["is_proj"] = flag
    return flag


def is_injective_rep(M: LayeredModule) -> bool:
    """Whether the minimal injective envelope, checked one to one, is
    onto: whether it has M's dimension."""
    flag = M._cache.get("is_inj")
    if flag is None:
        flag = M.is_zero() or \
            injective_envelope_rep(M)[0].module.total_dim() == M.total_dim()
        M._cache["is_inj"] = flag
    return flag


def is_proj_inj(M: LayeredModule) -> bool:
    return is_projective_rep(M) and is_injective_rep(M)


# ---------------------------------------------------------------------------
# resolutions, projective dimension, Ext
# ---------------------------------------------------------------------------

@dataclass
class Resolution:
    covers: list        # LProjSum per degree
    diffs: list         # LModMorphism: covers[k].module -> covers[k-1].module
    augment: LModMorphism


def _cover_of_span(P: LProjSum, C):
    """Minimal projective cover of the submodule K spanned by the columns C
    inside P.module, with no module built for K.

    Returns (Q, d, ker): d: Q -> P.module is the cover followed by K's
    inclusion, ker the columns of ker d inside Q.module.  The top is read
    in K's own coordinates, the columns of C standing for its unit
    vectors, so the generators are those projective_cover_rep would take
    on the built K, and d equals its cover composed with the inclusion.
    The cover is onto iff, at each (layer, vertex), rank d = dim K."""
    rad = radical_span(P.module, C)
    gens = [(l, v, col) for (l, v), basis in C.items()
            for col in repa.complement_columns(rad[(l, v)], basis.cols,
                                               within=basis)]
    Q = lproj_sum(P.spec, tuple((v, l) for l, v, _ in gens))
    d = Q.hom_to(P.module, [col for _, _, col in gens])
    ker = _kernel_columns(d)
    for (l, v), basis in C.items():
        if Q.module.layers[l].dim[v] - ker[(l, v)].cols != basis.cols:
            raise ArithmeticError("projective cover failed to be surjective")
    return Q, d, ker


def resolution(M: LayeredModule) -> Resolution:
    """Minimal projective resolution, computed to completion and cached.

    Each syzygy is kept as the kernel columns of the previous differential
    inside the previous cover's shared sum, and covered there."""
    res = M._cache.get("resolution")
    if res is None:
        horizon = 2 * M.spec.m + 2
        P0, eps = projective_cover_rep(M)
        covers, diffs = [P0], []
        ker = _kernel_columns(eps)
        while any(c.cols for c in ker.values()):
            if len(covers) > horizon:
                raise ArithmeticError("resolution exceeded the global "
                                      "dimension bound; implementation bug")
            Pk, d, ker = _cover_of_span(covers[-1], ker)
            covers.append(Pk)
            diffs.append(d)
        res = Resolution(covers, diffs, eps)
        M._cache["resolution"] = res
    return res


def pd_rep(M: LayeredModule) -> int:
    """Projective dimension via the minimal resolution (always finite)."""
    if M.is_zero():
        return 0
    return len(resolution(M).covers) - 1


def _hom_from_proj_dim(P: LProjSum, N: LayeredModule) -> int:
    return sum(N.layers[i].dim[x] for x, i in P.members)


def _ext_differential(P_k: LProjSum, P_km1: LProjSum, d: LModMorphism,
                      N: LayeredModule) -> SparseMatrix:
    """Matrix of Hom(d, N): Hom(P_{k-1}, N) -> Hom(P_k, N) in generator
    coordinates, in sparse rows.  Block (alpha, beta) is sum c_u N(u) for a
    "same" block of lproj_blocks and sum c_u u*_N (dual_path_action) for a
    "cross" one."""
    def offsets(P):
        offs = [0]
        for x, i in P.members:
            offs.append(offs[-1] + N.layers[i].dim[x])
        return offs

    row_offs, col_offs = offsets(P_k), offsets(P_km1)
    rows = [{} for _ in range(row_offs[-1])]
    for alpha, beta, kind, coeffs in lproj_blocks(P_k, P_km1, d):
        x, i = P_k.members[alpha]
        y, _ = P_km1.members[beta]
        co = col_offs[beta]
        for u, c in coeffs.items():
            act = N.layers[i].path_matrix(y, u) if kind == "same" else \
                dual_path_action(N, i + 1, u, x, y)
            for orow, arow in zip(rows[row_offs[alpha]:], act.data):
                for t, a in enumerate(arow):
                    if a:
                        orow[co + t] = orow.get(co + t, _ZERO) + c * a
    return SparseMatrix(col_offs[-1], rows)


def ext_dim(M: LayeredModule, N: LayeredModule, i: int) -> int:
    """dim Ext^i over the replicated algebra, from the minimal resolution:
    dim Hom(P_i, N) less the ranks of Hom(d_i, N) and Hom(d_{i+1}, N).

    The ranks and dimensions are cached per (M, N) on M, keyed like
    hom_basis_rep's bases, so a rank shared by degrees i and i + 1 is
    computed once and a repeated question is a lookup."""
    if i < 1:
        raise ValueError("ext degree must be >= 1")
    cache = M._cache.setdefault("ext", {})
    hit = cache.get(id(N))
    if hit is None or hit[0] is not N:
        hit = cache[id(N)] = (N, {}, {})
    _, ranks, dims = hit
    dim = dims.get(i)
    if dim is None:
        dim = dims[i] = _ext_dim(M, N, i, ranks)
    return dim


def _ext_dim(M, N, i, ranks):
    if M.is_zero() or N.is_zero():
        return 0
    res = resolution(M)
    pd = len(res.covers) - 1
    if i > pd:
        return 0

    def rank(k):
        r = ranks.get(k)
        if r is None:
            r = ranks[k] = _ext_differential(
                res.covers[k], res.covers[k - 1], res.diffs[k - 1], N).rank()
        return r

    return (_hom_from_proj_dim(res.covers[i], N) - rank(i)
            - (rank(i + 1) if i + 1 <= pd else 0))


# ---------------------------------------------------------------------------
# AR translates
# ---------------------------------------------------------------------------

def tau_rep(M: LayeredModule) -> LayeredModule:
    """AR translate: kernel of the Nakayama image of a minimal presentation."""
    if M.is_zero():
        raise ZeroModule("tau of the zero module")
    P0, eps = projective_cover_rep(M)
    ker = _kernel_columns(eps)
    if not any(c.cols for c in ker.values()):
        raise ProjectiveInput("tau undefined on projective modules")
    P1, d, _ = _cover_of_span(P0, ker)
    _, _, nud = nu_lproj_morphism(P1, P0, d)
    T, _ = kernel_rep(nud)
    return T


def tau_inv_rep(M: LayeredModule) -> LayeredModule:
    """Inverse AR translate via a minimal injective copresentation."""
    if M.is_zero():
        raise ZeroModule("tau^{-1} of the zero module")
    I0, iota = injective_envelope_rep(M)
    C, proj = cokernel_rep(iota)
    if C.is_zero():
        raise InjectiveInput("tau^{-1} undefined on injective modules")
    I1, iota1 = injective_envelope_rep(C)
    qmap = lcompose(iota1, proj)
    _, _, nug = nu_inv_linj_morphism(I0, I1, qmap)
    T, _ = cokernel_rep(nug)
    return T


# ---------------------------------------------------------------------------
# decomposition / isomorphism
# ---------------------------------------------------------------------------

def _vertex_blocks(f):
    out = {}
    for l, p in enumerate(f.parts):
        for v, mat in p.mats.items():
            out[(l, v)] = mat
    return out


def _power_split(M, power_blocks):
    parts = []
    for l in range(M.spec.m + 1):
        mats = {v: power_blocks[(l, v)] for v in M.quiver.vertices}
        parts.append(AMorphism(M.layers[l], M.layers[l], mats))
    f = LModMorphism(M, M, parts)
    return [kernel_rep(f), image_rep(f)]


def _release(X):
    """Clear the caches of a split part and of its layers, all of which
    layered_sub made for it alone."""
    X._cache.clear()
    for layer in X.layers:
        layer._cache.clear()


# the layered hook set of the generic splitter, isomorphism test and Gram
# helper; keyed blocks (layer, vertex), layer-major
HOOKS = repa.SplitHooks(lambda X, Y: hom_basis_rep(X, Y), _vertex_blocks,
                        _power_split, _derive_end, _release)


def decompose_rep(M: LayeredModule):
    if M.is_zero():
        raise ZeroModule("decompose of the zero module")
    return repa.generic_decompose(M, HOOKS)


def is_indecomposable_rep(M: LayeredModule) -> bool:
    if M.is_zero():
        raise ZeroModule("zero module is not indecomposable")
    return len(decompose_rep(M)) == 1


def is_iso_rep(M: LayeredModule, N: LayeredModule) -> bool:
    """Whether M and N are isomorphic: exact for any inputs, decomposable
    or not.

    The rule (see repa.generic_is_iso): with equal dimension vectors, M and
    N are isomorphic iff r(M, N)^2 = r(M, M) r(N, N), r being the rank of
    the trace pairing (f, g) -> tr(g f) on Hom(M, N) x Hom(N, M)."""
    return repa.generic_is_iso(M, N, HOOKS)


# ---------------------------------------------------------------------------
# misc structure helpers
# ---------------------------------------------------------------------------

def loewy_series(M: LayeredModule):
    """Radical filtration quotients: list of {(vertex, layer): multiplicity}.

    rad^k M is kept as column bases inside M, each the radical_span of the
    one before."""
    out = []
    cur = {(l, v): QMatrix.identity(M.layers[l].dim[v])
           for l in range(M.spec.m + 1) for v in M.quiver.vertices}
    while any(c.cols for c in cur.values()):
        rad = _radical_columns(M) if not out else radical_span(M, cur)
        layer = {}
        for (l, v), basis in cur.items():
            d = basis.cols - rad[(l, v)].cols
            if d:
                layer[(v, l)] = d
        out.append(layer)
        cur = rad
    return out


def dual_path_action(M: LayeredModule, l: int, qpath, x, y) -> QMatrix:
    """Action M^l(y) -> M^{l-1}(x) of the dual path u* of u = qpath: x -> y,
    the one reader of the connector delta_l as an action on elements.

    An element is lifted to P0(y) of M^l's minimal presentation; u* sends
    a path p: x_s -> y to xi* in I(x_s)(x) when u = xi p and to 0 otherwise,
    and the Nakayama projection and delta_l carry that to M^{l-1}(x).
    Cached per module under (l, qpath, x, y): never mutate the result.
    """
    if l < 1:
        raise ValueError("dual-path action maps layer l >= 1 downward")
    cache = M._cache.setdefault("dual", {})
    key = (l, qpath, x, y)
    act = cache.get(key)
    if act is not None:
        return act
    layer = M.layers[l]
    n, rows = layer.dim[y], M.layers[l - 1].dim[x]
    if n == 0 or rows == 0:
        act = cache[key] = QMatrix.zeros(rows, n)
        return act
    pres = repa.minimal_presentation(layer)
    isum = repa.inj_sum(M.quiver, pres.p0.vertices)
    # any preimages of the unit vectors do: u* is defined on M^l(y)
    lift = pres.pi.mats[y].solve_matrix(QMatrix.identity(n))
    routed = QMatrix.zeros(isum.rep.dim[x], n)
    for idx, (s, p) in enumerate(pres.p0.basis[y]):
        k = len(qpath) - len(p)
        if k < 0 or qpath[k:] != p:
            continue
        target = routed.data[isum.pos[x][(s, qpath[:k])]]
        for r, c in enumerate(lift.data[idx]):
            if c:
                target[r] += c
    act = cache[key] = M.connectors[l].mats[x] * (
        nu_data(layer).proj.mats[x] * routed)
    return act
