"""Representations of the hereditary path algebra.

An ARep assigns a rational vector space to each vertex and a matrix to each
arrow (shape dim(target) x dim(source)).  Projectives are spanned by paths
leaving a vertex, injectives by functionals on paths entering one; the
Nakayama functor, AR translates and (co)syzygies are all computed through
explicit minimal (co)presentations by these path-basis objects, which is what
lets the replicated-algebra layer evaluate the functor blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InjectiveInput, NotSupported, ProjectiveInput, ZeroModule
from .linalg import (Echelon, QMatrix, SparseMatrix, _int_row, frac, quo,
                     span_basis)
from .quiver import Quiver, dynkin_type

_ZERO = 0
_ONE = 1


class ARep:
    """Representation of the base quiver: dims per vertex, matrix per arrow."""

    def __init__(self, quiver: Quiver, dim, mats=None, check=True):
        self.quiver = quiver
        self.dim = {v: int(dim.get(v, 0)) for v in quiver.vertices}
        self.mats = {}
        for a, s, t in quiver.arrows:
            m = None if mats is None else mats.get(a)
            if m is None:
                m = QMatrix.zeros(self.dim[t], self.dim[s])
            self.mats[a] = m
        if check:
            for a, s, t in quiver.arrows:
                m = self.mats[a]
                if (m.rows, m.cols) != (self.dim[t], self.dim[s]):
                    raise ValueError(f"arrow {a}: matrix shape {m.rows}x{m.cols}"
                                     f" != {self.dim[t]}x{self.dim[s]}")
        self._cache = {}

    def total_dim(self):
        return sum(self.dim.values())

    def is_zero(self):
        return self.total_dim() == 0

    def dim_vector(self):
        return tuple(self.dim[v] for v in self.quiver.vertices)

    def path_matrix(self, src, path):
        """Matrix of the action along a path starting at src."""
        m = QMatrix.identity(self.dim[src])
        for a in path:
            m = self.mats[a] * m
        return m

    def __repr__(self):
        return f"ARep{dict(self.dim)}"

    def to_dict(self):
        return {"dim": dict(self.dim),
                "mats": {a: self.mats[a].to_lists() for a, _, _ in self.quiver.arrows}}

    @classmethod
    def from_dict(cls, quiver, d):
        dims = {str(k): int(v) for k, v in d["dim"].items()}
        mats = {}
        for a, s, t in quiver.arrows:
            rows = d.get("mats", {}).get(a)
            if rows is not None:
                mats[a] = QMatrix(dims.get(t, 0), dims.get(s, 0),
                                  rows if rows else None)
        return cls(quiver, dims, mats)


class AMorphism:
    """Morphism of representations: one matrix per vertex."""

    __slots__ = ("src", "tgt", "mats")

    def __init__(self, src: ARep, tgt: ARep, mats):
        self.src = src
        self.tgt = tgt
        self.mats = {v: mats[v] if v in mats
                     else QMatrix.zeros(tgt.dim[v], src.dim[v])
                     for v in src.quiver.vertices}

    @classmethod
    def zero(cls, src, tgt):
        return cls(src, tgt, {})

    @classmethod
    def identity(cls, M):
        return cls(M, M, {v: QMatrix.identity(M.dim[v]) for v in M.quiver.vertices})

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())

    def is_mono(self):
        return all(self.mats[v].rank() == self.src.dim[v]
                   for v in self.src.quiver.vertices)

    def is_epi(self):
        return all(self.mats[v].rank() == self.tgt.dim[v]
                   for v in self.src.quiver.vertices)

    def is_iso(self):
        return all(self.mats[v].is_invertible() for v in self.src.quiver.vertices)

    def commutes(self):
        q = self.src.quiver
        for a, s, t in q.arrows:
            lhs = self.tgt.mats[a] * self.mats[s]
            rhs = self.mats[t] * self.src.mats[a]
            if lhs != rhs:
                return False
        return True

    def add(self, other):
        return AMorphism(self.src, self.tgt,
                         {v: self.mats[v] + other.mats[v] for v in self.mats})

    def scale(self, c):
        return AMorphism(self.src, self.tgt,
                         {v: self.mats[v].scale(c) for v in self.mats})

    def __repr__(self):
        return f"AMorphism({self.src!r} -> {self.tgt!r})"


def compose(g: AMorphism, f: AMorphism) -> AMorphism:
    """g after f."""
    if g.src.dim != f.tgt.dim:
        raise ValueError("composition mismatch")
    return AMorphism(f.src, g.tgt, {v: g.mats[v] * f.mats[v] for v in g.mats})


# ---------------------------------------------------------------------------
# standard modules
# ---------------------------------------------------------------------------

def _rep_cache(q: Quiver):
    cache = getattr(q, "_rep_cache", None)
    if cache is None:
        # setdefault, not assignment: the library starts no thread, but two
        # first callers racing in a caller's threads would each install a
        # dict, and one would cache its sums in a lost one
        cache = vars(q).setdefault("_rep_cache", {})
    return cache


def shared(q: Quiver, key, build):
    """Value cached on q under key, built on a miss; the first stored wins."""
    cache = _rep_cache(q)
    hit = cache.get(key)
    if hit is None:
        hit = cache.setdefault(key, build())
    return hit


def simple(q: Quiver, x) -> ARep:
    return shared(q, ("S", x), lambda: ARep(q, {x: 1}))


class ProjSum:
    """Direct sum of indecomposable projectives P(x), one per listed vertex.

    Basis at vertex z: pairs (summand index j, path x_j -> z), ordered by j
    then by the quiver's deterministic path order.  Instances come from
    proj_sum() and are shared per quiver: never mutate them or their rep.
    """

    def __init__(self, quiver: Quiver, vertices):
        self.quiver = quiver
        self.vertices = tuple(vertices)
        paths = quiver.paths()
        self.basis = {}
        self.pos = {}
        dims = {}
        for z in quiver.vertices:
            items = []
            for j, x in enumerate(self.vertices):
                for p in paths[(x, z)]:
                    items.append((j, p))
            self.basis[z] = items
            self.pos[z] = {bp: i for i, bp in enumerate(items)}
            dims[z] = len(items)
        mats = {}
        for a, s, t in quiver.arrows:
            m = QMatrix.zeros(dims[t], dims[s])
            for col, (j, p) in enumerate(self.basis[s]):
                row = self.pos[t][(j, p + (a,))]
                m.data[row][col] = _ONE
            mats[a] = m
        self.rep = ARep(quiver, dims, mats)
        self._preset_caches()

    def gen_pos(self, j):
        return self.pos[self.vertices[j]][(j, ())]

    def hom_to(self, M: ARep, gen_cols) -> AMorphism:
        """The morphism sending the j-th generator to gen_cols[j] in M."""
        q = self.quiver
        vecs = {z: {} for z in q.vertices}
        # paths out of each generator, walked with an explicit stack: a
        # recursive closure would be a reference cycle holding vecs until
        # the cyclic collector runs
        stack = [(j, x, (), [frac(c) for c in gen_cols[j]])
                 for j, x in enumerate(self.vertices)]
        while stack:
            j, here, path, vec = stack.pop()
            if not any(vec):
                continue   # the whole subtree stays zero
            vecs[here][(j, path)] = vec
            for a in q.out_arrows[here]:
                stack.append((j, q.arrow_tgt[a], path + (a,),
                              M.mats[a].apply(vec)))
        mats = {}
        for z in self.quiver.vertices:
            zero = [_ZERO] * M.dim[z]
            cols = [vecs[z].get(bp, zero) for bp in self.basis[z]]
            mats[z] = QMatrix.from_cols(cols, rows=M.dim[z])
        return AMorphism(self.rep, M, mats)

    def _preset_caches(self):
        rep = self.rep
        empty = proj_sum(self.quiver, ()) if self.vertices else self
        # minimal presentation of a projective is itself
        rep._cache["pres"] = Presentation(empty, self,
                                          AMorphism.zero(empty.rep, rep),
                                          AMorphism.identity(rep))
        inj = inj_sum(self.quiver, self.vertices)
        ident = AMorphism.identity(inj.rep)
        rep._cache["nu"] = NuData(inj.rep, inj, ident, ident.mats)


class InjSum:
    """Direct sum of indecomposable injectives I(x), one per listed vertex.

    Basis at vertex z: pairs (summand index j, path z -> x_j); the arrow
    action is the transpose of path extension.  Instances come from
    inj_sum() and are shared per quiver: never mutate them or their rep.
    """

    def __init__(self, quiver: Quiver, vertices):
        self.quiver = quiver
        self.vertices = tuple(vertices)
        paths = quiver.paths()
        self.basis = {}
        self.pos = {}
        dims = {}
        for z in quiver.vertices:
            items = []
            for j, x in enumerate(self.vertices):
                for p in paths[(z, x)]:
                    items.append((j, p))
            self.basis[z] = items
            self.pos[z] = {bp: i for i, bp in enumerate(items)}
            dims[z] = len(items)
        mats = {}
        for a, s, t in quiver.arrows:
            m = QMatrix.zeros(dims[t], dims[s])
            for col, (j, p) in enumerate(self.basis[s]):
                # p runs s -> x_j; contributes to row (j, q) with p == (a,)+q
                if p and p[0] == a:
                    row = self.pos[t][(j, p[1:])]
                    m.data[row][col] = _ONE
            mats[a] = m
        self.rep = ARep(quiver, dims, mats)


def proj_sum(q: Quiver, vertices) -> ProjSum:
    """The ProjSum of the vertex tuple, built once per quiver."""
    return shared(q, ("P", vertices), lambda: ProjSum(q, vertices))


def inj_sum(q: Quiver, vertices) -> InjSum:
    """The InjSum of the vertex tuple, built once per quiver."""
    return shared(q, ("I", vertices), lambda: InjSum(q, vertices))


def projective(q: Quiver, x) -> ARep:
    return proj_sum(q, (x,)).rep


def proj_sum_of(q: Quiver, x) -> ProjSum:
    return proj_sum(q, (x,))


def injective(q: Quiver, x) -> ARep:
    return inj_sum(q, (x,)).rep


def inj_sum_of(q: Quiver, x) -> InjSum:
    return inj_sum(q, (x,))


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

def hom_basis(M: ARep, N: ARep):
    """Basis of Hom(M, N): solutions of the commuting-square system."""
    cache = M._cache.setdefault("hom", {})
    hit = cache.get(id(N))
    if hit is not None and hit[0] is N:
        return hit[1]
    q = M.quiver
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += N.dim[v] * M.dim[v]
    if total == 0:
        basis = []
    else:
        # one equation per arrow a: s -> t and entry (i, jj) of
        # N(a) h_s - h_t M(a), in sparse rows: on large modules the system
        # is mostly zeros
        rows = []
        for a, s, t in q.arrows:
            na, ma = N.mats[a].data, M.mats[a].data
            ms, mt = M.dim[s], M.dim[t]
            for i in range(N.dim[t]):
                for jj in range(ms):
                    row = {}
                    for k, c in enumerate(na[i]):
                        if c:
                            row[offsets[s] + k * ms + jj] = c
                    for l in range(mt):
                        c = ma[l][jj]
                        if c:
                            col = offsets[t] + i * mt + l
                            row[col] = row.get(col, _ZERO) - c
                    rows.append(row)
        ker = SparseMatrix(total, rows).kernel_basis()
        basis = _morphisms(M, N, [ker.col(c) for c in range(ker.cols)])
    cache[id(N)] = (N, basis)
    return basis


def _morphisms(M: ARep, N: ARep, vecs):
    """Morphisms M -> N from vectors in hom_basis's coordinates: the vertex
    blocks in quiver order, each block row-major."""
    out = []
    for vec in vecs:
        mats, base = {}, 0
        for v in M.quiver.vertices:
            cols = M.dim[v]
            rows = [vec[base + i * cols:base + (i + 1) * cols]
                    for i in range(N.dim[v])]
            mats[v] = QMatrix(N.dim[v], cols, rows or None)
            base += N.dim[v] * cols
        out.append(AMorphism(M, N, mats))
    return out


def derive_end_a(M: ARep, end, X: ARep, incl, proj):
    """End(X) for a direct summand X of M, derived from end, a basis of
    End(M), and cached as hom_basis(X, X) would cache it.

    incl and proj hold the vertex blocks of the inclusion X -> M and of the
    projection M -> X along the other summands.  End(X) is spanned by
    proj e incl over e in end; span_basis reduces that spanning set,
    flattened in hom_basis's coordinates, to the very basis that hom_basis
    solves for, since that basis depends only on the space."""
    vecs = []
    for e in end:
        vec = []
        for v in M.quiver.vertices:
            for row in (proj[v] * e.mats[v] * incl[v]).data:
                vec.extend(row)
        vecs.append(vec)
    n = sum(d * d for d in X.dim.values())
    basis = _morphisms(X, X, span_basis(vecs, n))
    X._cache.setdefault("hom", {})[id(X)] = (X, basis)
    return basis


def hom_dim(M, N):
    return len(hom_basis(M, N))


# ---------------------------------------------------------------------------
# sub/quotient machinery
# ---------------------------------------------------------------------------

def sub_from_columns(M: ARep, cols):
    """Subrepresentation spanned (vertexwise) by the given column matrices.

    cols: dict vertex -> QMatrix whose columns lie in M(v) and are assumed
    closed under the arrow action; the induced maps are solved exactly.
    """
    q = M.quiver
    bases = {v: cols[v] for v in q.vertices}
    dims = {v: bases[v].cols for v in q.vertices}
    mats = {}
    for a, s, t in q.arrows:
        img = M.mats[a] * bases[s]
        mats[a] = bases[t].solve_matrix(img)
    K = ARep(q, dims, mats)
    incl = AMorphism(K, M, {v: bases[v] for v in q.vertices})
    return K, incl


def kernel_of_morphism(f: AMorphism):
    cols = {v: f.mats[v].kernel_basis() for v in f.src.quiver.vertices}
    return sub_from_columns(f.src, cols)


def image_of_morphism(f: AMorphism):
    cols = {v: f.mats[v].column_space_basis() for v in f.src.quiver.vertices}
    return sub_from_columns(f.tgt, cols)


def cokernel_of_morphism(f: AMorphism):
    """Returns (C, proj, sect) with proj: tgt -> C onto, sect a linear section."""
    q = f.src.quiver
    N = f.tgt
    projs, sects, dims = {}, {}, {}
    for v in q.vertices:
        P = f.mats[v].cokernel_projection()
        projs[v] = P
        dims[v] = P.rows
        sects[v] = P.solve_matrix(QMatrix.identity(P.rows)) if P.rows else \
            QMatrix.zeros(N.dim[v], 0)
    mats = {}
    for a, s, t in q.arrows:
        mats[a] = projs[t] * N.mats[a] * sects[s]
    C = ARep(q, dims, mats)
    proj = AMorphism(N, C, projs)
    return C, proj, sects


def radical_columns(M: ARep):
    """Columns spanning rad M = sum of arrow images, per vertex."""
    q = M.quiver
    out = {}
    for v in q.vertices:
        incoming = [M.mats[a] for a in q.in_arrows[v] if M.mats[a].cols]
        if incoming:
            out[v] = QMatrix.hstack(incoming).column_space_basis()
        else:
            out[v] = QMatrix.zeros(M.dim[v], 0)
    return out


def complement_columns(span: QMatrix, dim: int, within=None):
    """Greedy unit vectors completing the span to all of Q^dim: e_i is
    chosen, in order, exactly when it raises the rank of the span so far.

    With within, dim independent columns whose span contains span's, the
    greedy runs over within's columns in place of the unit vectors: the
    i-th is chosen exactly when e_i would be in within's own coordinates,
    so a subspace given by a basis gets the generators it would get as a
    space of its own."""
    ech = Echelon(dim if within is None else within.rows)
    for c in range(span.cols):
        ech.add(span.col(c))
    chosen = []
    for i in range(dim):
        if ech.rank == dim:
            break
        if within is None:
            e = [_ZERO] * dim
            e[i] = _ONE
        else:
            e = within.col(i)
        if ech.add(e):
            chosen.append(e)
    return chosen


def top_generators(M: ARep):
    """(vertex, column) pairs projecting to a basis of M/rad M."""
    rad = radical_columns(M)
    gens = []
    for v in M.quiver.vertices:
        for col in complement_columns(rad[v], M.dim[v]):
            gens.append((v, col))
    return gens


@dataclass
class Presentation:
    p1: ProjSum
    p0: ProjSum
    d: AMorphism    # p1.rep -> p0.rep
    pi: AMorphism   # p0.rep -> M


@dataclass
class NuData:
    nuM: ARep
    nu_p0: InjSum
    proj: AMorphism            # nu_p0.rep -> nuM
    sect: dict                 # vertex -> section matrix nuM(v) -> nu_p0(v)


@dataclass
class Copresentation:
    i0: InjSum
    i1: InjSum
    iota: AMorphism  # M -> i0.rep
    q: AMorphism     # i0.rep -> i1.rep


def projective_cover_a(M: ARep):
    gens = top_generators(M)
    P0 = proj_sum(M.quiver, tuple(v for v, _ in gens))
    pi = P0.hom_to(M, [col for _, col in gens])
    if not pi.is_epi():
        raise ArithmeticError("projective cover failed to be surjective")
    return P0, pi


def minimal_presentation(M: ARep) -> Presentation:
    pres = M._cache.get("pres")
    if pres is not None:
        return pres
    P0, pi = projective_cover_a(M)
    K, incl = kernel_of_morphism(pi)
    P1, piK = projective_cover_a(K)
    if P1.rep.total_dim() != K.total_dim():
        raise ArithmeticError("syzygy of a module over a hereditary algebra "
                              "must be projective")
    d = compose(incl, piK)
    pres = Presentation(P1, P0, d, pi)
    M._cache["pres"] = pres
    return pres


def socle_columns(M: ARep):
    q = M.quiver
    out = {}
    for v in q.vertices:
        outgoing = [M.mats[a] for a in q.out_arrows[v]]
        if outgoing:
            out[v] = QMatrix.vstack(outgoing).kernel_basis()
        else:
            out[v] = QMatrix.identity(M.dim[v])
    return out


def _dual_functionals(span: QMatrix, dim: int):
    """Rows: functionals dual to the columns of span (zero on a complement)."""
    comp = complement_columns(span, dim)
    T = QMatrix.hstack([span] + [QMatrix.from_cols([c]) for c in comp]) \
        if comp else span
    Tinv = T.inverse()
    return [Tinv.data[i] for i in range(span.cols)]


def functional_to_inj_morphism(M: ARep, x, lam) -> AMorphism:
    """The morphism M -> I(x) attached to a functional lam on M(x):
    v at vertex z maps to the functional q |-> lam(M(q) v) on paths z -> x."""
    q = M.quiver
    isum = inj_sum_of(q, x)
    tgt = isum.rep
    mats = {}
    for z in q.vertices:
        rows = []
        for (_, p) in isum.basis[z]:
            pm = M.path_matrix(z, p)  # M(z) -> M(x)
            lamrow = QMatrix(1, M.dim[x], [list(lam)] if M.dim[x] else None)
            rows.append((lamrow * pm).data[0])
        mats[z] = QMatrix(len(rows), M.dim[z], rows if rows else None)
    return AMorphism(M, tgt, mats)


def injective_envelope_a(M: ARep):
    soc = socle_columns(M)
    q = M.quiver
    comps = []
    summands = []
    for x in q.vertices:
        if soc[x].cols:
            for lam in _dual_functionals(soc[x], M.dim[x]):
                summands.append(x)
                comps.append(functional_to_inj_morphism(M, x, lam))
    I0 = inj_sum(q, tuple(summands))
    mats = {}
    for z in q.vertices:
        rows = []
        for (j, p) in I0.basis[z]:
            x = summands[j]
            ridx = inj_sum_of(q, x).pos[z][(0, p)]
            rows.append(list(comps[j].mats[z].data[ridx]))
        mats[z] = QMatrix(len(rows), M.dim[z], rows if rows else None)
    iota = AMorphism(M, I0.rep, mats)
    if not iota.is_mono():
        raise ArithmeticError("injective envelope failed to be injective")
    return I0, iota


def injective_copresentation(M: ARep) -> Copresentation:
    cop = M._cache.get("copres")
    if cop is not None:
        return cop
    I0, iota = injective_envelope_a(M)
    C, proj, _ = cokernel_of_morphism(iota)
    if C.is_zero():
        I1 = inj_sum(M.quiver, ())
        qmap = AMorphism.zero(I0.rep, I1.rep)
    else:
        I1, iota2 = injective_envelope_a(C)
        qmap = compose(iota2, proj)
    cop = Copresentation(I0, I1, iota, qmap)
    M._cache["copres"] = cop
    return cop


def is_projective_a(M: ARep) -> bool:
    return not minimal_presentation(M).p1.vertices


def is_injective_a(M: ARep) -> bool:
    return not injective_copresentation(M).i1.vertices


# ---------------------------------------------------------------------------
# the Nakayama functor
# ---------------------------------------------------------------------------

def nu_projsum_morphism(src: ProjSum, tgt: ProjSum, f: AMorphism) -> AMorphism:
    """Image of a map between projective sums under the Nakayama functor.

    Block P(x_j) -> P(y_l) with path coefficients c_u (u: y_l -> x_j) maps to
    the dual of postcomposition by u between the injective sums.
    """
    q = src.quiver
    nsrc = inj_sum(q, src.vertices)
    ntgt = inj_sum(q, tgt.vertices)
    # coefficients per source summand: list of (tgt summand, path u, coeff)
    coeffs = [[] for _ in src.vertices]
    for j, x in enumerate(src.vertices):
        col = f.mats[x].col(src.gen_pos(j)) if f.mats[x].rows else []
        for r, c in enumerate(col):
            if c:
                l, u = tgt.basis[x][r]
                coeffs[j].append((l, u, c))
    mats = {}
    for w in q.vertices:
        m = QMatrix.zeros(ntgt.rep.dim[w], nsrc.rep.dim[w])
        for cidx, (j, qt) in enumerate(nsrc.basis[w]):
            for (l, u, c) in coeffs[j]:
                k = len(u)
                if k == 0:
                    qq = qt
                elif len(qt) >= k and qt[len(qt) - k:] == u:
                    qq = qt[:len(qt) - k]
                else:
                    continue
                ridx = ntgt.pos[w].get((l, qq))
                if ridx is not None:
                    m.data[ridx][cidx] += c
        mats[w] = m
    return AMorphism(nsrc.rep, ntgt.rep, mats)


def nu_inv_injsum_morphism(src: InjSum, tgt: InjSum, g: AMorphism) -> AMorphism:
    """Inverse Nakayama on a map between injective sums (read off at sockets)."""
    q = src.quiver
    psrc = proj_sum(q, src.vertices)
    ptgt = proj_sum(q, tgt.vertices)
    coeffs = [[] for _ in src.vertices]
    for l, y in enumerate(tgt.vertices):
        ridx = tgt.pos[y][(l, ())]
        row = g.mats[y].data[ridx] if g.mats[y].rows else []
        for cidx, c in enumerate(row):
            if c:
                j, u = src.basis[y][cidx]  # u: y -> x_j
                coeffs[j].append((l, u, c))
    mats = {}
    for z in q.vertices:
        m = QMatrix.zeros(ptgt.rep.dim[z], psrc.rep.dim[z])
        for cidx, (j, p) in enumerate(psrc.basis[z]):
            for (l, u, c) in coeffs[j]:
                ridx = ptgt.pos[z].get((l, u + p))
                if ridx is not None:
                    m.data[ridx][cidx] += c
        mats[z] = m
    return AMorphism(psrc.rep, ptgt.rep, mats)


def nu_data(M: ARep) -> NuData:
    nd = M._cache.get("nu")
    if nd is not None:
        return nd
    pres = minimal_presentation(M)
    nu_p0 = inj_sum(M.quiver, pres.p0.vertices)
    nu_p1 = inj_sum(M.quiver, pres.p1.vertices)
    nud = nu_projsum_morphism(pres.p1, pres.p0, pres.d)
    # the nu image is the cokernel of nud, with chosen projection and section
    C, proj, sects = cokernel_of_morphism(
        AMorphism(nu_p1.rep, nu_p0.rep, nud.mats))
    nd = NuData(C, nu_p0, proj, sects)
    M._cache["nu"] = nd
    return nd


def nu_module(M: ARep) -> ARep:
    """M tensored with the dual of the algebra (right exact)."""
    return nu_data(M).nuM


def nu_morphism(f: AMorphism) -> AMorphism:
    """Functorial Nakayama image of an arbitrary morphism."""
    M, N = f.src, f.tgt
    pm, pn = minimal_presentation(M), minimal_presentation(N)
    ndm, ndn = nu_data(M), nu_data(N)
    gen_images = []
    for j, x in enumerate(pm.p0.vertices):
        gm = pm.pi.mats[x].col(pm.p0.gen_pos(j))
        target = f.mats[x].apply(gm)
        gen_images.append(pn.pi.mats[x].solve(target))
    f0 = pm.p0.hom_to(pn.p0.rep, gen_images)
    nuf0 = nu_projsum_morphism(pm.p0, pn.p0, f0)
    mats = {v: ndn.proj.mats[v] * nuf0.mats[v] * ndm.sect[v]
            for v in M.quiver.vertices}
    return AMorphism(ndm.nuM, ndn.nuM, mats)


# ---------------------------------------------------------------------------
# AR translates
# ---------------------------------------------------------------------------

def tau_a(M: ARep) -> ARep:
    if M.is_zero():
        raise ZeroModule("tau of the zero module")
    pres = minimal_presentation(M)
    if not pres.p1.vertices:
        raise ProjectiveInput("tau undefined on projectives")
    nud = nu_projsum_morphism(pres.p1, pres.p0, pres.d)
    K, _ = kernel_of_morphism(nud)
    return K


def tau_inv_a(M: ARep) -> ARep:
    if M.is_zero():
        raise ZeroModule("tau^{-1} of the zero module")
    cop = injective_copresentation(M)
    if not cop.i1.vertices:
        raise InjectiveInput("tau^{-1} undefined on injectives")
    nuq = nu_inv_injsum_morphism(cop.i0, cop.i1, cop.q)
    C, _, _ = cokernel_of_morphism(nuq)
    return C


# ---------------------------------------------------------------------------
# direct sums with aligned caches
# ---------------------------------------------------------------------------

def direct_sum_areps(reps):
    """Block direct sum whose presentation and Nakayama caches are the block
    concatenations of the summands' (so connectors of layered sums align)."""
    reps = list(reps)
    D = direct_sum_plain(reps)
    q = D.quiver
    pres_list = [minimal_presentation(r) for r in reps]
    P0 = proj_sum(q, tuple(x for p in pres_list for x in p.p0.vertices))
    P1 = proj_sum(q, tuple(x for p in pres_list for x in p.p1.vertices))
    d = AMorphism(P1.rep, P0.rep,
                  {v: QMatrix.block_diag([p.d.mats[v] for p in pres_list])
                   for v in q.vertices})
    pi = AMorphism(P0.rep, D,
                   {v: QMatrix.block_diag([p.pi.mats[v] for p in pres_list])
                    for v in q.vertices})
    D._cache["pres"] = Presentation(P1, P0, d, pi)
    nds = [nu_data(r) for r in reps]
    nuD = direct_sum_plain([nd.nuM for nd in nds])
    nu_p0 = inj_sum(q, P0.vertices)
    proj = AMorphism(nu_p0.rep, nuD,
                     {v: QMatrix.block_diag([nd.proj.mats[v] for nd in nds])
                      for v in q.vertices})
    sect = {v: QMatrix.block_diag([nd.sect[v] for nd in nds])
            for v in q.vertices}
    D._cache["nu"] = NuData(nuD, nu_p0, proj, sect)
    return D


def direct_sum_plain(reps):
    """Block direct sum of the reps, summand by summand at every vertex."""
    reps = list(reps)
    q = reps[0].quiver
    dims = {v: sum(r.dim[v] for r in reps) for v in q.vertices}
    mats = {a: QMatrix.block_diag([r.mats[a] for r in reps])
            for a, _, _ in q.arrows}
    return ARep(q, dims, mats)


# ---------------------------------------------------------------------------
# indecomposability, decomposition, isomorphism
# ---------------------------------------------------------------------------

def char_poly(m: QMatrix):
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    m is reduced by similarity to upper Hessenberg form H, and the
    characteristic polynomials p_k of H's leading k x k minors follow from
    p_k = (x - h_kk) p_(k-1) - sum_(i<k) h_ik h_(k,k-1)...h_(i+1,i) p_(i-1)
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9):
    O(n^3) exact operations, on plain ints wherever the entries are
    integral."""
    n = m.rows
    H = [list(row) for row in m.data]
    for k in range(1, n - 1):
        r = next((r for r in range(k, n) if H[r][k - 1]), None)
        if r is None:
            continue
        if r != k:
            H[r], H[k] = H[k], H[r]
            for row in H:
                row[r], row[k] = row[k], row[r]
        pk, t = H[k], H[k][k - 1]
        for i in range(k + 1, n):
            u = quo(H[i][k - 1], t)
            if u:
                hi = H[i]
                for j in range(k - 1, n):
                    if pk[j]:
                        hi[j] -= u * pk[j]
                for row in H:
                    if row[i]:
                        row[k] += u * row[i]
    # p[k] lists the coefficients of p_k, lowest degree first
    p = [[_ONE]]
    for k in range(n):
        nxt = [_ZERO] + p[k]
        for d, c in enumerate(p[k]):
            nxt[d] -= H[k][k] * c
        t = _ONE
        for i in range(k - 1, -1, -1):
            t *= H[i + 1][i]
            if not t:
                break
            f = H[i][k] * t
            if f:
                for d, c in enumerate(p[i]):
                    nxt[d] -= f * c
        p.append(nxt)
    return p[n][::-1]


def _poly_divmod(a, b):
    """Quotient and remainder of a by b, int or Fraction coefficients
    highest degree first (b's leading one nonzero); each quotient is exact
    (quo) and the remainder's leading zeros are stripped."""
    a, quot = list(a), []
    while len(a) >= len(b):
        q = quo(a[0], b[0])
        quot.append(q)
        if q:
            for i in range(1, len(b)):
                a[i] -= q * b[i]
        a.pop(0)
    while a and not a[0]:
        a.pop(0)
    return quot, a


def _divisors(x):
    """The positive divisors of x != 0, by trial division up to sqrt|x|."""
    x = abs(x)
    small, large = [], []
    d = 1
    while d * d <= x:
        if x % d == 0:
            small.append(d)
            if d * d != x:
                large.append(x // d)
        d += 1
    return small + large[::-1]


def rational_roots(coeffs):
    """All rational roots of the polynomial with the given coefficients
    (highest degree first), sorted.

    The candidates p/q of the rational root theorem are read off the
    square-free part f / gcd(f, f'), which has the same roots and, for a
    repeated root such as that of a scalar block, far smaller coefficients.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if all(c == 0 for c in coeffs):
        return [_ZERO]
    roots = set()
    while coeffs[-1] == 0:
        roots.add(_ZERO)
        coeffs = coeffs[:-1]
    if len(coeffs) > 1:
        deg = len(coeffs) - 1
        deriv = [c * (deg - i) for i, c in enumerate(coeffs[:-1])]
        a, b = coeffs, deriv
        while b:
            a, b = b, _poly_divmod(a, b)[1]
        ints = _int_row(_poly_divmod(coeffs, a)[0])
        lead, const = ints[0], ints[-1]
        for p in _divisors(const):
            for qd in _divisors(lead):
                for cand in (Fraction(p, qd), Fraction(-p, qd)):
                    acc = _ZERO
                    for c in ints:
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)


def _gram_matrix(left, right, vertex_blocks):
    """Gram matrix G[i][j] = tr(left[i] right[j]) of the trace form.

    The trace is read off the vertex blocks, never from a composite:
    tr(g f) = sum over blocks of sum_ab g_ab f_ba.  Each left element is
    flattened row-major and each right element transposed, once, and an
    entry is a dot product over the left vector's nonzero entries.  Blocks
    go in the insertion order of the first left element's dict; every
    element must have the same keys and block shapes that pair.  Only when
    left is right (a basis of End(M)) is just j >= i computed and mirrored,
    as tr(f g) = tr(g f); for distinct lists every entry is computed.

    On End(M) the rank is the dimension of the semisimple quotient
    (faithful action, characteristic zero); its kernel is rad End(M)."""
    G = QMatrix(len(left), len(right))
    if not left or not right:
        return G
    shapes = {k: (m.rows, m.cols) for k, m in vertex_blocks(left[0]).items()}

    def flat(f, transposed):
        blocks = vertex_blocks(f)
        if blocks.keys() != shapes.keys():
            raise ValueError(f"vertex blocks {list(blocks)} do not pair "
                             f"with {list(shapes)}")
        out = []
        for k, shape in shapes.items():
            m = blocks[k]
            if ((m.cols, m.rows) if transposed else (m.rows, m.cols)) != shape:
                raise ValueError(f"vertex block {k!r} of shape "
                                 f"{m.rows}x{m.cols} does not pair with "
                                 f"{shape[0]}x{shape[1]}")
            out.extend(x for line in (zip(*m.data) if transposed else m.data)
                       for x in line)
        return out

    rows = [[(k, a) for k, a in enumerate(flat(g, False)) if a] for g in left]
    cols = [flat(f, True) for f in right]
    symmetric = right is left
    for i, nonzero in enumerate(rows):
        row = G.data[i]
        for j in range(i if symmetric else 0, len(cols)):
            vec = cols[j]
            row[j] = sum([a * vec[k] for k, a in nonzero], _ZERO)
            if symmetric:
                G.data[j][i] = row[j]
    return G


class SplitHooks:
    """Callbacks a module category supplies to the generic splitter and the
    generic isomorphism test.  vertex_blocks(f) is the dict of f's matrices,
    one per vertex (per layer and vertex for layered modules), in a fixed
    order; _gram_matrix reads traces of composites off it.  hom_basis(X, Y)
    must look up the category's Hom routine at call time, so that a wrapper
    installed on that routine sees every call.  power_split(M, power) makes
    new modules: it returns the (part, inclusion into M) pairs of a direct
    sum decomposition of M.  derive_end(M, end, X, incl, proj) caches
    End(X) of such a part, derived from end, M's End basis, through the
    vertex blocks of X's inclusion and projection, exactly as
    hom_basis(X, X) would solve it.  release(X) clears the caches of a
    part once the splitter drops it."""

    def __init__(self, hom_basis, vertex_blocks, power_split, derive_end,
                 release):
        self.hom_basis = hom_basis
        self.vertex_blocks = vertex_blocks
        self.power_split = power_split
        self.derive_end = derive_end
        self.release = release


_COMBOS = 24


def _combo_coeffs(k, n):
    """The k-th fixed combination (k = 1.._COMBOS) of n basis elements:
    entry i is a(i + 1) + b i^2 modulo 7, shifted into [-3, 3], where
    k = 7b + a.  Distinct k give distinct vectors once n >= 3."""
    b, a = divmod(k, 7)
    return [(a * (i + 1) + b * i * i) % 7 - 3 for i in range(n)]


def _split_candidates(end, vertex_blocks):
    """Vertex blocks of the endomorphisms the splitter tries: the basis
    elements, then the _COMBOS fixed integer combinations of them."""
    blocks = [vertex_blocks(e) for e in end]
    yield from blocks
    for k in range(1, _COMBOS + 1):
        acc = None
        for c, b in zip(_combo_coeffs(k, len(blocks)), blocks):
            if c == 0:
                continue
            b = {key: m.scale(c) for key, m in b.items()}
            acc = b if acc is None else {key: acc[key] + b[key] for key in acc}
        if acc is not None:
            yield acc


def _split(M, hooks: SplitHooks):
    """The parts of one split of M, or None if M is indecomposable."""
    end = hooks.hom_basis(M, M)
    if len(end) == 1:
        return None
    if _gram_matrix(end, end, hooks.vertex_blocks).rank() == 1:
        return None
    total_dim = M.total_dim()
    for blocks in _split_candidates(end, hooks.vertex_blocks):
        eigs = set()
        for m in blocks.values():
            if m.rows:
                eigs.update(rational_roots(char_poly(m)))
        for lam in sorted(eigs):
            shifted = {k: m - QMatrix.identity(m.rows).scale(lam)
                       for k, m in blocks.items()}
            steps = max(1, total_dim.bit_length())
            power = shifted
            for _ in range(steps):
                power = {k: power[k] * power[k] for k in power}
            kdim = sum(m.cols - m.rank() for m in power.values())
            if 0 < kdim < total_dim:
                return _split_parts(M, end, hooks.power_split(M, power),
                                    hooks)
    raise ArithmeticError("failed to split a module with non-local "
                          "endomorphism ring")


def _split_parts(M, end, parts, hooks: SplitHooks):
    """The parts of M's split, each with its End basis derived from end,
    M's End basis.

    M is the direct sum of the parts, so blockwise the inclusions side by
    side form an invertible matrix, and the rows of its inverse are the
    projections onto the parts along the others."""
    incls = [hooks.vertex_blocks(incl) for _, incl in parts]
    projs = [{} for _ in parts]
    for key in incls[0]:
        inv = QMatrix.hstack([incl[key] for incl in incls]).inverse()
        row = 0
        for incl, proj in zip(incls, projs):
            n = incl[key].cols
            proj[key] = QMatrix(n, inv.cols, inv.data[row:row + n])
            row += n
    for (X, _), incl, proj in zip(parts, incls, projs):
        hooks.derive_end(M, end, X, incl, proj)
    return [X for X, _ in parts]


def generic_decompose(M, hooks: SplitHooks):
    """Indecomposable summands of M, depth first in split order.

    A part that splits again is dropped, and hooks.release frees its
    caches at once: its cached End basis refers back to it, so the part
    would otherwise live on as a reference cycle until the cyclic
    collector ran, and the End bases of a whole chain of splits would
    pile up."""
    out, todo = [], [M]
    while todo:
        X = todo.pop()
        parts = _split(X, hooks)
        if parts is None:
            out.append(X)
            continue
        if X is not M:
            hooks.release(X)
        todo.extend(reversed(parts))
    return out


def generic_is_iso(M, N, hooks: SplitHooks) -> bool:
    """Whether M and N are isomorphic, decided exactly.

    After the shortcuts (the same object, dimension vectors, zero module,
    empty Hom(M, N), an invertible basis element of Hom(M, N)) it compares
    ranks of trace pairings: r(X, Y) is the rank of (f, g) -> tr(g f) on
    Hom(X, Y) x Hom(Y, X).  Composites through radical morphisms are
    nilpotent, so with M = sum X_i^a_i and N = sum X_i^b_i,
    r(M, N) = sum a_i b_i d_i (d_i = dim End(X_i)/rad, the trace form being
    nondegenerate in characteristic zero).  By Cauchy-Schwarz
    r(M, N)^2 = r(M, M) r(N, N) iff a and b are proportional, and equal
    dimension vectors make them equal.  For indecomposable M the rule says
    the pairing is nonzero.
    """
    if M is N:
        return True
    if M.dim_vector() != N.dim_vector():
        return False
    if M.total_dim() == 0:
        return True
    there = hooks.hom_basis(M, N)
    if not there:
        return False
    if any(f.is_iso() for f in there):
        return True
    return _pairing_ranks_match(M, N, hooks)


def _pairing_ranks_match(M, N, hooks: SplitHooks) -> bool:
    """r(M, N)^2 == r(M, M) r(N, N) for nonzero M, N of equal dimension
    vectors: the exact rule of generic_is_iso, without its shortcuts."""
    def r(X, Y):
        # rows g in Hom(Y, X), columns f in Hom(X, Y): tr(g f), and the
        # transpose has the same rank
        return _gram_matrix(hooks.hom_basis(Y, X), hooks.hom_basis(X, Y),
                            hooks.vertex_blocks).rank()
    return r(M, N) ** 2 == r(M, M) * r(N, N)


def _a_power_split(M, power_blocks):
    f = AMorphism(M, M, power_blocks)
    return [kernel_of_morphism(f), image_of_morphism(f)]


_A_HOOKS = SplitHooks(lambda X, Y: hom_basis(X, Y), lambda f: dict(f.mats),
                      _a_power_split, derive_end_a,
                      lambda X: X._cache.clear())


def decompose_a(M: ARep):
    """Indecomposable summands of M (Krull-Schmidt representatives)."""
    if M.is_zero():
        raise ZeroModule("decompose of the zero module")
    return generic_decompose(M, _A_HOOKS)


def is_indecomposable_a(M: ARep) -> bool:
    if M.is_zero():
        raise ZeroModule("zero module is not indecomposable")
    return len(decompose_a(M)) == 1


def is_iso_a(M: ARep, N: ARep) -> bool:
    """Whether M and N are isomorphic: exact for any inputs, decomposable
    or not.

    The rule (see generic_is_iso): with equal dimension vectors, M and N
    are isomorphic iff r(M, N)^2 = r(M, M) r(N, N), r being the rank of
    the trace pairing (f, g) -> tr(g f) on Hom(M, N) x Hom(N, M)."""
    return generic_is_iso(M, N, _A_HOOKS)


# ---------------------------------------------------------------------------
# enumeration of ind A
# ---------------------------------------------------------------------------

def kronecker_regulars(q: Quiver):
    """Length-one homogeneous regulars at parameters 0, 1 and infinity."""
    (a1, s, _), (a2, _, _) = q.arrows
    out = []
    for lam in (_ZERO, _ONE):
        mats = {a1: QMatrix(1, 1, [[_ONE]]), a2: QMatrix(1, 1, [[lam]])}
        out.append(ARep(q, {v: 1 for v in q.vertices}, mats))
    mats = {a1: QMatrix(1, 1, [[_ZERO]]), a2: QMatrix(1, 1, [[_ONE]])}
    out.append(ARep(q, {v: 1 for v in q.vertices}, mats))
    return out


def enumerate_ind(q: Quiver, bound=None):
    """Indecomposables of the base algebra, one per iso class.

    Dynkin types are enumerated completely by iterating tau from the
    injectives.  For the Kronecker quiver a dimension bound is required and
    the regular part is sampled at three parameter values.
    """
    dt = dynkin_type(q)
    if dt == "kronecker":
        if bound is None:
            raise NotSupported("Kronecker enumeration needs a dimension bound")
        mods = []
        for x in q.vertices:
            M = projective(q, x)
            while M.total_dim() <= bound:
                mods.append(M)
                if is_injective_a(M):
                    break
                M = tau_inv_a(M)
        for x in q.vertices:
            M = injective(q, x)
            while M.total_dim() <= bound:
                if not any(m.dim == M.dim for m in mods):
                    mods.append(M)
                if is_projective_a(M):
                    break
                M = tau_a(M)
        if bound >= 2:
            mods.extend(kronecker_regulars(q))
        return sorted(mods, key=lambda m: (m.total_dim(), m.dim_vector(),
                                           _mat_key(m)))
    if dt is None:
        raise NotSupported("only Dynkin bases (or Kronecker with a bound) "
                           "are enumerable")
    seen = {}
    for x in q.vertices:
        M = injective(q, x)
        while True:
            key = M.dim_vector()
            if key in seen:
                break
            seen[key] = M
            if is_projective_a(M):
                break
            M = tau_a(M)
    return sorted(seen.values(), key=lambda m: (m.total_dim(), m.dim_vector()))


def _mat_key(m: ARep):
    return tuple(tuple(tuple(row) for row in m.mats[a].data)
                 for a, _, _ in m.quiver.arrows)
