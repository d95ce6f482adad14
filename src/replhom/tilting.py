"""Exceptional and tilting modules over the replicated algebra.

Exceptionality is self-Ext vanishing up to the global dimension horizon
2m+1; faithfulness is decided twice (annihilator rank, and presence of every
projective-injective summand) and the two verdicts must agree.  Minimal left
approximations drive the coresolution chain of the regular module, which
yields both the tilting test and the complement construction; on a
representation-finite base the complement falls back to exhaustive search
over the AR quiver.

An approximation picks its representatives of Hom(M, T_j) modulo radical
maps against one echelon form per target T_j, and is then checked exactly:
every map M -> T_j must factor through it, which is decided by one batched
solve per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from . import layered as L
from . import repa
from .errors import NoComplementFound, TheoremViolation
from .linalg import Echelon, QMatrix
from .quiver import ReplicationSpec, dynkin_type

_ZERO = Fraction(0)
_ONE = Fraction(1)

def ext_horizon(spec: ReplicationSpec) -> int:
    return 2 * spec.m + 1


def compatible_sets(n, pair_ok, max_size, item_ok=None):
    """Increasing tuples of items 0..n-1, pairwise compatible, of every size
    1..max_size, depth-first in lexicographic order (a tuple comes right
    before its extensions).

    A candidate c is tried against item_ok(c), then against each chosen
    item o by pair_ok(o, c), then against itself by pair_ok(c, c); each
    verdict is asked for at most once.
    """
    pair_ok = cache(pair_ok)
    item_ok = cache(item_ok) if item_ok else lambda c: True

    def fits(c, chosen):
        return item_ok(c) and all(pair_ok(o, c) for o in chosen + (c,))

    def extend(chosen, start):
        for c in range(start, n):
            if fits(c, chosen):
                grown = chosen + (c,)
                yield grown
                if len(grown) < max_size:
                    yield from extend(grown, c + 1)

    return extend((), 0)


class TiltingContext:
    """Shared data for tilting computations over one replication spec."""

    def __init__(self, spec: ReplicationSpec, arq=None):
        self.spec = spec
        self.arq = arq
        q = spec.base
        self.proj_sites = [(x, i) for i in range(spec.m + 1)
                           for x in q.vertices]
        self.projectives = {site: L.projective_rep(spec, *site)
                            for site in self.proj_sites}
        self.proj_inj = [self.projectives[(x, i)] for x, i in self.proj_sites
                         if i >= 1]
        self.regular = L.lproj_sum(spec, tuple(self.proj_sites))

    # -- candidates -----------------------------------------------------------

    def basic(self, summands):
        """Deduplicate a summand list up to isomorphism (order-preserving)."""
        out = []
        for s in summands:
            if not any(L.is_iso_rep(s, t) for t in out):
                out.append(s)
        return out

    def split_candidate(self, summands):
        """(non-projective-injective part, projective-injective part)."""
        tprime, pi = [], []
        for s in summands:
            (pi if L.is_proj_inj(s) else tprime).append(s)
        return tprime, pi

    # -- exceptionality ---------------------------------------------------------

    def ext_vanishes(self, X, Y) -> bool:
        return all(L.ext_dim(X, Y, i) == 0
                   for i in range(1, ext_horizon(self.spec) + 1))

    def compatible(self, X, Y) -> bool:
        """Ext^i vanishes both ways for 1 <= i <= 2m+1, tried degree by
        degree."""
        return all(L.ext_dim(X, Y, i) == 0 and L.ext_dim(Y, X, i) == 0
                   for i in range(1, ext_horizon(self.spec) + 1))

    def is_exceptional(self, summands) -> bool:
        summands = list(summands)
        for X in summands:
            for Y in summands:
                if not self.ext_vanishes(X, Y):
                    return False
        return True

    def pd(self, summands) -> int:
        return max((L.pd_rep(s) for s in summands), default=0)

    # -- faithfulness -------------------------------------------------------------

    def _algebra_basis_actions(self, M: L.LayeredModule):
        """Action of every algebra basis element on M, flattened as entries
        of the total-space operator (so columns align across elements);
        cached on M, so callers must not mutate the vectors."""
        cols = M._cache.get("basis_actions")
        if cols is not None:
            return cols
        q = self.spec.base
        paths = q.paths()
        m = self.spec.m
        offs, D = {}, 0
        for i in range(m + 1):
            for v in q.vertices:
                offs[(i, v)] = D
                D += M.layers[i].dim[v]

        def embedded(mat, row_site, col_site):
            vec = [_ZERO] * (D * D)
            ro, co = offs[row_site], offs[col_site]
            for r in range(mat.rows):
                for c in range(mat.cols):
                    if mat.data[r][c]:
                        vec[(ro + r) * D + (co + c)] = mat.data[r][c]
            return vec

        cols = []
        for i in range(m + 1):
            for x in q.vertices:
                for y in q.vertices:
                    for p in paths[(x, y)]:
                        mat = M.layers[i].path_matrix(x, p)
                        cols.append(embedded(mat, (i, y), (i, x)))
        for i in range(1, m + 1):
            for x in q.vertices:
                for y in q.vertices:
                    for p in paths[(x, y)]:
                        mat = L.dual_path_action(M, i, p, x, y)
                        cols.append(embedded(mat, (i - 1, x), (i, y)))
        M._cache["basis_actions"] = cols
        return cols

    def algebra_dim(self) -> int:
        q = self.spec.base
        paths = q.paths()
        npaths = sum(len(paths[(x, y)]) for x in q.vertices for y in q.vertices)
        return (self.spec.m + 1) * npaths + self.spec.m * npaths

    def is_faithful(self, summands, check_agreement=None) -> bool:
        """Faithful iff no nonzero algebra element kills every summand.

        Cross-checked against the projective-injective-summand criterion for
        exceptional candidates.
        """
        summands = list(summands)
        per_element = None
        for M in summands:
            acts = self._algebra_basis_actions(M)
            if per_element is None:
                per_element = [list(a) for a in acts]
            else:
                for col, a in zip(per_element, acts):
                    col.extend(a)
        if per_element is None:
            return False
        # one row per entry of the operators that some element moves: the
        # rows left out are zero and do not change the rank
        rows = [r for r in zip(*per_element) if any(r)]
        system = QMatrix(len(rows), len(per_element), rows or None)
        by_annihilator = system.rank() == self.algebra_dim()
        if check_agreement is None:
            check_agreement = self.is_exceptional(summands)
        if check_agreement:
            if self.has_all_proj_inj(summands) != by_annihilator:
                raise TheoremViolation(
                    "annihilator and projective-injective-summand "
                    "faithfulness criteria disagree")
        return by_annihilator

    def has_all_proj_inj(self, summands) -> bool:
        return all(any(L.is_iso_rep(p, s) for s in summands)
                   for p in self.proj_inj)

    # -- minimal left approximations -------------------------------------------

    def _rad_end_basis(self, T):
        """Basis of rad End(T) for an indecomposable T (Gram-form kernel),
        cached on T."""
        out = T._cache.get("rad_end")
        if out is not None:
            return out
        end = L.hom_basis_rep(T, T)
        ker = repa._gram_matrix(end, end,
                                L.HOOKS.vertex_blocks).kernel_basis()
        out = []
        for c in range(ker.cols):
            vec = ker.col(c)
            f = None
            for coef, e in zip(vec, end):
                if coef:
                    g = e if coef == 1 else e.scale(coef)
                    f = g if f is None else f.add(g)
            if f is not None:
                out.append(f)
        T._cache["rad_end"] = out
        return out

    def minimal_left_approximation(self, M: L.LayeredModule, summands):
        """Minimal left approximation of M into add(summands).

        Returns (targets, f) where targets is the multiset of summand
        indices used and f the morphism into their direct sum.  Built from
        representatives of Hom(M, T_j) modulo radical factorizations, then
        verified to be a left approximation.
        """
        summands = list(summands)
        homs = [L.hom_basis_rep(M, T) for T in summands]
        reps = self._approximation_reps(summands, homs)
        if not reps:
            Z = L.zero_module(self.spec)
            return [], L.LModMorphism.zero(M, Z)
        target_mods = [summands[j] for j, _ in reps]
        D = L.layered_direct_sum(self.spec, target_mods)
        f = _stack(M, D, [g for _, g in reps])
        self._assert_approximation(summands, homs, reps)
        return [j for j, _ in reps], f

    def _approximation_reps(self, summands, homs):
        """(j, g) for the chosen g in homs[j] = Hom(M, T_j): a basis of
        Hom(M, T_j) modulo the maps that factor through a radical map into
        T_j, kept in basis order."""
        reps = []
        for j, T in enumerate(summands):
            V = homs[j]
            if not V:
                continue
            # the radical images seed one echelon form; a g is a new rep
            # exactly when it leaves their span and that of the reps before
            span = Echelon(len(_vectorize(V[0])))
            for j2, T2 in enumerate(summands):
                if not homs[j2]:
                    continue
                if j2 == j:
                    rads = self._rad_end_basis(T)
                else:
                    rads = L.hom_basis_rep(T2, T)
                for h in rads:
                    for g in homs[j2]:
                        span.add(_composite_vector(h, g))
            for g in V:
                if span.add(_vectorize(g)):
                    reps.append((j, g))
        return reps

    def _assert_approximation(self, summands, homs, reps):
        """Every map M -> summand must factor through the approximation
        (solved exactly, all of Hom(M, T_j) in one system per target)."""
        for j, T in enumerate(summands):
            targets = [t for t in map(_vectorize, homs[j]) if any(t)]
            if not targets:
                continue
            cols = [_composite_vector(h, g2)
                    for j2, g2 in reps
                    for h in L.hom_basis_rep(summands[j2], T)]
            if not cols:
                raise TheoremViolation(
                    "minimal approximation misses a morphism")
            height = len(targets[0])
            QMatrix.from_cols(cols, rows=height).solve_matrix(
                QMatrix.from_cols(targets, rows=height))

    # -- approximation chain -------------------------------------------------------

    def approximation_chain(self, summands, max_steps=None):
        """Iterated minimal approximations of the regular module.

        Runs until the cokernel vanishes, an approximation fails to be a
        monomorphism (ChainStalled outcome), or the step bound; by default
        the bound is the global dimension horizon.
        """
        summands = list(summands)
        if max_steps is None:
            max_steps = ext_horizon(self.spec)
        A = self.regular.module
        chain = ApproximationChain(start=A, steps=[], stalled=None,
                                   completed=False)
        cur = A
        for step in range(max_steps + 1):
            if cur.is_zero():
                chain.completed = True
                break
            targets, f = self.minimal_left_approximation(cur, summands)
            if not f.is_mono():
                chain.stalled = StallInfo(step, cur, self, summands)
                break
            coker, _ = L.cokernel_rep(f)
            chain.steps.append(ChainStep(source=cur, targets=targets,
                                         approx=f, cokernel=coker))
            cur = coker
        return chain

    # -- tilting -------------------------------------------------------------------

    def is_tilting(self, summands) -> bool:
        """Exceptional with an add-T coresolution of the regular module.

        The counting shortcut (basic + faithful + pd <= m + rank-many
        summands) is asserted equivalent whenever its hypotheses hold.
        """
        summands = self.basic(summands)
        n_rank = self.spec.base.n * (self.spec.m + 1)
        if not self.is_exceptional(summands):
            return False
        chain = self.approximation_chain(summands)
        primary = chain.completed
        if (len(summands) == n_rank and self.pd(summands) <= self.spec.m
                and self.has_all_proj_inj(summands)):
            if not primary:
                raise TheoremViolation(
                    "counting criterion predicts a tilting module but no "
                    "coresolution was found")
        if primary and len(summands) != n_rank:
            raise TheoremViolation(
                "a basic tilting module must have rank-many summands")
        return primary

    def bongartz_complement(self, summands):
        """A module X with T + X tilting, for faithful exceptional T of
        pd <= m.

        Representation-infinite base: X is the terminal cokernel of the
        approximation chain, with the three Ext-vanishing families asserted.
        Representation-finite base: exhaustive search over AR-quiver nodes.
        """
        summands = self.basic(summands)
        if self.pd(summands) > self.spec.m:
            raise ValueError("complement construction needs pd <= m")
        if not self.is_exceptional(summands):
            raise ValueError("complement construction needs an exceptional "
                             "module")
        if not self.is_faithful(summands, check_agreement=True):
            raise ValueError("complement construction needs a faithful module")
        if dynkin_type(self.spec.base) == "kronecker":
            return self._complement_infinite(summands)
        return self._complement_finite(summands)

    def _complement_infinite(self, summands):
        m = self.spec.m
        chain = self.approximation_chain(summands, max_steps=m)
        if chain.stalled is not None:
            raise TheoremViolation(
                "approximation chain stalled on a representation-infinite "
                "base", witness=chain.stalled.witness)
        for s, step in enumerate(chain.steps, start=1):
            if L.pd_rep(step.cokernel) > s:
                raise TheoremViolation(
                    "chain cokernel exceeds its projective dimension bound",
                    witness=step.cokernel)
        if chain.completed:
            return []
        X = chain.steps[m - 1].cokernel if len(chain.steps) >= m else \
            chain.steps[-1].cokernel
        horizon = ext_horizon(self.spec)
        for i in range(1, horizon + 1):
            if L.ext_dim(X, X, i):
                raise TheoremViolation("complement fails self Ext-vanishing",
                                       witness=X)
            for T in summands:
                if L.ext_dim(X, T, i) or L.ext_dim(T, X, i):
                    raise TheoremViolation(
                        "complement fails Ext-vanishing against the input",
                        witness=X)
        parts = L.decompose_rep(X)
        full = self.basic(summands + parts)
        if not self.is_tilting(full):
            raise NoComplementFound("constructed complement is not tilting")
        return parts

    def _complement_finite(self, summands):
        if self.arq is None:
            raise ValueError("representation-finite complement search needs "
                             "an AR quiver")
        n_rank = self.spec.base.n * (self.spec.m + 1)
        pool = []
        for node in self.arq.nodes:
            if self.arq.pd(node.idx) <= self.spec.m:
                if not any(L.is_iso_rep(node.module, s) for s in summands):
                    pool.append(node.module)
        need = n_rank - len(summands)
        if need < 0:
            raise NoComplementFound("candidate already exceeds the rank")
        if need == 0:
            if self.is_tilting(summands):
                return []
            raise NoComplementFound("rank-many summands but not tilting")

        def fits_summands(c):
            X = pool[c]
            return all(self.ext_vanishes(X, Y) and self.ext_vanishes(Y, X)
                       for Y in summands)

        def pair_ok(a, b):
            if a == b:
                return self.ext_vanishes(pool[a], pool[a])
            return (self.ext_vanishes(pool[b], pool[a])
                    and self.ext_vanishes(pool[a], pool[b]))

        for cand in compatible_sets(len(pool), pair_ok, need, fits_summands):
            if len(cand) == need:
                chosen = [pool[c] for c in cand]
                if self.is_tilting(summands + chosen):
                    return chosen
        raise NoComplementFound("exhaustive search found no complement")

    def verdict(self, summands, want_complement=False):
        """JSON-ready summary used by the command line front end."""
        summands = self.basic(summands)
        tprime, pi = self.split_candidate(summands)
        exceptional = self.is_exceptional(summands)
        faithful = self.is_faithful(summands, check_agreement=exceptional)
        out = {
            "summands": len(summands),
            "projective_injective_summands": len(pi),
            "exceptional": exceptional,
            "faithful": faithful,
            "pd": self.pd(summands),
            "tilting": self.is_tilting(summands) if exceptional else False,
        }
        if want_complement and exceptional and faithful \
                and out["pd"] <= self.spec.m:
            try:
                comp = self.bongartz_complement(summands)
                out["complement"] = [
                    {"dims": {f"{v}_{l}": X.layers[l].dim[v]
                              for l in range(self.spec.m + 1)
                              for v in self.spec.base.vertices
                              if X.layers[l].dim[v]}}
                    for X in comp]
                out["complement_verified"] = True
            except NoComplementFound as exc:
                out["complement_error"] = str(exc)
        return out


def _vectorize(f: L.LModMorphism):
    """The entries of f, layer by layer, vertex blocks row-major."""
    out = []
    vertices = f.src.quiver.vertices
    for p in f.parts:
        for v in vertices:
            for row in p.mats[v].data:
                out.extend(row)
    return out


def _composite_vector(h: L.LModMorphism, g: L.LModMorphism):
    """_vectorize(lcompose(h, g)), from the products of the vertex blocks
    alone."""
    out = []
    vertices = g.src.quiver.vertices
    for hp, gp in zip(h.parts, g.parts):
        for v in vertices:
            for row in (hp.mats[v] * gp.mats[v]).data:
                out.extend(row)
    return out


def _stack(M, D, gs):
    """The morphism M -> D = T_1 + ... + T_k with components gs[k]: M -> T_k,
    i.e. the sum of incl_k g_k, whose vertex blocks are the g_k's blocks
    stacked in summand order."""
    parts = []
    for l, layer in enumerate(D.layers):
        mats = {}
        for v in M.quiver.vertices:
            rows = [r for g in gs for r in g.parts[l].mats[v].data]
            mats[v] = QMatrix(layer.dim[v], M.layers[l].dim[v], rows or None)
        parts.append(repa.AMorphism(M.layers[l], layer, mats))
    return L.LModMorphism(M, D, parts)


@dataclass
class ChainStep:
    source: L.LayeredModule
    targets: list
    approx: L.LModMorphism
    cokernel: L.LayeredModule


@dataclass
class StallInfo:
    """Where an approximation chain stalled: the step and the module whose
    approximation is not mono.  The witness is found only when read, since
    most callers ask only whether the chain completed."""
    step: int
    module: L.LayeredModule
    ctx: TiltingContext
    summands: list

    @cached_property
    def witness(self) -> L.LayeredModule:
        """An indecomposable summand of the stalled module whose
        approximation is not mono (the module itself if none is)."""
        for s in L.decompose_rep(self.module):
            _, f = self.ctx.minimal_left_approximation(s, self.summands)
            if not f.is_mono():
                return s
        return self.module


@dataclass
class ApproximationChain:
    start: L.LayeredModule
    steps: list
    stalled: StallInfo | None
    completed: bool


def sample_faithful_exceptional(ctx: TiltingContext, bound: int, count: int):
    """Deterministic faithful exceptional candidates with pd <= m on the
    Kronecker base: all projective-injectives plus small compatible sets of
    left-part modules."""
    spec = ctx.spec
    pool = []
    for N in repa.enumerate_ind(spec.base, bound=bound):
        pool.append(L.from_level(spec, N, 0))
    for x in spec.base.vertices:
        pool.append(L.cosyzygy(L.projective_rep(spec, x, 0)))
    pool = [M for M in pool if L.pd_rep(M) <= spec.m and not L.is_proj_inj(M)]
    base = list(ctx.proj_inj)
    found = [list(base)]   # the projective-injectives alone are faithful
    if len(found) >= count:
        return found
    singles = [M for M in pool if ctx.ext_vanishes(M, M)]
    for M in singles:
        cand = ctx.basic(base + [M])
        if ctx.is_exceptional(cand):
            found.append(cand)
            if len(found) >= count:
                return found
    for i in range(len(singles)):
        for j in range(i + 1, len(singles)):
            cand = ctx.basic(base + [singles[i], singles[j]])
            if len(cand) < len(base) + 2:
                continue
            if ctx.is_exceptional(cand):
                found.append(cand)
                if len(found) >= count:
                    return found
    return found
