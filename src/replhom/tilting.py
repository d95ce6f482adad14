"""Exceptional and tilting modules over the replicated algebra.

Exceptionality is self-Ext vanishing up to the global dimension horizon
2m+1; faithfulness is decided twice (annihilator rank, and presence of every
projective-injective summand) and the two verdicts must agree.  The
annihilator rank is that of the stacked row bases of the summands' systems,
each an integer basis cached on its module; the projective-injectives' rows
are reduced once per context, and a candidate holding all of them adds its
other summands' rows to a copy of that span.  Minimal left approximations
drive the coresolution chain of the regular module, which yields both the
tilting test and the complement construction.  A summand of the regular
module that lies in add T approximates to itself, so the tilting test
coresolves only the projectives outside add T; the complement over a
representation-infinite base keeps the chain of the whole regular module.
On a representation-finite base the complement falls back to exhaustive
search over the AR quiver.

Between two AR nodes X and Y most Ext questions are read off the path
order: Ext^{>=1}(X, Y) = 0 when X is projective, Y is injective or Y is not
<= tau X (path_ext_zero), and only the other pairs compute Ext groups, each
read off the mesh category on node ids (ARQuiver.ext); a pair of modules
that are not both node modules computes them from the minimal resolution
(layered.ext_dim).  A^(m) over a Dynkin base is representation-directed, so
Hom(U, V) != 0 between indecomposables needs a path U -> ... -> V of the
AR quiver, and tau V < V.
For i = 1, Ext^1(X, Y) = D Hom-bar(Y, tau X) (Auslander-Reiten-Smalo
IV.2.13) needs X non-projective and Y <= tau X.  For i >= 2 shift along the
minimal injective coresolution 0 -> Y -> I^0 -> Sigma Y -> 0: Ext^i(X, Y) =
Ext^{i-1}(X, Sigma Y).  Every summand Z of Sigma Y has Ext^1(Z, Y) != 0, the
sequence pulled back to Z being non-split as I^0 is an essential extension
of Y, so Y <= tau Z < Z.  By induction every summand Z of Sigma^{i-1} Y has
Y < Z, and Ext^1(X, Z) != 0 needs Z <= tau X, so again Y <= tau X (Ringel,
LNM 1099, 2.4).  No node X has X <= tau X, so every self pair is decided.
The projective dimension and the projective-injective test of a node
module are read from its node (ARQuiver.pd, Node.is_proj_inj).

Each fact about a candidate is decided once.  basic() keeps one module per
isomorphism class: with an AR quiver the class's node module (a summand
isomorphic to no node is split into its indecomposable summands, each a
node over the representation-finite base), without one the context's
P(x, i) for a summand isomorphic to it.  So the methods reading a basic
list compare its modules by identity.  A list found basic and exceptional
is marked as such (BasicExceptional), by the verdict, is_tilting, the
complement search or the enumeration of the bijection, and neither fact is
decided again.

A context with an AR quiver takes the node route; otherwise (the Kronecker
base, or a context without an AR quiver, whose summands must be
indecomposable) it takes the module route.  On the node route the
coresolution is taken node by node.  The minimal left approximation of an
indecomposable X into add T depends only on X and on the summands T_j with
Hom(X, T_j) != 0, so one step is computed, verified and memoized per (node,
that Hom-support): stalled, or the AR nodes of its cokernel.  The
Hom-support is read from the AR quiver's mesh Hom table (arq.hom).  A step
builds no module and no Hom basis.  A^(m) over a Dynkin base is
representation-directed and standard, so ind A^(m) is the mesh category of
its AR quiver (Bongartz-Gabriel, Invent. Math. 1982; Ringel, LNM 1099, 2.4),
and a step is the AR quiver's left step, which reads only the integer mesh
table arq.mesh (quiver.MeshTable): the Hom functors P_N = Hom(N, -), each
dim P_N(M) checked against arq.hom, and the maps g*: P_T -> P_X, h -> h g,
of the g in P_X(T).  The components of the approximation f: X -> T0 are the
basis vectors of each P_X(T_j) outside the images of the g* from the other
targets (End T_j = k); their images must span every P_X(T_j), else
TheoremViolation names the step.  f is mono when Hom(P, X) -> Hom(P, T0) is
injective for every projective node P, and the multiplicity of a node Y in C
= coker f is read by Auslander's formula dim Hom(C, Y) - dim Hom(C, E) + dim
Hom(C, tau Y), E the middle term of the AR sequence ending in Y (rad Y, with
no tau term, for a projective Y), from the ranks of the stacked g*_N:
Hom(T0, N) -> Hom(X, N) (Auslander-Reiten-Smalo IV.4).  As approximations
are additive, the chain of the projectives outside add T completes exactly
when every one of them reaches zero within 2m+2 steps.  The module route
builds the chain out of cokernel modules; the tests use it as the oracle of
the node route.

Both routes test C_0, ..., C_{2m+2} for zero, and for an exceptional T
that bound suffices.  A left approximation C_k -> T_k makes Hom(T_k, T) ->
Hom(C_k, T) onto, so every C_k of a chain that has not stalled lies in
perp T (Ext^{>=1}(C_k, T) = 0), and shifting dimension along the chain
gives Ext^1(C_{g+1}, C_g) = Ext^{g+1}(C_{g+1}, C_0), which is 0 at
g = 2m+1, the global dimension.  So C_g -> T_g splits and C_{g+1} = 0: a
chain that has neither stalled nor reached zero by C_{2m+2} raises
TheoremViolation.  A tilting module of pd d has an add T-coresolution of
A of length d (Miyashita), and d can be 2m+1.  The counting criterion is
asserted on every verdict as the paper states it: a basic exceptional
module is tilting exactly when it has n(m+1) summands.

An approximation picks its representatives of Hom(M, T_j) modulo radical
maps against one echelon form per target T_j, and is then checked exactly:
every map M -> T_j must factor through it, which is decided by one batched
solve per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from . import layered as L
from . import repa
from .arquiver import named_dims
from .errors import NoComplementFound, TheoremViolation
from .linalg import Echelon, QMatrix
from .quiver import ReplicationSpec, dynkin_type

_ZERO = 0

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


class BasicExceptional(list):
    """A summand list already made basic and found exceptional, by the
    verdict, is_tilting, the complement search or the enumeration of the
    bijection; basic() and is_exceptional() take both facts as decided."""


class TiltingContext:
    """Shared data for tilting computations over one replication spec."""

    def __init__(self, spec: ReplicationSpec, arq=None):
        self.spec = spec
        self.arq = arq
        q = spec.base
        self.proj_sites = [(x, i) for i in range(spec.m + 1)
                           for x in q.vertices]
        self._site_nodes = {} if arq is None else {
            node.proj_site: node.idx for node in arq.nodes
            if node.is_projective}
        # with an AR quiver, the projective nodes' own modules: basic()
        # keeps those for the classes of the P(x, i)
        self.projectives = {
            site: L.projective_rep(spec, *site) if arq is None
            else arq.nodes[self._site_nodes[site]].module
            for site in self.proj_sites}
        self.proj_inj = [self.projectives[(x, i)] for x, i in self.proj_sites
                         if i >= 1]
        # the node route's approximation steps per (node, Hom-support in T)
        self._steps = {}
        # the echelon span of the projective-injectives' annihilator rows,
        # reduced on first use (_annihilator_is_zero)
        self._pi_span = None

    @cached_property
    def regular(self):
        """The regular module, the sum of every P(x, i): the default start of
        approximation_chain, which only the module route runs."""
        return L.lproj_sum(self.spec, tuple(self.proj_sites))

    def node_ids(self, summands):
        """The AR node index of every summand, in order, or None when the
        context has no AR quiver or some summand is isomorphic to no node:
        whether the node route applies.  A node module is found by identity
        (arq.node_id), any other summand by an isomorphism test."""
        if self.arq is None:
            return None
        ids = []
        for M in summands:
            idx = self.arq.node_id(M)
            if idx is None:
                node = self.arq._lookup(M)
                if node is None:
                    return None
                idx = node.idx
            ids.append(idx)
        return ids

    # -- candidates -----------------------------------------------------------

    def basic(self, summands):
        """The summands up to isomorphism, in order of first appearance,
        each replaced by the one module the context keeps for its class.

        With an AR quiver that is the node module of the class; a summand
        isomorphic to no node is first split into its indecomposable
        summands, each a node over the representation-finite base.  Without
        one it is projectives[(x, i)] for a summand isomorphic to P(x, i),
        else the first summand of the class in the list; the summands must
        then be indecomposable, as sites_outside and the approximations
        assume.  The methods that read a basic list compare its modules by
        identity."""
        if isinstance(summands, BasicExceptional):
            return summands
        out, kept = [], set()
        for s in summands:
            if self.arq is None:
                known = [*self.projectives.values(), *out]
                parts = [next((t for t in known if L.is_iso_rep(s, t)), s)]
            else:
                node = self.arq._lookup(s)
                parts = [node.module] if node is not None else [
                    self.arq.find_node(p).module for p in L.decompose_rep(s)]
            for p in parts:
                if p not in kept:
                    kept.add(p)
                    out.append(p)
        return out

    def split_candidate(self, summands):
        """(non-projective-injective part, projective-injective part)."""
        tprime, pi = [], []
        for s in summands:
            i = self._node_of(s)
            proj_inj = L.is_proj_inj(s) if i is None else \
                self.arq.nodes[i].is_proj_inj
            (pi if proj_inj else tprime).append(s)
        return tprime, pi

    def _node_of(self, M):
        """The id of M's AR node when M is a node module (by identity), else
        None."""
        return None if self.arq is None else self.arq.node_id(M)

    # -- exceptionality ---------------------------------------------------------

    def _degrees_vanish(self, pairs) -> bool:
        """Ext^i(X, Y) = 0 for 1 <= i <= 2m+1 and every (X, Y) in pairs,
        tried degree by degree."""
        return all(L.ext_dim(X, Y, i) == 0
                   for i in range(1, ext_horizon(self.spec) + 1)
                   for X, Y in pairs)

    def path_ext_zero(self, x, y) -> bool:
        """Whether the path order shows Ext^{>=1}(node x, node y) = 0: x is
        projective, y is injective, or y is not <= tau x (see the module
        docstring)."""
        t = self.arq.nodes[x].tau
        return t is None or self.arq.nodes[y].is_injective or \
            not self.arq.leq(y, t)

    def _node_degrees_vanish(self, x, y) -> bool:
        """Ext^i(node x, node y) = 0 for 1 <= i <= 2m+1, read off the mesh
        category (arq.ext)."""
        return all(self.arq.ext(x, y, i) == 0
                   for i in range(1, ext_horizon(self.spec) + 1))

    def node_ext_vanishes(self, x, y) -> bool:
        """ext_vanishes on node ids."""
        return self.path_ext_zero(x, y) or self._node_degrees_vanish(x, y)

    def node_compatible(self, x, y) -> bool:
        """compatible on node ids: the path order first, then the degrees of
        the directions it leaves open."""
        return all(self.path_ext_zero(a, b) or self._node_degrees_vanish(a, b)
                   for a, b in ((x, y), (y, x)))

    def _pair_ids(self, X, Y):
        """The node ids of X and Y when both are node modules, else None."""
        x, y = self._node_of(X), self._node_of(Y)
        return None if x is None or y is None else (x, y)

    def ext_vanishes(self, X, Y) -> bool:
        """Ext^i(X, Y) = 0 for 1 <= i <= 2m+1."""
        ids = self._pair_ids(X, Y)
        if ids is not None:
            return self.node_ext_vanishes(*ids)
        return self._degrees_vanish([(X, Y)])

    def compatible(self, X, Y) -> bool:
        """Ext^i vanishes both ways for 1 <= i <= 2m+1, tried degree by
        degree."""
        ids = self._pair_ids(X, Y)
        if ids is not None:
            return self.node_compatible(*ids)
        return self._degrees_vanish([(X, Y), (Y, X)])

    def is_exceptional(self, summands) -> bool:
        """Ext^i(X, Y) = 0 for 1 <= i <= 2m+1 and every X, Y in summands.
        When every summand is a node module, the node ids are found once
        and the pairs are decided on them (node_ext_vanishes)."""
        if isinstance(summands, BasicExceptional):
            return True
        summands = list(summands)
        if self.arq is not None:
            ids = [self.arq.node_id(M) for M in summands]
            if None not in ids:
                return all(self.node_ext_vanishes(x, y)
                           for x in ids for y in ids)
        for X in summands:
            for Y in summands:
                if not self.ext_vanishes(X, Y):
                    return False
        return True

    def pd(self, summands) -> int:
        """The largest pd of a summand: arq.pd for a node module, else the
        minimal resolution's."""
        def pd(M):
            i = self._node_of(M)
            return L.pd_rep(M) if i is None else self.arq.pd(i)

        return max(map(pd, summands), default=0)

    # -- faithfulness -------------------------------------------------------------

    def _annihilator_rows(self, M: L.LayeredModule):
        """An integer row basis of M's annihilator system, cached on M.

        The system has one column per algebra basis element (algebra_dim()
        in all) and one row per entry of the total-space operator, the row
        holding that entry of every element's action; its rank is
        algebra_dim() minus the dimension of the annihilator of M.  The
        basis has at most algebra_dim() rows: never mutate them.
        """
        rows = M._cache.get("annihilator_rows")
        if rows is not None:
            return rows
        q = self.spec.base
        paths = q.paths()
        m = self.spec.m
        offs, D = {}, 0
        for i in range(m + 1):
            for v in q.vertices:
                offs[(i, v)] = D
                D += M.layers[i].dim[v]
        n = self.algebra_dim()
        entries = {}            # operator entry -> its row of the system

        def place(k, mat, row_site, col_site):
            ro, co = offs[row_site], offs[col_site]
            for r, row in enumerate(mat.data):
                for c, x in enumerate(row):
                    if x:
                        key = (ro + r) * D + co + c
                        if key not in entries:
                            entries[key] = [_ZERO] * n
                        entries[key][k] = x

        k = 0
        for i in range(m + 1):
            for x in q.vertices:
                for y in q.vertices:
                    for p in paths[(x, y)]:
                        place(k, M.layers[i].path_matrix(x, p), (i, y), (i, x))
                        k += 1
        for i in range(1, m + 1):
            for x in q.vertices:
                for y in q.vertices:
                    for p in paths[(x, y)]:
                        place(k, L.dual_path_action(M, i, p, x, y),
                              (i - 1, x), (i, y))
                        k += 1
        span = Echelon(n)
        for vec in entries.values():
            span.add(vec)
        rows = M._cache["annihilator_rows"] = list(span.pivots.values())
        return rows

    def algebra_dim(self) -> int:
        q = self.spec.base
        paths = q.paths()
        npaths = sum(len(paths[(x, y)]) for x in q.vertices for y in q.vertices)
        return (self.spec.m + 1) * npaths + self.spec.m * npaths

    def is_faithful(self, summands) -> bool:
        """Faithful iff no nonzero algebra element kills every summand.

        Cross-checked against the projective-injective-summand criterion for
        exceptional candidates.
        """
        summands = self.basic(summands)
        by_annihilator = self._annihilator_is_zero(summands)
        if self.is_exceptional(summands) and self.has_all_proj_inj(
                BasicExceptional(summands)) != by_annihilator:
            raise TheoremViolation(
                "annihilator and projective-injective-summand "
                "faithfulness criteria disagree")
        return by_annihilator

    def _annihilator_is_zero(self, summands) -> bool:
        """is_faithful without the cross-check, for non-exceptional input,
        of a basic list (it meets the projective-injectives by identity).

        The system of the direct sum stacks the summands' systems, so its
        rank is that of their stacked row bases.  The span of the
        projective-injectives' rows is reduced once per context, on first
        use; when each of them is a summand, the other summands' rows are
        added to a copy of it.  Rows stop being added at full rank."""
        n = self.algebra_dim()
        pis = set(self.proj_inj)
        if not pis <= set(summands):
            others, span = summands, Echelon(n)
        else:
            if self._pi_span is None:
                self._pi_span = Echelon(n)
                for P in self.proj_inj:
                    for row in self._annihilator_rows(P):
                        self._pi_span.add(row)
            others = [M for M in summands if M not in pis]
            span = Echelon(n)
            span.pivots = dict(self._pi_span.pivots)
        for M in others:
            for row in self._annihilator_rows(M):
                if span.rank == n:
                    break
                span.add(row)
        return span.rank == n

    def sites_outside(self, summands):
        """The sites (x, i), in proj_sites order, whose projective P(x, i)
        is isomorphic to no summand."""
        kept = set(self.basic(summands))
        return tuple(site for site in self.proj_sites
                     if self.projectives[site] not in kept)

    def has_all_proj_inj(self, summands) -> bool:
        return all(i == 0 for _, i in self.sites_outside(summands))

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
        composites = {}
        reps = self._approximation_reps(summands, homs, composites)
        if not reps:
            Z = L.zero_module(self.spec)
            return [], L.LModMorphism.zero(M, Z)
        target_mods = [summands[j] for j, _ in reps]
        D = L.layered_direct_sum(self.spec, target_mods)
        f = _stack(M, D, [g for _, g in reps])
        self._assert_approximation(summands, homs, reps, composites)
        return [j for j, _ in reps], f

    def _approximation_reps(self, summands, homs, composites):
        """(j, g) for the chosen g in homs[j] = Hom(M, T_j): a basis of
        Hom(M, T_j) modulo the maps that factor through a radical map into
        T_j, kept in basis order.  The vector of each composite h g with h
        in Hom(T_j2, T_j), j2 != j, is left in composites under (h, g) for
        _assert_approximation."""
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
                        vec = _composite_vector(h, g)
                        if j2 != j:
                            composites[h, g] = vec
                        span.add(vec)
            for g in V:
                if span.add(_vectorize(g)):
                    reps.append((j, g))
        return reps

    def _assert_approximation(self, summands, homs, reps, composites):
        """Every map M -> summand must factor through the approximation
        (solved exactly, all of Hom(M, T_j) in one system per target).  A
        column h g already built by _approximation_reps is read from
        composites, keyed by (h, g)."""
        for j, T in enumerate(summands):
            targets = [t for t in map(_vectorize, homs[j]) if any(t)]
            if not targets:
                continue
            cols = []
            for j2, g2 in reps:
                for h in L.hom_basis_rep(summands[j2], T):
                    vec = composites.get((h, g2))
                    cols.append(_composite_vector(h, g2) if vec is None
                                else vec)
            if not cols:
                raise TheoremViolation(
                    "minimal approximation misses a morphism")
            height = len(targets[0])
            QMatrix.from_cols(cols, rows=height).solve_matrix(
                QMatrix.from_cols(targets, rows=height))

    # -- approximation chain -------------------------------------------------------

    def approximation_chain(self, summands, max_steps=None, start=None):
        """Iterated minimal approximations of start, by default the regular
        module.

        Runs until the cokernel vanishes, an approximation fails to be a
        monomorphism (ChainStalled outcome), or the step bound: C_0, ...,
        C_max_steps are tested for zero.  By default the bound is 2m+2, by
        which the chain of an exceptional module that has not stalled has
        reached zero (see the module docstring).
        """
        summands = list(summands)
        if max_steps is None:
            max_steps = ext_horizon(self.spec) + 1
        A = self.regular.module if start is None else start
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

    # -- the chain node by node ----------------------------------------------------

    def _nodes_complete(self, starts, ids) -> bool:
        """Whether the chain of each node in starts reaches zero within 2m+2
        approximations into add T, T the exceptional module of the nodes in
        ids.

        approximation_chain tests C_0, ..., C_{2m+2} for zero, so it
        completes when zero comes within 2m+2 approximations.
        Approximations are additive, so the chain of a sum does that
        exactly when the chain of each summand does: a node's chain
        completes within k approximations when its step is mono and the
        chain of every node of the cokernel completes within k - 1.  A node
        met after 2m+2 mono steps raises TheoremViolation: every node on
        the way to it lies in perp T, being a summand of the cokernel of a
        mono approximation of the node before, so the dimension shift of
        the module docstring runs along that path and splits its step at
        depth 2m+1."""
        T = set(ids)
        nodes, hom = self.arq.nodes, self.arq.hom
        done = {}

        def completes(idx, left):
            if left == 0:
                raise _chain_overrun(self.spec, nodes[idx].module)
            key = idx, left
            if key not in done:
                support = frozenset(j for j in T if hom[idx][j])
                coker = self._node_step(idx, support)
                done[key] = coker is not None and all(
                    completes(c, left - 1) for c in coker)
            return done[key]

        budget = ext_horizon(self.spec) + 1
        return all(completes(idx, budget) for idx in starts)

    def _node_step(self, idx, support):
        """One approximation step of node idx into add of the nodes support,
        memoized: None when the approximation is not mono, else the sorted
        node indices of its cokernel's summands (empty when it is zero).

        The minimal left approximation f: X -> T0 into add T needs only the
        T_j with Hom(X, T_j) != 0, so support (those T_j) fixes it.  A step
        reads only the mesh table arq.mesh, the Hom functors P_N = Hom(N, -)
        of the mesh category, which is ind A^(m) as A^(m) is standard,
        through the AR quiver's left step: its components are chosen
        (arq._mesh_reps) and checked to be a left approximation
        (arq._assert_mesh_approximation), f is tested mono through the
        projective nodes (arq._mesh_mono), and its cokernel is read by
        Auslander's formula (arq._mesh_cokernel).  No module is built.
        """
        key = idx, support
        if key in self._steps:
            return self._steps[key]
        arq, targets = self.arq, sorted(support)
        reps = arq._mesh_reps(idx, targets)
        out = None
        if reps:
            arq._assert_mesh_approximation(idx, targets, reps)
            if arq._mesh_mono(idx, reps):
                out = tuple(sorted(arq._mesh_cokernel(idx, reps)))
        self._steps[key] = out
        return out

    # -- tilting -------------------------------------------------------------------

    def is_tilting(self, summands) -> bool:
        """Exceptional with an add-T coresolution of the regular module.

        A minimal left approximation of a module in add T is an isomorphism,
        and minimal approximations are additive, so the chain of A = sum of
        the P(x, i) completes exactly when the chain of the P(x, i) outside
        add T does; only those are coresolved, node by node on the node
        route (_nodes_complete), else by approximation_chain.  The counting
        criterion, that a basic exceptional module is tilting exactly when
        it has n(m+1) summands, is asserted on every exceptional input.
        """
        summands = self.basic(summands)
        if not self.is_exceptional(summands):
            return False
        summands = BasicExceptional(summands)
        rest = self.sites_outside(summands)
        ids = self.node_ids(summands)
        if ids is None:
            chain = self.approximation_chain(
                summands, start=L.lproj_sum(self.spec, rest).module)
            if not chain.completed and chain.stalled is None:
                raise _chain_overrun(self.spec, chain.steps[-1].source)
            primary = chain.completed
        else:
            primary = self._nodes_complete(
                [self._site_nodes[site] for site in rest], ids)
        n_rank = self.spec.base.n * (self.spec.m + 1)
        if primary != (len(summands) == n_rank):
            raise TheoremViolation(
                f"counting criterion fails: a basic exceptional module with "
                f"{len(summands)} summands (rank {n_rank}) is "
                f"{'' if primary else 'not '}tilting")
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
        summands = BasicExceptional(summands)
        if not self.is_faithful(summands):
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
        need = n_rank - len(summands)
        if need < 0:
            raise NoComplementFound("candidate already exceeds the rank")
        # summands (+ chosen, below) are basic, exceptional and rank-many:
        # is_tilting's counting check raises unless they are tilting
        if need == 0:
            self.is_tilting(summands)
            return []
        # basic() keeps node modules, so the summands are nodes by identity
        ids = [self.arq.node_id(M) for M in summands]
        kept = set(ids)
        pool = [node.idx for node in self.arq.nodes
                if self.arq.pd(node.idx) <= self.spec.m
                and node.idx not in kept]

        def fits_summands(c):
            return all(self.node_compatible(pool[c], y) for y in ids)

        def pair_ok(a, b):
            if a == b:
                return self.node_ext_vanishes(pool[a], pool[a])
            return self.node_compatible(pool[a], pool[b])

        # pool holds none of the summands and the search checks every pair
        # and self pair both ways, so summands + chosen is basic and
        # exceptional
        for cand in compatible_sets(len(pool), pair_ok, need, fits_summands):
            if len(cand) == need:
                chosen = [self.arq.nodes[pool[c]].module for c in cand]
                self.is_tilting(BasicExceptional(summands + chosen))
                return chosen
        raise NoComplementFound("exhaustive search found no complement")

    def verdict(self, summands, want_complement=False):
        """JSON-ready summary used by the command line front end.

        Basicness and exceptionality are decided once: is_tilting and
        bongartz_complement get the list marked as both."""
        summands = self.basic(summands)
        tprime, pi = self.split_candidate(summands)
        exceptional = self.is_exceptional(summands)
        if exceptional:
            summands = BasicExceptional(summands)
        faithful = self.is_faithful(summands) if exceptional else \
            self._annihilator_is_zero(summands)
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
                    {"dims": named_dims(self.spec, X.dim_vector())}
                    for X in comp]
                out["complement_verified"] = True
            except NoComplementFound as exc:
                out["complement_error"] = str(exc)
        return out


def _chain_overrun(spec, witness):
    """The violation of a chain of an exceptional module that has neither
    stalled nor reached zero by C_{2m+2}; witness is C_{2m+2} or a summand
    of it."""
    g = ext_horizon(spec)
    return TheoremViolation(
        f"the add T-coresolution of an exceptional module has not stalled "
        f"and has C_{g + 1} != 0, beyond the global dimension {g}",
        witness=witness)


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
