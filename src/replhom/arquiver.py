"""The Auslander-Reiten quiver of the replicated algebra (Dynkin base).

The nodes, tau, the arrows and the projective and injective sites are
read from one table, quiver.knit, knitted from dimension vectors alone.
The build only makes the modules: P(x, i) and I(x, m) directly, every
other node as tau^{-1} of its tau node, each checked against its knitted
dimension vector; the radical of each projective and the socle quotient of
each injective must split into the knitted arrows.  On top of the quiver
sit the path order and, on node ids, the cosyzygy, syzygy, projective
dimension and Ext of the nodes, and from them the cosyzygy slices, the
position/witness cross-checks of pd, the left part that serves as the
cluster fundamental domain, and the commutation and syzygy-duality suites.

A^(m) over a Dynkin base is representation-directed and standard, so ind
A^(m) is the mesh category of its AR quiver (Bongartz-Gabriel, Invent.
Math. 1982; Ringel, LNM 1099, 2.4): a step between nodes reads only the
integer mesh table (mesh) and builds no module.  The left step is the
minimal left approximation of a node into add of some nodes (_mesh_reps,
checked by _assert_mesh_approximation), tested mono through the projective
nodes (_mesh_mono), with the nodes of its cokernel read by Auslander's
formula (_mesh_cokernel); the tilting context's node route takes it into
add T.  The cosyzygy Sigma X (_cosyzygy) is the left step into the
injective nodes, i.e. the injective envelope, and must be mono.  The dual
right step is the projective cover, the minimal right approximation by the
projective nodes (_cover_reps), checked epi through each of them
(_assert_mesh_cover), with the nodes of its kernel, the syzygy Omega Y
(_syzygy), read by the dual formula (_mesh_kernel).  pd is 0 on a
projective node and 1 + the largest pd over Omega Y otherwise;
check_syzygy_duality asserts Omega(Sigma n) = n; ext(x, y, i) shifts along
the injective coresolution of y.  Outside the build nothing here calls the
module route (layered.cosyzygy, syzygy, pd_rep, ext_dim, is_iso_rep); the
tests use it as the oracle.

Three things are made on first use only, never by the build: dim Hom
between any two nodes, counted along the meshes (hom, by quiver.mesh_hom),
Hom(x, -) of the mesh category in integer matrices, one source node x at a
time (mesh, a quiver.MeshTable), and the identity map from a node's own
module to its id (node_id).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from operator import le
from typing import NamedTuple

from . import layered as L
from .errors import ClosureIncomplete, NotInDomain, TheoremViolation
from .linalg import Echelon
from .quiver import MeshTable, ReplicationSpec, knit, mesh_hom


@dataclass
class Node:
    idx: int
    module: L.LayeredModule
    proj_site: tuple | None = None
    inj_site: tuple | None = None
    tau: int | None = None
    tau_inv: int | None = None

    @property
    def is_projective(self):
        return self.proj_site is not None

    @property
    def is_injective(self):
        return self.inj_site is not None

    @property
    def is_proj_inj(self):
        return self.is_projective and self.is_injective


class Cosyzygy(NamedTuple):
    """The injective envelope I(X) and the cosyzygy Sigma X of a node X,
    read off the left step into the injective nodes, each as node ->
    multiplicity."""
    envelope: dict
    cokernel: dict
    zero_or_injective: bool
    pi_envelope: bool           # the envelope has no member at layer m

    @property
    def node(self) -> int | None:
        """The node id of Sigma X, None when it is zero or no single node."""
        if len(self.cokernel) == 1:
            (c, mult), = self.cokernel.items()
            if mult == 1:
                return c
        return None


class ARQuiver:
    """AR quiver of the m-replicated algebra of a Dynkin quiver."""

    def __init__(self, spec: ReplicationSpec):
        self.spec = spec
        self._pd = {}
        self._cosyz = {}
        self._syz = {}
        self._sigma_powers = {}
        self._node_labels = {}
        self._slices = {}
        self._labels = None
        self._ind_a = None
        self._left = None
        self._build()

    # -- node lookup -----------------------------------------------------------

    def _lookup(self, module):
        """The node isomorphic to module, or None.

        The test caches its Hom basis on its first argument, so module goes
        first: a node's cache would keep every module ever looked up
        alive."""
        idx = self._by_dims.get(module.dim_vector())
        if idx is not None and L.is_iso_rep(module, self.nodes[idx].module):
            return self.nodes[idx]
        return None

    def find_node(self, module) -> Node:
        node = self._lookup(module)
        if node is None:
            raise ClosureIncomplete(
                "module missing from the tau-closure node set", witness=module)
        return node

    @cached_property
    def _ids(self):
        return {id(node.module): node.idx for node in self.nodes}

    def node_id(self, module):
        """The id of the node whose module is module itself (not a copy),
        or None; an identity test, no isomorphism test."""
        return self._ids.get(id(module))

    # -- construction ----------------------------------------------------------

    def _build(self):
        spec, m, vs = self.spec, self.spec.m, self.spec.base.vertices
        t = knit(spec.base, m)
        # node ids: the P(x, i), the I(x, m), then for each projective the
        # rest of its tau^{-1}-orbit, which ends at an injective
        row = [t.proj[(x, i)] for i in range(m + 1) for x in vs]
        row += [t.inj[(x, m)] for x in vs]
        ends = set(row)
        tau_inv = {k: j for j, k in enumerate(t.tau) if k is not None}
        for k in row[:len(vs) * (m + 1)]:
            while k in tau_inv and tau_inv[k] not in ends:
                k = tau_inv[k]
                row.append(k)
        if len(row) != len(t.dims):
            raise ClosureIncomplete("knitted nodes off the tau-orbits of the "
                                    "projectives")
        num = {k: i for i, k in enumerate(row)}
        proj_site = {k: site for site, k in t.proj.items()}
        inj_site = {k: site for site, k in t.inj.items()}
        self.nodes = [Node(i, None, proj_site.get(k), inj_site.get(k),
                           num.get(t.tau[k]), num.get(tau_inv.get(k)))
                      for i, k in enumerate(row)]
        self._dim_vectors = [t.dims[k] for k in row]
        self._by_dims = {d: i for i, d in enumerate(self._dim_vectors)}
        self.in_arrows = {i: sorted((num[e], mult) for e, mult
                                    in t.in_arrows[k])
                          for i, k in enumerate(row)}
        self.out_arrows = {i: [] for i in num.values()}
        for i, arrows in self.in_arrows.items():   # by i: each list sorted
            for e, mult in arrows:
                self.out_arrows[e].append((i, mult))

        def knitted(idx, M):
            if M.dim_vector() != t.dims[row[idx]]:
                raise ClosureIncomplete(
                    f"n{idx} has dimension vector {M.dim_vector()}, the "
                    f"knitted table {t.dims[row[idx]]}", witness=M)
            return M

        for node in self.nodes:
            if node.is_projective:
                M = L.projective_rep(spec, *node.proj_site)
            elif node.is_injective:    # I(x, m): numbered before its orbit
                M = L.injective_rep(spec, *node.inj_site)
            else:
                M = L.tau_inv_rep(self.nodes[node.tau].module)
            node.module = knitted(node.idx, M)
            if node.tau_inv is not None and \
                    self.nodes[node.tau_inv].is_injective:
                knitted(node.tau_inv, L.tau_inv_rep(M))
        for node in self.nodes:
            if node.is_projective:
                self._check_split(node, L.radical_sub(node.module)[0],
                                  self.in_arrows[node.idx], "radical")
            if node.is_injective:
                _, incl = L.layered_sub(node.module,
                                        L.socle_data(node.module))
                self._check_split(node, L.cokernel_rep(incl)[0],
                                  self.out_arrows[node.idx], "socle quotient")
        self._toposort()

    def _check_split(self, node, M, arrows, what):
        """M, the radical or socle quotient of node, must split into the
        nodes at the other ends of its knitted arrows."""
        parts = [] if M.is_zero() else L.decompose_rep(M)
        counts = Counter(self.find_node(s).idx for s in parts)
        if sorted(counts.items()) != arrows:
            raise ClosureIncomplete(
                f"the {what} of n{node.idx} splits as "
                f"{sorted(counts.items())}, its knitted arrows are {arrows}",
                witness=node.module)

    def _toposort(self):
        indeg = {n.idx: 0 for n in self.nodes}
        for idx, outs in self.out_arrows.items():
            for tgt, _ in outs:
                indeg[tgt] += 1
        order, ready = [], sorted(i for i, d in indeg.items() if d == 0)
        ready = deque(ready)
        while ready:
            i = ready.popleft()
            order.append(i)
            for tgt, _ in self.out_arrows[i]:
                indeg[tgt] -= 1
                if indeg[tgt] == 0:
                    ready.append(tgt)
        if len(order) != len(self.nodes):
            raise TheoremViolation("AR quiver of the replicated algebra "
                                   "must be directed")
        self.topo_order = order
        desc = {i: 1 << i for i in indeg}
        for i in reversed(order):
            for tgt, _ in self.out_arrows[i]:
                desc[i] |= desc[tgt]
        self._desc = desc

    # -- path order ------------------------------------------------------------

    def leq(self, a, b) -> bool:
        """Path order: a <= b iff b is reachable from a (or equal)."""
        ia = a.idx if isinstance(a, Node) else a
        ib = b.idx if isinstance(b, Node) else b
        return bool((self._desc[ia] >> ib) & 1)

    def predecessors(self, node) -> list:
        i = node.idx if isinstance(node, Node) else node
        return [n.idx for n in self.nodes if self.leq(n.idx, i)]

    @cached_property
    def hom(self) -> list:
        """hom[a][b] = dim Hom(node a, node b), counted along the meshes
        (quiver.mesh_hom) on first use.  The mesh table (mesh) checks every
        space it knits against it."""
        return mesh_hom(self.topo_order, self.in_arrows,
                        [node.tau for node in self.nodes])

    @cached_property
    def mesh(self) -> MeshTable:
        """Hom(x, -) of the mesh category for each source node x, in integer
        matrices (quiver.MeshTable), each knitted on first use and checked
        against hom.  The node route's approximation steps read only it."""
        return MeshTable(self.topo_order, self.in_arrows,
                         [node.tau for node in self.nodes], self.hom)

    # -- steps in the mesh category -------------------------------------------

    @cached_property
    def _projective_ids(self):
        return [node.idx for node in self.nodes if node.is_projective]

    @cached_property
    def _injective_ids(self):
        return [node.idx for node in self.nodes if node.is_injective]

    @cached_property
    def _mesh_tau_inv(self):
        """tau^{-1} as the mesh table reads it: node -> the node whose tau it
        is (absent for an injective node)."""
        return {t: n for n, t in enumerate(self.mesh.tau) if t is not None}

    def _mesh_reps(self, x, targets):
        """The components (t, i) of the minimal left approximation of node x
        into add of the nodes targets, each g = e_i a basis vector of
        P_x(t) = Hom(x, t): those outside the span of the maps that factor
        through a radical map into t, kept in basis order.  End t = k (the
        row of t checks dim P_t(t) = 1 against hom), so the radical maps
        come from the other targets t2: the images of P_t2(t) under g2* for
        g2 in P_x(t2)."""
        mesh = self.mesh
        dims = mesh.row(x).dims
        reps = []
        for t in targets:
            if dims[t]:
                reps += [(t, i) for i in _units_outside(dims[t], (
                    col for t2 in targets
                    if t2 != t and dims[t2] and mesh.row(t2).dims[t]
                    for i2 in range(dims[t2])
                    for col in mesh.pull(x, t2, i2)[t]))]
        return reps

    def _assert_mesh_approximation(self, x, targets, reps):
        """Every map x -> t, t in targets, must factor through the
        approximation with components reps: the images of the P_t2(t)
        under the g* of the reps (t2, g) span P_x(t), else TheoremViolation
        names the step and the target."""
        mesh = self.mesh
        dims = mesh.row(x).dims
        pulls = [mesh.pull(x, t2, i) for t2, i in reps]
        for t in targets:
            rank = _rank(dims[t], (col for g in pulls for col in g.get(t, ())))
            if rank < dims[t]:
                raise TheoremViolation(
                    f"the approximation step at n{x} misses a morphism into "
                    f"n{t}: its components span {rank} of the "
                    f"{dims[t]} dimensions of Hom(n{x}, n{t})",
                    witness=self.nodes[x].module)

    def _mesh_mono(self, x, reps):
        """Whether f: X -> T0 with components reps is mono: for every
        projective node P, Hom(P, X) -> Hom(P, T0), u -> f u, is injective
        (dim Hom(P(v, i), M) is the dimension of M at (v, i)).  The
        component t of f u is u*(e_i) in P_P(t)."""
        mesh = self.mesh
        for p in self._projective_ids:
            dims = mesh.row(p).dims
            d = dims[x]
            if not d:
                continue
            span = Echelon(sum(dims[t] for t, _ in reps))
            for u in range(d):
                pulled = mesh.pull(p, x, u)
                vec = []
                for t, i in reps:
                    if dims[t]:
                        vec.extend(pulled[t][i])
                span.add(vec)
            if span.rank < d:
                return False
        return True

    def _mesh_cokernel(self, x, reps) -> dict:
        """The AR nodes of the cokernel C of a mono step f at node x with
        components reps = [(t_k, e_i)], e_i in P_x(t_k), as node ->
        multiplicity.

        Hom(C, N) is the kernel of Hom(T0, N) -> Hom(X, N), h -> h f, so
        dim Hom(C, N) is sum_k dim P_{t_k}(N) less the rank of the stacked
        g_k*_N.  By Auslander's formula the multiplicity of Y in C is dim
        Hom(C, Y) - dim Hom(C, E) + dim Hom(C, tau Y), with E the sum of the
        in-arrows of Y (the middle term of the AR sequence ending in Y, or
        rad Y when Y is projective, which has no tau term).  A summand Y of
        C is a quotient of T0, so some P_{t_k}(Y) != 0, and dim Y <= dim C:
        only those Y are tested.  The multiplicities must be >= 0 and add
        up to dim C (_assert_node_sum)."""
        mesh, vectors = self.mesh, self._dim_vectors
        dims_x = mesh.row(x).dims
        rows = [mesh.row(t).dims for t, _ in reps]
        pulls = [mesh.pull(x, t, i) for t, i in reps]
        left = _dims_less([vectors[t] for t, _ in reps], vectors[x])
        hom_dims = {}

        def hom_c(n):
            """dim Hom(C, node n)."""
            d = hom_dims.get(n)
            if d is None:
                d = sum(row[n] for row in rows) - _rank(
                    dims_x[n], (col for g in pulls for col in g.get(n, ())))
                hom_dims[n] = d
            return d

        mults = {}
        for y in sorted(set().union(*(mesh.row(t).origin for t, _ in reps))):
            if not all(map(le, vectors[y], left)):
                continue
            mult = hom_c(y) - sum(mu * hom_c(e)
                                  for e, mu in self.in_arrows[y])
            if not self.nodes[y].is_projective:
                mult += hom_c(self.nodes[y].tau)
            if mult:
                mults[y] = mult
        self._assert_node_sum(
            mults, left, f"the cokernel of the approximation step at n{x}", x)
        return mults

    def _cover_reps(self, y, projs):
        """The components (p, j) of the projective cover of node y, the
        minimal right approximation of y by add of the projective nodes
        projs (those p with Hom(p, y) != 0): the basis vectors e_j of
        P_p(y) = Hom(p, y) outside the span of the maps p -> p2 -> y
        through the other projective nodes p2, kept in basis order (End p =
        k).  The composite of h = e_i in P_p(p2) and e_l in P_p2(y) is
        column l of h*_y."""
        mesh = self.mesh
        reps = []
        for p in projs:
            dims = mesh.row(p).dims
            reps += [(p, j) for j in _units_outside(dims[y], (
                col for p2 in projs if p2 != p
                for i in range(dims[p2]) for col in mesh.pull(p, p2, i)[y]))]
        return reps

    def _assert_mesh_cover(self, y, projs, reps):
        """The cover f: P0 -> y with components reps must be epi: for every
        projective node q in projs, Hom(q, P0) -> Hom(q, y), u -> f u, is
        onto (the projective nodes outside projs have Hom(q, y) = 0).  The
        image of e_u in P_q(p) under the component (p, e_j) is column j of
        (e_u)*_y.  Else TheoremViolation names the node."""
        mesh = self.mesh
        for q in projs:
            dims = mesh.row(q).dims
            rank = _rank(dims[y], (mesh.pull(q, p, u)[y][j]
                                   for p, j in reps for u in range(dims[p])))
            if rank < dims[y]:
                raise TheoremViolation(
                    f"the projective cover of n{y} misses a map from n{q}: "
                    f"its components span {rank} of the {dims[y]} "
                    f"dimensions of Hom(n{q}, n{y})",
                    witness=self.nodes[y].module)

    def _mesh_kernel(self, y, reps) -> dict:
        """The AR nodes of the kernel K of an epi cover f: P0 -> y with
        components reps = [(p_k, e_j)], e_j in P_{p_k}(y), as node ->
        multiplicity.

        Hom(Z, K) is the kernel of Hom(Z, P0) -> Hom(Z, y), u -> f u, so
        dim Hom(Z, K) is sum_k dim P_Z(p_k) less the rank of the columns
        (e_u)*(e_j), e_u in P_Z(p_k).  By the dual of Auslander's formula
        the multiplicity of Z in K is dim Hom(Z, K) - dim Hom(E, K) + dim
        Hom(tau^{-1} Z, K), with E the sum of the out-arrows of Z (the
        middle term of the AR sequence starting in Z, or Z / soc Z when Z
        is injective, which has no tau^{-1} term).  tau^{-1} is read from
        the mesh table's tau.  A summand Z of K is a submodule of P0, so
        some P_Z(p_k) != 0, and dim Z <= dim K: only those Z are tested.
        The multiplicities must be >= 0 and add up to dim K
        (_assert_node_sum)."""
        mesh, hom = self.mesh, self.hom
        covers = sorted({p for p, _ in reps})
        left = _dims_less([self._dim_vectors[p] for p, _ in reps],
                          self._dim_vectors[y])
        hom_dims = {}

        def hom_k(z):
            """dim Hom(node z, K)."""
            d = hom_dims.get(z)
            if d is None:
                dims = mesh.row(z).dims
                d = sum(dims[p] for p, _ in reps) - _rank(dims[y], (
                    mesh.pull(z, p, u)[y][j]
                    for p, j in reps for u in range(dims[p])))
                hom_dims[z] = d
            return d

        mults = {}
        for z, vector in enumerate(self._dim_vectors):
            if not any(hom[z][p] for p in covers) or \
                    not all(map(le, vector, left)):
                continue
            mult = hom_k(z) - sum(mu * hom_k(e)
                                  for e, mu in self.out_arrows[z])
            w = self._mesh_tau_inv.get(z)
            if w is not None:
                mult += hom_k(w)
            if mult:
                mults[z] = mult
        self._assert_node_sum(
            mults, left, f"the kernel of the projective cover of n{y}", y)
        return mults

    def _assert_node_sum(self, mults, left, what, x):
        """The multiplicities mults must be >= 0 and their dimension
        vectors add up to left, else ClosureIncomplete names what."""
        rest = list(left)
        for n, mult in mults.items():
            rest = [a - mult * b for a, b in zip(rest, self._dim_vectors[n])]
        if any(rest) or any(mult < 0 for mult in mults.values()):
            found = ", ".join(f"n{n}: {mult}"
                              for n, mult in sorted(mults.items()))
            raise ClosureIncomplete(
                f"{what} is no sum of AR nodes: multiplicities {{{found}}} "
                f"leave dimension vector {named_dims(self.spec, rest)}",
                witness=self.nodes[x].module)

    # -- cosyzygies, syzygies, slices and projective dimension ----------------

    def _cosyzygy(self, i) -> Cosyzygy:
        """The cosyzygy of node i: the left step of i into the injective
        nodes j with Hom(i, j) != 0, the injective envelope being the
        minimal left add(injectives)-approximation.  It must be mono, else
        TheoremViolation names the node."""
        out = self._cosyz.get(i)
        if out is None:
            targets = [j for j in self._injective_ids if self.hom[i][j]]
            reps = self._mesh_reps(i, targets)
            self._assert_mesh_approximation(i, targets, reps)
            if not self._mesh_mono(i, reps):
                raise TheoremViolation(
                    f"the injective envelope of n{i} is no monomorphism",
                    witness=self.nodes[i].module)
            cokernel = self._mesh_cokernel(i, reps)
            envelope = dict(Counter(t for t, _ in reps))
            out = self._cosyz[i] = Cosyzygy(
                envelope, cokernel,
                all(self.nodes[c].is_injective for c in cokernel),
                all(self.nodes[t].inj_site[1] < self.spec.m
                    for t in envelope))
        return out

    def _syzygy(self, y) -> dict:
        """The syzygy of node y as node -> multiplicity: the kernel of its
        projective cover (_cover_reps), which must be epi."""
        out = self._syz.get(y)
        if out is None:
            projs = [p for p in self._projective_ids if self.hom[p][y]]
            reps = self._cover_reps(y, projs)
            self._assert_mesh_cover(y, projs, reps)
            out = self._syz[y] = self._mesh_kernel(y, reps)
        return out

    def ext(self, x, y, i) -> int:
        """dim Ext^i(node x, node y), i >= 1, along the injective
        coresolution of y: Ext^i(x, y) = Ext^1(x, S), S = Sigma^{i-1} y,
        and Hom(x, -) on 0 -> S -> I(S) -> Sigma S -> 0 gives dim
        Ext^1(x, S) = h(x, Sigma S) - h(x, I(S)) + h(x, S), h the mesh
        Hom table summed over a node multiset."""
        if i < 1:
            raise ValueError(f"Ext degree {i} below 1")
        # Sigma^k y and I(Sigma^k y), k = 0, 1, ..., grown on demand
        sigmas, envelopes = self._sigma_powers.setdefault(y, ([{y: 1}], []))
        while len(sigmas) <= i:
            envelope, sigma = Counter(), Counter()
            for n, mult in sigmas[-1].items():
                step = self._cosyzygy(n)
                for e, mu in step.envelope.items():
                    envelope[e] += mult * mu
                for c, mu in step.cokernel.items():
                    sigma[c] += mult * mu
            envelopes.append(envelope)
            sigmas.append(sigma)
        row = self.hom[x]

        def h(multiset):
            return sum(mult * row[n] for n, mult in multiset.items())

        return h(sigmas[i]) - h(envelopes[i - 1]) + h(sigmas[i - 1])

    def _cosyzygy_node(self, i) -> int:
        c = self._cosyzygy(i).node
        if c is None:
            raise ClosureIncomplete(f"cosyzygy of n{i} is no AR node",
                                    witness=self.nodes[i].module)
        return c

    def sigma_slice(self, k):
        """Sigma_k: the k-th cosyzygies of the level-0 projectives."""
        if not 0 <= k <= self.spec.m:
            raise ValueError(f"slice index {k} outside 0..m")
        if k not in self._slices:
            if k == 0:
                members = [n.idx for x in self.spec.base.vertices
                           for n in self.nodes if n.proj_site == (x, 0)]
            else:
                members = [self._cosyzygy_node(i)
                           for i in self.sigma_slice(k - 1)]
            if len(set(members)) != self.spec.base.n:
                raise TheoremViolation("slice members are not distinct")
            self._slices[k] = members
        return self._slices[k]

    def slice_position(self, node):
        """min k <= m with node <= Sigma_k, or None."""
        i = node.idx if isinstance(node, Node) else node
        for k in range(self.spec.m + 1):
            if any(self.leq(i, s) for s in self.sigma_slice(k)):
                return k
        return None

    def pd(self, node) -> int:
        """Projective dimension along the minimal projective resolution in
        the mesh category: 0 for a projective node, else 1 + the largest pd
        of a node of its syzygy.  It reads the resolution side only, never
        the slices."""
        i = node.idx if isinstance(node, Node) else node
        if i not in self._pd:
            if self.nodes[i].is_projective:
                self._pd[i] = 0
            else:
                syz = self._syzygy(i)
                self._pd[i] = 1 + max(self.pd(z) for z in syz)
        return self._pd[i]

    def ind_a_nodes(self):
        """Level-0 nodes in the order of ind A (quiver.knit_ind's: by total
        dimension, then dimension vector): for each dimension vector of
        knit(q, 0), the one node with it at layer 0 and zeros elsewhere."""
        if self._ind_a is None:
            zeros = (0,) * (self.spec.base.n * self.spec.m)
            ind = sorted(knit(self.spec.base, 0).dims,
                         key=lambda d: (sum(d), d))
            hits = [self._by_dims.get(dims + zeros) for dims in ind]
            if None in hits:
                raise ClosureIncomplete("level-0 part does not match ind A")
            self._ind_a = hits
        return self._ind_a

    def fundamental_domain_labels(self):
        """Labels of the non-projective-injective left-part nodes.

        ("mod", ind-A index, degree k-1) for the (k-1)-st cosyzygy of an
        ind-A module (1 <= k <= m), ("shift", vertex, m) for the last slice.
        """
        if self._labels is None:
            labels = {}
            m = self.spec.m
            for pos, idx in enumerate(self.ind_a_nodes()):
                for k in range(1, m + 1):
                    node = self.nodes[idx]
                    if node.is_proj_inj:
                        raise TheoremViolation(
                            "fundamental domain hit a projective-injective",
                            witness=node.module)
                    if node.idx in labels:
                        raise TheoremViolation(
                            "fundamental domain labels collide",
                            witness=node.module)
                    labels[idx] = ("mod", pos, k - 1)
                    if k < m:
                        idx = self._cosyzygy_node(idx)
            for x, idx in zip(self.spec.base.vertices, self.sigma_slice(m)):
                node = self.nodes[idx]
                if node.is_proj_inj or idx in labels:
                    raise TheoremViolation("last-slice labels collide",
                                           witness=node.module)
                labels[idx] = ("shift", x, m)
            self._labels = labels
        return self._labels

    def projective_dimension(self, node) -> int:
        """pd by minimal resolution, cross-checked against the slice position
        and the translate-of-cosyzygy witness when both apply."""
        n = node if isinstance(node, Node) else self.nodes[node]
        k = self.pd(n.idx)
        if not n.is_projective and not n.is_proj_inj and 1 <= k <= self.spec.m:
            pos = self.slice_position(n.idx)
            if pos != k:
                raise TheoremViolation(
                    f"slice position {pos} disagrees with pd {k}",
                    witness=n.module)
            # tau^{-1} of the (k-1)-st cosyzygies of ind A
            witnesses = {self.nodes[j].tau_inv for j, lab
                         in self.fundamental_domain_labels().items()
                         if lab[0] == "mod" and lab[2] == k - 1
                         and not self.nodes[j].is_injective}
            if n.idx not in witnesses:
                raise TheoremViolation(
                    f"no translate-of-cosyzygy witness for pd {k}",
                    witness=n.module)
        return k

    def check_trichotomy(self):
        """pd = slice position = witness membership for 1 <= pd <= m;
        anything of larger pd must sit beyond the last slice.  The bound
        pd <= 2m + 1 is check_global_dimension's."""
        m = self.spec.m
        for node in self.nodes:
            k = self.pd(node.idx)
            if node.is_projective:
                continue
            if k <= m:
                if not node.is_proj_inj:
                    self.projective_dimension(node)
            else:
                if self.slice_position(node.idx) is not None:
                    raise TheoremViolation(
                        f"pd {k} > m yet the module precedes a slice",
                        witness=node.module)
        return True

    def m_left_part(self):
        """Nodes all of whose predecessors have pd <= m.

        The direct definition, the cosyzygy-family membership and the
        position characterization are computed independently and must agree
        on non-projective-injective nodes.  Computed once.
        """
        if self._left is not None:
            return self._left
        m = self.spec.m
        by_def = set()
        for node in self.nodes:
            if all(self.pd(p) <= m for p in self.predecessors(node)):
                by_def.add(node.idx)
        by_family = set(self.fundamental_domain_labels())
        sig_m = self.sigma_slice(m)
        by_pos = {node.idx for node in self.nodes
                  if any(self.leq(node.idx, s) for s in sig_m)}
        non_pi = {n.idx for n in self.nodes if not n.is_proj_inj}
        if by_def & non_pi != by_family:
            raise TheoremViolation("left part definition disagrees with the "
                                   "cosyzygy-family characterization")
        if by_def & non_pi != by_pos & non_pi:
            raise TheoremViolation("left part definition disagrees with the "
                                   "position characterization")
        self._left = by_def
        return by_def

    def left_part_non_proj_inj(self):
        return sorted(self.fundamental_domain_labels())

    def pi_label(self, node):
        i = node.idx if isinstance(node, Node) else node
        labels = self.fundamental_domain_labels()
        if i not in labels:
            raise NotInDomain("node is not in the fundamental domain")
        return labels[i]

    # -- theorem suites ----------------------------------------------------------

    def check_commutation(self):
        """Cosyzygy and inverse translate commute wherever both composites
        are defined and nonzero: on node ids, the cosyzygy of tau^{-1} n is
        the build's tau^{-1} of the cosyzygy of n."""
        for node in self.nodes:
            if node.is_injective or self.nodes[node.tau_inv].is_injective \
                    or self._cosyzygy(node.idx).zero_or_injective:
                continue
            c = self._cosyzygy_node(node.idx)
            if self._cosyzygy_node(node.tau_inv) != self.nodes[c].tau_inv:
                raise TheoremViolation(
                    f"cosyzygy and inverse translate do not commute at "
                    f"n{node.idx}", witness=node.module)
        return True

    def check_syzygy_duality(self):
        """Along chains of projective-injective envelopes, the j-th cosyzygy
        of the start matches the (k+1-j)-th syzygy of the end.

        Checked one step at a time: for every non-injective node n whose
        envelope is projective-injective, the syzygy of its cosyzygy is n,
        once: Omega(Sigma n) = {n: 1}, both read off the mesh category.
        Every member of such a chain is a node (else ClosureIncomplete), so
        each of its steps is checked; by induction along the chain the steps
        give the statement for every j, and conversely the statements for j
        and j + 1 give the step from the j-th member."""
        for node in self.nodes:
            if node.is_injective or not self._cosyzygy(node.idx).pi_envelope:
                continue
            c = self._cosyzygy_node(node.idx)
            back = self._syzygy(c)
            if back != {node.idx: 1}:
                found = ", ".join(f"n{n}: {mult}"
                                  for n, mult in sorted(back.items()))
                raise TheoremViolation(
                    f"syzygy-cosyzygy duality failed along a "
                    f"projective-injective coresolution at n{node.idx}: the "
                    f"syzygy of its cosyzygy n{c} is {{{found}}}",
                    witness=node.module)
        return True

    def check_global_dimension(self):
        bound = 2 * self.spec.m + 1
        for node in self.nodes:
            if self.pd(node.idx) > bound:
                raise TheoremViolation("projective dimension exceeds the "
                                       "global dimension bound",
                                       witness=node.module)
        return True

    # -- output -------------------------------------------------------------------

    def node_label(self, node) -> str:
        n = node if isinstance(node, Node) else self.nodes[node]
        if n.idx not in self._node_labels:
            rows = []
            for level in L.loewy_series(n.module):
                parts = []
                for (v, l), mult in sorted(level.items()):
                    parts.extend([f"{v}{l}"] * mult)
                rows.append(" ".join(parts))
            self._node_labels[n.idx] = "/".join(rows) if rows else "0"
        return self._node_labels[n.idx]

    def node_table(self):
        labels = self.fundamental_domain_labels()
        left = self.m_left_part()
        slices = {k: set(self.sigma_slice(k)) for k in range(self.spec.m + 1)}
        table = []
        for node in self.nodes:
            entry = {
                "id": f"n{node.idx}",
                "label": self.node_label(node),
                "dims": {f"{v}_{l}": node.module.layers[l].dim[v]
                         for l in range(self.spec.m + 1)
                         for v in self.spec.base.vertices
                         if node.module.layers[l].dim[v]},
                "layer_support": list(node.module.layer_support()),
                "pd": self.pd(node.idx),
                "projective": node.is_projective,
                "injective": node.is_injective,
                "projective_injective": node.is_proj_inj,
                "tau": None if node.tau is None else f"n{node.tau}",
                "tau_inv": None if node.tau_inv is None else f"n{node.tau_inv}",
                "slices": sorted(k for k, s in slices.items()
                                 if node.idx in s),
                "in_left_part": node.idx in left,
            }
            lab = labels.get(node.idx)
            if lab is not None:
                if lab[0] == "mod":
                    entry["cluster_label"] = {"kind": "module",
                                              "ind_index": lab[1],
                                              "degree": lab[2]}
                else:
                    entry["cluster_label"] = {"kind": "shifted_projective",
                                              "vertex": lab[1],
                                              "degree": lab[2]}
            table.append(entry)
        return table

    def to_dot(self) -> str:
        left = self.m_left_part()
        slices = {k: set(self.sigma_slice(k)) for k in range(self.spec.m + 1)}
        lines = ["digraph ar_quiver {", "  rankdir=LR;",
                 '  node [fontsize=10];']
        for i in self.topo_order:
            node = self.nodes[i]
            attrs = [f'label="{self.node_label(node)}"']
            if node.is_proj_inj:
                attrs.append("shape=box")
                attrs.append("peripheries=2")
            elif node.is_projective or node.is_injective:
                attrs.append("shape=box")
            else:
                attrs.append("shape=ellipse")
            if i in left:
                attrs.append("style=filled")
                attrs.append("fillcolor=lightgrey")
            marks = [f"S{k}" for k, s in slices.items() if i in s]
            if marks:
                attrs.append(f'xlabel="{",".join(marks)}"')
            lines.append(f'  n{i} [{", ".join(attrs)}];')
        for i in self.topo_order:
            for tgt, mult in self.out_arrows[i]:
                lbl = f' [label="{mult}"]' if mult > 1 else ""
                lines.append(f"  n{i} -> n{tgt}{lbl};")
        for node in self.nodes:
            if node.tau_inv is not None:
                lines.append(f"  n{node.tau_inv} -> n{node.idx} "
                             "[style=dashed, color=gray, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def table_json(self) -> str:
        return json.dumps({
            "base_vertices": list(self.spec.base.vertices),
            "m": self.spec.m,
            "node_count": len(self.nodes),
            "nodes": self.node_table(),
            "arrows": [{"src": f"n{i}", "tgt": f"n{t}", "mult": mu}
                       for i in self.topo_order
                       for t, mu in self.out_arrows[i]],
        }, indent=2, sort_keys=True)


def _span(d, cols):
    """The echelon span of the vectors cols of length d, read only until it
    is all of k^d."""
    span = Echelon(d)
    if d:
        for col in cols:
            span.add(col)
            if span.rank == d:
                break
    return span


def _rank(d, cols):
    return _span(d, cols).rank


def _units_outside(d, cols):
    """The i, in order, whose unit vector e_i of length d leaves the span of
    cols and of the e_i kept before it."""
    span = _span(d, cols)
    out = []
    for i in range(d):
        unit = [0] * d
        unit[i] = 1
        if span.add(unit):
            out.append(i)
    return out


def _dims_less(vectors, minus):
    """The sum of vectors less minus, entry by entry."""
    out = [-a for a in minus]
    for vec in vectors:
        out = [a + b for a, b in zip(out, vec)]
    return out


def named_dims(spec, dims):
    """The nonzero entries of a flat dimension vector (layer by layer, base
    vertex order within a layer, as dim_vector) keyed "<vertex>_<layer>"."""
    keys = [f"{v}_{l}" for l in range(spec.m + 1) for v in spec.base.vertices]
    return {k: d for k, d in zip(keys, dims) if d}
