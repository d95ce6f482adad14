"""The Auslander-Reiten quiver of the replicated algebra (Dynkin base).

The nodes, tau, the arrows and the projective and injective sites are
read from one table, quiver.knit, knitted from dimension vectors alone.
The build only makes the modules: P(x, i) and I(x, m) directly, every
other node as tau^{-1} of its tau node, each checked against its knitted
dimension vector; the radical of each projective and the socle quotient of
each injective must split into the knitted arrows.  On top of the quiver
sit the path order, one memoized cosyzygy per node, and on node ids read
from it: the cosyzygy slices, projective dimension with its
position/witness cross-checks, the left part that serves as the cluster
fundamental domain, and the commutation and syzygy-duality suites.  Three
things are made on first use only, never by the build: dim Hom between any
two nodes, counted along the meshes (hom, by quiver.mesh_hom), Hom(x, -) of
the mesh category in integer matrices, one source node x at a time (mesh,
a quiver.MeshTable), and the identity map from a node's own module to its
id (node_id).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import layered as L
from .errors import ClosureIncomplete, NotInDomain, TheoremViolation
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
    node: int | None            # node id of the cosyzygy, None if no node
    zero_or_injective: bool
    pi_envelope: bool           # the envelope has no member at layer m


class ARQuiver:
    """AR quiver of the m-replicated algebra of a Dynkin quiver."""

    def __init__(self, spec: ReplicationSpec):
        self.spec = spec
        self._pd = {}
        self._cosyz = {}
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
        self._by_dims = {t.dims[k]: i for i, k in enumerate(row)}
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

    # -- cosyzygies, slices and projective dimension ----------------------------

    def _cosyzygy(self, i) -> Cosyzygy:
        """The cosyzygy of node i, from one envelope and one cokernel."""
        if i not in self._cosyz:
            I, mono = L.injective_envelope_rep(self.nodes[i].module)
            C, _ = L.cokernel_rep(mono)
            node = self._lookup(C)      # None when C is zero or no node
            self._cosyz[i] = Cosyzygy(
                node.idx if node else None,
                node.is_injective if node else L.is_injective_rep(C),
                all(l < self.spec.m for _, l in I.members))
        return self._cosyz[i]

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
        i = node.idx if isinstance(node, Node) else node
        if i not in self._pd:
            self._pd[i] = L.pd_rep(self.nodes[i].module)
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
                    "cosyzygy and inverse translate do not commute",
                    witness=node.module)
        return True

    def check_syzygy_duality(self):
        """Along chains of projective-injective envelopes, the j-th cosyzygy
        of the start matches the (k+1-j)-th syzygy of the end.

        Checked one step at a time: for every non-injective node n whose
        envelope is projective-injective, the syzygy of its cosyzygy is n.
        Every member of such a chain is a node (else ClosureIncomplete), so
        each of its steps is checked; by induction along the chain the steps
        give the statement for every j, and conversely the statements for j
        and j + 1 give the step from the j-th member."""
        for node in self.nodes:
            if node.is_injective or not self._cosyzygy(node.idx).pi_envelope:
                continue
            C = self.nodes[self._cosyzygy_node(node.idx)].module
            back = self._lookup(L.syzygy(C))
            if back is None or back.idx != node.idx:
                raise TheoremViolation(
                    "syzygy-cosyzygy duality failed along a "
                    "projective-injective coresolution",
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
