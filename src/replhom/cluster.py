"""The m-cluster category through its exact fundamental domain.

Indecomposable objects are stalks of base-algebra indecomposables in degrees
0..m-1 plus shifted projectives in degree m.  Orbit Hom groups are computed
by the hereditary stalk calculus (Hom in equal degree, first Ext one degree
up, the translate of a projective stalk dropping a degree); the orbit sum is
restricted to shifts -2..2 and the terms outside the two surviving shifts
are asserted to vanish at runtime.

All this side needs of ind A (the indecomposables, tau, dim Hom, dim Ext^1)
comes from the integer tables of quiver.knit_ind, knitted from dimension
vectors along the meshes: no module is built, so the two sides of the
bijection share no linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arquiver import ARQuiver
from .errors import NotSupported, WindowViolation
from .quiver import ReplicationSpec, dynkin_type, knit_ind
from .tilting import BasicExceptional, TiltingContext, compatible_sets


@dataclass(frozen=True, order=True)
class ClusterObject:
    """(module stalk in degree 0..m-1) or (shifted projective in degree m)."""
    kind: str                 # "module" | "shifted_projective"
    index: object             # ind-A position, or base vertex
    degree: int

    def describe(self, ctx=None):
        if self.kind == "module":
            base = f"ind[{self.index}]"
            if ctx is not None:
                base = ctx.ind_name(self.index)
            return f"({base})[{self.degree}]"
        return f"P({self.index})[{self.degree}]"


class ClusterContext:
    """Stalk calculus and Ext tables for the m-cluster category."""

    def __init__(self, spec: ReplicationSpec):
        if dynkin_type(spec.base) in (None, "kronecker"):
            raise NotSupported("cluster enumeration needs a Dynkin base")
        self.spec = spec
        self.ind = knit_ind(spec.base)
        self.n_ind = len(self.ind.dims)
        self._proj_idx = {k: x for x, k in self.ind.proj.items()}
        self._inj_idx = {k: x for x, k in self.ind.inj.items()}
        self._tau_inv = {t: k for k, t in enumerate(self.ind.tau)
                         if t is not None}
        self._pairs = None

    def ind_name(self, k):
        return "+".join(f"{v}^{d}" if d > 1 else v
                        for v, d in zip(self.spec.base.vertices,
                                        self.ind.dims[k]) if d)

    # -- derived stalk calculus ---------------------------------------------------

    def _tau_stalk(self, stalk):
        k, d = stalk
        if k in self._proj_idx:
            return (self.ind.inj[self._proj_idx[k]], d - 1)
        return (self.ind.tau[k], d)

    def _tau_inv_stalk(self, stalk):
        k, d = stalk
        if k in self._inj_idx:
            return (self.ind.proj[self._inj_idx[k]], d + 1)
        return (self._tau_inv[k], d)

    def _tau_power(self, stalk, e):
        for _ in range(abs(e)):
            stalk = self._tau_stalk(stalk) if e > 0 else \
                self._tau_inv_stalk(stalk)
        return stalk

    def _hom_derived(self, a, b):
        (ka, da), (kb, db) = a, b
        if db == da:
            return self.ind.hom[ka][kb]
        if db == da + 1:
            return self.ind.ext1(ka, kb)
        return 0

    def stalk(self, obj: ClusterObject):
        if obj.kind == "module":
            return (obj.index, obj.degree)
        return (self.ind.proj[obj.index], obj.degree)

    # -- cluster Ext ------------------------------------------------------------

    def cluster_ext(self, X: ClusterObject, Y: ClusterObject, i: int) -> int:
        """Orbit Ext^i, 1 <= i <= m; shifts outside {-1, 0} must vanish."""
        m = self.spec.m
        if not 1 <= i <= m:
            raise ValueError(f"cluster ext degree {i} outside 1..m")
        xs = self.stalk(X)
        ys = self.stalk(Y)
        total = 0
        for s in (-2, -1, 0, 1, 2):
            obj = self._tau_power(ys, -s)
            shifted = (obj[0], obj[1] + m * s + i)
            h = self._hom_derived(xs, shifted)
            if h and s in (-2, 1, 2):
                raise WindowViolation(
                    f"nonzero orbit term at shift {s} for "
                    f"{X.describe(self)} -> {Y.describe(self)} in degree {i}")
            total += h
        return total

    # -- objects and enumeration ---------------------------------------------------

    def objects(self):
        """The indecomposable objects, canonically ordered."""
        out = [ClusterObject("module", k, d)
               for d in range(self.spec.m) for k in range(self.n_ind)]
        out.extend(ClusterObject("shifted_projective", x, self.spec.m)
                   for x in self.spec.base.vertices)
        return out

    def compatible(self, X, Y) -> bool:
        return all(self.cluster_ext(X, Y, i) == 0 and
                   self.cluster_ext(Y, X, i) == 0
                   for i in range(1, self.spec.m + 1))

    def is_exceptional_object(self, objs) -> bool:
        objs = list(objs)
        for X in objs:
            for Y in objs:
                if any(self.cluster_ext(X, Y, i)
                       for i in range(1, self.spec.m + 1)):
                    return False
        return True

    def compatibility_pairs(self):
        """(objects, {(a, b): compatible} for a < b), built once."""
        if self._pairs is None:
            objs = self.objects()
            table = {}
            for a in range(len(objs)):
                if not self.is_exceptional_object([objs[a]]):
                    raise WindowViolation(
                        "an indecomposable object has a self-extension")
                for b in range(a + 1, len(objs)):
                    table[(a, b)] = self.compatible(objs[a], objs[b])
            self._pairs = objs, table
        return self._pairs

    def compatible_object_sets(self):
        """Pairwise-compatible object tuples of every size 1..rank,
        depth-first in lexicographic order."""
        objs, table = self.compatibility_pairs()
        for cand in compatible_sets(len(objs),
                                    lambda a, b: a == b or table[(a, b)],
                                    self.spec.base.n):
            yield tuple(objs[c] for c in cand)

    def enumerate_tilting_objects(self):
        """All maximal pairwise-compatible sets (size = rank of the base)."""
        n = self.spec.base.n
        return [t for t in self.compatible_object_sets() if len(t) == n]


# ---------------------------------------------------------------------------
# the projection functor and the tilting bijection
# ---------------------------------------------------------------------------

def pi_object(arq, node) -> ClusterObject:
    """Fundamental-domain label of a left-part node as a cluster object."""
    lab = arq.pi_label(node)
    if lab[0] == "mod":
        return ClusterObject("module", lab[1], lab[2])
    return ClusterObject("shifted_projective", lab[1], lab[2])


def verify_bijection(spec: ReplicationSpec, arq=None, tctx=None, cctx=None):
    """Double enumeration: tilting modules whose non-projective-injective
    summands lie in the left part, against tilting objects, matched by the
    projection functor.  Also matches exceptional sets of every size up to
    the rank.  Returns a JSON-ready report; violations list is empty on
    success."""
    arq = arq or ARQuiver(spec)
    tctx = tctx or TiltingContext(spec, arq=arq)
    cctx = cctx or ClusterContext(spec)
    n = spec.base.n
    m = spec.m

    pool = arq.left_part_non_proj_inj()

    def pair_ok(a, b):
        if a == b:
            return tctx.node_ext_vanishes(pool[a], pool[a])
        return tctx.node_compatible(pool[a], pool[b])

    mod_sets = {size: [] for size in range(1, n + 1)}
    for cand in compatible_sets(len(pool), pair_ok, n):
        mod_sets[len(cand)].append(tuple(pool[c] for c in cand))

    violations = []

    # tilting level: the enumeration decided every pool pair, the pool has
    # no projective-injective, and Ext^i(P, -) = 0 = Ext^i(-, I), so each
    # candidate with the projective-injectives is basic and exceptional;
    # is_tilting raises unless it is tilting (it has rank-many summands)
    module_tilting = [
        cand for cand in mod_sets[n] if tctx.is_tilting(BasicExceptional(
            [arq.nodes[i].module for i in cand] + tctx.proj_inj))]
    cluster_tilting = cctx.enumerate_tilting_objects()
    cluster_tilting_sets = {frozenset(t) for t in cluster_tilting}
    matched = []
    seen = set()
    for cand in module_tilting:
        image = frozenset(pi_object(arq, i) for i in cand)
        if image in seen:
            violations.append({"kind": "not_injective",
                               "summands": [f"n{i}" for i in cand]})
        seen.add(image)
        if image not in cluster_tilting_sets:
            violations.append({"kind": "image_not_tilting",
                               "summands": [f"n{i}" for i in cand]})
        else:
            matched.append({
                "module_side": sorted(f"n{i}" for i in cand),
                "cluster_side": sorted(o.describe(cctx) for o in image),
            })
    if len(seen) != len(cluster_tilting_sets):
        unmatched = cluster_tilting_sets - seen
        violations.append({
            "kind": "not_surjective",
            "objects": [sorted(o.describe(cctx) for o in t)
                        for t in sorted(map(sorted, map(list, unmatched)),
                                        key=str)],
        })

    # exceptional level: sets of every size map bijectively
    clu_sets = {size: set() for size in range(1, n + 1)}
    for objs in cctx.compatible_object_sets():
        clu_sets[len(objs)].add(frozenset(objs))
    exceptional_counts = {}
    for size in range(1, n + 1):
        images = {frozenset(pi_object(arq, i) for i in cand)
                  for cand in mod_sets[size]}
        exceptional_counts[size] = {"module_side": len(images),
                                    "cluster_side": len(clu_sets[size])}
        if images != clu_sets[size]:
            violations.append({"kind": "exceptional_mismatch", "size": size})

    report = {
        "base": list(spec.base.vertices),
        "m": m,
        "module_side_count": len(module_tilting),
        "cluster_side_count": len(cluster_tilting),
        "object_universe": m * cctx.n_ind + n,
        "left_part_non_proj_inj": len(pool),
        "matched": sorted(matched, key=lambda e: e["module_side"]),
        "exceptional_counts": exceptional_counts,
        "violations": violations,
    }
    return report
