import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice

import pytest

from replhom.arquiver import ARQuiver
from replhom.cluster import verify_bijection
from replhom.errors import ClosureIncomplete, TheoremViolation
from replhom.linalg import NoSolution, QMatrix
from replhom.quiver import MeshTable, ReplicationSpec
from replhom.tilting import (BasicExceptional, StallInfo, TiltingContext,
                             _stack, compatible_sets,
                             sample_faithful_exceptional)
from replhom import layered as L
from replhom import tilting
from replhom.repa import AMorphism


@pytest.fixture(scope="module")
def ctx(spec_a2_m1, arq_a2_m1):
    return TiltingContext(spec_a2_m1, arq=arq_a2_m1)


@pytest.fixture(scope="module")
def mods(nodes_a2_m1):
    return {k: n.module for k, n in nodes_a2_m1.items()}


def test_all_projectives_tilting(ctx, mods):
    T = [mods["a0"], mods["b0/a0"], mods["a1/b0/a0"], mods["b1/a1/b0"]]
    assert ctx.is_exceptional(T)
    assert ctx.is_tilting(T)


def test_simples_with_extension_not_exceptional(ctx, mods):
    assert not ctx.is_exceptional([mods["a1"], mods["b0"]])


def test_every_singleton_exceptional(ctx, mods):
    for M in mods.values():
        assert ctx.is_exceptional([M])


def test_faithful_criteria(ctx, mods):
    assert ctx.is_faithful([mods["a0"], mods["b0/a0"], mods["a1/b0/a0"],
                            mods["b1/a1/b0"]])
    assert ctx.is_faithful([mods["a1/b0/a0"], mods["b1/a1/b0"]])
    # exceptional but missing one projective-injective: both routes say no
    assert not ctx.is_faithful([mods["a1/b0/a0"], mods["b0/a0"], mods["a0"]])
    assert ctx.is_faithful([mods["a1/b0/a0"], mods["b1/a1/b0"], mods["b0/a0"]])


def test_approximation_split_mono_when_in_add(ctx, mods):
    T = [mods["a1/b0/a0"], mods["b1/a1/b0"], mods["a1"]]
    targets, f = ctx.minimal_left_approximation(mods["a1"], T)
    assert f.is_mono()
    assert targets == [2]


def test_remark_approximation_not_mono(ctx, mods):
    # the simple top of the last slice has no embedding into the
    # projective-injectives: its minimal approximation is the zero map
    targets, f = ctx.minimal_left_approximation(
        mods["a1"], [mods["a1/b0/a0"], mods["b1/a1/b0"]])
    assert targets == []
    assert not f.is_mono()


def test_approximation_into_proj_inj(ctx, mods):
    targets, f = ctx.minimal_left_approximation(
        mods["a1/b0"], [mods["a1/b0/a0"], mods["b1/a1/b0"]])
    assert f.is_mono()
    assert targets == [1]   # lands in the envelope with top b_1


def test_dropping_a_rep_fails_the_approximation_check(ctx, mods):
    """Every chosen rep is needed: without it some map into the summands
    no longer factors, and the batched check raises."""
    T = [mods["a1/b0/a0"], mods["b1/a1/b0"], mods["b0/a0"], mods["a0"]]
    dropped = 0
    for M in mods.values():
        homs = [L.hom_basis_rep(M, X) for X in T]
        reps = ctx._approximation_reps(T, homs, {})
        ctx._assert_approximation(T, homs, reps, {})
        for k in range(len(reps)):
            with pytest.raises((NoSolution, TheoremViolation)):
                ctx._assert_approximation(T, homs, reps[:k] + reps[k + 1:],
                                          {})
            dropped += 1
    assert dropped >= len(T)


def _block_inclusions(mods, D):
    """The inclusion of each of mods into their block direct sum D: an
    identity block at the summand's offset, per layer and vertex."""
    offsets = {}
    out = []
    for M in mods:
        parts = []
        for l, layer in enumerate(M.layers):
            mats = {}
            for v in M.quiver.vertices:
                off = offsets.get((l, v), 0)
                block = QMatrix.zeros(D.layers[l].dim[v], layer.dim[v])
                for r in range(layer.dim[v]):
                    block.data[off + r][r] = Fraction(1)
                mats[v] = block
                offsets[(l, v)] = off + layer.dim[v]
            parts.append(AMorphism(layer, D.layers[l], mats))
        out.append(L.LModMorphism(M, D, parts))
    return out


@pytest.mark.parametrize("base,m", [("a3", 2), ("d4", 1)])
def test_stacked_approximation_is_the_sum_of_inclusions(base, m, request):
    """f stacks the reps' vertex blocks: it equals the sum over the reps of
    incl_k g_k into the direct sum of their targets."""
    spec = ReplicationSpec(request.getfixturevalue(base), m)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    others = [node.module for node in arq.nodes if not node.is_proj_inj]
    T = list(tctx.proj_inj) + others[:2]
    compared = 0
    for node in arq.nodes:
        M = node.module
        reps = tctx._approximation_reps(
            T, [L.hom_basis_rep(M, X) for X in T], {})
        if not reps:
            continue
        targets = [T[j] for j, _ in reps]
        D = L.layered_direct_sum(spec, targets)
        incls = _block_inclusions(targets, D)
        old = None
        for (_, g), incl in zip(reps, incls):
            comp = L.lcompose(incl, g)
            old = comp if old is None else old.add(comp)
        new = _stack(M, D, [g for _, g in reps])
        assert new.src is M and new.tgt is D
        for p_new, p_old in zip(new.parts, old.parts):
            assert p_new.mats == p_old.mats
        compared += 1
    assert compared >= len(arq.nodes) // 2


def test_chain_stalls_like_the_counterexample(ctx, mods):
    chain = ctx.approximation_chain([mods["a1/b0/a0"], mods["b1/a1/b0"]],
                                    max_steps=2)
    assert chain.stalled is not None
    assert chain.stalled.step == 1
    assert L.is_iso_rep(chain.stalled.witness, mods["a1"])
    assert not chain.completed


def test_chain_completes_for_tilting(ctx, mods):
    T = [mods["a1/b0/a0"], mods["b1/a1/b0"], mods["a1/b0"], mods["a1"]]
    chain = ctx.approximation_chain(T)
    assert chain.completed and chain.stalled is None
    assert ctx.is_tilting(T)


def test_prop_chain_cokernels_in_left_parts(ctx, mods):
    T = [mods["a1/b0/a0"], mods["b1/a1/b0"], mods["b0/a0"], mods["b0"]]
    if not ctx.is_exceptional(T):
        pytest.skip("candidate not exceptional on this base")
    chain = ctx.approximation_chain(T, max_steps=1)
    for s, step in enumerate(chain.steps, start=1):
        if not step.cokernel.is_zero():
            assert L.pd_rep(step.cokernel) <= s


def test_bongartz_small_example(ctx, mods, arq_a2_m1):
    comp = ctx.bongartz_complement([mods["a1/b0/a0"], mods["b1/a1/b0"],
                                    mods["b0/a0"]])
    assert len(comp) == 1
    full = ctx.basic([mods["a1/b0/a0"], mods["b1/a1/b0"], mods["b0/a0"]]
                     + comp)
    assert len(full) == 4
    assert ctx.is_tilting(full)


def test_bongartz_already_tilting(ctx, mods):
    T = [mods["a0"], mods["b0/a0"], mods["a1/b0/a0"], mods["b1/a1/b0"]]
    assert ctx.bongartz_complement(T) == []


def test_bongartz_requires_faithful(ctx, mods):
    with pytest.raises(ValueError):
        ctx.bongartz_complement([mods["a0"], mods["b0/a0"]])


def test_exhaustive_search_oracle_four_subsets(ctx, mods):
    """Brute force over all 4-subsets of the nine indecomposables: exactly
    five tilting modules have pd <= m (the left-part ones matched by the
    cluster bijection); any further tilting modules are generalized, of
    larger pd, and still contain every projective-injective."""
    all_mods = list(mods.values())
    small_pd, generalized = [], []
    for combo in combinations(range(9), 4):
        cand = [all_mods[i] for i in combo]
        if ctx.is_exceptional(cand) and ctx.is_tilting(cand):
            (small_pd if ctx.pd(cand) <= 1 else generalized).append(combo)
            assert ctx.has_all_proj_inj(cand)
    assert len(small_pd) == 5
    assert all(ctx.pd([all_mods[i] for i in combo]) == 2
               for combo in generalized)


def test_three_summands_never_tilting(ctx, mods):
    for combo in combinations(list(mods.values()), 3):
        cand = list(combo)
        if ctx.is_exceptional(cand):
            assert not ctx.is_tilting(cand)


def test_bongartz_every_faithful_exceptional(ctx, mods):
    """Exhaustive fallback succeeds for every faithful exceptional input."""
    pis = [mods["a1/b0/a0"], mods["b1/a1/b0"]]
    others = [m for k, m in mods.items() if k not in ("a1/b0/a0", "b1/a1/b0")]
    candidates = [pis]
    for r in (1, 2):
        for extra in combinations(others, r):
            candidates.append(pis + list(extra))
    checked = 0
    for cand in candidates:
        if not ctx.is_exceptional(cand) or ctx.pd(cand) > 1:
            continue
        comp = ctx.bongartz_complement(cand)
        full = ctx.basic(cand + comp)
        assert ctx.is_tilting(full)
        checked += 1
    assert checked >= 5


# -- Kronecker base --------------------------------------------------------------

@pytest.fixture(scope="module")
def kctx(kronecker):
    return TiltingContext(ReplicationSpec(kronecker, 1))


def test_kronecker_samples(kctx):
    samples = sample_faithful_exceptional(kctx, 6, 8)
    assert len(samples) >= 6
    for cand in samples:
        assert kctx.is_exceptional(cand)
        assert kctx.is_faithful(cand)
        assert kctx.pd(cand) <= 1


def test_kronecker_complement(kctx):
    samples = sample_faithful_exceptional(kctx, 6, 4)
    for cand in samples:
        comp = kctx.bongartz_complement(cand)
        assert kctx.pd(comp) <= 1
        full = kctx.basic(cand + comp)
        assert kctx.is_tilting(full)


def test_kronecker_chain_monomorphisms(kctx):
    # on a representation-infinite base every chain approximation of a
    # faithful exceptional candidate is injective
    samples = sample_faithful_exceptional(kctx, 6, 4)
    for cand in samples:
        chain = kctx.approximation_chain(cand, max_steps=1)
        assert chain.stalled is None


def test_verdict_shape(ctx, mods):
    v = ctx.verdict([mods["a1/b0/a0"], mods["b1/a1/b0"], mods["b0/a0"]],
                    want_complement=True)
    assert v["exceptional"] and v["faithful"] and not v["tilting"]
    assert v["complement_verified"]
    assert len(v["complement"]) == 1


def _public_verdict(ctx, summands):
    """verdict(want_complement=True) from the public methods alone: each
    makes its input basic and decides exceptionality again."""
    summands = ctx.basic(summands)
    exceptional = ctx.is_exceptional(summands)
    faithful = ctx.is_faithful(summands)
    out = {"summands": len(summands),
           "projective_injective_summands":
               len(ctx.split_candidate(summands)[1]),
           "exceptional": exceptional, "faithful": faithful,
           "pd": ctx.pd(summands),
           "tilting": exceptional and ctx.is_tilting(summands)}
    if exceptional and faithful and out["pd"] <= ctx.spec.m:
        out["complement"] = [
            {"dims": {f"{v}_{l}": X.layers[l].dim[v]
                      for l in range(ctx.spec.m + 1)
                      for v in ctx.spec.base.vertices if X.layers[l].dim[v]}}
            for X in ctx.bongartz_complement(summands)]
        out["complement_verified"] = True
    return out


def _counted(owner, names, patch=setattr, counts=None):
    """Count the calls of owner's attributes names, each replaced through
    patch by a counting wrapper, in counts (a new Counter by default)."""
    counts = Counter() if counts is None else counts
    for name in names:
        def wrapped(*args, _f=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        patch(owner, name, wrapped)
    return counts


def _route_counts(make_ctx, cand, asked, work):
    """The public verdict and verdict of cand, each on a fresh context from
    make_ctx, with the counts of asked and work during each."""
    out = []
    for run in (_public_verdict,
                lambda ctx, c: ctx.verdict(c, want_complement=True)):
        asked.clear()
        work.clear()
        out.append((run(make_ctx(), cand), dict(asked), dict(work)))
    return out


def _node_route_comparisons(spec, arq, asked, work):
    """(open, public counts, verdict counts) for every candidate of the
    projective-injectives plus two other nodes a, b, and a again, whose
    verdict offers a complement; open says whether the path order leaves
    some pair of its summands open.  The verdict must equal the one the
    public methods give, with fewer Ext questions, and neither may look a
    node module up by an isomorphism test."""
    pis = [node.idx for node in arq.nodes if node.is_proj_inj]
    rest = [node.idx for node in arq.nodes if not node.is_proj_inj]
    tctx = TiltingContext(spec, arq=arq)
    out = []
    for a, b in combinations(rest, 2):
        ids = pis + [a, b]
        (want, public_asked, public_work), (got, got_asked, got_work) = \
            _route_counts(lambda: TiltingContext(spec, arq=arq),
                          [arq.nodes[i].module for i in ids + [a]],
                          asked, work)
        assert got == want
        if "complement" in got:
            assert got_asked["node_ext_vanishes"] < \
                public_asked["node_ext_vanishes"]
            # a node module is its node by identity (arq.node_id): no
            # route looks one up by an isomorphism test
            assert "_lookup" not in public_asked and "_lookup" not in got_asked
            assert "is_iso_rep" not in public_work \
                and "is_iso_rep" not in got_work
            # node lists compute no module Ext group: each open pair is
            # read off the mesh category (ARQuiver.ext)
            assert "ext_dim" not in public_work and "ext_dim" not in got_work
            out.append((not all(tctx.path_ext_zero(x, y)
                                for x in ids for y in ids),
                        public_work.get("ext", 0), got_work.get("ext", 0)))
    return out


def test_verdict_decides_basic_and_exceptional_once(spec_a2_m1, arq_a2_m1,
                                                    a3, kronecker,
                                                    monkeypatch):
    # the verdict equals the one the public methods give, with fewer Ext
    # questions on every exceptional candidate of a complement search; a
    # candidate with a repeated summand stays basic.  Each route runs on a
    # fresh context.  On the node route the isomorphism questions are
    # counted where the context would ask them, the AR quiver's node
    # lookups, and the layered ones: a list of node modules asks none on
    # either route.  On the module route (Kronecker) the verdict asks
    # fewer layered ones.
    # the Ext questions are counted on node ids (node_ext_vanishes), which
    # is_exceptional asks directly on a list of node modules and
    # ext_vanishes on a pair of them
    asked = _counted(TiltingContext, ("node_ext_vanishes",),
                     monkeypatch.setattr)
    _counted(ARQuiver, ("_lookup",), monkeypatch.setattr, asked)
    work = _counted(L, ("ext_dim", "is_iso_rep"), monkeypatch.setattr)
    # the path order (TiltingContext.path_ext_zero) decides most pairs, and
    # only the pairs it leaves open cost Ext groups, each read off the mesh
    # category on node ids (ARQuiver.ext).  The complement search asks the
    # same of both routes, so the verdict computes fewer Ext groups exactly
    # when a pair of the candidate itself is open.
    _counted(ARQuiver, ("ext",), monkeypatch.setattr, work)
    spec_a3 = ReplicationSpec(a3, 1)
    seen = Counter()
    for spec, arq in ((spec_a2_m1, arq_a2_m1), (spec_a3, ARQuiver(spec_a3))):
        for open_pair, public_ext, got_ext in _node_route_comparisons(
                spec, arq, asked, work):
            if open_pair:
                assert got_ext < public_ext
            else:
                assert got_ext == public_ext
            seen[spec.base.n, open_pair, got_ext > 0] += 1
    # A2: the verdicts of the four candidates with no open pair compute no
    # Ext group at all; the fifth holds a1 and a0, and a0 <= b0 = tau a1,
    # though Ext^{>=1}(a1, a0) = 0
    assert {k: v for k, v in seen.items() if k[0] == 2} == {
        (2, False, False): 4, (2, True, True): 1}
    assert seen[3, True, True] >= 5

    kspec = ReplicationSpec(kronecker, 1)
    for cand in sample_faithful_exceptional(TiltingContext(kspec), 6, 4):
        (want, _, public_work), (got, got_asked, got_work) = _route_counts(
            lambda: TiltingContext(kspec), cand + cand[-1:], asked, work)
        assert got == want and got["complement_verified"]
        assert "_lookup" not in got_asked
        assert got_work["ext_dim"] < public_work["ext_dim"]
        assert got_work["is_iso_rep"] < public_work["is_iso_rep"]


def test_basic_keeps_one_module_per_class(spec_a2_m1, arq_a2_m1, mods):
    """With an AR quiver basic() gives every summand, a copy of a node or a
    summand of a direct sum of nodes, as its node's own module, and the
    context's projectives are the projective nodes' modules.  Without one,
    a copy of a projective becomes the context's P(x, i)."""
    tctx = TiltingContext(spec_a2_m1, arq=arq_a2_m1)
    for site, P in tctx.projectives.items():
        node = arq_a2_m1.nodes[tctx._site_nodes[site]]
        assert node.proj_site == site and P is node.module
    copies = [L.LayeredModule.from_dict(spec_a2_m1, M.to_dict())
              for M in mods.values()]
    summed = L.layered_direct_sum(spec_a2_m1, [mods["a1"], mods["b0"]])
    kept = tctx.basic([summed] + copies + copies)
    assert {id(K) for K in kept[:2]} == {id(mods["a1"]), id(mods["b0"])}
    assert len(kept) == len(mods)
    assert {id(K) for K in kept} == {id(M) for M in mods.values()}

    bare = TiltingContext(spec_a2_m1)
    copies = [L.LayeredModule.from_dict(spec_a2_m1, P.to_dict())
              for P in bare.projectives.values()]
    assert all(K is P for K, P in zip(bare.basic(copies + copies),
                                      bare.projectives.values()))


def test_public_methods_read_a_non_basic_list(spec_a2_m1, arq_a2_m1, mods):
    """On A2 (b -> a) with m = 1, the regular module given as
    [P(a,1) + P(b,1), P(a,0), P(b,0)] is faithful and holds every
    projective: is_faithful, sites_outside and has_all_proj_inj make the
    list basic first, and agree with the verdict."""
    tctx = TiltingContext(spec_a2_m1, arq=arq_a2_m1)
    regular = [L.layered_direct_sum(spec_a2_m1, tctx.proj_inj), mods["a0"],
               mods["b0/a0"]]
    assert tctx.is_faithful(regular)
    assert tctx.sites_outside(regular) == ()
    assert tctx.has_all_proj_inj(regular)
    verdict = tctx.verdict(regular)
    assert verdict["faithful"] and verdict["tilting"]


@pytest.mark.parametrize("base,m,stride", [("a3", 1, 1), ("d4", 1, 10)])
def test_bijection_candidates_are_basic_and_exceptional(base, m, stride,
                                                       request):
    """verify_bijection passes each candidate to is_tilting marked basic and
    exceptional, with no check of its own: every stride-th of them is
    exceptional and basic as a plain list."""
    from replhom.cluster import verify_bijection
    spec = ReplicationSpec(request.getfixturevalue(base), m)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    cands = []
    is_tilting = tctx.is_tilting

    def recorded(summands):
        cands.append(summands)
        return is_tilting(summands)

    tctx.is_tilting = recorded
    report = verify_bijection(spec, arq=arq, tctx=tctx)
    assert report["violations"] == []
    assert len(cands) == report["module_side_count"] > 0
    checked = TiltingContext(spec, arq=arq)
    for cand in cands[::stride]:
        assert isinstance(cand, BasicExceptional)
        plain = list(cand)
        assert checked.is_exceptional(plain)
        assert checked.basic(plain) == plain


# -- the compatible-set enumerator ---------------------------------------------

# a fixed compatibility graph on seven items: a path 0-1-2-3, a triangle
# 4-5-6, and the chords 0-2, 1-4, 3-5, 0-6
_EDGES = {(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (0, 2), (1, 4),
          (3, 5), (0, 6)}


def _graph_ok(a, b):
    return a == b or (a, b) in _EDGES


def _brute_force(size, admitted):
    return [t for t in combinations(admitted, size)
            if all(_graph_ok(a, b) for a, b in combinations(t, 2))]


def test_compatible_sets_match_brute_force():
    for max_size in range(1, 8):
        got = list(compatible_sets(7, _graph_ok, max_size))
        # depth first: each tuple right before its extensions
        assert got == sorted(got)
        for size in range(1, 8):
            want = _brute_force(size, range(7)) if size <= max_size else []
            assert [t for t in got if len(t) == size] == want
    assert (0, 1, 2) in got and (4, 5, 6) in got and len(got) == 7 + 10 + 2


def test_compatible_sets_skip_rejected_items():
    rejected = {2, 5}
    got = list(compatible_sets(7, _graph_ok, 7,
                               item_ok=lambda c: c not in rejected))
    assert not any(set(t) & rejected for t in got)
    admitted = [c for c in range(7) if c not in rejected]
    assert got == sorted(t for size in range(1, 8)
                         for t in _brute_force(size, admitted))
    # a failed self verdict rejects the item as well
    got = list(compatible_sets(7, lambda a, b: a != 3 and _graph_ok(a, b), 7))
    assert not any(3 in t for t in got)


def test_compatible_sets_ask_each_verdict_once():
    asked = []

    def pair_ok(a, b):
        asked.append((a, b))
        return _graph_ok(a, b)

    def item_ok(c):
        asked.append(c)
        return True

    got = list(compatible_sets(7, pair_ok, 7, item_ok))
    assert len(asked) == len(set(asked))
    assert set(range(7)) <= set(asked)
    assert {(c, c) for c in range(7)} <= set(asked)
    assert all(a <= b for a, b in (k for k in asked if isinstance(k, tuple)))
    assert len(got) == 19


# -- the chain from the projectives outside add T ---------------------------------

def _reduced_chain_cases(q, m, stride=1, sample=None):
    """For every compatible set T of AR nodes up to rank (every stride-th
    in enumeration order, or the sets sample(n, pair_ok, rank) gives, n
    the number of nodes and pair_ok compatibility on node indices),
    is_tilting(T) must equal the verdict of the chain of the full regular
    module, built by the module route.  Each is_tilting must take the node
    route, choose one approximation per new memo key from the mesh table,
    and build no module: no cokernel, decomposition or direct sum.  Every
    memoized step must then equal the one the module route gives
    (_module_step).  Returns how often the reduced chain started from a
    projective-injective, from layer-0 projectives alone, or from nothing,
    and how many T were tilting."""
    spec = ReplicationSpec(q, m)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    mods = [node.module for node in arq.nodes]
    rank = q.n * (m + 1)
    seen = Counter()
    calls = _counted(tctx, ("approximation_chain", "_approximation_reps"))
    _counted(arq, ("_mesh_reps",), counts=calls)

    def pair_ok(a, b):
        return tctx.compatible(mods[a], mods[b])

    sets = islice(compatible_sets(len(mods), pair_ok, rank), 0, None,
                  stride) if sample is None else sample(len(mods), pair_ok,
                                                        rank)
    with pytest.MonkeyPatch.context() as mp:
        built = _counted(L, ("cokernel_rep", "decompose_rep",
                             "layered_direct_sum"), mp.setattr)
        for idxs in sets:
            T = tctx.basic([mods[i] for i in idxs])
            assert tctx.node_ids(T) == list(idxs)
            assert tctx.is_exceptional(T)
            full = tctx.approximation_chain(T)
            assert full.start is tctx.regular.module
            before, keys = Counter(calls), len(tctx._steps)
            built_before = Counter(built)
            tilting = tctx.is_tilting(T)
            assert calls["approximation_chain"] == \
                before["approximation_chain"]
            assert calls["_approximation_reps"] == \
                before["_approximation_reps"]
            assert (calls["_mesh_reps"] - before["_mesh_reps"]
                    == len(tctx._steps) - keys)
            assert built == built_before
            assert tilting == full.completed, idxs
            rest = tctx.sites_outside(T)
            if not rest:
                seen["empty start"] += 1
            elif any(i for _, i in rest):
                seen["projective-injective in start"] += 1
            else:
                seen["layer-0 start"] += 1
            seen["tilting"] += tilting
    for (idx, support), nodes in tctx._steps.items():
        assert nodes == _module_step(tctx, idx, support), (idx, support)
        seen["steps"] += 1
        seen["stalled steps"] += nodes is None
    return seen


def _module_step(tctx, idx, support):
    """The approximation step of node idx into add of the nodes support,
    built by the module route: None when minimal_left_approximation is not
    mono, else the sorted nodes of the summands of its cokernel module."""
    nodes = tctx.arq.nodes
    _, f = tctx.minimal_left_approximation(
        nodes[idx].module, [nodes[j].module for j in sorted(support)])
    if not f.is_mono():
        return None
    coker, _ = L.cokernel_rep(f)
    if coker.is_zero():
        return ()
    return tuple(sorted({tctx.arq.find_node(X).idx
                         for X in L.decompose_rep(coker)}))


@pytest.mark.parametrize("base,m", [("a2", 1), ("a2", 2), ("a3", 1)])
def test_reduced_chain_agrees_with_the_full_chain(base, m, request):
    """Every compatible set: with is_tilting's counting check, a set is
    tilting exactly when it has rank-many summands.  A3 with m = 1 has nine
    tilting sets of pd 3 = 2m + 1, whose chains reach zero at C_4."""
    seen = _reduced_chain_cases(request.getfixturevalue(base), m)
    assert seen["empty start"] == 1    # the regular module itself
    assert seen["projective-injective in start"] > 0
    assert seen["layer-0 start"] > 0
    assert seen["tilting"] == {("a2", 1): 9, ("a2", 2): 22,
                               ("a3", 1): 52}[base, m]


def test_reduced_chain_agrees_on_a3_m2_sample(a3):
    """Every 50th of the 23,039 compatible sets of A3 with m = 2, and every
    approximation step they meet."""
    seen = _reduced_chain_cases(a3, 2, stride=50)
    assert seen["projective-injective in start"] > 0
    assert seen["steps"] > seen["stalled steps"] > 0
    assert seen["layer-0 start"] > 0
    assert seen["tilting"] > 0


@pytest.mark.slow
def test_reduced_chain_agrees_with_the_full_chain_a3_m2(a3):
    """All 23,039 compatible sets of A3 with m = 2, and every approximation
    step they meet."""
    seen = _reduced_chain_cases(a3, 2)
    assert seen["empty start"] == 1
    assert seen["steps"] > seen["stalled steps"] > 0
    assert seen["projective-injective in start"] > 0
    assert seen["layer-0 start"] > 0
    assert seen["tilting"] == 200


def test_reduced_chain_agrees_on_d4_m1_sample(d4):
    """Every 40th of the 24,175 compatible sets of D4 with m = 1, and every
    approximation step they meet."""
    seen = _reduced_chain_cases(d4, 1, stride=40)
    assert seen["projective-injective in start"] > 0
    assert seen["steps"] > seen["stalled steps"] > 0
    assert seen["layer-0 start"] > 0
    assert seen["tilting"] > 0


@pytest.mark.slow
def test_reduced_chain_agrees_with_the_full_chain_d4_m1(d4):
    """All 24,175 compatible sets of D4 with m = 1, and every approximation
    step they meet."""
    seen = _reduced_chain_cases(d4, 1)
    assert seen["empty start"] == 1
    assert seen["steps"] > seen["stalled steps"] > 0
    assert seen["projective-injective in start"] > 0
    assert seen["layer-0 start"] > 0
    assert seen["tilting"] == 567


def _greedy_sets(count, seed):
    """A sample for _reduced_chain_cases: count node sets, each a maximal
    compatible set grown greedily in a seeded random node order (stopped at
    rank), or a prefix of one of seeded random length.  A maximal set of
    fewer than rank nodes has a chain that stalls."""
    def sample(n, pair_ok, rank):
        rng = random.Random(seed)
        for _ in range(count):
            order = list(range(n))
            rng.shuffle(order)
            chosen = []
            for c in order:
                if len(chosen) == rank:
                    break
                if all(pair_ok(o, c) for o in chosen + [c]):
                    chosen.append(c)
            keep = len(chosen) if rng.random() < 0.5 else \
                rng.randint(1, len(chosen))
            yield tuple(sorted(chosen[:keep]))
    return sample


@pytest.mark.parametrize("base", ["d4", "a4"])
def test_reduced_chain_agrees_on_m2_samples(base, request):
    """Seeded random compatible sets of D4 and A4 with m = 2 (1,640,959
    and 1,100,031 compatible sets, too many to walk), and every
    approximation step they meet, stalled ones among them."""
    seen = _reduced_chain_cases(request.getfixturevalue(base), 2,
                                sample=_greedy_sets(20, seed=2))
    assert seen["steps"] > seen["stalled steps"] > 0
    assert seen["tilting"] > 0


@pytest.mark.slow
def test_every_e6_m1_verify_step_matches_the_module_step(e6):
    """Every approximation step that the E6 m = 1 bijection check memoizes
    equals the one the module route gives: 3,190 steps, none stalled, as
    the check coresolves its 833 tilting modules only."""
    spec = ReplicationSpec(e6, 1)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    report = verify_bijection(spec, arq=arq, tctx=tctx)
    assert not report["violations"]
    assert report["module_side_count"] == 833
    for (idx, support), nodes in tctx._steps.items():
        assert nodes == _module_step(tctx, idx, support), (idx, support)
    assert len(tctx._steps) == 3190


def test_reduced_chain_start_sites(ctx, mods):
    projectives = [mods["a0"], mods["b0/a0"], mods["a1/b0/a0"],
                   mods["b1/a1/b0"]]
    assert ctx.sites_outside(projectives) == ()
    chain = ctx.approximation_chain(
        projectives, start=L.lproj_sum(ctx.spec, ()).module)
    assert chain.completed and chain.steps == []
    # missing the projective-injective P(b, 1): the chain starts from it
    T = [mods["a1/b0/a0"], mods["b0/a0"], mods["a0"]]
    assert ctx.sites_outside(T) == (("b", 1),)
    assert not ctx.is_tilting(T)
    assert ctx.sites_outside([mods["a1/b0/a0"], mods["b1/a1/b0"]]) == \
        (("a", 0), ("b", 0))


def _counting_criterion_case(mods):
    """A tilting candidate the counting criterion covers whose chain starts
    from the layer-0 projectives P(a, 0) and P(b, 0)."""
    return [mods["a1/b0/a0"], mods["b1/a1/b0"], mods["a1/b0"], mods["a1"]]


def test_counting_criterion_catches_a_chain_that_does_not_complete(
        spec_a2_m1, arq_a2_m1, mods, monkeypatch):
    # node route: one memoized approximation step reports a stall
    tctx = TiltingContext(spec_a2_m1, arq=arq_a2_m1)
    T = _counting_criterion_case(mods)
    assert tctx.node_ids(T) is not None
    assert tctx.sites_outside(T) == (("a", 0), ("b", 0))
    assert tctx.pd(T) <= 1
    real = tctx._node_step
    stalled = []

    def one_stall(idx, support):
        if not stalled:
            stalled.append((idx, support))
            return None
        return real(idx, support)

    monkeypatch.setattr(tctx, "_node_step", one_stall)
    with pytest.raises(TheoremViolation, match="counting criterion"):
        tctx.is_tilting(T)
    assert stalled
    monkeypatch.undo()
    assert tctx.is_tilting(T)


def test_counting_criterion_catches_a_module_chain_that_does_not_complete(
        spec_a2_m1, mods, monkeypatch):
    # module route (no AR quiver): the chain is reported stalled
    tctx = TiltingContext(spec_a2_m1)
    T = _counting_criterion_case(mods)
    assert tctx.node_ids(T) is None
    real = tctx.approximation_chain

    def stalled(summands, max_steps=None, start=None):
        chain = real(summands, max_steps, start)
        assert chain.completed
        chain.completed = False
        chain.stalled = StallInfo(0, chain.start, tctx, summands)
        return chain

    monkeypatch.setattr(tctx, "approximation_chain", stalled)
    with pytest.raises(TheoremViolation, match="counting criterion"):
        tctx.is_tilting(T)


@pytest.mark.parametrize("route", ["node", "module"])
def test_a_chain_that_neither_stalls_nor_ends_is_a_violation(
        spec_a2_m1, arq_a2_m1, nodes_a2_m1, mods, monkeypatch, route):
    """The chain of an exceptional module that has not stalled reaches zero
    by C_{2m+2}, gl.dim A^(m) being 2m + 1.  With the global dimension
    taken as 0, the bound is C_1, and the chain of this tilting module,
    whose C_1 holds the node a1/b0, must raise rather than answer "not
    tilting" on either route."""
    tctx = TiltingContext(spec_a2_m1,
                          arq=arq_a2_m1 if route == "node" else None)
    T = _counting_criterion_case(mods)
    assert tctx.is_tilting(T)
    monkeypatch.setattr("replhom.tilting.ext_horizon", lambda spec: 0)
    tctx = TiltingContext(spec_a2_m1,
                          arq=arq_a2_m1 if route == "node" else None)
    with pytest.raises(TheoremViolation, match="has not stalled") as exc:
        tctx.is_tilting(T)
    assert any(L.is_iso_rep(X, mods["a1/b0"])
               for X in L.decompose_rep(exc.value.witness))


def test_pd_2m_plus_1_tilting_module_is_tilting(tmp_path, capsys):
    """On A3 (1 -> 2 -> 3) with m = 1 this exceptional module of pd 3 has
    rank-many summands and a chain that reaches zero at C_4: tilting."""
    from replhom.cli import main
    quiver = tmp_path / "a3.json"
    quiver.write_text(json.dumps({
        "vertices": ["1", "2", "3"],
        "arrows": [{"id": "a", "src": "1", "tgt": "2"},
                   {"id": "b", "src": "2", "tgt": "3"}]}))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"summands": ["n0", "n1", "n3", "n4", "n5",
                                             "n6"]}))
    assert main(["tilt-check", str(cand), "--quiver", str(quiver),
                 "--m", "1"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {"exceptional": True, "faithful": True, "pd": 3,
                       "projective_injective_summands": 3, "summands": 6,
                       "tilting": True}


def test_module_route_serves_kronecker_and_non_node_summands(
        kronecker, spec_a2_m1, arq_a2_m1, mods):
    """Without an AR quiver is_tilting builds the chain of modules.  With
    one, basic() splits a summand isomorphic to no AR node, such as a
    direct sum of nodes, into its nodes, so the node route serves it and
    gives the verdict of the chain of its split summands; a summand that
    is a copy of a node takes the node route as it is."""
    kctx = TiltingContext(ReplicationSpec(kronecker, 1))
    calls = _counted(kctx, ("approximation_chain",))
    for cand in sample_faithful_exceptional(kctx, 6, 4):
        full = kctx.basic(cand + kctx.bongartz_complement(cand))
        assert kctx.node_ids(full) is None
        before = calls["approximation_chain"]
        assert kctx.is_tilting(full)
        assert calls["approximation_chain"] == before + 1
    assert not kctx._steps

    tctx = TiltingContext(spec_a2_m1, arq=arq_a2_m1)
    calls = _counted(tctx, ("approximation_chain",))
    pis = [mods["a1/b0/a0"], mods["b1/a1/b0"]]
    tilting = pis + [mods["a1/b0"], mods["a1"]]
    summed = [  # a direct sum of two nodes as one summand; two are A itself
        [L.layered_direct_sum(tctx.spec, [mods["a0"], mods["b0/a0"]])] + pis,
        pis + [L.layered_direct_sum(tctx.spec, tilting[2:])],
        [L.layered_direct_sum(tctx.spec, pis), mods["a0"], mods["b0/a0"]]]
    for T in summed:
        assert tctx.node_ids(T) is None
        parts = tctx.basic(T)
        assert len(parts) == 4 and tctx.node_ids(parts) is not None
        assert tctx.is_exceptional(T)
        before = calls["approximation_chain"]
        assert tctx.is_tilting(T)
        assert calls["approximation_chain"] == before
        assert tctx.approximation_chain(parts).completed
    assert tctx._steps
    copies = [L.LayeredModule.from_dict(tctx.spec, M.to_dict())
              for M in tilting]
    assert tctx.node_ids(copies) == tctx.node_ids(tilting)
    before = calls["approximation_chain"]
    assert tctx.is_tilting(copies)
    assert calls["approximation_chain"] == before


def test_cokernel_summand_without_a_node_names_its_step(
        spec_a2_m1, arq_a2_m1, nodes_a2_m1, mods, monkeypatch):
    """Mesh data that misses an arrow stops the node route: the cokernel's
    multiplicities, read by Auslander's formula, no longer add up to its
    dimension vector, and the error names the node whose step it was and
    the dimension vector left over."""
    tctx = TiltingContext(spec_a2_m1, arq=arq_a2_m1)
    T = _counting_criterion_case(mods)
    assert tctx.is_tilting(T)
    # the chain starts from P(a, 0), whose cokernel is the node a1/b0; with
    # the arrow a1/b0 -> a1 gone, a1 seems to be a summand of it as well
    y = nodes_a2_m1["a1"].idx
    assert arq_a2_m1.in_arrows[y] == [(nodes_a2_m1["a1/b0"].idx, 1)]
    monkeypatch.setitem(arq_a2_m1.in_arrows, y, [])
    tctx = TiltingContext(spec_a2_m1, arq=arq_a2_m1)
    with pytest.raises(ClosureIncomplete) as exc:
        tctx.is_tilting(T)
    assert not tctx._steps          # the failing step is not memoized
    start = tctx._site_nodes[("a", 0)]
    assert exc.value.witness is arq_a2_m1.nodes[start].module
    assert (f"the cokernel of the approximation step at n{start} is no sum "
            f"of AR nodes: multiplicities {{n{y}: 1, "
            f"n{nodes_a2_m1['a1/b0'].idx}: 1}} leave dimension vector "
            f"{{'a_1': -1}}" == str(exc.value))


def test_a_wrong_mesh_hom_entry_names_its_pair(spec_a2_m1):
    """A node step reads the mesh Hom table beside the Hom bases it builds:
    an entry that disagrees with its basis stops the verdict, which names
    the pair.  The chain of this tilting module starts from P(a, 0), and
    Hom(P(a, 0), P(a, 1)) is one-dimensional."""
    arq = ARQuiver(spec_a2_m1)      # its own table, corrupted below
    nodes = {arq.node_label(n): n for n in arq.nodes}
    tctx = TiltingContext(spec_a2_m1, arq=arq)
    start, target = tctx._site_nodes[("a", 0)], nodes["a1/b0/a0"].idx
    assert arq.hom[start][target] == 1
    arq.hom[start][target] = 2
    with pytest.raises(ClosureIncomplete) as exc:
        tctx.verdict([n.module for n in arq.nodes if n.is_proj_inj]
                     + [nodes["a1/b0"].module, nodes["a1"].module])
    assert str(exc.value) == (f"Hom(n{start}, n{target}) has a basis of 1 "
                              f"maps, the mesh table dimension 2")


def test_a_corrupted_arrow_map_names_its_pair(spec_a2_m1, monkeypatch):
    """The mesh table checks every space it knits against arq.hom.  The
    only arrow into a1 comes from a1/b0, so with the arrow map tau a1 ->
    a1/b0 zeroed in a row being knitted, the mesh ending in a1 no longer
    kills the image of P_x(tau a1): P_x(a1) comes out too large by dim
    P_x(tau a1), and the verdict stops naming the pair."""
    arq = ARQuiver(spec_a2_m1)      # its own mesh table, corrupted below
    nodes = {arq.node_label(n): n for n in arq.nodes}
    y, e = nodes["a1"].idx, nodes["a1/b0"].idx
    t = arq.nodes[y].tau
    assert arq.in_arrows[y] == [(e, 1)]
    real = arq.mesh._mesh_images

    def corrupted(blocks, dims, tau_n, n):
        if n == y and dims[t]:
            blocks[e][t] = [[0] * dims[e] for _ in range(dims[t])]
        return real(blocks, dims, tau_n, n)

    monkeypatch.setattr(arq.mesh, "_mesh_images", corrupted)
    tctx = TiltingContext(spec_a2_m1, arq=arq)
    with pytest.raises(ClosureIncomplete) as exc:
        tctx.verdict([n.module for n in arq.nodes if n.is_proj_inj]
                     + [nodes["a1/b0"].module, nodes["a1"].module])
    x = next(x for x in range(len(arq.nodes))
             if str(exc.value).startswith(f"Hom(n{x}, n{y}) "))
    assert arq.hom[x][t] > 0
    assert str(exc.value) == (
        f"Hom(n{x}, n{y}) has a basis of {arq.hom[x][y] + arq.hom[x][t]} "
        f"maps, the mesh table dimension {arq.hom[x][y]}")
    assert not tctx._steps


@pytest.mark.parametrize("base,m", [("a2", 1), ("d4", 1)])
def test_dropping_a_mesh_rep_fails_the_factorization_check(base, m,
                                                           request):
    """Every component a node step chooses is needed: without it some map
    from the node into a target no longer factors through the others, and
    the factorization check raises TheoremViolation naming the step and a
    target.  The targets are the projective-injectives and two more
    nodes of a tilting module."""
    spec = ReplicationSpec(request.getfixturevalue(base), m)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    T = next(iter(_tilting_node_sets(tctx)))
    dropped = 0
    for x in range(len(arq.nodes)):
        targets = [t for t in T if arq.hom[x][t]]
        reps = arq._mesh_reps(x, targets)
        arq._assert_mesh_approximation(x, targets, reps)
        for k, (t, _) in enumerate(reps):
            with pytest.raises(TheoremViolation) as exc:
                arq._assert_mesh_approximation(x, targets,
                                               reps[:k] + reps[k + 1:])
            # the first target in order whose maps no longer all factor:
            # t, or one before it whose maps factored only through t
            named = int(str(exc.value).split(" into n")[1].split(":")[0])
            assert str(exc.value).startswith(
                f"the approximation step at n{x} misses a morphism into "
                f"n{named}: ")
            assert named in targets and named <= t
            assert exc.value.witness is arq.nodes[x].module
            dropped += 1
    assert dropped >= len(T)


def _tilting_node_sets(tctx):
    """The node sets of the tilting modules of tctx's spec, in the order
    of compatible_sets."""
    n = len(tctx.arq.nodes)
    rank = tctx.spec.base.n * (tctx.spec.m + 1)
    for ids in compatible_sets(n, tctx.node_compatible, rank):
        if len(ids) == rank and tctx.is_tilting(
                [tctx.arq.nodes[i].module for i in ids]):
            yield ids


def test_a_node_route_verdict_builds_no_hom_basis(d4, monkeypatch):
    """A verdict on the node route, a complement search included, reads its
    approximation steps off the mesh table: it makes no Hom basis,
    composite vector or cokernel module, and no regular module."""
    spec = ReplicationSpec(d4, 1)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    made = _counted(L, ("hom_basis_rep", "cokernel_rep"), monkeypatch.setattr)
    _counted(tilting, ("_composite_vector",), monkeypatch.setattr, made)
    pis = [node.module for node in arq.nodes if node.is_proj_inj]
    rest = [node.module for node in arq.nodes if not node.is_proj_inj]
    seen = Counter()
    for k in range(len(rest)):
        out = tctx.verdict(pis + rest[k:k + 2], want_complement=True)
        seen["complement"] += "complement" in out
        seen["exceptional"] += out["exceptional"]
    assert seen["complement"] > 0 and seen["exceptional"] > 0
    assert tctx._steps
    assert not made
    assert "regular" not in vars(tctx)


def test_the_kronecker_route_builds_no_mesh_table(kronecker, monkeypatch):
    """Without an AR quiver there is no mesh table: the Kronecker verdicts
    and complements build none and memoize no node step."""
    built = _counted(MeshTable, ("__init__", "_knit", "pull"),
                     monkeypatch.setattr)
    kctx = TiltingContext(ReplicationSpec(kronecker, 1))
    for cand in sample_faithful_exceptional(kctx, 6, 4):
        out = kctx.verdict(cand, want_complement=True)
        assert out["complement_verified"]
    assert not built
    assert not kctx._steps


# -- Ext zeros read off the path order ----------------------------------------

@pytest.mark.parametrize("name,m", [
    ("a3", 1), ("a3", 2), ("d4", 1), ("d4", 2), ("a4", 2),
    pytest.param("e6", 1, marks=pytest.mark.slow)])
def test_path_order_ext_zeros_are_zeros(request, name, m):
    """Every ordered pair of AR nodes, a node with itself included, that
    the path order decides (x projective, y injective, or y not <= tau x)
    has no Ext in any degree 1..2m+1.  It decides every self pair, and most
    pairs.  Some pairs with y <= tau x are decided because y is injective:
    they are open without that rule, and each has no Ext either."""
    spec = ReplicationSpec(request.getfixturevalue(name), m)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    decided = by_injective = 0
    for x in arq.nodes:
        assert tctx.path_ext_zero(x.idx, x.idx)
        for y in arq.nodes:
            if tctx.path_ext_zero(x.idx, y.idx):
                decided += 1
                by_injective += x.tau is not None and arq.leq(y.idx, x.tau)
                assert not any(L.ext_dim(x.module, y.module, i)
                               for i in range(1, 2 * m + 2)), (x.idx, y.idx)
    assert decided > len(arq.nodes) ** 2 / 2
    assert by_injective > 0
    if (name, m) == ("d4", 1):
        assert by_injective == 47


def test_kronecker_route_computes_every_ext_group(kronecker, monkeypatch):
    """Without an AR quiver no Ext question is read off a path order:
    every one the sampling and the verdicts ask is computed, 108 for the
    sampling and 75 or 96 per verdict."""
    work = _counted(L, ("ext_dim",), monkeypatch.setattr)
    spec = ReplicationSpec(kronecker, 1)
    samples = sample_faithful_exceptional(TiltingContext(spec), 6, 4)
    assert work["ext_dim"] == 108
    counts = []
    for cand in samples:
        work.clear()
        TiltingContext(spec).verdict(cand + cand[-1:], want_complement=True)
        counts.append(work["ext_dim"])
    assert counts == [75, 96, 96, 96]


# -- faithfulness from cached row bases --------------------------------------------

def _basis_actions(tctx, M):
    """Action of every algebra basis element on M, flattened as entries of
    the total-space operator (the reference's dense columns)."""
    q = tctx.spec.base
    paths = q.paths()
    m = tctx.spec.m
    offs, D = {}, 0
    for i in range(m + 1):
        for v in q.vertices:
            offs[(i, v)] = D
            D += M.layers[i].dim[v]

    def embedded(mat, row_site, col_site):
        vec = [Fraction(0)] * (D * D)
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
    return cols


def _stacked_rank_faithful(tctx, summands):
    """The annihilator test as one dense system: a row per operator entry of
    every summand, a column per algebra basis element."""
    per_element = None
    for M in summands:
        acts = _basis_actions(tctx, M)
        if per_element is None:
            per_element = [list(a) for a in acts]
        else:
            for col, a in zip(per_element, acts):
                col.extend(a)
    if per_element is None:
        return False
    rows = [r for r in zip(*per_element) if any(r)]
    system = QMatrix(len(rows), len(per_element), rows or None)
    return system.rank() == tctx.algebra_dim()


def _assert_row_cache(tctx, summands):
    for M in summands:
        assert "basis_actions" not in M._cache
        rows = M._cache["annihilator_rows"]
        assert len(rows) <= tctx.algebra_dim()
        assert all(len(r) == tctx.algebra_dim() and
                   all(type(x) is int for x in r) for r in rows)


@pytest.mark.parametrize("base,m,seed", [("a3", 2, 11), ("d4", 1, 12)])
def test_faithful_matches_the_stacked_rank(base, m, seed, request):
    spec = ReplicationSpec(request.getfixturevalue(base), m)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    mods = [node.module for node in arq.nodes]
    rank = spec.base.n * (m + 1)
    rng = random.Random(seed)
    pis = list(tctx.proj_inj)
    cands = [rng.sample(mods, rng.randint(1, rank + 2)) for _ in range(30)]
    cands += [pis + rng.sample(mods, rng.randint(1, rank)) for _ in range(10)]
    # exceptional candidates too, where the two criteria must agree
    for _ in range(20):
        cand = pis[:rng.randint(len(pis) - 1, len(pis))]
        for M in rng.sample(mods, len(mods)):
            if len(cand) < rank and tctx.is_exceptional(cand + [M]):
                cand = tctx.basic(cand + [M])
        cands.append(cand)
    seen = Counter()
    for cand in cands:
        exceptional = tctx.is_exceptional(cand)
        got = tctx.is_faithful(cand)
        assert got == _stacked_rank_faithful(tctx, cand)
        _assert_row_cache(tctx, cand)
        seen[exceptional, got] += 1
    assert seen[True, True] and seen[True, False]
    assert seen[False, True] and seen[False, False]


def test_faithful_matches_the_stacked_rank_kronecker(kctx):
    for cand in sample_faithful_exceptional(kctx, 6, 8):
        assert kctx.is_faithful(cand)
        assert _stacked_rank_faithful(kctx, cand)
        _assert_row_cache(kctx, cand)
        # without a projective-injective summand neither route is faithful
        assert not kctx.is_faithful(cand[1:])
        assert not _stacked_rank_faithful(kctx, cand[1:])


@pytest.mark.parametrize("base,m,seed", [("a3", 2, 13), ("d4", 1, 14)])
def test_annihilator_span_matches_the_stacked_rank(base, m, seed, request):
    """The annihilator test reuses the projective-injectives' span, reduced
    on the first candidate that holds all of them: it gives the plain
    stacked rank on candidates holding every projective-injective (as the
    context's modules or as copies) and on candidates missing one."""
    spec = ReplicationSpec(request.getfixturevalue(base), m)
    arq = ARQuiver(spec)
    tctx = TiltingContext(spec, arq=arq)
    pis = list(tctx.proj_inj)
    copies = [L.LayeredModule.from_dict(spec, P.to_dict()) for P in pis]
    others = [node.module for node in arq.nodes if not node.is_proj_inj]
    rng = random.Random(seed)
    seen = Counter()
    for k in range(12):
        extra = rng.sample(others, rng.randint(0, 3))
        missing = pis[:k % len(pis)] + pis[k % len(pis) + 1:] + extra
        holding = rng.sample((pis, copies)[k % 2] + extra,
                             len(pis) + len(extra))
        for cand, holds in ((missing, False), (holding, True)):
            if not seen:
                assert tctx._pi_span is None
            got = tctx._annihilator_is_zero(cand)
            assert got == _stacked_rank_faithful(tctx, cand)
            seen[holds, got] += 1
    assert tctx._pi_span is not None
    assert seen[True, True] == 12 and seen[False, False]


def test_annihilator_span_matches_the_stacked_rank_kronecker(kronecker):
    tctx = TiltingContext(ReplicationSpec(kronecker, 1))
    samples = sample_faithful_exceptional(tctx, 6, 8)
    assert tctx._pi_span is None
    for cand in samples:
        assert tctx._annihilator_is_zero(cand)
        assert _stacked_rank_faithful(tctx, cand)
        assert tctx._pi_span is not None
        assert not tctx._annihilator_is_zero(cand[1:])
        assert not _stacked_rank_faithful(tctx, cand[1:])
