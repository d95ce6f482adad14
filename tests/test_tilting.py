from fractions import Fraction
from itertools import combinations

import pytest

from replhom.arquiver import ARQuiver
from replhom.errors import TheoremViolation
from replhom.linalg import NoSolution, QMatrix
from replhom.quiver import ReplicationSpec
from replhom.tilting import (TiltingContext, _stack, compatible_sets,
                             sample_faithful_exceptional)
from replhom import layered as L
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
        reps = ctx._approximation_reps(T, homs)
        ctx._assert_approximation(T, homs, reps)
        for k in range(len(reps)):
            with pytest.raises((NoSolution, TheoremViolation)):
                ctx._assert_approximation(T, homs, reps[:k] + reps[k + 1:])
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
        reps = tctx._approximation_reps(T, [L.hom_basis_rep(M, X) for X in T])
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
