"""The splitter derives each split part's End basis from its parent's.

Every derived basis must equal, entry by entry, the basis hom_basis or
hom_basis_rep solves on a copy of the part with empty caches: the splitter
reads it back as the part's End, and every later decision (candidates,
eigenvalues, split order) depends on it.
"""

import random

import pytest

from replhom import layered as L
from replhom import repa
from replhom.arquiver import ARQuiver
from replhom.linalg import QMatrix
from replhom.quiver import ReplicationSpec
from replhom.repa import (ARep, AMorphism, compose, decompose_a,
                          direct_sum_plain, nu_morphism)
from replhom.tilting import TiltingContext, sample_faithful_exceptional


def _cached_end(X):
    hit = X._cache["hom"][id(X)]
    assert hit[0] is X
    return hit[1]


@pytest.fixture()
def derived(monkeypatch):
    """Every part the splitter makes, with the End bases cached on it (and
    on its layers) at the moment of the split."""
    seen = []
    split_parts = repa._split_parts

    def record(M, end, parts, hooks):
        out = split_parts(M, end, parts, hooks)
        for X in out:
            layers = [_cached_end(layer) for layer in getattr(X, "layers", ())]
            seen.append((X, _cached_end(X), layers))
        return out

    monkeypatch.setattr(repa, "_split_parts", record)
    return seen


def _twist_a(M, rng):
    """M in a random new basis at each vertex, with the isomorphism M -> it
    (a sum in such a basis is far from block diagonal, so its parts' End
    bases need every step of the reduction)."""
    g = {}
    for v in M.quiver.vertices:
        n = M.dim[v]
        while True:
            m = QMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(n)])
            if m.is_invertible():
                g[v] = m
                break
    T = ARep(M.quiver, M.dim, {a: g[t] * M.mats[a] * g[s].inverse()
                               for a, s, t in M.quiver.arrows})
    return T, AMorphism(M, T, g)


def _twist_rep(X, rng):
    layers, isos = zip(*(_twist_a(layer, rng) for layer in X.layers))
    back = [AMorphism(T, layer, {v: m.inverse() for v, m in h.mats.items()})
            for T, layer, h in zip(layers, X.layers, isos)]
    conns = [None] + [
        compose(isos[i - 1], compose(X.connectors[i], nu_morphism(back[i])))
        for i in range(1, X.spec.m + 1)]
    return L.LayeredModule(X.spec, layers, conns)


def _entries(f):
    return [f.mats[v].data for v in f.src.quiver.vertices]


def _rep_entries(f):
    return [_entries(p) for p in f.parts]


def _assert_base_parts_match(derived):
    assert derived
    for X, end, _ in derived:
        Y = ARep.from_dict(X.quiver, X.to_dict())     # nothing cached
        assert [_entries(f) for f in end] == \
            [_entries(f) for f in repa.hom_basis(Y, Y)]


def _assert_layered_parts_match(derived):
    assert derived
    for X, end, layer_ends in derived:
        Y = L.LayeredModule.from_dict(X.spec, X.to_dict())
        for layer_end, layer in zip(layer_ends, Y.layers):
            assert [_entries(f) for f in layer_end] == \
                [_entries(f) for f in repa.hom_basis(layer, layer)]
        assert [_rep_entries(f) for f in end] == \
            [_rep_entries(f) for f in L.hom_basis_rep(Y, Y)]


def test_base_kronecker_chain(kronecker, derived):
    R0, R1, Rinf = repa.kronecker_regulars(kronecker)
    pool = repa.enumerate_ind(kronecker, bound=4)
    mods = [R0, pool[-1], R0, R1, pool[-1], Rinf]
    M = direct_sum_plain(mods)[0]
    for X in (M, _twist_a(M, random.Random(1))[0]):
        parts = decompose_a(X)
        assert sorted(p.dim_vector() for p in parts) == \
            sorted(p.dim_vector() for p in mods)
    assert len(derived) == 2 * 2 * 5
    _assert_base_parts_match(derived)


def test_base_d4_sums(d4, derived):
    pool = repa.enumerate_ind(d4)
    rng = random.Random(5)
    for _ in range(4):
        picks = [pool[rng.randrange(len(pool))] for _ in range(3)]
        picks.append(picks[0])
        parts = decompose_a(_twist_a(direct_sum_plain(picks)[0], rng)[0])
        assert sorted(p.dim_vector() for p in parts) == \
            sorted(p.dim_vector() for p in picks)
    _assert_base_parts_match(derived)


def test_layered_kronecker_m1_chain(kronecker, derived):
    ctx = TiltingContext(ReplicationSpec(kronecker, 1))
    sample = sample_faithful_exceptional(ctx, 4, 3)[-1]
    mods = sample + sample[1:2]
    M = L.layered_direct_sum(ctx.spec, mods)[0]
    for X in (M, _twist_rep(M, random.Random(2))):
        parts = L.decompose_rep(X)
        assert sorted(p.dim_vector() for p in parts) == \
            sorted(p.dim_vector() for p in mods)
    assert len(derived) == 2 * 2 * (len(mods) - 1)
    _assert_layered_parts_match(derived)


def test_layered_a3_m2_and_d4_m1_sums(a3, d4, derived):
    rng = random.Random(3)
    for q, m, step in ((a3, 2, 5), (d4, 1, 7)):
        arq = ARQuiver(ReplicationSpec(q, m))
        picked = [n.module for n in arq.nodes][::step][:3]
        mods = picked + picked[:1]
        M = L.layered_direct_sum(arq.spec, mods)[0]
        parts = L.decompose_rep(_twist_rep(M, rng))
        assert sorted(p.dim_vector() for p in parts) == \
            sorted(p.dim_vector() for p in mods)
    _assert_layered_parts_match(derived)
