import gc
import random
from fractions import Fraction
from functools import partial

import pytest

from replhom.errors import NotSupported, ProjectiveInput, ZeroModule
from replhom.linalg import QMatrix
from replhom.quiver import Quiver
from replhom import repa
from replhom.repa import (AMorphism, ARep, compose, decompose_a,
                          direct_sum_plain, enumerate_ind, ext1_a, hom_basis,
                          hom_dim, injective, is_indecomposable_a, is_iso_a,
                          nu_module, nu_morphism, projective, simple, tau_a,
                          tau_inv_a)


def path_count_oracle(q, src, tgt):
    """Count paths by breadth-first expansion, independent of q.paths()."""
    total = 0
    frontier = [src]
    if src == tgt:
        total += 1
    for _ in range(2 * q.n):
        nxt = []
        for v in frontier:
            for a in q.out_arrows[v]:
                w = q.arrow_tgt[a]
                nxt.append(w)
                if w == tgt:
                    total += 1
        frontier = nxt
        if not frontier:
            break
    return total


def positive_roots_oracle(q):
    """Positive roots of the underlying diagram by reflection closure."""
    vs = list(q.vertices)
    idx = {v: i for i, v in enumerate(vs)}
    cartan = [[2 if i == j else 0 for j in range(len(vs))]
              for i in range(len(vs))]
    for a, s, t in q.arrows:
        cartan[idx[s]][idx[t]] -= 1
        cartan[idx[t]][idx[s]] -= 1
    roots = {tuple(1 if j == i else 0 for j in range(len(vs)))
             for i in range(len(vs))}
    changed = True
    while changed:
        changed = False
        for r in list(roots):
            for i in range(len(vs)):
                pairing = sum(cartan[i][j] * r[j] for j in range(len(vs)))
                new = list(r)
                new[i] -= pairing
                new = tuple(new)
                if all(x >= 0 for x in new) and any(x > 0 for x in new) \
                        and new not in roots:
                    roots.add(new)
                    changed = True
    return roots


def euler_ext1_oracle(M, N):
    """dim Ext^1 from the Euler form of the hereditary algebra."""
    q = M.quiver
    euler = sum(M.dim[v] * N.dim[v] for v in q.vertices)
    euler -= sum(M.dim[s] * N.dim[t] for _, s, t in q.arrows)
    return hom_dim(M, N) - euler


# -- projectives / injectives / simples -------------------------------------

def test_a2_standard_modules(a2):
    assert projective(a2, "a").dim == {"a": 1, "b": 0}
    assert projective(a2, "b").dim == {"a": 1, "b": 1}
    assert injective(a2, "a").dim == {"a": 1, "b": 1}
    assert injective(a2, "b").dim == {"a": 0, "b": 1}
    assert simple(a2, "b").dim == {"a": 0, "b": 1}


def test_projective_dims_are_path_counts(a3, two_sinks, d4):
    for q in (a3, two_sinks, d4):
        for x in q.vertices:
            P = projective(q, x)
            for z in q.vertices:
                assert P.dim[z] == path_count_oracle(q, x, z)


def test_two_sinks_projective(two_sinks):
    assert projective(two_sinks, "b").dim == {"a": 1, "b": 1, "c": 1}


# -- Hom spaces ---------------------------------------------------------------

def test_hom_examples(a2):
    Sa, Sb = simple(a2, "a"), simple(a2, "b")
    assert hom_dim(Sa, Sa) == 1
    assert hom_dim(Sa, Sb) == 0
    assert hom_dim(projective(a2, "b"), injective(a2, "a")) == 1


def test_hom_basis_commutes(a3):
    mods = [projective(a3, x) for x in a3.vertices] + \
           [injective(a3, x) for x in a3.vertices]
    for M in mods:
        for N in mods:
            for f in hom_basis(M, N):
                assert f.commutes()


def test_projective_hom_formula(a3):
    mods = enumerate_ind(a3)
    for x in a3.vertices:
        P = projective(a3, x)
        for M in mods:
            assert hom_dim(P, M) == M.dim[x]


# -- the Nakayama functor ------------------------------------------------------

def test_nu_of_projectives_is_injective(a3):
    for x in a3.vertices:
        assert nu_module(projective(a3, x)).dim == injective(a3, x).dim


def test_nu_simple_at_sink(a2):
    # S_a = P(a), so nu S_a = I(a)
    assert nu_module(simple(a2, "a")).dim == {"a": 1, "b": 1}


def test_nu_simple_at_source_vanishes(a2):
    # Hom(S_b, A) = 0 forces nu S_b = 0 (independent oracle below)
    Sb = simple(a2, "b")
    regular = direct_sum_plain([projective(a2, x) for x in a2.vertices])
    assert hom_dim(Sb, regular) == 0
    assert nu_module(Sb).is_zero()


def test_nu_functorial(a3):
    rng = random.Random(5)
    mods = enumerate_ind(a3)
    for _ in range(15):
        M, N, P = (mods[rng.randrange(len(mods))] for _ in range(3))
        hb1, hb2 = hom_basis(M, N), hom_basis(N, P)
        if not hb1 or not hb2:
            continue
        f = hb1[rng.randrange(len(hb1))]
        g = hb2[rng.randrange(len(hb2))]
        lhs = nu_morphism(compose(g, f))
        rhs = compose(nu_morphism(g), nu_morphism(f))
        for v in a3.vertices:
            assert lhs.mats[v] == rhs.mats[v]


def test_nu_identity(a2):
    f = nu_morphism(AMorphism.identity(projective(a2, "b")))
    assert f.is_iso()


# -- indecomposability ----------------------------------------------------------

def test_simple_indecomposable(a2):
    assert is_indecomposable_a(simple(a2, "a"))


def test_double_simple_splits(a2):
    D = direct_sum_plain([simple(a2, "a"), simple(a2, "a")])
    parts = decompose_a(D)
    assert len(parts) == 2
    assert sum(p.total_dim() for p in parts) == 2


def test_two_dim_module_indecomposable(a2):
    M = ARep(a2, {"a": 1, "b": 1}, {"beta": QMatrix(1, 1, [[1]])})
    assert is_indecomposable_a(M)


def test_decompose_zero_raises(a2):
    with pytest.raises(ZeroModule):
        decompose_a(ARep(a2, {}))


def test_decompose_reassembles(a3):
    rng = random.Random(7)
    mods = enumerate_ind(a3)
    picks = [mods[rng.randrange(len(mods))] for _ in range(3)]
    D = direct_sum_plain(picks)
    parts = decompose_a(D)
    assert sorted(p.dim_vector() for p in parts) == \
        sorted(p.dim_vector() for p in picks)
    R = direct_sum_plain(parts)
    assert is_iso_a(R, D)


def _cyclic_garbage(run):
    """Objects left unreachable only through reference cycles by run()."""
    gc.collect()
    gc.disable()
    try:
        kept = run()
        return gc.collect(), kept
    finally:
        gc.enable()


def test_decompose_frees_its_split_parts(kronecker):
    # R0^3 + R1 splits three times; every dropped part and its cached End
    # basis must go when it is dropped, not at the next cyclic collection
    R0, R1, _ = repa.kronecker_regulars(kronecker)
    M = direct_sum_plain([R0, R0, R1, R0])
    garbage, parts = _cyclic_garbage(lambda: decompose_a(M))
    assert garbage == 0
    assert sorted(p.dim_vector() for p in parts) == [(1, 1)] * 4


def test_hom_to_leaves_no_cycle(kronecker):
    P = repa.proj_sum(kronecker, ("a", "a", "b"))
    R0 = repa.kronecker_regulars(kronecker)[0]
    garbage, f = _cyclic_garbage(lambda: P.hom_to(R0, [[1], [0], [1]]))
    assert garbage == 0
    assert f.commutes()


# -- isomorphism ---------------------------------------------------------------------

def linear_quiver(n):
    vs = [f"v{i}" for i in range(n)]
    return Quiver(vs, [(f"e{i}", vs[i + 1], vs[i]) for i in range(n - 1)])


def test_is_iso_orderings_of_a30_semisimple():
    # no basis element of Hom is invertible, so only the exact fallback
    # can say yes; the two orderings give literally equal modules
    q = linear_quiver(30)
    simples = [simple(q, v) for v in q.vertices]
    M = direct_sum_plain(simples)
    N = direct_sum_plain(simples[::-1])
    assert is_iso_a(M, N)
    assert is_iso_a(M, M)


def _sums(pool, rng, count):
    """count random direct sums of 1..4 pool members, keyed by their
    summand multiset, each with a shuffled second assembly."""
    out = []
    for _ in range(count):
        picks = [rng.randrange(len(pool)) for _ in range(rng.randint(1, 4))]
        again = rng.sample(picks, len(picks))
        out.append((tuple(sorted(picks)),
                    direct_sum_plain([pool[i] for i in picks]),
                    direct_sum_plain([pool[i] for i in again])))
    return out


@pytest.mark.parametrize("name", ["a3", "d4", "kronecker"])
def test_is_iso_matches_summand_multisets(name, request):
    q = request.getfixturevalue(name)
    pool = enumerate_ind(q, bound=4 if name == "kronecker" else None)
    sums = _sums(pool, random.Random(11), 60)
    # is_iso_a mostly answers through its shortcuts: check the trace-rank
    # rule on its own as well
    rule = partial(repa._pairing_ranks_match, hooks=repa._A_HOOKS)
    for key, M, again in sums:
        assert is_iso_a(M, again) and rule(M, again), key
    equal_dim_non_iso = 0
    for i, (key, M, _) in enumerate(sums):
        for key2, N, _ in sums[i + 1:]:
            if M.dim != N.dim:
                continue
            assert is_iso_a(M, N) == rule(M, N) == (key == key2), (key, key2)
            equal_dim_non_iso += key != key2
    assert equal_dim_non_iso > 0
    # every member of the pool once, in two orders
    whole = direct_sum_plain(pool)
    assert is_iso_a(whole, direct_sum_plain(pool[::-1]))


def test_is_iso_rejects_equal_dimension_non_isomorphic(a2, kronecker):
    Sab = direct_sum_plain([simple(a2, "a"), simple(a2, "b")])
    assert Sab.dim == projective(a2, "b").dim
    assert not is_iso_a(projective(a2, "b"), Sab)
    assert not is_iso_a(Sab, projective(a2, "b"))
    R0, R1, _ = repa.kronecker_regulars(kronecker)
    A = direct_sum_plain([R0, R0, R1])
    B = direct_sum_plain([R0, R1, R1])
    assert A.dim == B.dim
    assert not is_iso_a(A, B)
    assert is_iso_a(A, direct_sum_plain([R1, R0, R0]))


# -- enumeration -----------------------------------------------------------------

def test_enumerate_a2(a2):
    assert [m.dim_vector() for m in enumerate_ind(a2)] == \
        [(0, 1), (1, 0), (1, 1)]


def test_enumerate_matches_positive_roots(a3, a4, d4):
    for q in (a3, a4, d4):
        mods = enumerate_ind(q)
        roots = positive_roots_oracle(q)
        assert len(mods) == len(roots)
        assert {m.dim_vector() for m in mods} == roots


def test_enumerate_kronecker(kronecker):
    mods = enumerate_ind(kronecker, bound=4)
    dims = sorted(m.dim_vector() for m in mods)
    assert dims == [(0, 1), (1, 0), (1, 1), (1, 1), (1, 1), (1, 2), (2, 1)]
    for m in mods:
        assert is_indecomposable_a(m)


def test_enumerate_kronecker_needs_bound(kronecker):
    with pytest.raises(NotSupported):
        enumerate_ind(kronecker)


def test_enumerate_wild_unsupported():
    wild = Quiver(["a", "b"],
                  [("x", "b", "a"), ("y", "b", "a"), ("z", "b", "a")])
    with pytest.raises(NotSupported):
        enumerate_ind(wild, bound=3)


# -- AR translates ----------------------------------------------------------------

def test_tau_examples(a2):
    assert tau_inv_a(simple(a2, "a")).dim == {"a": 0, "b": 1}
    assert tau_a(simple(a2, "b")).dim == {"a": 1, "b": 0}
    with pytest.raises(ProjectiveInput):
        tau_a(projective(a2, "b"))


def test_tau_round_trip(a3):
    for M in enumerate_ind(a3):
        if repa.is_projective_a(M):
            continue
        back = tau_inv_a(tau_a(M))
        assert is_iso_a(back, M)


# -- first extensions ----------------------------------------------------------------

def test_ext1_matches_euler_form(a3, d4):
    for q in (a3, d4):
        mods = enumerate_ind(q)
        for M in mods:
            for N in mods:
                assert ext1_a(M, N) == euler_ext1_oracle(M, N)


def test_ext1_simples(a2):
    assert ext1_a(simple(a2, "b"), simple(a2, "a")) == 1
    assert ext1_a(simple(a2, "a"), simple(a2, "b")) == 0


# -- serialization ---------------------------------------------------------------------

def test_arep_round_trip(a2):
    M = ARep(a2, {"a": 2, "b": 1},
             {"beta": QMatrix(2, 1, [["1/2"], ["-3"]])})
    d = M.to_dict()
    back = ARep.from_dict(a2, d)
    assert back.dim == M.dim
    assert back.mats["beta"] == M.mats["beta"]
    assert d["mats"]["beta"] == [["1/2"], ["-3"]]


# -- shared projective and injective sums ------------------------------------------------

def test_proj_and_inj_sums_are_shared(a3):
    for vs in [(), ("a",), ("c", "a", "c")]:
        P, I = repa.proj_sum(a3, vs), repa.inj_sum(a3, vs)
        assert repa.proj_sum(a3, vs) is P
        assert repa.inj_sum(a3, vs) is I
        assert P.rep.to_dict() == repa.ProjSum(a3, vs).rep.to_dict()
        assert I.rep.to_dict() == repa.InjSum(a3, vs).rep.to_dict()
    assert projective(a3, "b") is repa.proj_sum(a3, ("b",)).rep
    assert injective(a3, "b") is repa.inj_sum(a3, ("b",)).rep


def test_presentation_of_projective_sum_is_trivial(a3):
    P = repa.proj_sum(a3, ("b", "a"))
    pres = repa.minimal_presentation(P.rep)
    assert pres.p0 is P and pres.p1 is repa.proj_sum(a3, ())
    assert pres.pi.is_iso()
    assert nu_module(P.rep) is repa.inj_sum(a3, ("b", "a")).rep


def test_racing_callers_share_one_sum(a3):
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor
    q = Quiver(a3.vertices, a3.arrows)   # a fresh, empty per-quiver cache
    vs = ("c", "b", "a", "c")
    start = threading.Barrier(8)

    def build(_):
        start.wait(timeout=30)
        return repa.proj_sum(q, vs), repa.inj_sum(q, vs)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(build, k) for k in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(p is repa.proj_sum(q, vs) for p, _ in results)
    assert all(i is repa.inj_sum(q, vs) for _, i in results)


def test_amorphism_keeps_supplied_matrices_and_zero_fills(a3):
    M, N = projective(a3, "c"), projective(a3, "b")
    given = {"a": QMatrix.identity(1), "b": QMatrix.identity(1)}
    f = AMorphism(N, M, given)
    assert f.mats["a"] is given["a"] and f.mats["b"] is given["b"]
    missing = f.mats["c"]
    assert (missing.rows, missing.cols) == (M.dim["c"], N.dim["c"])
    assert missing.is_zero()
    z = AMorphism.zero(M, N)
    assert all((z.mats[v].rows, z.mats[v].cols) == (N.dim[v], M.dim[v])
               and z.mats[v].is_zero() for v in a3.vertices)


def _composite_trace(g, f):
    h = compose(g, f)
    return sum((m.trace() for m in h.mats.values()), Fraction(0))


def _assert_gram(left, right):
    """_gram_matrix(left, right) equals [tr(g f)] computed from composites."""
    G = repa._gram_matrix(left, right, repa._A_HOOKS.vertex_blocks)
    assert (G.rows, G.cols) == (len(left), len(right))
    assert G.data == [[_composite_trace(g, f) for f in right] for g in left]
    assert all(type(x) is Fraction for row in G.data for x in row)
    return G


@pytest.mark.parametrize("name", ["a3", "d4", "kronecker"])
def test_gram_matrix_is_the_trace_pairing(name, request):
    q = request.getfixturevalue(name)
    pool = enumerate_ind(q, bound=4 if name == "kronecker" else None)
    mods = pool[::max(1, len(pool) // 5)]
    mods += [M for _, M, _ in _sums(pool, random.Random(3), 5)]
    nonzero_off_diagonal = 0
    for M in mods:
        end = hom_basis(M, M)
        G = _assert_gram(end, end)      # mirrored fill (left is right)
        _assert_gram(end, list(end))    # full fill
        nonzero_off_diagonal += any(G.data[i][j] for i in range(G.rows)
                                    for j in range(G.cols) if i != j)
    for X in mods:
        for Y in mods:
            _assert_gram(hom_basis(Y, X), hom_basis(X, Y))
    assert nonzero_off_diagonal > 0


def test_gram_matrix_rejects_mismatched_blocks(a2):
    P, S = projective(a2, "b"), simple(a2, "a")
    end = hom_basis(P, P)
    other = end[0].scale(1)
    # key sets differ
    with pytest.raises(ValueError):
        repa._gram_matrix(end, [other], lambda f: (
            {"a": f.mats["a"]} if f is other else dict(f.mats)))
    # Hom(S, P) x Hom(S, P): the blocks (1x1, 1x0) do not pair
    there = hom_basis(S, P)
    assert there
    with pytest.raises(ValueError):
        repa._gram_matrix(there, there, repa._A_HOOKS.vertex_blocks)
