from collections import Counter

import pytest

from replhom import layered as L
from replhom.cluster import (ClusterContext, ClusterObject, pi_object,
                             verify_bijection)
from replhom.errors import NotSupported
from replhom.quiver import ReplicationSpec


@pytest.fixture(scope="module")
def cctx(spec_a2_m1):
    return ClusterContext(spec_a2_m1)


def ind_index(cctx, dims):
    return next(k for k in range(cctx.n_ind) if cctx.ind[k].dim == dims)


def test_object_universe(cctx, a3):
    assert len(cctx.objects()) == 1 * 3 + 2
    c2 = ClusterContext(ReplicationSpec(a3, 2))
    assert len(c2.objects()) == 2 * 6 + 3


def test_ext_between_simples(cctx):
    sb = ind_index(cctx, {"a": 0, "b": 1})
    sa = ind_index(cctx, {"a": 1, "b": 0})
    X = ClusterObject("module", sb, 0)
    Y = ClusterObject("module", sa, 0)
    assert cctx.cluster_ext(X, Y, 1) == 1
    # the orbit category is Calabi-Yau for m=1: the reverse matches
    assert cctx.cluster_ext(Y, X, 1) == 1


def test_diagonal_vanishes(cctx, a2):
    for o in cctx.objects():
        assert cctx.cluster_ext(o, o, 1) == 0
    c2 = ClusterContext(ReplicationSpec(a2, 2))
    for o in c2.objects():
        for i in (1, 2):
            assert c2.cluster_ext(o, o, i) == 0


def test_orbit_terms_across_degrees(a2):
    c2 = ClusterContext(ReplicationSpec(a2, 2))
    sa = ind_index(c2, {"a": 1, "b": 0})
    X = ClusterObject("module", sa, 0)
    Y = ClusterObject("module", sa, 1)
    # every orbit term lands outside the two surviving shifts: empty sum
    assert c2.cluster_ext(X, Y, 1) == 0
    # one degree higher the translate shift contributes the socle inclusion
    assert c2.cluster_ext(X, Y, 2) == 1
    pb = ind_index(c2, {"a": 1, "b": 1})
    shift_b = ClusterObject("shifted_projective", "b", 2)
    assert c2.cluster_ext(ClusterObject("module", pb, 0), shift_b, 1) == 1
    assert c2.cluster_ext(ClusterObject("module", pb, 0), shift_b, 2) == 0


def test_level_zero_projectives_tilting(cctx, spec_a2_m1):
    objs = [ClusterObject("module",
                          ind_index(cctx, {"a": 1, "b": 0}), 0),
            ClusterObject("module",
                          ind_index(cctx, {"a": 1, "b": 1}), 0)]
    assert cctx.is_tilting_object(objs)


def test_simples_pair_not_tilting(cctx):
    objs = [ClusterObject("module", ind_index(cctx, {"a": 1, "b": 0}), 0),
            ClusterObject("module", ind_index(cctx, {"a": 0, "b": 1}), 0)]
    assert not cctx.is_tilting_object(objs)


def test_singletons_exceptional_not_tilting(cctx):
    for o in cctx.objects():
        assert cctx.is_exceptional_object([o])
        assert not cctx.is_tilting_object([o])


def test_enumerate_a1(a1):
    c = ClusterContext(ReplicationSpec(a1, 1))
    assert len(c.objects()) == 2
    assert len(c.enumerate_tilting_objects()) == 2


def test_enumerate_a2_m1(cctx):
    tilts = cctx.enumerate_tilting_objects()
    assert len(tilts) == 5
    assert all(len(t) == 2 for t in tilts)


def test_enumeration_self_consistent(a2):
    c1 = ClusterContext(ReplicationSpec(a2, 2))
    c2 = ClusterContext(ReplicationSpec(a2, 2))
    t1 = {frozenset(t) for t in c1.enumerate_tilting_objects()}
    t2 = {frozenset(t) for t in c2.enumerate_tilting_objects()}
    assert t1 == t2 and len(t1) == 12


def test_kronecker_not_supported(kronecker):
    with pytest.raises(NotSupported):
        ClusterContext(ReplicationSpec(kronecker, 1))


def test_pi_examples(arq_a2_m1, nodes_a2_m1, cctx):
    arq = arq_a2_m1
    # level-0 modules map to degree-0 stalks
    for i in arq.ind_a_nodes():
        obj = pi_object(arq, i)
        assert obj.kind == "module" and obj.degree == 0
    assert pi_object(arq, nodes_a2_m1["a1"].idx) == \
        ClusterObject("shifted_projective", "b", 1)
    assert pi_object(arq, nodes_a2_m1["a1/b0"].idx) == \
        ClusterObject("shifted_projective", "a", 1)


def test_pi_total_and_injective(arq_a2_m1):
    labels = arq_a2_m1.fundamental_domain_labels()
    assert len(labels) == 5
    assert len(set(labels.values())) == 5


def test_bijection_a2_m1(spec_a2_m1):
    rep = verify_bijection(spec_a2_m1)
    assert rep["module_side_count"] == 5
    assert rep["cluster_side_count"] == 5
    assert rep["violations"] == []
    assert rep["object_universe"] == rep["left_part_non_proj_inj"] == 5
    assert len(rep["matched"]) == 5


def test_bijection_a1(a1):
    rep = verify_bijection(ReplicationSpec(a1, 1))
    assert rep["module_side_count"] == rep["cluster_side_count"] == 2
    assert rep["violations"] == []


def test_compatibility_dot(cctx):
    dot = cctx.compatibility_dot()
    assert dot.startswith("graph cluster_compatibility")
    assert dot.count("--") >= 5


def test_verify_bijection_builds_the_pair_table_once(spec_a2_m1,
                                                     monkeypatch):
    built = []
    compatible = ClusterContext.compatible

    def counting(self, X, Y):
        built.append((X, Y))
        return compatible(self, X, Y)

    monkeypatch.setattr(ClusterContext, "compatible", counting)
    cctx = ClusterContext(spec_a2_m1)
    report = verify_bijection(spec_a2_m1, cctx=cctx)
    n_objs = len(cctx.objects())
    assert len(built) == n_objs * (n_objs - 1) // 2
    assert len(set(built)) == len(built)
    assert report["violations"] == []
    assert report["cluster_side_count"] == 5


def test_verify_bijection_builds_each_ext_differential_once(a3, monkeypatch):
    """The rank of Hom(d_k, N) is cached per (M, N): across the whole run,
    no differential of a resolution is rebuilt against the same N."""
    built = Counter()
    original = L._ext_differential

    def counting(P_k, P_km1, d, N):
        built[(d, N)] += 1          # d names (M, k): identity hashing
        return original(P_k, P_km1, d, N)

    monkeypatch.setattr(L, "_ext_differential", counting)
    report = verify_bijection(ReplicationSpec(a3, 1))
    assert report["module_side_count"] == 14
    assert built and max(built.values()) == 1
