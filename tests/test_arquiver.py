import pytest

from replhom.arquiver import ARQuiver
from replhom.errors import NotInDomain, TheoremViolation
from replhom.quiver import ReplicationSpec
from replhom import layered as L


# The Loewy labels of the nine indecomposables over the duplicated A_2 and
# the figure's mesh structure, frozen by hand.
FIGURE_ARROWS = {
    ("a0", "b0/a0"), ("b0/a0", "b0"), ("b0/a0", "a1/b0/a0"),
    ("b0", "a1/b0"), ("a1/b0/a0", "a1/b0"), ("a1/b0", "a1"),
    ("a1/b0", "b1/a1/b0"), ("a1", "b1/a1"), ("b1/a1/b0", "b1/a1"),
    ("b1/a1", "b1"),
}
FIGURE_TAU = {"b0": "a0", "a1": "b0", "b1": "a1",
              "a1/b0": "b0/a0", "b1/a1": "a1/b0"}


def test_nine_nodes(arq_a2_m1):
    assert len(arq_a2_m1.nodes) == 9
    assert sum(1 for n in arq_a2_m1.nodes if n.is_proj_inj) == 2


def test_mesh_matches_figure(arq_a2_m1):
    arrows = {(arq_a2_m1.node_label(i), arq_a2_m1.node_label(t))
              for i, outs in arq_a2_m1.out_arrows.items() for t, mu in outs}
    assert arrows == FIGURE_ARROWS
    for i, outs in arq_a2_m1.out_arrows.items():
        assert all(mu == 1 for _, mu in outs)


def test_tau_matches_figure(arq_a2_m1):
    got = {arq_a2_m1.node_label(n): arq_a2_m1.node_label(n.tau)
           for n in arq_a2_m1.nodes if n.tau is not None}
    assert got == FIGURE_TAU


def test_arrow_multiplicity_is_rad_over_rad_squared(arq_a2_m1):
    """Knitted multiplicities equal dim rad/rad^2 from honest Hom bases."""
    arq = arq_a2_m1
    nodes = arq.nodes
    homs = {}
    for a in nodes:
        for b in nodes:
            basis = L.hom_basis_rep(a.module, b.module)
            if a.idx == b.idx:
                basis = []  # End is local and one-dimensional: rad End = 0
            homs[(a.idx, b.idx)] = basis
    for a in nodes:
        for b in nodes:
            if a.idx == b.idx:
                continue
            rad_dim = len(homs[(a.idx, b.idx)])
            comps = []
            for z in nodes:
                for f in homs[(a.idx, z.idx)]:
                    for g in homs[(z.idx, b.idx)]:
                        comps.append(L.lcompose(g, f))
            vecs = []
            for c in comps:
                vec = []
                for p in c.parts:
                    for v in arq.spec.base.vertices:
                        for row in p.mats[v].data:
                            vec.extend(row)
                vecs.append(vec)
            from replhom.linalg import QMatrix
            height = max((len(v) for v in vecs), default=1)
            rad2 = QMatrix.from_cols(vecs, rows=height).rank() if vecs else 0
            expected = rad_dim - rad2
            actual = 0
            for t, mu in arq.out_arrows[a.idx]:
                if t == b.idx:
                    actual = mu
            assert actual == expected, (arq.node_label(a), arq.node_label(b))


def test_forced_small_cases(a1):
    arq = ARQuiver(ReplicationSpec(a1, 1))
    assert len(arq.nodes) == 3
    labels = {arq.node_label(n) for n in arq.nodes}
    assert labels == {"a0", "a1/a0", "a1"}
    arq2 = ARQuiver(ReplicationSpec(a1, 2))
    assert len(arq2.nodes) == 5


def test_leq_examples(arq_a2_m1, nodes_a2_m1):
    arq = arq_a2_m1
    sa0, sb1 = nodes_a2_m1["a0"], nodes_a2_m1["b1"]
    assert arq.leq(sa0, sa0)
    assert arq.leq(sa0, sb1)
    assert not arq.leq(sb1, sa0)


def test_slices(arq_a2_m1):
    arq = arq_a2_m1
    s0 = {arq.node_label(i) for i in arq.sigma_slice(0)}
    s1 = {arq.node_label(i) for i in arq.sigma_slice(1)}
    assert s0 == {"a0", "b0/a0"}
    assert s1 == {"a1/b0", "a1"}


def test_slice_size_and_shift(a3):
    spec = ReplicationSpec(a3, 2)
    arq = ARQuiver(spec)
    for k in range(3):
        assert len(arq.sigma_slice(k)) == 3
    for k in range(1, 3):
        prev = [arq.nodes[i].module for i in arq.sigma_slice(k - 1)]
        cur = arq.sigma_slice(k)
        shifted = [arq.find_node(L.cosyzygy(M)).idx for M in prev]
        assert shifted == cur


def test_consecutive_slices_ordered(a3):
    arq = ARQuiver(ReplicationSpec(a3, 2))
    for k in range(1, 3):
        assert arq.set_leq(arq.sigma_slice(k - 1), arq.sigma_slice(k))


def test_pd_examples(arq_a2_m1, nodes_a2_m1):
    arq = arq_a2_m1
    assert arq.projective_dimension(nodes_a2_m1["a1"]) == 1
    assert arq.projective_dimension(nodes_a2_m1["b1"]) == 2
    assert arq.projective_dimension(nodes_a2_m1["a1/b0/a0"]) == 0
    assert arq.projective_dimension(nodes_a2_m1["b0/a0"]) == 0


def test_trichotomy_small(a2, a3):
    for q, m in ((a2, 1), (a2, 2), (a3, 1), (a3, 2)):
        arq = ARQuiver(ReplicationSpec(q, m))
        assert arq.check_trichotomy()
        assert arq.check_global_dimension()


def test_left_part_a2(arq_a2_m1):
    arq = arq_a2_m1
    non_pi = arq.left_part_non_proj_inj()
    labels = {arq.node_label(i) for i in non_pi}
    assert labels == {"a0", "b0/a0", "b0", "a1/b0", "a1"}
    assert len(non_pi) == 1 * 3 + 2


def test_left_part_contains_level_zero(arq_a2_m1):
    left = arq_a2_m1.m_left_part()
    for i in arq_a2_m1.ind_a_nodes():
        assert i in left


def test_pi_labels(arq_a2_m1, nodes_a2_m1):
    arq = arq_a2_m1
    labels = arq.fundamental_domain_labels()
    # level-0 modules are labeled in degree 0
    for i in arq.ind_a_nodes():
        assert labels[i][0] == "mod" and labels[i][2] == 0
    # the last slice consists of shifted projectives
    assert labels[nodes_a2_m1["a1/b0"].idx] == ("shift", "a", 1)
    assert labels[nodes_a2_m1["a1"].idx] == ("shift", "b", 1)
    with pytest.raises(NotInDomain):
        arq.pi_label(nodes_a2_m1["b1"])


def test_commutation_and_duality(arq_a2_m1):
    assert arq_a2_m1.check_commutation()
    assert arq_a2_m1.check_syzygy_duality()


def test_outputs_deterministic(spec_a2_m1):
    a = ARQuiver(spec_a2_m1)
    b = ARQuiver(spec_a2_m1)
    assert a.to_dot() == b.to_dot()
    assert a.table_json() == b.table_json()


def test_dot_mentions_every_node(arq_a2_m1):
    dot = arq_a2_m1.to_dot()
    for n in arq_a2_m1.nodes:
        assert f"n{n.idx} [" in dot
    assert "style=dashed" in dot


def test_node_table_fields(arq_a2_m1):
    table = arq_a2_m1.node_table()
    assert len(table) == 9
    entry = next(e for e in table if e["label"] == "a1/b0/a0")
    assert entry["projective_injective"]
    assert entry["pd"] == 0
    assert entry["layer_support"] == [0, 1]
    simple_a1 = next(e for e in table if e["label"] == "a1")
    assert simple_a1["slices"] == [1]
    assert simple_a1["cluster_label"]["kind"] == "shifted_projective"


def test_corrupted_tau_detected(spec_a2_m1):
    arq = ARQuiver(spec_a2_m1)
    victim = next(n for n in arq.nodes
                  if not n.is_injective and n.tau_inv is not None
                  and not arq.nodes[n.tau_inv].is_proj_inj
                  and 1 <= arq.pd(n.tau_inv) <= 1)
    victim.tau_inv = victim.idx
    arq._witness.clear()
    with pytest.raises(TheoremViolation):
        arq.check_trichotomy()
