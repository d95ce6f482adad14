import json
import random
from collections import Counter

import pytest

import knitting
from replhom import repa
from replhom.errors import NotSupported
from replhom.quiver import (CycleFound, Disconnected, Quiver, QuiverError,
                            ReplicationSpec, coxeter_exponents, dynkin_type,
                            fuss_catalan, grothendieck_rank, knit, knit_ind,
                            load_quiver, replicated_vertex_set,
                            validate_hereditary)


def test_tree_quiver_ok(a2):
    validate_hereditary(a2)


def test_loop_rejected():
    with pytest.raises(CycleFound):
        Quiver(["a"], [("l", "a", "a")])


def test_two_cycle_rejected():
    with pytest.raises(CycleFound) as err:
        Quiver(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    assert set(err.value.arrows) == {"f", "g"}


def test_kronecker_ok(kronecker):
    validate_hereditary(kronecker)


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        Quiver(["a", "b", "c"], [("f", "a", "b")])


def test_duplicate_ids_rejected():
    with pytest.raises(QuiverError):
        Quiver(["a", "a"], [])
    with pytest.raises(QuiverError):
        Quiver(["a", "b"], [("f", "b", "a"), ("f", "b", "a")])


def test_validation_order_independent():
    q1 = Quiver(["a", "b", "c"], [("x", "b", "a"), ("y", "c", "b")])
    q2 = Quiver(["c", "a", "b"], [("y", "c", "b"), ("x", "b", "a")])
    assert q1.vertices == q2.vertices
    assert q1.arrows == q2.arrows


def test_grothendieck_rank(a2, a3, a4):
    assert grothendieck_rank(ReplicationSpec(a2, 1)) == 4
    assert grothendieck_rank(ReplicationSpec(a4, 2)) == 12
    assert grothendieck_rank(ReplicationSpec(a3, 3)) == 12


def test_replicated_vertices_a2(a2):
    vs = replicated_vertex_set(ReplicationSpec(a2, 1))
    assert [v.label for v in vs] == ["a_0", "b_0", "a_1", "b_1"]


def test_replicated_vertices_three_vertex(two_sinks):
    vs = replicated_vertex_set(ReplicationSpec(two_sinks, 2))
    assert len(vs) == 9
    assert vs[0].label == "a_0" and vs[-1].label == "c_2"


def test_replicated_vertices_a1(a1):
    vs = replicated_vertex_set(ReplicationSpec(a1, 1))
    assert [v.label for v in vs] == ["a_0", "a_1"]


def test_vertex_count_equals_rank(a1, a2, a3, a4, d4):
    for q in (a1, a2, a3, a4, d4):
        for m in (1, 2, 3):
            spec = ReplicationSpec(q, m)
            assert len(replicated_vertex_set(spec)) == grothendieck_rank(spec)


def test_m_must_be_positive(a2):
    with pytest.raises(ValueError):
        ReplicationSpec(a2, 0)


def test_dynkin_classifier(a2, a3, a4, d4, two_sinks, kronecker):
    assert dynkin_type(a2) == ("A", 2)
    assert dynkin_type(a3) == ("A", 3)
    assert dynkin_type(a4) == ("A", 4)
    assert dynkin_type(d4) == ("D", 4)
    assert dynkin_type(two_sinks) == ("A", 3)
    assert dynkin_type(kronecker) == "kronecker"
    wild = Quiver(["a", "b"], [("x", "b", "a"), ("y", "b", "a"),
                               ("z", "b", "a")])
    assert dynkin_type(wild) is None
    e6 = Quiver(["1", "2", "3", "4", "5", "6"],
                [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                 ("d", "4", "5"), ("e", "6", "3")])
    assert dynkin_type(e6) == ("E", 6)


def _seeded_dynkin(kind, n, seed):
    """A kind_n diagram with shuffled vertex ids and seeded orientation."""
    edges = [(i, i + 1) for i in range(n - 2)]
    if n > 1:
        edges.append((n - 2, n - 1) if kind == "A" else
                     (n - 3, n - 1) if kind == "D" else (2, n - 1))
    rng = random.Random(seed)
    names = rng.sample([f"v{i}" for i in range(n)], n)
    arrows = [(f"e{k}",) + tuple(names[v] for v in
                                 (e if rng.random() < 0.5 else e[::-1]))
              for k, e in enumerate(edges)]
    return Quiver(names, arrows)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                     ("A", 5), ("D", 4), ("D", 5), ("D", 6),
                                     ("E", 6), ("E", 7)])
def test_knitted_ind_matches_the_module_route(kind, n, seed):
    """Order against enumerate_ind, tau against tau_a, Hom against hom_dim
    and Ext^1 against the Euler form <M, N> = dim Hom - dim Ext^1."""
    q = _seeded_dynkin(kind, n, seed)
    assert dynkin_type(q) == (kind, n)
    table = knit_ind(q)
    mods = repa.enumerate_ind(q)
    assert table.dims == [M.dim_vector() for M in mods]
    for k, M in enumerate(mods):
        if repa.is_projective_a(M):
            assert table.tau[k] is None
        else:
            assert table.dims[table.tau[k]] == repa.tau_a(M).dim_vector()
    for x in q.vertices:
        assert table.dims[table.proj[x]] == repa.projective(q, x).dim_vector()
        assert table.dims[table.inj[x]] == repa.injective(q, x).dim_vector()
    for a, M in enumerate(mods):
        for b, N in enumerate(mods):
            assert table.hom[a][b] == repa.hom_dim(M, N)
            euler = (sum(M.dim[v] * N.dim[v] for v in q.vertices)
                     - sum(M.dim[s] * N.dim[t] for _, s, t in q.arrows))
            assert table.ext1(a, b) == table.hom[a][b] - euler


@pytest.mark.parametrize("kind, n", [("A", 1), ("A", 4), ("D", 4), ("D", 5),
                                     ("D", 6), ("E", 6), ("E", 7), ("E", 8)])
def test_coxeter_exponents_count_the_knitted_ind(kind, n):
    """The exponents pair up to h and sum to the number of positive roots,
    which is |ind A| by Gabriel's theorem."""
    h, exponents = coxeter_exponents((kind, n))
    assert len(exponents) == n
    assert sorted(h - e for e in exponents) == list(exponents)
    assert sum(exponents) == n * h // 2
    assert len(knit_ind(_seeded_dynkin(kind, n, 0)).dims) == sum(exponents)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind, n, seed", [("A", 5, 0), ("A", 5, 1),
                                           ("D", 5, 0), ("D", 6, 1),
                                           ("E", 7, 0), ("E", 8, 1)])
def test_knit_matches_the_oracle_knitter(kind, n, seed, m):
    """quiver.knit against tests/knitting.py, which shares no code with
    it: dimension vectors, arrows with multiplicities and tau; the nodes
    come in a topological order, and there are (2m+1) n h / 2 of them."""
    q = _seeded_dynkin(kind, n, seed)
    t = knit(q, m)
    dims, arrows, tau = knitting.knit(
        q.vertices, [(src, tgt) for _, src, tgt in q.arrows], m)
    assert len(set(t.dims)) == len(t.dims) and set(t.dims) == dims
    assert Counter({(t.dims[e], t.dims[k]): mult
                    for k, into in enumerate(t.in_arrows)
                    for e, mult in into}) == arrows
    assert {t.dims[k]: t.dims[j] for k, j in enumerate(t.tau)
            if j is not None} == tau
    assert all(e < k for k, into in enumerate(t.in_arrows) for e, _ in into)
    assert all(j < k for k, j in enumerate(t.tau) if j is not None)
    h, _ = coxeter_exponents((kind, n))
    assert len(t.dims) == (2 * m + 1) * n * h // 2
    for x in q.vertices:
        assert t.tau[t.proj[(x, 0)]] is None
        for i in range(m):
            assert t.inj[(x, i)] == t.proj[(x, i + 1)]


@pytest.mark.parametrize("q", [
    Quiver(["a", "b"], [("a1", "b", "a"), ("a2", "b", "a")]),
    Quiver(["a", "b", "c", "d"], [("x", "a", "b"), ("y", "b", "c"),
                                  ("z", "c", "d"), ("w", "a", "d")])],
    ids=["kronecker", "affine_a3"])
def test_knitting_rejects_non_dynkin_quivers(q):
    """Knitting a representation-infinite quiver would never end."""
    with pytest.raises(NotSupported):
        knit(q, 1)
    with pytest.raises(NotSupported):
        knit_ind(q)


def test_fuss_catalan_numbers():
    # m = 1: the Catalan numbers on A_n, and the counts of tilting objects
    # the verify suite finds
    assert [fuss_catalan(("A", n), 1) for n in range(1, 6)] == \
        [2, 5, 14, 42, 132]
    assert fuss_catalan(("D", 4), 1) == 50
    assert fuss_catalan(("D", 5), 1) == 182
    assert fuss_catalan(("E", 6), 1) == 833
    assert fuss_catalan(("E", 7), 1) == 4160
    assert fuss_catalan(("E", 8), 1) == 25080
    assert fuss_catalan(("A", 4), 2) == 273
    assert fuss_catalan(("A", 2), 2) == 12


def test_paths_deterministic(a3):
    p = a3.paths()
    assert p[("c", "a")] == (("y", "x"),)
    assert p[("a", "a")] == ((),)
    assert p[("a", "c")] == ()


def test_json_loading(tmp_path, a2):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(a2.to_dict()))
    q = load_quiver(path)
    assert q.vertices == a2.vertices and q.arrows == a2.arrows
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(QuiverError):
        load_quiver(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"vertices": ["a"]}))
    with pytest.raises(QuiverError):
        load_quiver(missing)
