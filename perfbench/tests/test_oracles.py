import pytest

import oracles


@pytest.mark.parametrize("kind,n,m,count", [
    ("A", 3, 2, 55), ("A", 4, 1, 42), ("D", 4, 1, 50), ("A", 3, 3, 140),
    ("A", 4, 2, 273), ("E", 6, 1, 833),
    # m = 1 gives the Catalan numbers of the root system
    ("A", 2, 1, 5), ("D", 5, 1, 182), ("E", 7, 1, 4160), ("E", 8, 1, 25080),
])
def test_fuss_catalan_known_counts(kind, n, m, count):
    assert oracles.fuss_catalan(kind, n, m) == count


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 5), ("D", 4), ("D", 6),
                                    ("E", 6), ("E", 7), ("E", 8)])
def test_coxeter_table_is_consistent(kind, n):
    h, exps, positive = oracles.coxeter_data(kind, n)
    assert len(exps) == n
    assert sum(exps) == positive          # sum of exponents = |Phi+|
    assert n * h == 2 * positive          # nh = |Phi|
    assert sorted(h - e for e in exps) == sorted(exps)   # e -> h - e


def test_fundamental_domain_sizes():
    # m * |ind A| + n, e.g. 24 for A4 with m = 2
    assert oracles.fundamental_domain_size("A", 4, 2) == 24
    assert oracles.fundamental_domain_size("D", 4, 1) == 16
    assert oracles.fundamental_domain_size("E", 6, 1) == 42


def test_projective_counts():
    assert oracles.projective_counts(4, 2) == (12, 12, 8)
    assert oracles.tilting_rank(4, 2) == 12


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        oracles.coxeter_data("E", 9)
