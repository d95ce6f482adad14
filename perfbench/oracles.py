"""Closed-form counts for Dynkin types, independent of the replhom engine.

The Coxeter number h, the exponents e_1..e_n and the number of positive
roots |Phi+| of each simply-laced Dynkin type are hard-coded (Bourbaki,
Lie groups ch. VI, plates I, IV-VII).  From them:

* the number of m-cluster tilting objects is the Fuss-Catalan number
  prod_i (m*h + e_i + 1) / (e_i + 1)  (Fomin-Reading 2005);
* the fundamental domain of the m-cluster category has m*|Phi+| + n
  indecomposables (|ind A| = |Phi+| by Gabriel's theorem);
* the m-replicated algebra has n*(m+1) indecomposable projectives, as many
  injectives, and n*m projective-injectives.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

_E = {
    6: (12, (1, 4, 5, 7, 8, 11), 36),
    7: (18, (1, 5, 7, 9, 11, 13, 17), 63),
    8: (30, (1, 7, 11, 13, 17, 19, 23, 29), 120),
}


def coxeter_data(kind: str, n: int):
    """(h, exponents, |Phi+|) for the Dynkin type kind_n."""
    if kind == "A" and n >= 1:
        return n + 1, tuple(range(1, n + 1)), n * (n + 1) // 2
    if kind == "D" and n >= 4:
        exps = tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
        return 2 * n - 2, exps, n * (n - 1)
    if kind == "E" and n in _E:
        return _E[n]
    raise ValueError(f"no Dynkin type {kind}{n}")


def fuss_catalan(kind: str, n: int, m: int) -> int:
    h, exps, _ = coxeter_data(kind, n)
    value = prod(Fraction(m * h + e + 1, e + 1) for e in exps)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral Fuss-Catalan number {value}")
    return int(value)


def fundamental_domain_size(kind: str, n: int, m: int) -> int:
    return m * coxeter_data(kind, n)[2] + n


def projective_counts(n: int, m: int):
    """(projectives, injectives, projective-injectives) of A^(m)."""
    return n * (m + 1), n * (m + 1), n * m


def tilting_rank(n: int, m: int) -> int:
    """Number of summands of a basic tilting A^(m)-module."""
    return n * (m + 1)
