import random
from fractions import Fraction

import pytest

from replhom.linalg import NoSolution, QMatrix, span_basis


def gauss_oracle(rows, ncols):
    """Plain fraction Gauss elimination, independent of the library's
    integer-scaled fraction-free routine."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_kernel_identity():
    assert QMatrix.identity(2).kernel_basis().cols == 0


def test_kernel_zero_matrix():
    assert QMatrix.zeros(2, 3).kernel_basis().cols == 3


def test_kernel_rank_one():
    m = QMatrix(2, 2, [[1, 2], [2, 4]])
    k = m.kernel_basis()
    assert k.cols == 1
    assert k.col(0) == [Fraction(-2), Fraction(1)]
    assert (m * k).is_zero()


def test_kernel_overwrite_matches_and_empties_the_matrix():
    rng = random.Random(3)
    data = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(7)]
            for _ in range(4)]
    data[3] = [a + 2 * b for a, b in zip(data[0], data[1])]
    kept = QMatrix(4, 7, data)
    scratch = QMatrix(4, 7, data)
    k = scratch.kernel_basis(overwrite=True)
    assert k.data == kept.kernel_basis().data
    assert k.cols == 4
    assert (kept * k).is_zero()
    assert (scratch.rows, scratch.cols, scratch.data) == (0, 0, [])
    assert QMatrix(0, 3).kernel_basis(overwrite=True).data == \
        QMatrix.identity(3).data


def test_span_basis_is_the_kernel_basis():
    # a spanning set of the null space, shuffled, with rescaled basis
    # vectors, combinations of them, repeats and a zero vector, reduces to
    # exactly kernel_basis's columns
    rng = random.Random(21)
    cases = [QMatrix.identity(4), QMatrix.zeros(3, 5), QMatrix(0, 4),
             QMatrix(2, 0)]
    for _ in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 8)
        cases.append(QMatrix(r, c, [[rng.choice((0, 0, 1, -1, 2, -3))
                                     for _ in range(c)] for _ in range(r)]))
    shapes = set()
    for m in cases:
        ker = m.kernel_basis()
        cols = [ker.col(j) for j in range(ker.cols)]
        scales = [Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
                  for _ in cols]
        vecs = [[c * x for x in v] for c, v in zip(scales, cols)]
        for _ in range(2):
            coeffs = [rng.randint(-2, 2) for _ in cols]
            vecs.append([sum((c * v[i] for c, v in zip(coeffs, cols)),
                             Fraction(0)) for i in range(m.cols)])
        vecs.append([Fraction(0)] * m.cols)
        vecs += rng.sample(vecs, 2)
        rng.shuffle(vecs)
        assert span_basis(vecs, m.cols) == cols
        shapes.add((len(cols) == 0, len(cols) == m.cols))
    assert shapes == {(True, False), (False, True), (False, False),
                      (True, True)}


def test_solve_identity():
    m = QMatrix.identity(3)
    b = [Fraction(5), Fraction(-1), Fraction(7, 2)]
    assert m.solve(b) == b


def test_solve_no_solution():
    m = QMatrix.zeros(2, 2)
    with pytest.raises(NoSolution):
        m.solve([Fraction(1), Fraction(0)])


def test_solve_canonical_pivot():
    m = QMatrix(1, 2, [[1, 1]])
    assert m.solve([Fraction(2)]) == [Fraction(2), Fraction(0)]


def test_rank_examples():
    assert QMatrix.identity(4).rank() == 4
    assert QMatrix.zeros(3, 5).rank() == 0
    assert QMatrix(3, 2, [[1, 2], [2, 4], [0, 1]]).rank() == 2


def test_cokernel_projection():
    m = QMatrix(3, 2, [[1, 2], [2, 4], [0, 1]])
    c = m.cokernel_projection()
    assert c.rows == 3 - m.rank()
    assert (c * m).is_zero()
    assert c.rank() == c.rows


def test_rank_nullity_random_against_oracle():
    rng = random.Random(12)
    for _ in range(120):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(c)] for _ in range(r)]
        m = QMatrix(r, c, rows if rows else None)
        rank = m.rank()
        assert rank == gauss_oracle(rows, c)
        assert rank + m.kernel_basis().cols == c
        assert rank + m.cokernel_projection().rows == r
        assert (m * m.kernel_basis()).is_zero()


def test_solve_matrix_matches_columns():
    rng = random.Random(3)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = QMatrix(r, c, [[rng.randint(-2, 2) for _ in range(c)]
                           for _ in range(r)])
        x = QMatrix(c, 2, [[rng.randint(-2, 2) for _ in range(2)]
                           for _ in range(c)])
        b = m * x
        sol = m.solve_matrix(b)
        assert m * sol == b


def test_fractional_entries():
    m = QMatrix(2, 2, [["1/2", "1/3"], ["1/4", "1"]])
    assert m.rank() == 2
    inv = m.inverse()
    assert m * inv == QMatrix.identity(2)
    singular = QMatrix(2, 2, [["1/2", "1/3"], ["3/2", "1"]])
    assert singular.rank() == 1


def test_stacking_shapes():
    a = QMatrix(2, 1, [[1], [2]])
    b = QMatrix(2, 2, [[0, 1], [1, 0]])
    h = QMatrix.hstack([a, b])
    assert (h.rows, h.cols) == (2, 3)
    v = QMatrix.vstack([b, b])
    assert (v.rows, v.cols) == (4, 2)
    d = QMatrix.block_diag([a, b])
    assert (d.rows, d.cols) == (4, 3)
    assert d.data[0][0] == 1 and d.data[2][1] == 0 and d.data[2][2] == 1


def test_serialization_strings():
    m = QMatrix(1, 2, [["-3/4", 2]])
    lists = m.to_lists()
    assert lists == [["-3/4", "2"]]
    back = QMatrix.from_lists(1, 2, lists)
    assert back == m
