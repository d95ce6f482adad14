import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from replhom import repa
from replhom.linalg import (Echelon, NoSolution, QMatrix, _echelon, _int_row,
                            _int_rows, frac, quo, span_basis)

SRC = Path(__file__).resolve().parent.parent / "src" / "replhom"


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
    back = QMatrix(1, 2, lists)
    assert back == m


def test_echelon_add_matches_rank():
    """add() reports a vector as new exactly when QMatrix.rank of the
    vectors so far rises; sums of earlier vectors exercise the in-span
    case."""
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 7)
        ech, seen = Echelon(n), []
        for _ in range(rng.randint(1, 10)):
            if seen and rng.random() < 0.4:
                vec = [sum(rng.randint(-2, 2) * v[k] for v in seen)
                       for k in range(n)]
            else:
                vec = [rng.choice([0, 0, 0, 1, -1, 2, 5]) for _ in range(n)]
            if rng.random() < 0.3:
                vec = [Fraction(x, 3) for x in vec]
            before = QMatrix.from_cols(seen, rows=n).rank() if seen else 0
            seen.append(vec)
            after = QMatrix.from_cols(seen, rows=n).rank()
            assert ech.add(vec) == (after > before)
            assert ech.rank == after == gauss_oracle(
                [list(r) for r in zip(*seen)], len(seen))


def test_echelon_rejects_a_wrong_length():
    with pytest.raises(ValueError):
        Echelon(3).add([1, 2])


# -- reduced echelon readers against Fraction back-substitution ---------------
#
# The references below run the same forward elimination and then the
# Fraction back-substitution (and the separate upward pass of span_basis)
# the library used before it read answers off one reduced echelon form.

def back_substitution_kernel(m):
    if m.cols == 0:
        return QMatrix(0, 0)
    if m.rows == 0:
        return QMatrix.identity(m.cols)
    ncols = m.cols
    rows = _int_rows(m.data)
    pivots = _echelon(rows, ncols)
    free = [c for c in range(ncols) if c not in set(pivots)]
    cols = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[i], rows[i]
            s = Fraction(0)
            for j in range(pc + 1, ncols):
                if row[j] and v[j]:
                    s += Fraction(row[j]) * v[j]
            v[pc] = -s / row[pc]
        cols.append(v)
    return QMatrix.from_cols(cols, rows=ncols)


def back_substitution_solve(m, B):
    n = m.cols
    aug = [list(m.data[i]) + list(B.data[i]) for i in range(m.rows)]
    rows = _int_rows(aug)
    pivots = _echelon(rows, n)
    rank = len(pivots)
    for i in range(rank, len(rows)):
        if any(rows[i][n + t] for t in range(B.cols)):
            raise NoSolution("inconsistent linear system")
    xcols = []
    for t in range(B.cols):
        v = [Fraction(0)] * n
        for i in range(rank - 1, -1, -1):
            pc, row = pivots[i], rows[i]
            s = Fraction(row[n + t])
            for j in range(pc + 1, n):
                if row[j] and v[j]:
                    s -= Fraction(row[j]) * v[j]
            v[pc] = s / row[pc]
        xcols.append(v)
    return QMatrix.from_cols(xcols, rows=n)


def upward_pass_span_basis(vectors, n):
    rows = [_int_row(v)[::-1] for v in vectors if any(v)]
    pivots = _echelon(rows, n)
    for i in range(len(pivots) - 1, 0, -1):
        pc, prow = pivots[i], rows[i]
        pv = prow[pc]
        for k in range(i):
            rk = rows[k]
            f = rk[pc]
            if f:
                for j in range(pivots[k], n):
                    rk[j] = rk[j] * pv - f * prow[j]
                g = 0
                for v in rk:
                    g = gcd(g, v)
                if g > 1:
                    for j in range(n):
                        rk[j] //= g
    out = []
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        pv = row[pivots[i]]
        out.append([Fraction(x, pv) for x in reversed(row)])
    return out


def _random_matrix(rng, r, c):
    """A seeded random rational r x c matrix: sparse or dense, with some
    rows and columns zeroed and some rows combinations of others."""
    density = rng.choice((0.2, 0.5, 1.0))
    data = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
             if rng.random() < density else Fraction(0) for _ in range(c)]
            for _ in range(r)]
    for i in range(r):
        if rng.random() < 0.15:
            data[i] = [Fraction(0)] * c
        elif i >= 2 and rng.random() < 0.3:
            a, b = rng.randint(-2, 2), Fraction(rng.randint(1, 3), 2)
            data[i] = [a * x + b * y for x, y in zip(data[0], data[1])]
    for j in range(c):
        if rng.random() < 0.15:
            for row in data:
                row[j] = Fraction(0)
    return QMatrix(r, c, data or None)


def _shapes(rng):
    yield from [(0, 3), (3, 0), (0, 0), (1, 1), (5, 5), (4, 9), (9, 4)]
    for _ in range(250):
        yield rng.randint(1, 9), rng.randint(1, 9)


def test_kernel_basis_matches_back_substitution():
    rng = random.Random(101)
    kinds = set()
    for r, c in _shapes(rng):
        m = _random_matrix(rng, r, c)
        ker = m.kernel_basis()
        assert ker == back_substitution_kernel(m)
        assert all(type(x) in (int, Fraction) for row in ker.data for x in row)
        rank = m.rank()
        kinds.add("zero" if rank == 0 else "full" if rank == c else "partial")
    assert kinds == {"zero", "partial", "full"}


def test_solve_matrix_matches_back_substitution():
    rng = random.Random(102)
    for r, c in _shapes(rng):
        if r == 0:
            continue
        m = _random_matrix(rng, r, c)
        k = rng.randint(1, 4)
        x = QMatrix(c, k, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(k)] for _ in range(c)] or None)
        B = m * x
        sol = m.solve_matrix(B)
        assert sol == back_substitution_solve(m, B)
        assert m * sol == B
    full = QMatrix(4, 4, [[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1],
                          [1, 1, 1, 5]])
    B = QMatrix(4, 3, [[1, 0, "1/2"], [0, 1, 0], [0, 0, -1], [3, 0, 0]])
    assert full.solve_matrix(B) == back_substitution_solve(full, B)
    assert full * full.solve_matrix(B) == B


def test_solve_matrix_rejects_an_inconsistent_column():
    # row 2 is row 0 plus row 1, so a right-hand side must satisfy the same
    m = QMatrix(3, 3, [[1, 2, 3], [0, 1, 4], [1, 3, 7]])
    good = [[1], [2], [3]]
    B = QMatrix(3, 2, [g + [x] for g, x in zip(good, [1, 2, 4])])
    with pytest.raises(NoSolution):
        m.solve_matrix(B)
    with pytest.raises(NoSolution):
        back_substitution_solve(m, B)
    assert m.solve_matrix(QMatrix(3, 1, good)) == \
        back_substitution_solve(m, QMatrix(3, 1, good))


def test_span_basis_matches_its_upward_pass():
    rng = random.Random(103)
    for r, c in _shapes(rng):
        if c == 0:
            continue
        m = _random_matrix(rng, r, c)
        vecs = [list(row) for row in m.data]
        assert span_basis(vecs, c) == upward_pass_span_basis(vecs, c)
    assert span_basis([[Fraction(0)] * 3], 3) == []


# -- exact entries: ints where integral, quotients only through quo ------------

def _is_exact(x):
    return type(x) is int or type(x) is Fraction


def _random_rational(rng):
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 7)))


def test_quo_is_the_exact_quotient():
    rng = random.Random(111)
    for _ in range(2000):
        a, b = _random_rational(rng), _random_rational(rng)
        if rng.random() < 0.5:
            a, b = frac(a), frac(b)     # ints where integral
        if not b:
            continue
        q, want = quo(a, b), Fraction(a) / Fraction(b)
        assert q == want
        assert type(q) is (int if want.denominator == 1 else Fraction)
    assert type(quo(6, 3)) is int and type(quo(Fraction(6), 3)) is int
    assert quo(-7, 2) == Fraction(-7, 2) and quo(7, -7) == -1
    for a in (0, 5, Fraction(1, 2)):
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                quo(a, zero)


def test_frac_returns_ints_for_integral_values():
    for x in (3, Fraction(6, 2), "4", "-8/2", True):
        assert type(frac(x)) is int and frac(x) == Fraction(x)
    assert frac("1/2") == Fraction(1, 2) and type(frac("1/2")) is Fraction
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        QMatrix(1, 1, [[0.5]])


def _as_fractions(m):
    """The same matrix with every entry boxed as a Fraction."""
    return QMatrix(m.rows, m.cols,
                   [[Fraction(x) for x in row] for row in m.data])


def _as_ints(m):
    """The same matrix with every integral entry a plain int."""
    return QMatrix(m.rows, m.cols, [[frac(x) for x in row] for row in m.data])


def _same_exact(got, want):
    """got equals want, and every entry of either is an int or a Fraction,
    never a float."""
    assert got == want
    for res in (got, want):
        rows = res.data if isinstance(res, QMatrix) else res
        if rows and isinstance(rows[0], list):
            rows = [x for row in rows for x in row]
        assert all(_is_exact(x) for x in rows)


def test_results_do_not_depend_on_how_entries_are_boxed():
    rng = random.Random(112)
    for r, c in _shapes(rng):
        m = _random_matrix(rng, r, c)
        if rng.random() < 0.5:   # mostly integral, as in Hom systems
            m = QMatrix(r, c, [[Fraction(x.numerator) for x in row]
                               for row in m.data] or None)
        mi, mf = _as_ints(m), _as_fractions(m)
        assert all(type(x) is Fraction for row in mf.data for x in row)
        assert mi.rank() == mf.rank() == m.rank()
        _same_exact(mi.kernel_basis(), mf.kernel_basis())
        if c:
            _same_exact(span_basis(mi.data, c), span_basis(mf.data, c))
        if r and c:
            x = QMatrix(c, 2, [[rng.randint(-3, 3) for _ in range(2)]
                               for _ in range(c)])
            B = mi * x
            _same_exact(mi.solve_matrix(B), mf.solve_matrix(_as_fractions(B)))
        if r == c and r:
            coeffs = repa.char_poly(mi)
            _same_exact(coeffs, repa.char_poly(mf))
            _same_exact(repa.rational_roots(coeffs),
                        repa.rational_roots([Fraction(x) for x in coeffs]))


def _divisions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_no_true_division_outside_quo():
    """A quotient of entries is formed only by linalg.quo: with int
    entries, a / b would silently be a float."""
    allowed = set()
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "linalg.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "quo":
                    allowed = {id(d) for d in _divisions(node)}
        offenders += [f"{path.name}:{d.lineno}" for d in _divisions(tree)
                      if id(d) not in allowed]
    assert allowed, "linalg.quo not found"
    assert offenders == []
