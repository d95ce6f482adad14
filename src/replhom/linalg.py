"""Exact dense linear algebra over the rationals.

Everything downstream (Hom spaces, syzygies, Ext groups) reduces to the
kernels, ranks and solves implemented here.  Arithmetic is exact: entries are
``fractions.Fraction`` and elimination runs fraction-free on integer-scaled
rows with a deterministic first-nonzero pivot, so every basis this module
returns is reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["QMatrix", "NoSolution", "Echelon", "frac", "span_basis"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NoSolution(Exception):
    """Raised when a linear system M*x = b has no solution."""


def frac(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _int_row(row):
    """The row with denominators cleared and the content divided out."""
    mult = 1
    for x in row:
        d = x.denominator
        if d != 1:
            mult = mult * d // gcd(mult, d)
    if mult == 1:
        ints = [x.numerator for x in row]
    else:
        ints = [int(x * mult) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _int_rows(data):
    """Clear denominators row by row; returns integer rows (kernel-safe).

    Row scaling preserves row space, kernel and rank, and is applied across
    any augmented columns the caller appended.
    """
    return [_int_row(row) for row in data]


def _echelon(rows, ncols):
    """In-place fraction-free forward elimination on integer rows.

    Pivots on the first row with a nonzero entry in the current column
    (deterministic).  Row operations extend across any augmented columns.
    Returns the list of pivot columns; after return, rows beyond the rank are
    zero in the first ``ncols`` columns.
    """
    pivots = []
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        width = len(prow)
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if f:
                for j in range(c, width):
                    ri[j] = ri[j] * pv - f * prow[j]
                g = 0
                for v in ri:
                    g = gcd(g, v)
                if g > 1:
                    for j in range(width):
                        ri[j] //= g
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def span_basis(vectors, n):
    """The basis QMatrix.kernel_basis gives for the span of vectors, as a
    list of columns (each vector has length n).

    That basis depends only on the space (see kernel_basis), so any system
    with this null space would give the same columns.  The vectors are
    eliminated pivoting from the last column backwards and fully reduced:
    each basis column has its last nonzero entry, a 1, at a free position
    and zeros at the others, in increasing order of free position.
    """
    rows = [_int_row(v)[::-1] for v in vectors if any(v)]
    pivots = _echelon(rows, n)
    # clear each pivot column above its row (below it is clear already),
    # from the last pivot up: the row subtracted is then zero at every
    # later pivot, so the columns cleared before stay clear
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
        out.append([Fraction(x, pv) if x else _ZERO for x in reversed(row)])
    return out


class Echelon:
    """Integer echelon form of a growing span of vectors of length n.

    add(vec) reduces vec against the rows kept so far, pivoting on each
    row's first nonzero entry, and keeps the remainder if it is nonzero: it
    returns True exactly when vec leaves the span, i.e. when the rank of the
    vectors added so far rises.  Each vector costs one pass over the pivots
    it meets, not an elimination of the whole span.
    """

    __slots__ = ("n", "pivots")

    def __init__(self, n):
        self.n = n
        self.pivots = {}        # pivot column -> integer row, zero before it

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, vec) -> bool:
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        row = None
        pivots = self.pivots
        for c in range(self.n):
            f = vec[c] if row is None else row[c]
            if not f:
                continue
            if row is None:
                row = _int_row(vec)
                f = row[c]
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                return True
            pv = prow[c]
            for j in range(c, self.n):
                row[j] = row[j] * pv - f * prow[j]
            g = 0
            for j in range(c + 1, self.n):
                if row[j]:
                    g = gcd(g, row[j])
                    if g == 1:
                        break
            if g > 1:
                for j in range(c + 1, self.n):
                    row[j] //= g
        return False


class QMatrix:
    """Dense matrix of Fractions with shape (rows, cols)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[_ZERO] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data shape mismatch")
            self.data = [
                list(r) if all(type(x) is Fraction for x in r)
                else [frac(x) for x in r]
                for r in data]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = _ONE
        return m

    @classmethod
    def from_cols(cls, cols_list, rows=None):
        c = len(cols_list)
        r = len(cols_list[0]) if cols_list else (rows or 0)
        if rows is not None:
            r = rows
        m = cls(r, c)
        for j, col in enumerate(cols_list):
            for i in range(r):
                m.data[i][j] = frac(col[i])
        return m

    @staticmethod
    def hstack(mats):
        mats = list(mats)
        if not mats:
            return QMatrix(0, 0)
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise ValueError("hstack: row mismatch")
        out = QMatrix(r, sum(m.cols for m in mats))
        for i in range(r):
            row = []
            for m in mats:
                row.extend(m.data[i])
            out.data[i] = row
        return out

    @staticmethod
    def vstack(mats):
        mats = list(mats)
        if not mats:
            return QMatrix(0, 0)
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise ValueError("vstack: col mismatch")
        out = QMatrix(sum(m.rows for m in mats), c)
        k = 0
        for m in mats:
            for i in range(m.rows):
                out.data[k] = list(m.data[i])
                k += 1
        return out

    @staticmethod
    def block_diag(mats):
        mats = list(mats)
        out = QMatrix(sum(m.rows for m in mats), sum(m.cols for m in mats))
        ro = co = 0
        for m in mats:
            for i in range(m.rows):
                out.data[ro + i][co:co + m.cols] = list(m.data[i])
            ro += m.rows
            co += m.cols
        return out

    # -- basics ------------------------------------------------------------

    def copy(self):
        return QMatrix(self.rows, self.cols, [list(r) for r in self.data])

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self.data)

    @property
    def T(self):
        out = QMatrix(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j][i] = self.data[i][j]
        return out

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = QMatrix(self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [a + b for a, b in zip(self.data[i], other.data[i])]
        return out

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = QMatrix(self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [a - b for a, b in zip(self.data[i], other.data[i])]
        return out

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = frac(c)
        out = QMatrix(self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [c * x for x in self.data[i]]
        return out

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            out = QMatrix(self.rows, other.cols)
            nz_rows = [[(j, b) for j, b in enumerate(row) if b]
                       for row in other.data]
            for i in range(self.rows):
                srow = self.data[i]
                orow = out.data[i]
                for k in range(self.cols):
                    a = srow[k]
                    if a:
                        for j, b in nz_rows[k]:
                            orow[j] += a * b
            return out
        return self.scale(other)

    __matmul__ = __mul__

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def apply(self, vec):
        """Matrix times column vector (a list of Fractions)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        nz = [(j, v) for j, v in enumerate(vec) if v]
        out = [_ZERO] * self.rows
        if not nz:
            return out
        for i in range(self.rows):
            row = self.data[i]
            s = _ZERO
            for j, v in nz:
                r = row[j]
                if r:
                    s += r * v
            out[i] = s
        return out

    # -- elimination-based operations ---------------------------------------

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        rows = _int_rows(self.data)
        return len(_echelon(rows, self.cols))

    def kernel_basis(self, overwrite=False) -> "QMatrix":
        """Columns form a basis of the right null space {v : M v = 0}.

        Canonical form: for each free column f (in increasing order) the
        basis vector has a 1 at f, zeros at the other free columns, and
        back-substituted pivot entries.  The basis depends only on the null
        space, not on the system that cuts it out: a pivot entry depends
        only on later entries, so the free columns are the positions where
        null vectors can have their last nonzero entry, and the basis is
        that space's unique echelon basis read from the last column
        backwards (span_basis computes it from a spanning set).

        With overwrite=True the elimination runs in this matrix's own rows,
        each replaced by its integer form as it is read, so a large system
        is never held twice; the matrix is left empty (0 x 0).
        """
        if self.cols == 0:
            return QMatrix(0, 0)
        if self.rows == 0:
            return QMatrix.identity(self.cols)
        ncols = self.cols
        if overwrite:
            rows = self.data
            for i, row in enumerate(rows):
                rows[i] = _int_row(row)
            self.rows, self.cols, self.data = 0, 0, []
        else:
            rows = _int_rows(self.data)
        pivots = _echelon(rows, ncols)
        pivset = set(pivots)
        free = [c for c in range(ncols) if c not in pivset]
        cols = []
        for fc in free:
            v = [_ZERO] * ncols
            v[fc] = _ONE
            for i in range(len(pivots) - 1, -1, -1):
                pc = pivots[i]
                row = rows[i]
                s = _ZERO
                for j in range(pc + 1, ncols):
                    if row[j] and v[j]:
                        s += Fraction(row[j]) * v[j]
                v[pc] = -s / row[pc]
            cols.append(v)
        return QMatrix.from_cols(cols, rows=ncols)

    def solve_matrix(self, B: "QMatrix") -> "QMatrix":
        """Solve M X = B for X; canonical solution with free variables 0.

        Raises NoSolution if any column of B is not in the column space.
        """
        if B.rows != self.rows:
            raise ValueError("rhs row mismatch")
        n = self.cols
        aug = [list(self.data[i]) + list(B.data[i]) for i in range(self.rows)]
        rows = _int_rows(aug)
        pivots = _echelon(rows, n)
        rank = len(pivots)
        for i in range(rank, len(rows)):
            if any(rows[i][n + t] for t in range(B.cols)):
                raise NoSolution("inconsistent linear system")
        xcols = []
        for t in range(B.cols):
            v = [_ZERO] * n
            for i in range(rank - 1, -1, -1):
                pc = pivots[i]
                row = rows[i]
                s = Fraction(row[n + t])
                for j in range(pc + 1, n):
                    if row[j] and v[j]:
                        s -= Fraction(row[j]) * v[j]
                v[pc] = s / row[pc]
            xcols.append(v)
        return QMatrix.from_cols(xcols, rows=n)

    def solve(self, b):
        """Solve M x = b for a column vector b (list of Fractions)."""
        B = QMatrix.from_cols([list(b)], rows=self.rows)
        return self.solve_matrix(B).col(0)

    def cokernel_projection(self) -> "QMatrix":
        """A (rows - rank) x rows matrix C with C*M = 0 and full row rank.

        C projects onto a complement of the column space, so cokernel
        dimension equals rows - rank.  Its rows are a basis of the left null
        space {w : w M = 0}.
        """
        return self.T.kernel_basis().T

    def column_space_basis(self) -> "QMatrix":
        """Columns: the subset of this matrix's columns at pivot positions."""
        if self.rows == 0 or self.cols == 0:
            return QMatrix(self.rows, 0)
        rows = _int_rows(self.data)
        pivots = _echelon(rows, self.cols)
        return QMatrix.from_cols([self.col(j) for j in pivots], rows=self.rows)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        try:
            inv = self.solve_matrix(QMatrix.identity(self.rows))
        except NoSolution as exc:
            raise ValueError("matrix is singular") from exc
        return inv

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))),
                   _ZERO)

    # -- serialization -------------------------------------------------------

    def to_lists(self):
        """Nested lists with entries as "p/q" strings (ints stay "p")."""
        return [[str(x) for x in row] for row in self.data]

    @classmethod
    def from_lists(cls, rows, cols, lists):
        return cls(rows, cols, lists if lists else None)
