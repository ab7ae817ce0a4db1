"""Exact matrices over Q and over Laurent polynomials.

RationalMatrix holds Fraction entries.  PolynomialMatrix holds
LaurentPolynomial entries and carries the Smith normal form machinery used
for module presentations over Q[t, 1/t].  Since rational scalars and powers
of t are units of that ring, rows may be rescaled by them freely; the
invariant factors are reported in canonical form.

A polynomial matrix is only ever assembled (by fox.specialize,
characteristic_matrix, from_blocks, submatrix or transpose) and handed to
the determinant, the Smith normal form or homology_invariant_factors; no
code adds or multiplies polynomial matrices.  Those kernels use the unit
freedom to work on the integer Z[t] kernels of laurent: each row is shifted
and scaled into Z[t] on the way in, eliminations are fraction-free (Bareiss
for the determinant, pseudo-division for the Smith normal form, both on the
one pseudo-division loop of laurent), and Fraction coefficients appear only
when a result is converted back.  homology_invariant_factors carries b2
through the Smith reduction of b1 in the same Z[t] form, so it builds no
inverse matrix; b1 * b2 = 0 is read off the carried b2.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ConsistencyError, SingularMatrixError
from .laurent import (
    LaurentPolynomial,
    _row_to_z,
    _z_to_laurent,
    _zprimitive,
    _zpseudo_divmod,
    _zsubmul,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


class RationalMatrix:
    """A matrix over Q.  Values are never mutated after construction, so
    the inverse is computed once and kept in _inv."""

    __slots__ = ("rows", "cols", "_e", "_inv")

    def __init__(self, entries):
        self._e = [[Fraction(x) for x in row] for row in entries]
        self._inv = None
        self.rows = len(self._e)
        self.cols = len(self._e[0]) if self._e else 0
        if any(len(r) != self.cols for r in self._e):
            raise ValueError("ragged matrix")

    @classmethod
    def _of_rows(cls, rows):
        """A matrix that takes ownership of rows: equal-length lists whose
        entries are already Fraction, so they are neither copied nor checked."""
        out = object.__new__(cls)
        out._e = rows
        out._inv = None
        out.rows = len(rows)
        out.cols = len(rows[0]) if rows else 0
        return out

    @classmethod
    def identity(cls, n):
        return cls._of_rows(
            [[_F1 if i == j else _F0 for j in range(n)] for i in range(n)]
        )

    def entry(self, i, j):
        return self._e[i][j]

    def row(self, i):
        return list(self._e[i])

    def to_lists(self):
        return [list(r) for r in self._e]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self._e))

    def __repr__(self):
        return f"RationalMatrix({self._e!r})"

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # Row i of the product is the sum of a * (row k of other) over the
        # nonzero a = self[i][k]; only nonzero entries are visited, so a
        # product of permutation matrices costs O(n^2), not O(n^3).
        sparse = [[(j, b) for j, b in enumerate(r) if b] for r in other._e]
        n = other.cols
        out = []
        for row in self._e:
            acc = [_F0] * n
            for a, terms in zip(row, sparse):
                if a:
                    for j, b in terms:
                        acc[j] += a * b
            out.append(acc)
        return RationalMatrix._of_rows(out)

    def trace(self):
        return sum(self._e[i][i] for i in range(self.rows))

    def is_identity(self):
        return self.rows == self.cols and self == RationalMatrix.identity(self.rows)

    def power(self, k):
        """self^k by repeated squaring."""
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse().power(-k)
        out = None
        square = self
        while k:
            if k & 1:
                out = square if out is None else out * square
            k >>= 1
            if k:
                square = square * square
        return RationalMatrix.identity(self.rows) if out is None else out

    def inverse(self):
        if self._inv is None:
            self._inv = self._invert()
        return self._inv

    def _invert(self):
        """Gauss-Jordan elimination on [self | I]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        m = [
            list(r) + [_F1 if j == i else _F0 for j in range(n)]
            for i, r in enumerate(self._e)
        ]
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            m[k], m[piv] = m[piv], m[k]
            inv = 1 / m[k][k]
            m[k] = [x * inv for x in m[k]]
            for i in range(n):
                if i != k and m[i][k]:
                    f = m[i][k]
                    m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        return RationalMatrix._of_rows([r[n:] for r in m])

    def char_poly(self):
        """det(t*I - self) by the Faddeev-LeVerrier recurrence.

        Division happens only by the integers 1..n, which is exact over Q.
        """
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
        coeffs = {n: _F1}
        mk = self
        for k in range(1, n + 1):
            ak = -mk.trace() / k
            coeffs[n - k] = ak
            if k < n:
                shifted = mk.to_lists()
                for i in range(n):
                    shifted[i][i] += ak
                mk = self * RationalMatrix._of_rows(shifted)
        return LaurentPolynomial(coeffs)


class PolynomialMatrix:
    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        self._e = [
            [
                x if isinstance(x, LaurentPolynomial) else LaurentPolynomial.term(x)
                for x in row
            ]
            for row in entries
        ]
        self.rows = len(self._e)
        self.cols = len(self._e[0]) if self._e else 0
        if any(len(r) != self.cols for r in self._e):
            raise ValueError("ragged matrix")

    @classmethod
    def from_blocks(cls, blocks):
        """Assemble from a 2d grid of PolynomialMatrix blocks."""
        rows = []
        for brow in blocks:
            height = brow[0].rows
            if any(b.rows != height for b in brow):
                raise ValueError("inconsistent block heights")
            for i in range(height):
                row = []
                for b in brow:
                    row.extend(b._e[i])
                rows.append(row)
        return cls(rows)

    def entry(self, i, j):
        return self._e[i][j]

    def submatrix(self, row_range, col_range):
        return PolynomialMatrix(
            [[self._e[i][j] for j in col_range] for i in row_range]
        )

    def __repr__(self):
        return f"PolynomialMatrix({[[str(x) for x in r] for r in self._e]!r})"

    def transpose(self):
        return PolynomialMatrix([list(c) for c in zip(*self._e)])

    def det(self):
        """Exact determinant by fraction-free Bareiss elimination over Z[t].

        Each row is shifted by a power of t and scaled by the lcm of its
        denominators to land in Z[t]; both factors are units and are undone
        at the end, so the result is the true determinant.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPolynomial.one()
        m = []
        total_shift = 0
        den = 1
        sign = 1
        for row in self._e:
            zrow, shift, d = _row_to_z(row)
            m.append(zrow)
            total_shift += shift
            den *= d
        prev = [1]
        for k in range(n - 1):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                return LaurentPolynomial.zero()
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            mk = m[k]
            p = mk[k]
            for i in range(k + 1, n):
                mi = m[i]
                a = mi[k]
                for j in range(k + 1, n):
                    # an exact quotient in Z[t] never needs a scale
                    c, q, r = _zpseudo_divmod(_zsubmul(p, mi[j], a, mk[j]), prev)
                    if c != 1 or r:
                        raise ArithmeticError("division was expected to be exact")
                    mi[j] = q
            prev = p
        return _z_to_laurent(m[n - 1][n - 1], total_shift, sign * den)

    def smith_normal_form(self):
        """Canonical invariant factors p1 | p2 | ..., padded with zeros to
        min(rows, cols)."""
        diag = _snf_core([_row_to_z(row)[0] for row in self._e], self.cols)
        return [_z_to_laurent(d).canonicalize() for d in diag]


def characteristic_matrix(a, d):
    """t^d I - a for a square RationalMatrix a; its determinant is the
    characteristic polynomial of a at t^d."""
    return PolynomialMatrix(
        [
            [LaurentPolynomial({d: int(i == j), 0: -x}) for j, x in enumerate(row)]
            for i, row in enumerate(a._e)
        ]
    )


def _snf_core(m, cols, carry=None):
    """Reduce the Z[t] rows m, each of length cols, to diagonal form in place
    by unimodular operations over Q[t, 1/t]; returns the diagonal m[i][i],
    i < min(len(m), cols), as Z[t] lists, nonzero entries first.

    Rows are kept integer-primitive, and each division is a pseudo-division
    c*a = q*b + r whose scale c is a rational unit.  Pivot choice: the
    nonzero entry of minimal degree, ties broken by the smallest (row, col)
    pair.  The column operations make up a unimodular V with m * V
    row-equivalent to the diagonal.  carry, when given, is a list of cols
    Z[t] rows Y; every column operation on m is applied to it as the row
    operation of V^-1, so on return row j of carry is a rational unit times
    row j of V^-1 * Y.
    """
    rows = len(m)
    # carry row j stands for carry[j] / cden[j]
    cden = [1] * cols

    def normalize_row(i):
        # unit row scaling: strip the common power of t and the content
        row = m[i]
        k = min((next(e for e, c in enumerate(x) if c) for x in row if x), default=0)
        m[i] = _zprimitive([x[k:] for x in row] if k else row)

    def col_swap(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]
        if carry is not None:
            carry[a], carry[b] = carry[b], carry[a]
            cden[a], cden[b] = cden[b], cden[a]

    def reduce_col(j, k):
        # col_j := c * col_j - q * col_k clears m[k][j] to the remainder.
        # Column k is zero outside row k here, so rows other than k only
        # see the unit scale c.
        c, q, r = _zpseudo_divmod(m[k][j], m[k][k])
        if c != 1:
            for row in m:
                if row[j]:
                    row[j] = [c * x for x in row[j]]
        m[k][j] = r
        if carry is not None:
            # V^-1: row j is divided by c, then row k gains q * row j
            cden[j] *= c
            dk, dj = cden[k], cden[j]
            l = lcm(dk, dj)
            sq = [-(l // dj) * x for x in q]
            row = [_zsubmul([l // dk], a, sq, b) for a, b in zip(carry[k], carry[j])]
            g = gcd(l, *(x for p in row for x in p)) if l > 1 else 1
            carry[k] = [[x // g for x in p] for p in row] if g > 1 else row
            cden[k] = l // g

    def row_swap(a, b):
        m[a], m[b] = m[b], m[a]

    for i in range(rows):
        normalize_row(i)

    limit = min(rows, cols)
    k = 0
    while k < limit:
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = m[i][j]
                if not x:
                    continue
                # rows are kept in Z[t] form, so this is the Q[t] degree
                d = len(x) - 1
                if pivot is None or (d, i, j) < pivot:
                    pivot = (d, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != k:
            row_swap(pi, k)
        if pj != k:
            col_swap(pj, k)
        normalize_row(k)

        while True:
            dirty = False
            for i in range(k + 1, rows):
                if not m[i][k]:
                    continue
                # row_i := c * row_i - q * row_k, then its content removed
                c, q, _ = _zpseudo_divmod(m[i][k], m[k][k])
                m[i] = _zprimitive(
                    [_zsubmul([c], a, q, b) for a, b in zip(m[i], m[k])]
                )
                if m[i][k]:
                    row_swap(i, k)
                    normalize_row(k)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(k + 1, cols):
                if not m[k][j]:
                    continue
                reduce_col(j, k)
                if m[k][j]:
                    col_swap(j, k)
                    normalize_row(k)
                    dirty = True
                    break
            if not dirty:
                break

        offender = None
        pivot_poly = m[k][k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if m[i][j] and _zpseudo_divmod(m[i][j], pivot_poly)[2]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[k] = [_zsubmul([1], a, [-1], b) for a, b in zip(m[k], m[offender])]
            continue
        k += 1

    return [m[i][i] for i in range(limit)]


def homology_invariant_factors(b1, b2):
    """Invariant factors of ker(b1) / im(b2) over Q[t, 1/t].

    b1 and b2 are consecutive boundary maps (b1 * b2 = 0).  Returns
    (factors, free_rank) where factors are the canonical nonzero invariant
    factors of the torsion part, units included.  Raises ConsistencyError
    unless b1 * b2 = 0.
    """
    if b1.cols != b2.rows:
        raise ValueError("boundary maps do not compose")
    # b2 in Z[t] under one unit; reducing b1 carries it to V^-1 * b2, up to
    # a rational unit per row
    k = b2.cols
    flat, _, _ = _row_to_z([x for row in b2._e for x in row])
    y = [flat[i * k:(i + 1) * k] for i in range(b2.rows)]
    diag = _snf_core([_row_to_z(row)[0] for row in b1._e], b1.cols, carry=y)
    rank = sum(1 for d in diag if d)
    # U * b1 * V = D gives b1 * b2 = U^-1 * D * (V^-1 * b2), and the first
    # rank entries of D are nonzero in a domain: b1 * b2 = 0 iff y[:rank] = 0
    if any(p for row in y[:rank] for p in row):
        raise ConsistencyError("boundary maps do not compose to zero")
    kernel_rank = b1.cols - rank
    nonzero = [_z_to_laurent(d).canonicalize() for d in _snf_core(y[rank:], k) if d]
    free_rank = kernel_rank - len(nonzero)
    return nonzero, free_rank
