"""Exact matrices over Q and over Laurent polynomials, both held as integers:
integer rows over one common denominator, and Z[t] rows under one unit
t^shift / den of Q[t, 1/t].  Fraction values appear only at the public
boundary: the constructors, entry and to_lists.  A LaurentPolynomial is
held the same way, so entry and the kernel results become one by
_z_to_laurent, which keeps the Z[t] list it is given; no list is mutated in
place, so matrices and values may share them.

A polynomial matrix is only ever assembled (by fox.specialize, which lays
the constant blocks of b1 side by side, the torus, which builds b2 from the
constant Fox Jacobian at s = t or, for lemma 4's direct side, at t^d,
characteristic_matrix or transpose) and read by the kernels, which rescale
rows by units freely.  The private _of constructors trust these callers to
hand over rows of equal length; only the public constructors check for
ragged rows.  pencil_char_poly reads the pencil s A - B of constant
matrices as the characteristic polynomial of A^-1 B, Wada's chi_M(s), and
the determinant reads a pencil with a scalar coefficient, tI - A or Wada's
t-block (s rho(t) - I)^T, off one characteristic polynomial.
The Smith normal form is one elimination loop over sparse rows, which takes
every unit pivot c t^e first and divides by the others with laurent's one
pseudo-division loop, then closes its diagonal into the divisibility chain
with laurent's one gcd.  Products, the elimination's sparse rows and the
b1 * b2 check walk only the nonzero entries of a dense row, by compress.
homology_invariant_factors checks b1 * b2 = 0 by a sparse product and
reduces b1 and b2 independently; the diagonal of b1's reduction, the
invariant factors of coker(b1), is returned for the Wada check.
RationalMatrix.char_poly works over F_p, for the least prime p above
twice a Hadamard bound on its coefficients among the one-digit prime
2^30 - 35 and the Mersenne primes, and shares no code with the Smith
normal form, so the checks that compare the two stay independent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, isqrt, lcm
from operator import mul

from .errors import ConsistencyError, SingularMatrixError
from .laurent import (
    LaurentPolynomial,
    _rational,
    _row_to_z,
    _z_to_laurent,
    _zcanonical,
    _zgcd,
    _zpseudo_divmod,
    _zsubmul,
)


class RationalMatrix:
    """A matrix over Q, held as integer rows _z over one positive common
    denominator _den with gcd(_den, every entry) = 1, so equal matrices have
    equal state.  Values are never mutated after construction, so the
    inverse is computed once and kept in _inv, and matrices may share rows."""

    __slots__ = ("rows", "cols", "_z", "_den", "_inv")

    def __init__(self, entries):
        # an int is kept as it is: it has numerator and denominator too
        rows = [[_rational(x) for x in row] for row in entries]
        # the lcm of reduced denominators is coprime to the scaled entries
        den = lcm(1, *(x.denominator for r in rows for x in r))
        self._set([[x.numerator * (den // x.denominator) for x in r] for r in rows], den)
        if any(len(r) != self.cols for r in self._z):
            raise ValueError("ragged matrix")

    def _set(self, z, den):
        self._z, self._den, self._inv = z, den, None
        self.rows, self.cols = len(z), len(z[0]) if z else 0

    @classmethod
    def _of(cls, z, den):
        """The matrix z / den from integer rows z of equal length, which it
        takes over, and any den > 0."""
        g = gcd(den, *(x for r in z for x in r)) if den > 1 else 1
        out = object.__new__(cls)
        out._set([[x // g for x in r] for r in z] if g > 1 else z, den // g)
        return out

    @classmethod
    @cache  # matrices are never mutated, so one identity per n serves all
    def identity(cls, n):
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)], 1)

    def entry(self, i, j):
        return Fraction(self._z[i][j], self._den)

    def to_lists(self):
        return [[Fraction(x, self._den) for x in r] for r in self._z]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._z == other._z
        )

    def __hash__(self):
        return hash((self._den, tuple(map(tuple, self._z))))

    def __repr__(self):
        return f"RationalMatrix({self.to_lists()!r})"

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return RationalMatrix._of(_zmatmul(self._z, other._z), self._den * other._den)

    def is_identity(self):
        return self._den == 1 and self._z == RationalMatrix.identity(self.rows)._z

    def inverse(self):
        if self._inv is None:
            self._inv = self._invert()
        return self._inv

    def _invert(self):
        """A signed permutation matrix, such as each matrix of a regular
        representation, is inverted by its transpose.  Otherwise
        fraction-free Gauss-Jordan elimination on [z | I] ends in [C | R]
        with C diagonal, so (z / den)^-1 has row i equal to den * R[i] / C[i]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        if self._den == 1 and all(sum(map(abs, r)) == 1 for r in self._z):
            # one entry +-1 in each row; a signed permutation unless two
            # rows share a column
            t = [list(c) for c in zip(*self._z)]
            if all(sum(map(abs, r)) == 1 for r in t):
                return RationalMatrix._of(t, 1)
        n = self.rows
        m = [r + [int(j == i) for j in range(n)] for i, r in enumerate(self._z)]
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            m[k], m[piv] = m[piv], m[k]
            mk = m[k]
            p = mk[k]
            for i in range(n):
                f = m[i][k]
                if i != k and f:
                    row = [p * a - f * b for a, b in zip(m[i], mk)]
                    g = gcd(*row)
                    m[i] = [x // g for x in row] if g > 1 else row
        den = lcm(*(r[i] for i, r in enumerate(m)))
        return RationalMatrix._of(
            [[self._den * (den // r[i]) * x for x in r[n:]] for i, r in enumerate(m)],
            den,
        )

    def char_poly(self):
        """det(t*I - self) = den^-n chi_z(den * t) for the integer rows
        z = den * self.  chi_z is computed modulo a prime p in O(n^3): a
        Hessenberg reduction by similarity over F_p, then the recurrence
        for the characteristic polynomial of a Hessenberg matrix (Cohen, A
        Course in Computational Algebraic Number Theory, Alg. 2.2.9).

        By Hadamard's inequality the coefficient of t^(n-k) is at most
        e_k(|z_1|, ..., |z_n|) <= B = prod_i (2 + isqrt(|z_i|^2)) in
        absolute value, for the row norms |z_i|.  p is the least prime
        above 2B among _ONE_DIGIT_PRIME and then the Mersenne primes
        2^q - 1 of _MERSENNE_EXPONENTS, so each coefficient is its
        symmetric residue; a bound past the table raises ArithmeticError."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
        bound = 1
        for r in self._z:
            bound *= 2 + isqrt(sum(map(mul, r, r)))
        p = _char_poly_modulus(bound)
        half = p >> 1
        den = self._den
        # the coefficient c_e of t^e in chi_z becomes c_e / den^(n-e)
        return _z_to_laurent([(c - p if c > half else c) * den ** e for e, c in
                              enumerate(_hessenberg_char_poly(self._z, p))], 0, den ** n)


# the largest prime below 2^30, proven prime: below it every residue the
# Hessenberg loop keeps is one 30-bit digit of a CPython int
_ONE_DIGIT_PRIME = (1 << 30) - 35

# the exponents q of the Mersenne primes 2^q - 1 from 2^61 - 1 on, each
# proven prime; primes are built from them only when chosen
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
    11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091, 756839,
    859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917, 20996011,
    24036583, 25964951, 30402457, 32582657, 37156667, 42643801, 43112609,
    57885161, 74207281, 77232917, 82589933,
)


def _char_poly_modulus(bound):
    """The least prime p > 2 * bound, for a bound >= 1, among
    _ONE_DIGIT_PRIME and then the primes 2^q - 1, q in _MERSENNE_EXPONENTS;
    2^q - 1 > 2 * bound exactly when 2^q > 2 * bound + 1, an odd number
    above 1."""
    if 2 * bound < _ONE_DIGIT_PRIME:
        return _ONE_DIGIT_PRIME
    bits = (2 * bound + 1).bit_length()
    q = next((q for q in _MERSENNE_EXPONENTS if q >= bits), None)
    if q is None:
        raise ArithmeticError(
            f"characteristic polynomial coefficient bound of {bound.bit_length()} bits "
            "exceeds the Mersenne prime table"
        )
    return (1 << q) - 1


def _hessenberg_char_poly(z, p):
    """The coefficients, constant first, of det(t*I - z) mod p, in [0, p),
    for square integer rows z and a prime p.

    Column c = m - 1 is cleared below row m by the row operations
    row_i -= u_i row_m with a pivot moved to (m, c) by a row and column
    swap.  The operations share row m, so they commute, and their inverse
    is the one column operation col_m += sum_i u_i col_i.  Only nonzero
    entries cost a product.  On the Hessenberg form h, chi_(k+1), the
    polynomial of the leading (k+1) x (k+1) block, is (t - h[k][k]) chi_k
    minus the sum over i < k of h[i][k] times the subdiagonal product
    h[i+1][i] ... h[k][k-1] times chi_i; a zero on the subdiagonal ends
    that sum."""
    n = len(z)
    h = [[x % p for x in r] for r in z]
    for m in range(1, n - 1):
        c = m - 1
        piv = next((i for i in range(m, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for r in h:
                r[piv], r[m] = r[m], r[piv]
        hm = h[m]
        inv = pow(hm[c], -1, p)
        ops = [(i, h[i][c] * inv % p) for i in range(m + 1, n) if h[i][c]]
        terms = [(j, b) for j, b in enumerate(hm) if b] if ops else ()
        for i, u in ops:
            hi = h[i]
            for j, b in terms:
                hi[j] = (hi[j] - u * b) % p
        for i, u in ops:
            for r in h:
                if r[i]:
                    r[m] = (r[m] + u * r[i]) % p
    chi = [[1]]
    for k in range(n):
        prev = chi[k]
        hkk = h[k][k]
        out = [0] + prev  # t * chi_k
        if hkk:
            for e, b in enumerate(prev):
                out[e] = (out[e] - hkk * b) % p
        sub = 1
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            f = sub * h[i][k] % p
            if f:
                for e, b in enumerate(chi[i]):
                    out[e] = (out[e] - f * b) % p
        chi.append(out)
    return chi[n]


def _zmatmul(x, y):
    """x * y for integer rows: each row of x sums the rows of y at its
    nonzero entries, and a row whose one entry is 1 is that row of y
    itself, which is safe as no row is mutated in place (O(n) for
    permutations)."""
    width = len(y[0]) if y else 0
    out = []
    for row in x:
        acc = None
        for i in compress(range(len(row)), row):
            a, r = row[i], y[i]
            if acc is None:
                acc = r if a == 1 else [a * v for v in r]
            else:
                acc = [u + a * v for u, v in zip(acc, r)]
        out.append([0] * width if acc is None else acc)
    return out


class PolynomialMatrix:
    """A matrix over Q[t, 1/t], held as Z[t] rows _z under one unit: entry
    (i, j) is t^_shift * _z[i][j] / _den, with _den > 0."""

    __slots__ = ("rows", "cols", "_z", "_shift", "_den")

    def __init__(self, entries):
        term = LaurentPolynomial.term
        rows = [[x if isinstance(x, LaurentPolynomial) else term(x) for x in r] for r in entries]
        flat, shift, den = _row_to_z([x for r in rows for x in r])
        flat = iter(flat)
        self._set([[next(flat) for _ in r] for r in rows], shift, den)
        if any(len(r) != self.cols for r in self._z):
            raise ValueError("ragged matrix")

    def _set(self, z, shift, den):
        self._z, self._shift, self._den = z, shift, den
        self.rows, self.cols = len(z), len(z[0]) if z else 0

    @classmethod
    def _of(cls, z, shift, den):
        """The matrix t^shift * z / den from rows z of Z[t] lists of equal
        length, which it takes over."""
        out = object.__new__(cls)
        out._set(z, shift, den)
        return out

    def entry(self, i, j):
        return _z_to_laurent(self._z[i][j], self._shift, self._den)

    def __repr__(self):
        entries = [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        return f"PolynomialMatrix({entries!r})"

    def transpose(self):
        return PolynomialMatrix._of([list(c) for c in zip(*self._z)], self._shift, self._den)

    def det(self):
        """Exact determinant of a pencil s A + B, A and B integer matrices
        under the matrix's unit, one of them a scalar matrix c I, as in
        tI - A and Wada's t-block (rho(t) s - I)^T.  For M the other and chi
        the characteristic polynomial of -M, det(c s I + M) is
        sum_e chi_e c^e s^e and det(s M + c I) = s^n chi(c / s) is
        sum_e chi_e c^e s^(n-e), each times the unit's n-th power.  c = 0
        covers a constant matrix; any other matrix raises ValueError."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if any(max(map(len, r)) > 2 for r in self._z):
            raise ValueError("determinant of a matrix that is not a pencil s A + B")
        a = [[x[1] if len(x) == 2 else 0 for x in r] for r in self._z]
        b = [[x[0] if x else 0 for x in r] for r in self._z]
        eye = RationalMatrix.identity(self.rows)._z
        for scalar, other, reverse in ((a, b, False), (b, a, True)):
            c = scalar[0][0] if scalar else 0
            if scalar == [[c * x for x in r] for r in eye]:
                break
        else:
            raise ValueError("determinant of a pencil s A + B with neither A nor B scalar")
        chi = RationalMatrix._of([[-x for x in r] for r in other], 1).char_poly()
        out, power = [0] * chi._shift + chi._z, 1
        for e in range(1, len(out)):
            power *= c
            out[e] *= power
        return _z_to_laurent(out[::-1] if reverse else out, self.rows * self._shift,
                             self._den ** self.rows)

    def smith_normal_form(self):
        """Canonical invariant factors p1 | p2 | ..., padded with zeros to
        min(rows, cols)."""
        diag = _snf_core(self._z, self.cols)
        return [_z_to_laurent(_zcanonical(d)) for d in diag]


def pencil_char_poly(b, block):
    """det(s A - b) / det(A) = chi_M(s) for A = I_n (x) block and
    M = A^-1 b, b a constant square RationalMatrix of size n * block.rows:
    each block row of b is multiplied by block^-1, which block keeps."""
    inv, dim = block.inverse(), block.rows
    z = [r for i in range(0, b.rows, dim) for r in _zmatmul(inv._z, b._z[i:i + dim])]
    return RationalMatrix._of(z, b._den * inv._den).char_poly()


def characteristic_matrix(a):
    """tI - a for a square RationalMatrix a; its determinant is the
    characteristic polynomial of a."""
    rows = []
    for i, row in enumerate(a._z):
        out = [[-x] if x else [] for x in row]
        out[i] = [-row[i], a._den]
        rows.append(out)
    return PolynomialMatrix._of(rows, 0, a._den)


def _pivot(rows):
    """(i, j) for the pivot of the sparse rows {column: Z[t] list}, each
    search taking the last row first and its first entry: a constant,
    else a monomial c t^e, else an entry of least length; None if every
    row is empty.  Z[t] lists have no trailing zeros, so len - 1 is the
    Q[t] degree."""
    monomial = least = None
    size = 0
    for i in range(len(rows) - 1, -1, -1):
        for j, x in rows[i].items():
            n = len(x)
            if n == 1:
                return i, j
            if monomial is None:
                if x.count(0) == n - 1:
                    monomial = i, j
                elif least is None or n < size:
                    least, size = (i, j), n
    return monomial or least


def _strip_t(row):
    """row divided by the largest power of t that divides each of its entries."""
    if not row or any(x[0] for x in row.values()):
        return row
    e = min(next(compress(range(len(x)), x)) for x in row.values())
    return {j: x[e:] for j, x in row.items()}


def _sparse_submul(c, row, a, prow):
    """A primitive unit multiple of c * row - a * prow, for sparse rows
    {column: Z[t] list}, an integer c != 0 and a Z[t] list a != 0.  Only
    entries where prow is nonzero call _zsubmul; the others are only
    scaled."""
    g = gcd(c, *a)
    s, q = c // g, [x // g for x in a] if g > 1 else a
    if s < 0:
        s, q = -s, [-x for x in q]
    sl, out = [s], {}
    for j, x in row.items():
        y = prow.get(j)
        if y is None:
            out[j] = x if s == 1 else [s * v for v in x]
        else:
            z = _zsubmul(sl, x, q, y)
            if z:
                out[j] = z
    for j, y in prow.items():
        if j not in row:
            out[j] = _zsubmul((), (), q, y)
    g = 0
    for p in out.values():
        g = gcd(g, *p)
        if g == 1:
            return out
    return {j: [x // g for x in p] for j, p in out.items()} if g > 1 else out


def _snf_core(m, cols):
    """The diagonal of a Smith form of the Z[t] rows m, each of length
    cols, over Q[t, 1/t]: min(len(m), cols) Z[t] lists, each a rational
    unit times an invariant factor, nonzero entries first.  m is not
    changed.

    One loop reduces rows held sparsely as {column: Z[t] list} over their
    nonzero entries, and each pass takes the pivot p = rows[i][j] that
    _pivot picks.  Constants, which raise no degree, go first, and the
    last rows first: a twisted b2 ends in the constant rows of the stable
    letter's Fox derivatives 1 - t x_i t^-1.  A row with no entry, at the
    start or once an operation has emptied it, is dropped, as it holds no
    pivot and takes no operation.

    A unit p = c t^e clears column j by the row operations
    row_s := c t^e * row_s - a * row_i, for a = row_s[j] (t^e puts e
    leading zeros on each entry, and the common power of t is stripped
    from the result); the column operations that would then clear row i
    change no other entry, so row i and column j drop out as one unit
    factor.

    Any other p has the least length, and divides in Z[t] with no shift
    by t, which would let coefficients grow at every pivot.  The
    pseudo-division c*a = q*p + r gives the row operation
    row_s := c * row_s - q * row_i, which leaves r in column j.  With
    column j clear outside row i, the column operations
    col_l := c * col_l - q * col_j clear row i to remainders and only
    scale column l in the other rows, and p, if then alone in its row
    and column, is done.  A remainder has a lower degree than p and ends
    the pass, so each pass drops a row or lowers the least length.

    Each row operation divides out the content of its result, and costs
    a product only where the pivot row is nonzero.  As diag(a, b) is
    equivalent to diag(gcd(a, b), lcm(a, b)), a closing pass puts the
    units first and trades each canonical non-unit with every later one
    it does not divide, the lcm (a / gcd) * b; equal ones are skipped.
    """
    rows = [{j: r[j] for j in compress(range(len(r)), r)} for r in m if any(r)]
    units, rest = [], []
    while (pivot := _pivot(rows)) is not None:
        i, j = pivot
        prow = rows[i]
        p = prow[j]
        if p.count(0) == len(p) - 1:
            del rows[i], prow[j]
            pad = [0] * (len(p) - 1)
            for k, r in enumerate(rows):
                a = r.pop(j, None)
                if a is not None and prow:
                    if pad:
                        r = {col: pad + x for col, x in r.items()}
                    r = _sparse_submul(p[-1], r, a, prow)
                    rows[k] = _strip_t(r) if pad else r
            rows = [r for r in rows if r]
            units.append(p)
            continue
        for k, r in enumerate(rows):
            if j in r and k != i:
                c, q, _ = _zpseudo_divmod(r[j], p)
                rows[k] = _sparse_submul(c, r, q, prow)
        rows = [r for r in rows if r]
        if any(j in r for r in rows if r is not prow):
            continue
        for col in [col for col in prow if col != j]:
            c, q, rem = _zpseudo_divmod(prow[col], p)
            if c != 1:
                for r in rows:
                    if col in r and r is not prow:
                        r[col] = [c * v for v in r[col]]
            if rem:
                prow[col] = rem
            else:
                del prow[col]
        if len(prow) == 1:
            rows = [r for r in rows if r is not prow]
            rest.append(_zcanonical(p))
    for k, a in enumerate(rest):
        for n, b in enumerate(rest[k + 1:], k + 1):
            if a != b and (g := _zgcd(a, b)) != a:
                q = _zpseudo_divmod(a, g)[1] if len(g) > 1 else a
                a, rest[n] = g, _zcanonical(_zsubmul((), (), q, b))
        rest[k] = a
    return units + rest + [[]] * (min(len(m), cols) - len(units) - len(rest))


def homology_invariant_factors(b1, b2):
    """Invariant factors of ker(b1) / im(b2) over Q[t, 1/t].

    b1 and b2 are consecutive boundary maps (b1 * b2 = 0).  Returns
    (factors, free_rank, b1_factors) where factors are the canonical nonzero
    invariant factors of the torsion part, units included, and b1_factors
    are b1.smith_normal_form(), the invariant factors of coker(b1).
    Raises ConsistencyError unless b1 * b2 = 0.

    The sparse product b1 * b2 is formed and checked, and b1 and b2 are
    reduced independently.  im(b1) is free over the principal ideal
    domain Q[t, 1/t], so coker(b2) = ker(b1) / im(b2) (+) im(b1), and the
    nonzero invariant factors of b2 are those of the homology's torsion,
    padded with units to rank(b2).
    """
    if b1.cols != b2.rows:
        raise ValueError("boundary maps do not compose")
    if not _composes_to_zero(b1._z, b2._z):
        raise ConsistencyError("boundary maps do not compose to zero")
    diag = _snf_core(b1._z, b1.cols)
    rank = sum(1 for d in diag if d)
    nonzero = [_z_to_laurent(_zcanonical(d)) for d in _snf_core(b2._z, b2.cols) if d]
    free_rank = b1.cols - rank - len(nonzero)
    return nonzero, free_rank, [_z_to_laurent(_zcanonical(d)) for d in diag]


def _composes_to_zero(x, y):
    """Whether the product of the Z[t] rows x and y is zero; only pairs of
    nonzero entries are multiplied, and the rows' units do not matter.
    The nonzero entries of a row of y are listed when a nonzero entry of x
    first reaches it, so a row that x never reaches costs nothing."""
    terms = {}
    for row in x:
        acc = {}
        for i in compress(range(len(row)), row):
            if (t := terms.get(i)) is None:
                r = y[i]
                t = terms[i] = [(j, r[j]) for j in compress(range(len(r)), r)]
            na = [-v for v in row[i]]
            for j, b in t:
                acc[j] = _zsubmul((1,), acc.get(j, ()), na, b)
        if any(acc.values()):
            return False
    return True
