"""Exact Laurent polynomial arithmetic over the rationals.

The single variable is always called t.  A polynomial is a finitely
supported map from integer exponents (possibly negative) to nonzero
rational coefficients.  It is held the way linalg holds matrix entries: a
Z[t] list _z, constant first, whose first and last entries are nonzero, an
exponent _shift and a denominator _den > 0 coprime to the entries, standing
for t^_shift * _z / _den; zero is ([], 0, 1).  Equal polynomials therefore
have equal state.  Arithmetic, canonical forms, division and the text form
work on these integers, and a Fraction is built only at the public boundary:
the constructor, coefficient, leading_coefficient and items.  Values are
immutable and hashable, and no list is mutated once a value holds it, so a
value may share its list with a linalg matrix.

Numbers handed to the library as values are read here: exponents and points
by _integer (operator.index, a bool refused), counts by _positive, refused
below 1, and coefficients and matrix entries by _rational, an int or a
Fraction as it is.  A float, a string or a bool raises TypeError.

Canonical form: minimum exponent 0, integer coefficients with content 1,
positive leading coefficient.  Two Laurent polynomials agree up to a unit
c * t^k exactly when their canonical forms are equal, so unit equality is
plain equality downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index

_ZERO = Fraction(0)


class LaurentPolynomial:
    __slots__ = ("_z", "_shift", "_den")

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for e, v in items:
                v = _rational(v)
                if v:
                    e = _integer(e)
                    w = data.get(e, _ZERO) + v
                    if w:
                        data[e] = w
                    else:
                        del data[e]
        self._z, self._shift, self._den = [], 0, 1
        if data:
            # the lcm of reduced denominators is coprime to the scaled numerators
            self._shift = shift = min(data)
            self._den = den = lcm(*(v.denominator for v in data.values()))
            self._z = z = [0] * (max(data) - shift + 1)
            for e, v in data.items():
                z[e - shift] = v.numerator * (den // v.denominator)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return _z_to_laurent([1])

    @classmethod
    def term(cls, coeff, exp=0):
        q = _rational(coeff)
        return _z_to_laurent([q.numerator], _integer(exp), q.denominator)

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self):
        return not self._z

    def __bool__(self):
        return bool(self._z)

    def coefficient(self, exp):
        i = _integer(exp) - self._shift
        return Fraction(self._z[i], self._den) if 0 <= i < len(self._z) else _ZERO

    @property
    def degree(self):
        """Largest exponent with nonzero coefficient."""
        if not self._z:
            raise ValueError("the zero polynomial has no degree")
        return self._shift + len(self._z) - 1

    @property
    def order(self):
        """Smallest exponent with nonzero coefficient."""
        if not self._z:
            raise ValueError("the zero polynomial has no order")
        return self._shift

    @property
    def leading_coefficient(self):
        return Fraction(self._z[self.degree - self._shift], self._den)

    def items(self):
        """The (exponent, nonzero coefficient) pairs, exponents ascending."""
        den = self._den
        return [(e, Fraction(v, den)) for e, v in enumerate(self._z, self._shift) if v]

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):  # a bool too, as in Python
            other = _z_to_laurent([other.numerator], 0, other.denominator)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return (self._z == other._z and self._shift == other._shift
                and self._den == other._den)

    def __hash__(self):
        # a constant compares equal to its coefficient, so it hashes like it
        z = self._z
        if not z:
            return hash(0)
        if len(z) == 1 and not self._shift:
            return hash(Fraction(z[0], self._den))
        return hash(frozenset(self.items()))

    def __add__(self, other):
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _z_to_laurent([-x for x in self._z], self._shift, self._den)

    def __sub__(self, other):
        return _plus(self, other, -1)

    def __rsub__(self, other):
        return _plus(-self, other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, den = other.numerator, self._den * other.denominator
            return _z_to_laurent([n * x for x in self._z], self._shift, den)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self._z, other._z
        if not (a and b):
            return _z_to_laurent([])
        return _z_to_laurent(_zsubmul(a, b, (), ()), self._shift + other._shift,
                             self._den * other._den)

    __rmul__ = __mul__

    def derivative(self):
        z, shift = self._z, self._shift
        return _z_to_laurent([e * v for e, v in enumerate(z, shift)], shift - 1, self._den)

    def substitute_power(self, d):
        """Return p(t^d) for an integer d >= 1."""
        d = _positive(d, "substitution power")
        z = self._z
        if d == 1 or not z:
            return self
        out = [0] * ((len(z) - 1) * d + 1)
        out[::d] = z
        return _z_to_laurent(out, self._shift * d, self._den)

    # -- canonical form ----------------------------------------------

    def canonicalize(self):
        """Unique unit multiple with order 0, integer content-1 coefficients,
        and positive leading coefficient.  Zero maps to zero, and a
        canonical polynomial to itself."""
        z = self._z
        c = _zcanonical(z)
        if c is z and not self._shift and self._den == 1:
            return self
        return _z_to_laurent(c)

    @property
    def is_one(self):
        return self._z == [1] and not self._shift and self._den == 1

    def __repr__(self):
        return f"LaurentPolynomial({format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)


def _integer(x):
    """x as an int, by operator.index: a float, a string or a bool raises
    TypeError, never truncated or parsed."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, not {x!r}")
    return index(x)


def _positive(x, name):
    """A count x by _integer, refused below 1 with a ValueError naming it."""
    x = _integer(x)
    if x < 1:
        raise ValueError(f"{name} must be a positive integer, got {x}")
    return x


def _rational(x):
    """x itself when an int, not a bool, or a Fraction: a float is not rounded."""
    if isinstance(x, Fraction) or isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"expected an int or a Fraction, not {x!r}")


def _plus(a, b, sign):
    """a + sign * b for a Laurent polynomial a and sign = 1 or -1, over the
    least shift and the lcm of the denominators."""
    if isinstance(b, (int, Fraction)):  # a bool too, as in Python
        b = _z_to_laurent([b.numerator], 0, b.denominator)
    elif not isinstance(b, LaurentPolynomial):
        return NotImplemented
    if not b._z:
        return a
    if not a._z:
        return b if sign == 1 else -b
    za, zb, da, db = a._z, b._z, a._den, b._den
    den = da if da == db else lcm(da, db)
    s = min(a._shift, b._shift)
    ia, ib = a._shift - s, b._shift - s
    out = [0] * max(ia + len(za), ib + len(zb))
    out[ia:ia + len(za)] = za if den == da else [den // da * x for x in za]
    fb = sign * (den // db)
    for j, x in enumerate(zb, ib):
        out[j] += fb * x
    return _z_to_laurent(out, s, den)


# -- division and gcd ------------------------------------------------


def poly_divmod(a, b):
    """Euclidean division in Q[t].  Both arguments must have order >= 0
    (or be zero); returns (q, r) with a = q*b + r and deg r < deg b.

    a and b are moved into Z[t] under one common unit and pseudo-divided;
    the quotient and remainder are unique, so undoing the unit and the
    pseudo-division's scale gives them exactly."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    (za, zb), shift, den = _row_to_z([a, b])
    if shift < 0:
        raise ValueError("negative exponents present")
    c, q, r = _zpseudo_divmod(za, zb)
    return _z_to_laurent(q, 0, c), _z_to_laurent(r, shift, c * den)


def poly_gcd(p, q):
    """Canonical gcd in Q[t, 1/t] (so gcd of units is 1), by _zgcd."""
    return _z_to_laurent(_zgcd(p._z, q._z))


# -- dense Z[t] kernels -------------------------------------------------
#
# A Z[t] polynomial is a list of int coefficients indexed by exponent, with
# no trailing zeros; the zero polynomial is [].  _zpseudo_divmod is the one
# division loop and _zgcd the one gcd: poly_divmod and poly_gcd above and the
# Smith normal form of linalg run on them.  LaurentPolynomial and linalg's
# polynomial matrices hold their values in this form, so no Fraction
# arithmetic happens between the kernels.


def _zsubmul(c, a, q, b):
    """c*a - q*b.  With c*a zero or a constant c, and q or b zero or
    constant, it takes one pass: q*b is then zero or a constant y times a
    list v."""
    if not (c and a):
        if not (q and b):
            return []
        if len(q) == 1 or len(b) == 1:
            y, v = (q[0], b) if len(q) == 1 else (b[0], q)
            return [-y * w for w in v]
    elif len(c) == 1 and (len(q) < 2 or len(b) < 2):
        x = c[0]
        out = [x * w for w in a]
        if q and b:
            y, v = (q[0], b) if len(q) == 1 else (b[0], q)
            if len(out) < len(v):
                out.extend([0] * (len(v) - len(out)))
            for j, w in enumerate(v):
                out[j] -= y * w
            while out and not out[-1]:
                out.pop()
        return out
    out = [0] * max(len(c) + len(a), len(q) + len(b), 1)
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(a, i):
                out[j] += x * y
    for i, x in enumerate(q):
        if x:
            for j, y in enumerate(b, i):
                out[j] -= x * y
    while out and not out[-1]:
        out.pop()
    return out


def _zpseudo_divmod(a, b):
    """(c, q, r) with c*a = q*b + r, c a positive integer and deg r < deg b.

    c collects only the factors of the leading coefficient of b that the
    division needs, so it is 1 whenever that coefficient is 1 or -1."""
    db = len(b) - 1
    lead = b[-1]
    c = 1
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        top = r[k + db]
        if not top:
            continue
        f, rem = divmod(top, lead)
        if rem:
            s = abs(lead) // gcd(top, lead)
            c *= s
            r = [s * x for x in r]
            q = [s * x for x in q]
            f = top * s // lead
        q[k] = f
        for i, y in enumerate(b, k):
            r[i] -= f * y
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return c, q, r


def _zgcd(a, b):
    """The canonical gcd in Q[t, 1/t] of the Z[t] lists a and b: remainders
    of _zpseudo_divmod, each made canonical, so content and t drop out."""
    a, b = _zcanonical(a), _zcanonical(b)
    while b:
        a, b = b, _zcanonical(_zpseudo_divmod(a, b)[2])
    return a


def _row_to_z(row):
    """(zrow, shift, den) with zrow = den * t^-shift * row in Z[t].

    shift is the least order in the row and den the lcm of its
    denominators, so both factors are units; a zero row gives shift 0 and
    den 1.  An entry already under that unit keeps its list."""
    live = [x for x in row if x._z]
    if not live:
        return [[] for _ in row], 0, 1
    shift = min(x._shift for x in live)
    den = lcm(*(x._den for x in live))
    out = []
    for x in row:
        z = x._z
        if z:
            if x._den != den:
                z = [den // x._den * v for v in z]
            if x._shift != shift:
                z = [0] * (x._shift - shift) + z
        out.append(z)
    return out, shift, den


def _zcanonical(p):
    """The canonical form of the Z[t] polynomial p (see canonicalize): the
    power of t and the content divided out, the leading coefficient made
    positive.  A p already canonical is returned as it is."""
    if not p:
        return p
    k = 0 if p[0] else next(e for e, c in enumerate(p) if c)
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return p if g == 1 and not k else [x // g for x in p[k:]]


def _z_to_laurent(p, shift=0, den=1):
    """The Laurent polynomial t^shift * p / den, for a Z[t] list p and an
    integer den != 0: the one constructor that normalizes.  It strips the
    zeros at both ends of p, makes den positive and divides out
    gcd(den, p); p itself is kept when none of that changes it."""
    if p and not (p[0] and p[-1]):
        lo = next((i for i, v in enumerate(p) if v), len(p))
        hi = len(p)
        while hi > lo and not p[hi - 1]:
            hi -= 1
        p = p[lo:hi]
        shift += lo
    if not p:
        shift, den = 0, 1
    elif den != 1:
        if den < 0:
            p, den = [-v for v in p], -den
        g = gcd(den, *p)
        if g > 1:
            p, den = [v // g for v in p], den // g
    r = object.__new__(LaurentPolynomial)
    r._z, r._shift, r._den = p, shift, den
    return r


# -- text form --------------------------------------------------------

def format_polynomial(p):
    """Render with descending exponents and explicit '*', e.g. "t^2 - 3*t + 1"."""
    z, den = p._z, p._den
    if not z:
        return "0"
    parts = []
    for i in range(len(z) - 1, -1, -1):
        v = z[i]
        if not v:
            continue
        e = i + p._shift
        sign = "-" if v < 0 else "+"
        mag = abs(v) if den == 1 else Fraction(abs(v), den)
        if e == 0:
            body = str(mag)
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if mag == 1 else f"{mag}*{tpart}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
