"""Exact Laurent polynomial arithmetic over the rationals.

The single variable is always called t.  A polynomial is a finitely
supported map from integer exponents (possibly negative) to nonzero
rational coefficients.  Values are immutable and hashable; every
operation returns a fresh object.

Canonical form: minimum exponent 0, integer coefficients with content 1,
positive leading coefficient.  Two Laurent polynomials agree up to a unit
c * t^k exactly when their canonical forms are equal, so unit equality is
plain equality downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE_COEFFS = {0: Fraction(1)}  # compared against, never mutated


class LaurentPolynomial:
    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for e, v in items:
                v = Fraction(v)
                if v:
                    e = int(e)
                    w = data.get(e, _ZERO) + v
                    if w:
                        data[e] = w
                    else:
                        del data[e]
        self._c = data

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def term(cls, coeff, exp=0):
        return cls({int(exp): Fraction(coeff)})

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def coefficient(self, exp):
        return self._c.get(int(exp), _ZERO)

    @property
    def degree(self):
        """Largest exponent with nonzero coefficient."""
        if not self._c:
            raise ValueError("the zero polynomial has no degree")
        return max(self._c)

    @property
    def order(self):
        """Smallest exponent with nonzero coefficient."""
        if not self._c:
            raise ValueError("the zero polynomial has no order")
        return min(self._c)

    @property
    def leading_coefficient(self):
        return self._c[self.degree]

    def items(self):
        return self._c.items()

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self._c == LaurentPolynomial.term(other)._c
        return NotImplemented

    def __hash__(self):
        # a constant compares equal to its coefficient, so it hashes like it
        if not self._c:
            return hash(0)
        if len(self._c) == 1 and 0 in self._c:
            return hash(self._c[0])
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.term(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            w = out.get(e, _ZERO) + c
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        r = LaurentPolynomial()
        r._c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPolynomial()
        r._c = {e: -c for e, c in self._c.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.term(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return LaurentPolynomial()
            r = LaurentPolynomial()
            r._c = {e: c * q for e, c in self._c.items()}
            return r
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                w = out.get(e, _ZERO) + c1 * c2
                if w:
                    out[e] = w
                else:
                    del out[e]
        r = LaurentPolynomial()
        r._c = out
        return r

    __rmul__ = __mul__

    def derivative(self):
        return LaurentPolynomial({e - 1: c * e for e, c in self._c.items() if e})

    def substitute_power(self, d):
        """Return p(t^d) for an integer d >= 1."""
        d = int(d)
        if d < 1:
            raise ValueError("substitution power must be >= 1")
        r = LaurentPolynomial()
        r._c = {e * d: c for e, c in self._c.items()}
        return r

    # -- canonical form ----------------------------------------------

    def canonicalize(self):
        """Unique unit multiple with order 0, integer content-1 coefficients,
        and positive leading coefficient.  Zero maps to zero."""
        if not self._c:
            return self
        return _z_to_laurent(_to_zcanonical(self))

    @property
    def is_one(self):
        return self._c == _ONE_COEFFS

    def __repr__(self):
        return f"LaurentPolynomial({format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)


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
    """Canonical gcd in Q[t, 1/t] (canonicalized, so gcd of units is 1)."""
    a = p.canonicalize()
    b = q.canonicalize()
    # canonical forms have order 0, so they divide as they are
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r.canonicalize()
    return a


# -- dense Z[t] kernels -------------------------------------------------
#
# A Z[t] polynomial is a list of int coefficients indexed by exponent, with
# no trailing zeros; the zero polynomial is [].  _zpseudo_divmod is the one
# division loop: poly_divmod above and the determinant and Smith normal form
# of linalg all run on it.  linalg keeps its polynomial matrices in this
# form, so Fraction arithmetic happens only when a Laurent polynomial is
# converted in and a result is converted back.


def _zsubmul(c, a, q, b):
    """c*a - q*b.  A constant c, with q or b zero or constant, takes one
    pass: q*b is then zero or a constant y times a list v."""
    if not (c and a) and not (q and b):
        return []
    if len(c) == 1 and (len(q) < 2 or len(b) < 2):
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


def _zprimitive(row):
    """A row of Z[t] polynomials divided by the gcd of all its coefficients."""
    g = 0
    for p in row:
        g = gcd(g, *p)
        if g == 1:
            return row
    if g < 2:
        return row
    return [[x // g for x in p] for p in row]


def _row_to_z(row):
    """(zrow, shift, den) with zrow = den * t^-shift * row in Z[t].

    shift is the least order in the row and den the lcm of its coefficient
    denominators, so both factors are units; a zero row gives shift 0 and
    den 1."""
    live = [x._c for x in row if x._c]
    if not live:
        return [[] for _ in row], 0, 1
    shift = min(min(c) for c in live)
    den = lcm(*(v.denominator for c in live for v in c.values()))
    return [_scaled(x._c, shift, den) for x in row], shift, den


def _scaled(c, shift, den):
    """den * t^-shift * p in Z[t], for the coefficient map c of p and a unit
    that clears its denominators and negative exponents."""
    p = [0] * (max(c) - shift + 1) if c else []
    for e, v in c.items():
        p[e - shift] = v.numerator * (den // v.denominator)
    return p


def _zcanonical(p):
    """The canonical form of the Z[t] polynomial p (see canonicalize): the
    power of t and the content divided out, the leading coefficient made
    positive.  A p already canonical is returned as it is."""
    if not p:
        return p
    k = 0 if p[0] else next(e for e, c in enumerate(p) if c)
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return p if g == 1 and not k else [x // g for x in p[k:]]


def _to_zcanonical(p):
    """The canonical form of the Laurent polynomial p as a Z[t] list."""
    if not p._c:
        return []
    den = lcm(*(v.denominator for v in p._c.values()))
    return _zcanonical(_scaled(p._c, min(p._c), den))


def _z_to_laurent(p, shift=0, den=1):
    """The Laurent polynomial t^shift * p / den."""
    r = LaurentPolynomial()
    if den == 1:
        r._c = {e: Fraction(v) for e, v in enumerate(p, shift) if v}
    else:
        r._c = {e: Fraction(v, den) for e, v in enumerate(p, shift) if v}
    return r


# -- text form --------------------------------------------------------

def format_polynomial(p):
    """Render with descending exponents and explicit '*', e.g. "t^2 - 3*t + 1"."""
    if p.is_zero:
        return "0"
    parts = []
    for e in sorted(p._c, reverse=True):
        c = p._c[e]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
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
