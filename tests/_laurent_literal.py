"""Laurent polynomial literals for the tests, read by sympy, and the
matrices t^d I - A built from public constructors.

The library only ever writes polynomials (format_polynomial); tests spell
expected values in that text form, "t^2 - 3*t + 1" or "2*t^-1 - 2", and
sympy, which shares no code with the library, reads them back.
"""

from fractions import Fraction

import sympy

from orderlex.laurent import LaurentPolynomial
from orderlex.linalg import PolynomialMatrix

T = sympy.Symbol("t")


def L(text):
    """The Laurent polynomial in t written as text, '^' for powers."""
    expr = sympy.expand(sympy.sympify(text.replace("^", "**"), locals={"t": T}))
    coeffs = {}
    for term in sympy.Add.make_args(expr):
        c, e = term.as_coeff_exponent(T)
        coeffs[int(e)] = Fraction(int(c.p), int(c.q))
    return LaurentPolynomial(coeffs)


def power_characteristic_matrix(a, d):
    """t^d I - a for a square RationalMatrix a, entry by entry through the
    public constructors, not through the library's tI - A."""
    n = a.rows
    return PolynomialMatrix([
        [LaurentPolynomial({d: Fraction(int(i == j)), 0: -a.entry(i, j)}) for j in range(n)]
        for i in range(n)
    ])
