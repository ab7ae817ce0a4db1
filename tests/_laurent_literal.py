"""Laurent polynomial literals for the tests, read by sympy.

The library only ever writes polynomials (format_polynomial); tests spell
expected values in that text form, "t^2 - 3*t + 1" or "2*t^-1 - 2", and
sympy, which shares no code with the library, reads them back.
"""

from fractions import Fraction

import sympy

from orderlex.laurent import LaurentPolynomial

T = sympy.Symbol("t")


def L(text):
    """The Laurent polynomial in t written as text, '^' for powers."""
    expr = sympy.expand(sympy.sympify(text.replace("^", "**"), locals={"t": T}))
    coeffs = {}
    for term in sympy.Add.make_args(expr):
        c, e = term.as_coeff_exponent(T)
        coeffs[int(e)] = Fraction(int(c.p), int(c.q))
    return LaurentPolynomial(coeffs)
