"""Laurent polynomial literals for the tests, read by sympy, the
matrices t^d I - A built from public constructors, and a reference
determinant of any square polynomial matrix.

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


def reference_det(m):
    """The determinant of any square PolynomialMatrix m, by cofactor
    expansion along its rows over LaurentPolynomial: the minor on each set
    of remaining columns is expanded once, and a zero entry opens no minor.
    It shares no code with PolynomialMatrix.det, which takes only pencils."""
    n = m.rows
    rows = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    minors = {(): LaurentPolynomial.one()}

    def minor(cols):
        # the minor of the last len(cols) rows on the columns cols
        if cols not in minors:
            row, acc = rows[n - len(cols)], LaurentPolynomial.zero()
            for k, j in enumerate(cols):
                if row[j]:
                    term = row[j] * minor(cols[:k] + cols[k + 1:])
                    acc = acc - term if k % 2 else acc + term
            minors[cols] = acc
        return minors[cols]

    return minor(tuple(range(n)))
