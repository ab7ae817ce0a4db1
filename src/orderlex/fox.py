"""Free differential calculus and its linear specialization.

fox_derivative implements the standard left derivative determined by
  d(x)/dx = 1,  d(uv)/dx = du/dx + u * dv/dx,
from which d(x^-1)/dx = -x^-1 follows.

specialize sends a group ring element through g -> rho(g) * t^phi(g),
yielding a matrix of Laurent polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPolynomial
from .linalg import PolynomialMatrix, RationalMatrix
from .words import FreeWord

_F0 = Fraction(0)


def fox_derivative(w, gen):
    """Fox derivative of the word w with respect to generator gen, as a
    group ring element {reduced FreeWord: nonzero Fraction coefficient}."""
    if gen < 1:
        raise ValueError(f"unknown generator {gen}")
    terms = {}

    def add(word, coeff):
        acc = terms.get(word, _F0) + coeff
        if acc:
            terms[word] = acc
        else:
            del terms[word]

    prefix = []
    for g, s in w.letters:
        if g == gen:
            if s > 0:
                add(FreeWord(prefix), Fraction(1))
            else:
                add(FreeWord(prefix + [(g, -1)]), Fraction(-1))
        prefix.append((g, s))
    return terms


def specialize(x, matrices, exponents):
    """Linear extension of g -> matrices[g]^sign * t^exponents[g].

    x may be a FreeWord or a group ring element {FreeWord: Fraction} as
    returned by fox_derivative.  matrices maps generator index to an
    invertible RationalMatrix, exponents to an integer.  Returns a
    PolynomialMatrix of the common dimension.
    """
    if isinstance(x, FreeWord):
        x = {x: Fraction(1)}
    dims = {m.rows for m in matrices.values()}
    if len(dims) != 1 or any(m.rows != m.cols for m in matrices.values()):
        raise ValueError("generator matrices must be square of equal dimension")
    dim = dims.pop()
    inverses = {}

    def mat(g, s):
        if s > 0:
            return matrices[g]
        if g not in inverses:
            inverses[g] = matrices[g].inverse()
        return inverses[g]

    acc = PolynomialMatrix.zeros(dim, dim)
    for word, coeff in x.items():
        prod = RationalMatrix.identity(dim)
        shift = 0
        for g, s in word.letters:
            if g not in matrices:
                raise ValueError(f"no matrix assigned to generator {g}")
            prod = prod * mat(g, s)
            shift += s * exponents[g]
        term = LaurentPolynomial.term(coeff, shift)
        acc = acc + PolynomialMatrix.from_rational(prod, scale=term)
    return acc
