"""Free differential calculus and its linear specialization.

fox_derivative implements the standard left derivative determined by
  d(x)/dx = 1,  d(uv)/dx = du/dx + u * dv/dx,
from which d(x^-1)/dx = -x^-1 follows.  Walking a reduced word once, each
letter x^s of the derivative's generator adds s times the prefix before it
(s = 1) or through it (s = -1).  These prefixes of a reduced word are
reduced, and no two terms share one: two occurrences give equal lengths only
as x^-1 followed by x, which a reduced word never contains.  So the terms
never merge or cancel.

specialize sends a group ring element through g -> rho(g) * t^phi(g),
yielding a matrix of Laurent polynomials.  The words of a Fox derivative
are prefixes of one word, so specialize builds each prefix product once by
extending the longest prefix already built; a chain starts at its first
letter's matrix, and a letter whose matrix is the identity multiplies
nothing.  The integer rows of each product, times its coefficient, are
summed straight into the Z[t] entries of the result over one common
denominator, so no Fraction or Laurent polynomial is built on the way.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import PolynomialMatrix, RationalMatrix
from .words import FreeWord


def fox_derivative(w, gen):
    """Fox derivative of the word w with respect to generator gen, as a
    group ring element {reduced FreeWord: nonzero Fraction coefficient}."""
    if gen < 1:
        raise ValueError(f"unknown generator {gen}")
    letters = w.letters
    return {FreeWord._wrap(letters[:j + (s < 0)]): Fraction(s)
            for j, (g, s) in enumerate(letters) if g == gen}


def specialize(x, matrices, exponents):
    """Linear extension of g -> matrices[g]^sign * t^exponents[g].

    x is a group ring element {FreeWord: rational coefficient}, such as
    fox_derivative returns.  matrices maps generator index to an
    invertible RationalMatrix, exponents to an integer.  Returns a
    PolynomialMatrix of the common dimension.
    """
    dims = {m.rows for m in matrices.values()}
    if len(dims) != 1 or any(m.rows != m.cols for m in matrices.values()):
        raise ValueError("generator matrices must be square of equal dimension")
    dim = dims.pop()
    # each letter's matrix; identity matrices, which multiply nothing, are left out
    letter = {}
    for g, m in matrices.items():
        if not m.is_identity():
            letter[g, 1], letter[g, -1] = m, m.inverse()
    # chain[k] is (product, t-exponent) of the first k letters of previous,
    # None standing for the identity; in sorted order a word shares its
    # longest built prefix with previous
    chain = [(None, 0)]
    previous = ()
    terms = []
    identity = RationalMatrix.identity(dim)
    for word in sorted(x, key=lambda w: w.letters):
        letters = word.letters
        k = 0
        for a, b in zip(letters, previous):
            if a != b:
                break
            k += 1
        del chain[k + 1:]
        for g, s in letters[k:]:
            if g not in matrices:
                raise ValueError(f"no matrix assigned to generator {g}")
            prod, shift = chain[-1]
            m = letter.get((g, s))
            if m is not None:
                prod = m if prod is None else prod * m
            chain.append((prod, shift + s * exponents[g]))
        previous = letters
        prod, shift = chain[-1]
        terms.append((x[word], identity if prod is None else prod, shift))
    # entry (i, j) is t^low * out[i][j] / den, summed over the terms
    den = lcm(*(c.denominator * p._den for c, p, _ in terms))
    low = min((e for _, _, e in terms), default=0)
    width = max((e for _, _, e in terms), default=0) - low + 1
    out = [[[] for _ in range(dim)] for _ in range(dim)]
    for coeff, prod, e in terms:
        f = coeff.numerator * (den // (coeff.denominator * prod._den))
        for acc, row in zip(out, prod._z):
            for j, v in enumerate(row):
                if v:
                    if not acc[j]:
                        acc[j] = [0] * width
                    acc[j][e - low] += f * v
    for p in (p for acc in out for p in acc):
        while p and not p[-1]:
            p.pop()
    return PolynomialMatrix._of(out, low, den)
