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
yielding a matrix of Laurent polynomials.  fox_row specializes the Fox
derivatives of one word by every generator at once: the terms of all of
them are prefixes of that word, so one walk builds each prefix product
rho * t^phi once and hands it to the block of the letter it precedes or
ends.  Both start a product at its first letter's matrix, and a letter
whose matrix is the identity multiplies nothing.  The integer rows of each
product, times its coefficient, are summed straight into the Z[t] entries
of the result over one common denominator, so no Fraction or Laurent
polynomial is built on the way.
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
    dim, letter = _letters(matrices)
    terms = []
    for word, coeff in x.items():
        *_, last = _prefixes(word.letters, letter, exponents)
        terms.append((coeff, *last))
    return _sum_terms(terms, dim)


def fox_row(r, matrices, exponents):
    """[specialize(fox_derivative(r, g), matrices, exponents) for g in
    sorted(matrices)], from one walk of the word r: letter x_g^s adds s
    times the prefix product before it (s = 1) or through it (s = -1) to
    block g."""
    dim, letter = _letters(matrices)
    terms = {g: [] for g in matrices}
    letters = r.letters
    walk = _prefixes(letters, letter, exponents)
    before = next(walk)
    for (g, s), after in zip(letters, walk):
        terms[g].append((s, *(before if s > 0 else after)))
        before = after
    return [_sum_terms(terms[g], dim) for g in sorted(matrices)]


def _letters(matrices):
    """(dim, letter): the common dimension of the square matrices, and the
    matrix of each letter (g, s) whose matrix is not the identity."""
    dims = {m.rows for m in matrices.values()}
    if len(dims) != 1 or any(m.rows != m.cols for m in matrices.values()):
        raise ValueError("generator matrices must be square of equal dimension")
    letter = {(g, s): None for g in matrices for s in (1, -1)}
    for g, m in matrices.items():
        if not m.is_identity():
            letter[g, 1], letter[g, -1] = m, m.inverse()
    return dims.pop(), letter


def _prefixes(letters, letter, exponents):
    """(product, t-exponent) of each prefix of letters, the empty one
    first, with None standing for the identity product."""
    prod, shift = None, 0
    yield prod, shift
    for g, s in letters:
        try:
            m = letter[g, s]
        except KeyError:
            raise ValueError(f"no matrix assigned to generator {g}") from None
        if m is not None:
            prod = m if prod is None else prod * m
        shift += s * exponents[g]
        yield prod, shift


def _sum_terms(terms, dim):
    """The PolynomialMatrix sum of coeff * prod * t^e over the terms
    (coeff, prod, e): coeff rational, prod a RationalMatrix of dimension
    dim or None for the identity."""
    identity = RationalMatrix.identity(dim)
    terms = [(c, identity if p is None else p, e) for c, p, e in terms]
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
