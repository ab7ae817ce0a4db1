"""Free differential calculus and its linear specialization.

fox_derivative implements the standard left derivative determined by
  d(x)/dx = 1,  d(uv)/dx = du/dx + u * dv/dx,
from which d(x^-1)/dx = -x^-1 follows.

specialize sends a group ring element through g -> rho(g) * t^phi(g),
yielding a matrix of Laurent polynomials.  The words of a Fox derivative
are prefixes of one word, so specialize builds each prefix product once by
extending the longest prefix already built, sums coeff * product into one
rational matrix per power of t, and makes each Laurent entry once at the end.
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

    x is a group ring element {FreeWord: rational coefficient}, such as
    fox_derivative returns.  matrices maps generator index to an
    invertible RationalMatrix, exponents to an integer.  Returns a
    PolynomialMatrix of the common dimension.
    """
    dims = {m.rows for m in matrices.values()}
    if len(dims) != 1 or any(m.rows != m.cols for m in matrices.values()):
        raise ValueError("generator matrices must be square of equal dimension")
    dim = dims.pop()
    # chain[k] is (product, t-exponent) of the first k letters of previous;
    # in sorted order a word shares its longest built prefix with previous
    chain = [(RationalMatrix.identity(dim), 0)]
    previous = ()
    sums = {}
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
            m = matrices[g] if s > 0 else matrices[g].inverse()
            chain.append((prod * m, shift + s * exponents[g]))
        previous = letters
        prod, shift = chain[-1]
        if shift not in sums:
            sums[shift] = [[_F0] * dim for _ in range(dim)]
        coeff = x[word]
        for acc, row in zip(sums[shift], prod._e):
            for j, v in enumerate(row):
                if v:
                    acc[j] += coeff * v
    entries = [[{} for _ in range(dim)] for _ in range(dim)]
    for shift, acc in sums.items():
        for row, values in zip(entries, acc):
            for j, v in enumerate(values):
                if v:
                    row[j][shift] = v
    zero = LaurentPolynomial.zero()
    return PolynomialMatrix(
        [[LaurentPolynomial(e) if e else zero for e in row] for row in entries]
    )
