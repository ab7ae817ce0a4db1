"""Free differential calculus, specialized linearly.

The Fox derivative is the standard left derivative determined by
  d(x)/dx = 1,  d(uv)/dx = du/dx + u * dv/dx,
from which d(x^-1)/dx = -x^-1 follows.  Walking a reduced word once, each
letter x^s of the derivative's generator adds s times the prefix before it
(s = 1) or through it (s = -1).  These prefixes of a reduced word are
reduced, and no two terms share one: two occurrences give equal lengths only
as x^-1 followed by x, which a reduced word never contains.  So the terms
never merge or cancel.

jacobian specializes the Fox derivatives of words by every generator at
once, through g -> rho(g) at t^0, from one walk of each word that also ends
at its product.  A product starts at its first letter's matrix, skips
letters whose matrix is the identity, is carried as None while it equals the
identity, and sums the letter matrix's rows at its nonzero entries, so a
permutation prefix takes them as they are.  Each product's nonzero integer
entries, times its coefficient, are summed straight into integer entries
over one common denominator: no Fraction is built.

specialize builds the twisted boundary b1, the row x_j - 1 over the
generators sent through g -> rho(g) s^phi(g).  That row is the constant
blocks rho(x_j) - I and rho(t) s - I, each transposed (Wada 1994;
Kitano-Morifuji 2005), so specialize reads them off the matrices' integer
rows: it walks no word and builds no inverse.
"""

from __future__ import annotations

from itertools import compress
from math import lcm

from .linalg import PolynomialMatrix, RationalMatrix, _zmatmul


def specialize(fiber, stable):
    """b1 at s = t: the row x_j - 1 over the generators x_1 .. x_n, t, each
    g sent to rho(g) s^phi(g), every block transposed.  fiber lists the
    RationalMatrix rho(x_j) and stable is rho(t); the result is the
    PolynomialMatrix [(rho(x_1) - I)^T | ... | (rho(x_n) - I)^T |
    (rho(t) s - I)^T] of the representation's dimension, under the lcm of
    the matrices' denominators and with shift 0.  Zero entries share one
    list."""
    dim, zero = stable.rows, []
    den = lcm(stable._den, *(m._den for m in fiber))
    out = [[] for _ in range(dim)]
    for k, m in enumerate((*fiber, stable)):
        f, at_s = den // m._den, k == len(fiber)
        for a, (row, col) in enumerate(zip(out, zip(*m._z))):
            for b, x in enumerate(col):
                p = [-den * (a == b), f * x] if at_s else [f * x - den * (a == b)]
                while p and not p[-1]:
                    p.pop()
                row.append(p or zero)
    return PolynomialMatrix._of(out, 0, den)


def jacobian(words, matrices):
    """(J, ends): block (i, j) of the RationalMatrix J is the
    specialization at t^0 of the Fox derivative of words[i] by the j-th
    generator of sorted(matrices), and ends[i] is the product of words[i],
    from one walk of each word."""
    dim, letter = _letters(matrices, {g for w in words for g, _ in w.letters})
    left = {g: j * dim for j, g in enumerate(sorted(matrices))}
    one = RationalMatrix.identity(dim)
    terms, ends = [], []
    for i, w in enumerate(words):
        walk = _prefixes(w.letters, letter)
        before = next(walk)
        for (g, s), after in zip(w.letters, walk):
            prod = before if s > 0 else after
            terms.append((i * dim, left[g], s, one if prod is None else prod))
            before = after
        ends.append(one if before is None else before)
    den = lcm(*(p._den for *_, p in terms))
    out = [[0] * (len(matrices) * dim) for _ in range(len(words) * dim)]
    for top, col, s, prod in terms:
        f = s * (den // prod._den)
        for acc, row in zip(out[top:top + dim], prod._z):
            for b in compress(range(dim), row):
                acc[col + b] += f * row[b]
    return RationalMatrix._of(out, den), ends


def _letters(matrices, gens):
    """(dim, letter): the common dimension of the square matrices, and
    the matrix of each letter (g, s), g in gens, or None where the matrix
    of g is the identity."""
    shapes = {(m.rows, m.cols) for m in matrices.values()}
    dim = next(iter(shapes))[0] if len(shapes) == 1 else None
    if shapes != {(dim, dim)}:
        raise ValueError("generator matrices must be square of equal dimension")
    letter = {}
    for g in gens:
        m = matrices.get(g)
        if m is None:
            raise ValueError(f"no matrix assigned to generator {g}")
        if m.is_identity():
            letter[g, 1] = letter[g, -1] = None
        else:
            letter[g, 1], letter[g, -1] = m, m.inverse()
    return dim, letter


def _prefixes(letters, letter):
    """The product of each prefix of letters, the empty one first, with
    None standing for a product equal to the identity."""
    prod = None
    yield prod
    for g, s in letters:
        m = letter[g, s]
        if m is not None:
            prod = m if prod is None else _product(prod, m)
        yield prod


def _product(prod, m):
    """prod * m, from the rows of m at the nonzero entries of prod, or None
    when it is the identity."""
    out = RationalMatrix._of(_zmatmul(prod._z, m._z), prod._den * m._den)
    return None if out.is_identity() else out
