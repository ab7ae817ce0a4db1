"""Free differential calculus, specialized linearly.

The Fox derivative is the standard left derivative determined by
  d(x)/dx = 1,  d(uv)/dx = du/dx + u * dv/dx,
from which d(x^-1)/dx = -x^-1 follows.  Walking a reduced word once, each
letter x^s of the derivative's generator adds s times the prefix before it
(s = 1) or through it (s = -1).  These prefixes of a reduced word are
reduced, and no two terms share one: two occurrences give equal lengths only
as x^-1 followed by x, which a reduced word never contains.  So the terms
never merge or cancel.

specialize sends a group ring element through g -> rho(g) * t^phi(g),
yielding a matrix of Laurent polynomials.  fox_matrix specializes the Fox
derivatives of a list of relators by every generator at once: the terms of
a relator's derivatives are prefixes of that relator, so one walk builds
each prefix product rho * t^phi once and hands it to the block of the
letter it precedes or ends.  Both start a product at its first letter's
matrix, a letter whose matrix is the identity multiplies nothing, and a
product equal to the identity, such as t x_i t^-1 under a map that kills
the fiber, is carried as None, like the empty prefix.  A product sums the
letter matrix's rows at the nonzero entries of the prefix, so a permutation
prefix takes the letter's rows as they are and nothing is rebuilt per
letter.  The nonzero integer entries of each product, times its
coefficient, are summed straight into the Z[t] entries of the whole result
over one shift and one common denominator, so no Fraction, Laurent
polynomial or intermediate block is built on the way.
"""

from __future__ import annotations

from itertools import compress
from math import lcm

from .linalg import PolynomialMatrix, RationalMatrix, _zmatmul


def specialize(x, matrices, exponents):
    """Linear extension of g -> matrices[g]^sign * t^exponents[g].

    x is a group ring element {FreeWord: rational coefficient}, such as a
    Fox derivative, or a list of them.  matrices maps generator index to an
    invertible RationalMatrix, exponents to an integer.  Returns a
    PolynomialMatrix of the common dimension dim; for a list, a dim-row
    matrix with the blocks of its elements side by side.
    """
    row = x if isinstance(x, list) else [x]
    gens = {g for y in row for word in y for g, _ in word.letters}
    dim, letter = _letters(matrices, gens)
    terms = []
    for j, y in enumerate(row):
        for word, coeff in y.items():
            *_, last = _prefixes(word.letters, letter, exponents)
            terms.append((0, j * dim, coeff, *last))
    return _assemble(terms, dim, dim, len(row) * dim)


def fox_matrix(relators, matrices, exponents):
    """The Fox matrix of the relators: block (i, j) is the specialization
    of the Fox derivative of relators[i] by the j-th generator g of
    sorted(matrices), from one walk of each
    relator, in which letter x_g^s adds s times the prefix product before
    it (s = 1) or through it (s = -1) to block (i, j)."""
    dim, letter = _letters(matrices, matrices)
    left = {g: j * dim for j, g in enumerate(sorted(matrices))}
    terms = []
    for i, r in enumerate(relators):
        top, letters = i * dim, r.letters
        walk = _prefixes(letters, letter, exponents)
        before = next(walk)
        for (g, s), after in zip(letters, walk):
            terms.append((top, left[g], s, *(before if s > 0 else after)))
            before = after
    return _assemble(terms, dim, len(relators) * dim, len(matrices) * dim)


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


def _prefixes(letters, letter, exponents):
    """(product, t-exponent) of each prefix of letters, the empty one
    first, with None standing for a product equal to the identity."""
    prod, shift = None, 0
    yield prod, shift
    for g, s in letters:
        try:
            m = letter[g, s]
        except KeyError:
            raise ValueError(f"no matrix assigned to generator {g}") from None
        if m is not None:
            prod = m if prod is None else _product(prod, m)
        shift += s * exponents[g]
        yield prod, shift


def _product(prod, m):
    """prod * m, from the rows of m at the nonzero entries of prod, or None
    when it is the identity."""
    out = RationalMatrix._of(_zmatmul(prod._z, m._z), prod._den * m._den)
    return None if out.is_identity() else out


def _assemble(terms, dim, rows, cols):
    """The rows x cols PolynomialMatrix that is the sum of coeff * prod * t^e
    over the terms (top, left, coeff, prod, e), each placed with its (0, 0)
    entry at (top, left): coeff rational, prod a RationalMatrix of
    dimension dim or None for the identity.  A product places only its
    nonzero entries; the identity terms are summed by (top, left, e)
    first, and each sum, a zero one too, is placed once in O(dim).  Entry
    (a, b) is t^low * out[a][b] / den, for the least exponent low of all
    the terms and the lcm den of their denominators.  Entries no term
    reaches share one empty list, which is safe as no kernel mutates a
    Z[t] list in place."""
    den = lcm(*[c.denominator * (1 if p is None else p._den) for _, _, c, p, _ in terms])
    exps = [e for *_, e in terms]
    low = min(exps, default=0)
    span = max(exps, default=0) - low + 1
    zero = []
    out = [[zero] * cols for _ in range(rows)]
    made, block, identity = [], range(dim), {}
    for top, left, coeff, prod, e in terms:
        e -= low
        if prod is None:
            key = top, left, e
            identity[key] = identity.get(key, 0) + coeff.numerator * (den // coeff.denominator)
            continue
        f = coeff.numerator * (den // (coeff.denominator * prod._den))
        for acc, row in zip(out[top:top + dim], prod._z):
            for b in compress(block, row):
                p = acc[left + b]
                if not p:
                    p = acc[left + b] = [0] * span
                    made.append(p)
                p[e] += f * row[b]
    for (top, left, e), f in identity.items():
        for acc in out[top:top + dim]:
            p = acc[left]
            if not p:
                p = acc[left] = [0] * span
                made.append(p)
            p[e] += f
            left += 1
    for p in made:
        while p and not p[-1]:
            p.pop()
    return PolynomialMatrix._of(out, low, den)
