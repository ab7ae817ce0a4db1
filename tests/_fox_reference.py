"""The Fox derivative as a group ring element, the reference oracle for
fox.fox_matrix and fox.specialize.

The library builds the Fox matrix from one walk of each relator and never
forms a derivative on its own; the tests form each one here and specialize
it, block by block.
"""

from fractions import Fraction

from orderlex.words import FreeWord


def fox_derivative(w, gen):
    """Fox derivative of the word w with respect to generator gen, as a
    group ring element {reduced FreeWord: nonzero Fraction coefficient}.

    Letter x^s of gen adds s times the prefix before it (s = 1) or through
    it (s = -1); these prefixes of a reduced word are reduced and distinct,
    so the terms never merge or cancel."""
    if gen < 1:
        raise ValueError(f"unknown generator {gen}")
    letters = w.letters
    return {FreeWord._wrap(letters[:j + (s < 0)]): Fraction(s)
            for j, (g, s) in enumerate(letters) if g == gen}
