"""The mapping torus's relators and their Fox derivatives as group ring
elements, the reference oracle for fox.jacobian and the twisted Fox matrix.

The library builds the Fox Jacobian of the monodromy's images from one walk
of each image, and never forms a relator or a derivative on its own; the
tests form each one here and specialize it, block by block.
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


def presentation(m):
    """Relators t x_i t^-1 theta(x_i)^-1 of the mapping torus m over the
    generators x_1..x_n, t."""
    t = m.fiber_rank + 1
    relators = []
    for i in range(1, m.fiber_rank + 1):
        letters = [(t, 1), (i, 1), (t, -1)]
        letters.extend(m.monodromy.images[i - 1].inverse().letters)
        relators.append(FreeWord._reduced(letters))
    return relators
