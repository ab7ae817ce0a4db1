"""Exact real-root counting on (0, oo) via Sturm sequences.

root_counts is the one entry point for a polynomial's root data, and every
other root query reads its counts.  It canonicalizes once, as stripping the
unit t^k changes no root away from 0, and runs the one Sturm chain unless
the polynomial is a constant.  Everything is exact: each remainder of the
chain comes from a Z[t] pseudo-division (laurent.poly_divmod), undone under
one rational unit, so the counts are certificates rather than numerics.

The Sturm chain is that of the canonical q itself, with no square-free
step.  Its last entry g is gcd(q, q') up to a constant, and g divides every
entry, so the chain is g times a Sturm chain of q / g, whose roots are the
distinct roots of q.  Since q is canonical, q(0) != 0, hence g(0) != 0; g
also has a nonzero leading coefficient, so dividing by g changes no sign at
0 or at +oo.  The sign changes there therefore count the distinct roots in
(0, oo), and deg q - deg g counts the distinct complex roots.
"""

from __future__ import annotations

from .laurent import poly_divmod


def _sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_counts(q):
    """root_counts of a canonical polynomial q of positive degree, from its
    one Sturm chain."""
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    at_zero = [f.coefficient(0) for f in chain]
    at_inf = [f.leading_coefficient for f in chain]
    positive = _sign_changes(at_zero) - _sign_changes(at_inf)
    return positive, q.degree - chain[-1].degree


def root_counts(p):
    """(distinct roots in (0, oo), distinct complex roots) of a Laurent
    polynomial p, away from 0.  Raises ValueError on the zero polynomial."""
    if p.is_zero:
        raise ValueError("the zero polynomial has every point as a root")
    q = p.canonicalize()
    return _sturm_counts(q) if q.degree else (0, 0)


def sturm_positive_root_count(p):
    """Number of distinct real roots of p in the open interval (0, oo),
    multiplicities ignored.  Raises on the zero polynomial."""
    return root_counts(p)[0]


__all__ = ["root_counts", "sturm_positive_root_count"]
