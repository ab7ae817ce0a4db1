"""A catalog of certified free-group automorphisms used by the verification
batteries and the bundled fixtures.

Every entry carries explicit inverse images, so construction itself proves
each map is an automorphism.  The first battery entry realizes a monodromy
whose homology action is [[2,1],[1,1]], the matrix with characteristic
polynomial t^2 - 3t + 1.
"""

from __future__ import annotations

from .freegroup import FreeEndomorphism
from .words import parse_word


def automorphism(rank, images, inverse_images):
    """Build a certified automorphism from word strings."""
    fwd = tuple(parse_word(s, rank) for s in images)
    back = tuple(parse_word(s, rank) for s in inverse_images)
    return FreeEndomorphism(rank, fwd, back)


def identity_automorphism(rank):
    return FreeEndomorphism.identity(rank)


def figure_eight_monodromy():
    """Rank-2 automorphism with homology action [[2,1],[1,1]]."""
    return automorphism(2, ("aba", "ab"), ("Ba", "Abb"))


_BATTERY_SPECS = [
    ("fig8", 2, ("aba", "ab"), ("Ba", "Abb")),
    ("fig8-alt", 2, ("ab", "bab"), ("aaB", "bA")),
    ("right-mult", 2, ("ab", "b"), ("aB", "b")),
    ("left-mult", 2, ("ba", "b"), ("Ba", "b")),
    ("swap", 2, ("b", "a"), ("b", "a")),
    ("flip-a", 2, ("A", "b"), ("A", "b")),
    ("shear", 2, ("ab", "a"), ("b", "Ba")),
    ("shear-flip", 2, ("aB", "a"), ("b", "Ab")),
    ("cycle3", 3, ("b", "c", "a"), ("c", "a", "b")),
    ("tribonacci", 3, ("b", "c", "ab"), ("cA", "a", "b")),
    ("tribonacci-mirror", 3, ("b", "c", "ba"), ("Ac", "a", "b")),
]


def standard_battery():
    """Labelled certified automorphisms of F_2 and F_3 for property sweeps."""
    battery = [
        (label, automorphism(rank, images, inverses))
        for label, rank, images, inverses in _BATTERY_SPECS
    ]
    # a composite of certified entries is certified by construction
    entries = dict(battery)
    battery.append(("fig8-swapped", entries["fig8"].compose(entries["swap"])))
    return battery
