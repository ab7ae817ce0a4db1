"""Reduced words in a finitely generated free group.

Letters are pairs (generator index >= 1, sign +1/-1).  Words reduce on
construction, so every FreeWord in circulation is freely reduced.

Text form: lowercase letters are generators, uppercase their inverses.
The letter t is reserved for the distinguished stable generator of a
mapping torus, so fiber generators run a, b, c, ..., s, u, v, ...
"""

from __future__ import annotations

from .errors import WordParseError

# lowercase alphabet with t removed; fiber generator i prints as FIBER_ALPHABET[i-1]
FIBER_ALPHABET = "abcdefghijklmnopqrsuvwxyz"
# the only letters parse_word reads: ASCII, so no case mapping of another
# script (the Kelvin sign lowercases to 'k') can stand in for one
_LETTERS = {c: (g, s) for g, ch in enumerate(FIBER_ALPHABET, 1)
            for c, s in ((ch, 1), (ch.upper(), -1))}
# the one whitespace set of every manifest string (words, cycles, matrix
# entries): ASCII, the set that \s matches under re.ASCII, so no other blank
# or control character (U+3000, U+00A0, U+001C) passes unnoticed
_SPACE = " \t\n\r\f\v"


def _free_reduce(letters):
    out = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


class FreeWord:
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        """Letters are pairs of ints, bools excluded: a generator >= 1 and
        a sign +1 or -1.  A float or a string is rejected, never truncated
        or parsed."""
        ls = []
        for item in letters:
            g, s = item
            if not (_is_int(g) and _is_int(s) and g >= 1 and s in (1, -1)):
                raise ValueError(f"bad letter {item!r}")
            ls.append((int(g), int(s)))
        self.letters = _free_reduce(ls)

    @classmethod
    def _wrap(cls, letters):
        """The word on a tuple of letters already known to be valid (int
        pairs with generator >= 1 and sign +1/-1) and freely reduced."""
        out = object.__new__(cls)
        out.letters = letters
        return out

    @classmethod
    def _reduced(cls, letters):
        """The word on valid letters, only freely reduced."""
        return cls._wrap(_free_reduce(letters))

    @classmethod
    def generator(cls, g):
        return cls([(g, 1)])

    @classmethod
    def empty(cls):
        return cls()

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other):
        """Reduced factors can cancel only outward from their junction."""
        if not isinstance(other, FreeWord):
            return NotImplemented
        left, right = self.letters, other.letters
        if left and right and left[-1][0] == right[0][0] and left[-1][1] != right[0][1]:
            k = 0
            for (g, s), (h, r) in zip(reversed(left), right):
                if g != h or s == r:
                    break
                k += 1
            right = right[k:]
            left = left[: len(left) - k]
        # built as _wrap builds, without its call: this and inverse are the
        # word layer's most frequent constructors
        out = object.__new__(FreeWord)
        out.letters = left + right
        return out

    def inverse(self):
        """The reversed word with signs flipped, reduced as the word is; built
        from a list, as a tuple grown from a generator is resized step by
        step, which fragments small-object memory and raises the peak RSS."""
        out = object.__new__(FreeWord)
        out.letters = tuple([(g, -s) for g, s in reversed(self.letters)])
        return out

    def exponent_sum(self, gen):
        return sum(s for g, s in self.letters if g == gen)

    def max_generator(self):
        return max((g for g, _ in self.letters), default=0)

    def __repr__(self):
        return f"FreeWord({_printable(self)!r})"


def commutator(u, v):
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v


def parse_word(s, fiber_rank):
    """Parse a word string.

    ASCII lowercase letters map to fiber generators 1..fiber_rank through
    FIBER_ALPHABET, uppercase ones to their inverses; 't' and 'T' are
    refused.  ASCII whitespace (_SPACE) is ignored.
    """
    letters = []
    for pos, ch in enumerate(s):
        if ch in _SPACE:
            continue
        if ch in "tT":
            raise WordParseError(f"stable letter 't' not allowed here (position {pos})")
        letter = _LETTERS.get(ch)
        if letter is None:
            raise WordParseError(f"unknown letter {ch!r} (position {pos})")
        if letter[0] > fiber_rank:
            raise WordParseError(
                f"letter {ch!r} exceeds fiber rank {fiber_rank} (position {pos})"
            )
        letters.append(letter)
    return FreeWord._reduced(letters)


def _printable(w):
    """The text form of w, or its letter pairs when a generator is past
    FIBER_ALPHABET, so that a repr never raises."""
    return format_word(w) if w.max_generator() <= len(FIBER_ALPHABET) else list(w.letters)


def format_word(w):
    """Inverse of parse_word; the empty word renders as the empty string."""
    chars = []
    for g, s in w.letters:
        if g > len(FIBER_ALPHABET):
            raise ValueError(f"generator {g} out of printable range")
        ch = FIBER_ALPHABET[g - 1]
        chars.append(ch if s > 0 else ch.upper())
    return "".join(chars)
