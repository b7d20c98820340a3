"""Count-vector draws and the dissimilarity between them.

An unordered draw of size K with replacement from I distinguishable objects
is recorded as a count vector: entry i is the number of copies of object i
in the draw, and the entries sum to K. A pair of draws, the paper's
2 x I count matrix, is held as its two rows: two count tuples of one
length I and one size K. _draw_pair makes the checks every pair passes;
counts must be integers, so a float count is refused, not truncated.

Two draws are compared by the fraction of cross-pairings (one element
from each draw) that mismatch:

    dissimilarity = 1 - <g1, g2> / K^2

which takes values in {0, 1/K^2, 2/K^2, ..., 1}. It is 0 only when both
draws are K copies of the same object, and 1 only when the draws share no
object. It is not a distance metric: a draw containing more than one kind
of object has positive dissimilarity with itself.

All values are exact: counts are integers and dissimilarities are stored
as an integer numerator over K^2. Conversion to float happens only at
output time.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter, index, mul
from typing import Sequence

_set = object.__setattr__


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in __slots__ and sets them in __init__
    through _fill, after its checks. Instances compare equal when they are
    of the same class and their fields are equal, hash as their fields,
    print as Name(field=value, ...), and refuse assignment and deletion
    with AttributeError. _trusted builds an instance from field values
    without running __init__, for values the caller built correct.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # read in C: the tuple of the fields, or a lone field's bare value
        cls._fields = property(attrgetter(*cls.__slots__))

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        self = object.__new__(cls)
        self._fill(*values)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # pickle and copy restore the fields without calling __setattr__
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        self._fill(*state)


class DissimilarityValue(Value):
    """Exact dissimilarity: an integer numerator over K^2.

    Kept unreduced so the denominator always identifies the draw size.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        if denominator < 1:
            raise ValueError("denominator must be positive")
        if not 0 <= numerator <= denominator:
            raise ValueError(f"dissimilarity {numerator}/{denominator} out of [0, 1]")
        self._fill(numerator, denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints. Only integral values pass (operator.index:
    ints, bools, numpy ints); a float, string or Fraction is a ValueError,
    never truncated."""
    out = []
    for v in values:
        try:
            out.append(index(v))
        except TypeError:
            raise ValueError(f"{what} must be integers, got {v!r}") from None
    return tuple(out)


def _draw_pair(g1, g2) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Two draws as count tuples (row1, row2) and their common size K.

    Each draw needs integer counts, at least one object slot, no negative
    count and at least one item; the two need the same length and the
    same size. Anything else is a ValueError.
    """
    rows = []
    for g in (g1, g2):
        counts = _integers(g, "draw counts")
        if len(counts) < 1:
            raise ValueError("a draw needs at least one object slot")
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in draw {counts}")
        if sum(counts) < 1:
            raise ValueError("draw size must be at least 1")
        rows.append(counts)
    row1, row2 = rows
    if len(row1) != len(row2):
        raise ValueError(
            f"rows cover different object counts: {len(row1)} vs {len(row2)}"
        )
    k = sum(row1)
    if k != sum(row2):
        raise ValueError(f"rows have different draw sizes: {k} vs {sum(row2)}")
    return row1, row2, k


def dissimilarity(g1, g2) -> DissimilarityValue:
    """Dissimilarity between two draws: 1 - <g1, g2> / K^2.

    Counts, for a uniformly random element of each draw, the probability
    that the two elements are different objects. Symmetric in its
    arguments; exact.

    Raises ValueError if a draw is not a count vector (_draw_pair) or the
    draws differ in length or size.
    """
    row1, row2, k = _draw_pair(g1, g2)
    overlap = sum(map(mul, row1, row2))
    return DissimilarityValue(k * k - overlap, k * k)


def inner_product(p: Sequence, q: Sequence):
    """Standard inner product of two equal-length vectors.

    Exact when both vectors hold ints/Fractions; float otherwise.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return sum(a * b for a, b in zip(p, q))
