"""Count-vector draws and the dissimilarity between them.

An unordered draw of size K with replacement from I distinguishable objects
is recorded as a count vector: entry i is the number of copies of object i
in the draw, and the entries sum to K. Two draws are compared by the
fraction of cross-pairings (one element from each draw) that mismatch:

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
from operator import attrgetter
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


class DrawVector(Value):
    """One unordered draw: counts per object, summing to the draw size."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = tuple(int(c) for c in counts)
        if len(counts) < 1:
            raise ValueError("a draw needs at least one object slot")
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in draw {counts}")
        if sum(counts) < 1:
            raise ValueError("draw size must be at least 1")
        self._fill(counts)

    @property
    def draw_size(self) -> int:
        """Number of items in the draw (the row sum)."""
        return sum(self.counts)

    @property
    def n_objects(self) -> int:
        """Number of object slots (the vector length)."""
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


class PairMatrix(Value):
    """Ordered pair of draws, viewed as a 2 x I nonnegative-integer matrix.

    Both rows must have the same length and the same row sum.
    """

    __slots__ = ("row1", "row2")

    def __init__(self, row1: DrawVector, row2: DrawVector):
        if row1.n_objects != row2.n_objects:
            raise ValueError(
                f"rows cover different object counts: "
                f"{row1.n_objects} vs {row2.n_objects}"
            )
        if row1.draw_size != row2.draw_size:
            raise ValueError(
                f"rows have different draw sizes: "
                f"{row1.draw_size} vs {row2.draw_size}"
            )
        self._fill(row1, row2)

    @property
    def draw_size(self) -> int:
        return self.row1.draw_size

    @property
    def n_objects(self) -> int:
        return self.row1.n_objects

    @property
    def columns(self) -> tuple[tuple[int, int], ...]:
        """The matrix columns as (top, bottom) count pairs."""
        return tuple(zip(self.row1.counts, self.row2.counts))


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


def _as_draw(g) -> DrawVector:
    return g if isinstance(g, DrawVector) else DrawVector(tuple(g))


def dissimilarity(g1, g2) -> DissimilarityValue:
    """Dissimilarity between two draws: 1 - <g1, g2> / K^2.

    Counts, for a uniformly random element of each draw, the probability
    that the two elements are different objects. Symmetric in its
    arguments; exact.

    Raises PairMatrix's ValueError if the draws differ in length or size.
    """
    pair = PairMatrix(_as_draw(g1), _as_draw(g2))
    k = pair.draw_size
    overlap = sum(a * b for a, b in pair.columns)
    return DissimilarityValue(k * k - overlap, k * k)


def inner_product(p: Sequence, q: Sequence):
    """Standard inner product of two equal-length vectors.

    Exact when both vectors hold ints/Fractions; float otherwise.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return sum(a * b for a, b in zip(p, q))
