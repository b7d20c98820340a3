"""Enumeration of identity states for unordered pairs of unordered draws.

An identity state is an equivalence class of pairs of size-K draws under
two symmetries: swapping the two draws, and relabeling the I objects. Each
pair, written as a 2 x I count matrix, maps to a (K+1) x (K+1) matrix M
whose (i, j) entry counts the columns equal to (i-1, j-1). Column
relabeling leaves M unchanged and swapping the draws transposes it, so
identity states correspond exactly to such matrices up to transpose.

Enumeration builds these matrices directly. Cell (a, b) counts the
columns with top entry a and bottom entry b. A recursion over the cells
other than (0, 0), largest (a, b) first, carries the remaining top and
bottom budgets and the columns left of I; each step picks the next
nonzero cell and its count. Cells (1, 0) and (0, 1) come last and take
whatever budget is left, one column per unit, so every node is a matrix
with sum(a * M_ab) = sum(b * M_ab) = K, and M_00 = I - (nonzero columns).
A node whose columns fit in I (M_00 >= 0) is one state matrix; of it and
its transpose only the canonical one is kept. The cells after (a, b), and
the leftover (1, 0), put at most max(a, 1) on top per column, so c copies
of (a, b) are placed only while the top budget left after them fits in
the columns left after them at that rate. The column budget binds only
below I = 2K, since each nonzero column adds at least 1 to the 2K total
of both rows.

The canonical form of M is the row-major lexicographic minimum of M and
its transpose; catalogs are emitted sorted by that flattened form. That
tuple is the one matrix format: a StateMatrix holds it as its only field,
and the rules here (_pair_flat, _canonical_flat) work on it too.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import compress
from math import factorial, isqrt

from .core import DissimilarityValue, Value, _draw_pair, _integers


class StateMatrix(Value):
    """(K+1) x (K+1) column-type count matrix for a pair of size-K draws.

    Held as its row-major flattening: entry (i, j) (0-based) is
    flattened[i * (K+1) + j] and counts columns whose top entry is i and
    bottom entry is j. Both weighted sums sum(i * M_ij) and sum(j * M_ij)
    equal K, and the total of all entries is the number of object slots
    I. entries gives the rows.
    """

    __slots__ = ("flattened",)

    def __init__(self, flattened: tuple[int, ...]):
        flat = _integers(flattened, "state matrix entries")
        side = isqrt(len(flat))
        if side < 2 or side * side != len(flat):
            raise ValueError("state matrix must be square with side >= 2")
        if min(flat) < 0:
            raise ValueError("state matrix entries must be nonnegative")
        k = side - 1
        # the weighted sums from the row sums and the column sums
        top = sum(r * sum(flat[r * side : (r + 1) * side]) for r in range(side))
        bottom = sum(c * sum(flat[c::side]) for c in range(side))
        if top != k or bottom != k:
            raise ValueError(
                f"weighted sums ({top}, {bottom}) do not match draw size {k}"
            )
        self._fill(flat)

    @property
    def draw_size(self) -> int:
        return isqrt(len(self.flattened)) - 1

    @property
    def n_objects(self) -> int:
        return sum(self.flattened)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The rows, sliced from the flattening."""
        side = self.draw_size + 1
        return tuple(self.flattened[r * side : (r + 1) * side] for r in range(side))

    def transpose(self) -> "StateMatrix":
        return StateMatrix(_transpose_flat(self.flattened, self.draw_size + 1))


class IdentityState(Value):
    """One identity state, built from its canonical matrix alone.

    The canonical (transpose-minimal) matrix is the only constructor
    argument. The constructor checks only that it is canonical;
    StateMatrix checks the rest. Every other field is derived from it
    once and built unchecked, since a valid matrix gives valid values.
    enumerate_states hands in its keys, valid by construction, as
    StateMatrix._trusted.

    The representative pair is two count tuples (row1, row2) whose
    columns are sorted in decreasing lexicographic order by (top, bottom),
    which puts nonzero columns first and reproduces the canonical matrix
    exactly (not just up to transpose). The dissimilarity is
    1 - sum(a * b * M_ab) / K^2, n_distinct counts the nonzero columns,
    and the stabilizer size is the product of M_ab! over the cells other
    than (0, 0).

    Three nested flags describe the relation between the two rows:
    row_equal (identical vectors) implies is_symmetric (some relabeling
    swaps the rows, i.e. the matrix equals its transpose), which implies
    row_equiv (the rows use the same partition of the draw size). The
    middle one is the strongest that probability weighting cares about;
    row_equiv alone does not make the two draw orders relabel onto the
    same pairs (e.g. rows (2,1,0) and (1,0,2)).
    """

    __slots__ = (
        "canonical_matrix",
        "representative",
        "dissimilarity",
        "n_distinct",
        "is_symmetric",
        "stabilizer_size",
        "row_equiv",
        "row_equal",
    )

    def __init__(self, canonical_matrix: StateMatrix):
        flat = canonical_matrix.flattened
        side = canonical_matrix.draw_size + 1
        transposed = _transpose_flat(flat, side)
        if transposed < flat:
            raise ValueError("matrix is not in canonical (transpose-minimal) form")
        tops: list[int] = []
        bottoms: list[int] = []
        overlap = 0
        stab = 1
        # nonzero cells in decreasing (top, bottom) order; (0, 0) pads at the end
        for pos in compress(range(len(flat) - 1, 0, -1), flat[:0:-1]):
            count = flat[pos]
            top, bottom = divmod(pos, side)
            tops += [top] * count
            bottoms += [bottom] * count
            overlap += top * bottom * count
            stab *= factorial(count)
        nonzero_cols = len(tops)
        tops += [0] * flat[0]
        bottoms += [0] * flat[0]
        k = side - 1
        self._fill(
            canonical_matrix,
            (tuple(tops), tuple(bottoms)),
            DissimilarityValue._trusted(k * k - overlap, k * k),
            nonzero_cols,
            flat == transposed,
            stab,
            # each count is as frequent in one row as in the other: M and M^T
            # have the same row sums
            sorted(tops) == sorted(bottoms),
            # every column on the diagonal
            tops == bottoms,
        )


def state_matrix(g1, g2) -> StateMatrix:
    """Fold a pair of draws, two count vectors, into its column-type
    count matrix.

    Invariant to column permutations of the pair; swapping the draws
    transposes the result. Raises ValueError, as dissimilarity does, for
    a pair that is not two count vectors of one length and one size.
    """
    row1, row2, k = _draw_pair(g1, g2)
    return StateMatrix(_pair_flat(row1, row2, k + 1))


def _pair_flat(row1, row2, side: int) -> tuple[int, ...]:
    """Row-major flattened column-type matrix of two count vectors."""
    flat = [0] * (side * side)
    for top, bottom in zip(row1, row2):
        flat[top * side + bottom] += 1
    return tuple(flat)


def canonicalize(m: StateMatrix) -> StateMatrix:
    """Canonical form under transpose: the flattening-smaller of m, m^T."""
    return StateMatrix(_canonical_flat(m.flattened, m.draw_size + 1))


@lru_cache(maxsize=None)
def _transpose_index(side: int) -> tuple[int, ...]:
    """Positions that read a row-major flattened matrix as its transpose."""
    return tuple((pos % side) * side + pos // side for pos in range(side * side))


def _transpose_flat(flat: tuple[int, ...], side: int) -> tuple[int, ...]:
    return tuple(map(flat.__getitem__, _transpose_index(side)))


def _canonical_flat(flat: tuple[int, ...], side: int) -> tuple[int, ...]:
    return min(flat, _transpose_flat(flat, side))


@lru_cache(maxsize=None)
def _canonical_flat_keys(draw_size: int, n_objects: int) -> tuple[tuple[int, ...], ...]:
    """Sorted flattened canonical matrices of the catalog at I = n_objects,
    from the cell recursion in the module docstring.

    Past I = 2K the column budget never binds, so the keys are those at
    I = 2K with M_00 grown by I - 2K, in the same order.
    """
    span = 2 * draw_size
    if n_objects > span:
        grow = n_objects - span
        return tuple((flat[0] + grow, *flat[1:])
                     for flat in _canonical_flat_keys(draw_size, span))
    side = draw_size + 1
    # (position, a, b, most top per column from here on)
    cells = [(a * side + b, a, b, max(a, 1))
             for a in range(draw_size, -1, -1) for b in range(draw_size, -1, -1)
             if a + b >= 2]
    m = [0] * (side * side)
    keys: list[tuple[int, ...]] = []

    def rec(start: int, top: int, bottom: int, cols: int):
        m[0] = cols - top - bottom
        if m[0] >= 0:
            m[side] = top
            m[1] = bottom
            flat = tuple(m)
            if _canonical_flat(flat, side) == flat:
                keys.append(flat)
        for idx in range(start, len(cells)):
            pos, a, b, reach = cells[idx]
            count = 1
            while (count * a <= top and count * b <= bottom
                   and top - count * a <= (cols - count) * reach):
                m[pos] = count
                rec(idx + 1, top - count * a, bottom - count * b, cols - count)
                count += 1
            m[pos] = 0

    rec(0, draw_size, draw_size, n_objects)
    keys.sort()
    return tuple(keys)


def _check_sizes(draw_size: int, objects: int):
    if draw_size < 1:
        raise ValueError(f"draw size must be >= 1, got {draw_size}")
    if objects < 1:
        raise ValueError(f"object count must be >= 1, got {objects}")


def enumerate_states(draw_size: int, n_objects: int) -> list[IdentityState]:
    """Full identity-state catalog for the given draw size and object count.

    Exactly one record per state, sorted by flattened canonical matrix.
    """
    _check_sizes(draw_size, n_objects)
    return [IdentityState(StateMatrix._trusted(flat))
            for flat in _canonical_flat_keys(draw_size, n_objects)]


def state_count(draw_size: int, n_objects: int) -> int:
    """Number of identity states, without building state records.

    Counted on the keys at I = 2K, where M_00 = 2K - (nonzero columns):
    the states that fit in I columns are the sorted suffix with
    M_00 >= 2K - I. So one recursion per K serves every I, where a
    recursion per (K, I) would build each key again for every I it fits
    (4,363 keys over I = 1..12 at K = 6, against 565). A counting DP with
    no keys (ROADMAP.md, the count grid past K = 6) would replace this.
    """
    _check_sizes(draw_size, n_objects)
    span = 2 * draw_size
    keys = _canonical_flat_keys(draw_size, span)
    return len(keys) - bisect_left(keys, (span - n_objects,))
