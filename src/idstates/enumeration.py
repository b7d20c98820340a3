"""Enumeration of identity states for unordered pairs of unordered draws.

An identity state is an equivalence class of pairs of size-K draws under
two symmetries: swapping the two draws, and relabeling the I objects. Each
pair, written as a 2 x I count matrix, maps to a (K+1) x (K+1) matrix M
whose (i, j) entry counts the columns equal to (i-1, j-1). Column
relabeling leaves M unchanged and swapping the draws transposes it, so
identity states correspond exactly to such matrices up to transpose.

Enumeration builds these matrices directly. Cell (a, b) counts the
columns with top entry a and bottom entry b. A recursion over the cells
other than (0, 0) carries the remaining top and bottom budgets; each step
picks the next nonzero cell and its count. Cells (1, 0) and (0, 1) come
last and take whatever budget is left, so no branch dead-ends and every
node is a valid matrix with sum(a * M_ab) = sum(b * M_ab) = K. The number of
nonzero columns is at most 2K (each adds at least 1 to the 2K total of
both rows), and M_00 = 2K - (nonzero columns) pads the catalog to I = 2K.
Of a matrix and its transpose only the canonical one is kept.

States for I < 2K are the subset whose pairs fit in I columns; for
I > 2K the catalog is the same as at 2K with extra all-zero columns.

The canonical form of M is the row-major lexicographic minimum of M and
its transpose; catalogs are emitted sorted by that flattened form. This
module holds that rule: merge_transposes sums any weights keyed by
flattened matrices onto their canonical states, and both computed state
distributions (probability.py) end with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial
from operator import mul

from .core import DissimilarityValue, DrawVector, PairMatrix


@dataclass(frozen=True)
class StateMatrix:
    """(K+1) x (K+1) column-type count matrix for a pair of size-K draws.

    Entry (i, j) (0-based) counts columns whose top entry is i and bottom
    entry is j. Both weighted sums sum(i * entries[i][j]) and
    sum(j * entries[i][j]) equal K, and the total of all entries is the
    number of object slots I.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        grid = tuple(tuple(map(int, row)) for row in self.entries)
        object.__setattr__(self, "entries", grid)
        side = len(grid)
        if side < 2 or any(len(row) != side for row in grid):
            raise ValueError("state matrix must be square with side >= 2")
        if min(map(min, grid)) < 0:
            raise ValueError("state matrix entries must be nonnegative")
        k = side - 1
        # the weighted sums from the row sums and the column sums
        top = sum(map(mul, range(side), map(sum, grid)))
        bottom = sum(map(mul, range(side), map(sum, zip(*grid))))
        if top != k or bottom != k:
            raise ValueError(
                f"weighted sums ({top}, {bottom}) do not match draw size {k}"
            )

    @property
    def draw_size(self) -> int:
        return len(self.entries) - 1

    @property
    def n_objects(self) -> int:
        return sum(v for row in self.entries for v in row)

    @cached_property
    def flattened(self) -> tuple[int, ...]:
        """Row-major flattening; the sort/dedup key for canonical forms.

        Computed once per matrix; not a field, so == and hash ignore it.
        """
        return tuple(v for row in self.entries for v in row)

    def transpose(self) -> "StateMatrix":
        return StateMatrix(tuple(zip(*self.entries)))


@dataclass(frozen=True)
class IdentityState:
    """One identity state, built from its canonical matrix alone.

    The canonical (transpose-minimal) matrix is the only constructor
    argument; every other field is derived from it once, here.

    The representative pair has its columns sorted in decreasing
    lexicographic order by (top, bottom), which puts nonzero columns
    first and reproduces the canonical matrix exactly (not just up to
    transpose). The dissimilarity is 1 - sum(a * b * M_ab) / K^2,
    n_distinct counts the nonzero columns, and the stabilizer size is the
    product of M_ab! over the cells other than (0, 0).

    Three nested flags describe the relation between the two rows:
    row_equal (identical vectors) implies is_symmetric (some relabeling
    swaps the rows, i.e. the matrix equals its transpose), which implies
    row_equiv (the rows use the same partition of the draw size). The
    middle one is the strongest that probability weighting cares about;
    row_equiv alone does not make the two draw orders relabel onto the
    same pairs (e.g. rows (2,1,0) and (1,0,2)).
    """

    canonical_matrix: StateMatrix
    representative: PairMatrix = field(init=False)
    dissimilarity: DissimilarityValue = field(init=False)
    n_distinct: int = field(init=False)
    is_symmetric: bool = field(init=False)
    stabilizer_size: int = field(init=False)
    row_equiv: bool = field(init=False)
    row_equal: bool = field(init=False)

    def __post_init__(self):
        grid = self.canonical_matrix.entries
        side = len(grid)
        flat = self.canonical_matrix.flattened
        if _canonical_flat(flat, side) != flat:
            raise ValueError("matrix is not in canonical (transpose-minimal) form")
        k = side - 1
        tops: list[int] = []
        bottoms: list[int] = []
        overlap = 0
        stab = 1
        # cells in decreasing (top, bottom) order; (0, 0) pads at the end
        for pos in range(side * side - 1, 0, -1):
            count = flat[pos]
            if count:
                top, bottom = divmod(pos, side)
                tops += [top] * count
                bottoms += [bottom] * count
                overlap += top * bottom * count
                stab *= factorial(count)
        nonzero_cols = len(tops)
        tops += [0] * flat[0]
        bottoms += [0] * flat[0]
        transposed = tuple(zip(*grid))
        derived = {
            "representative": PairMatrix(DrawVector(tops), DrawVector(bottoms)),
            "dissimilarity": DissimilarityValue(k * k - overlap, k * k),
            "n_distinct": nonzero_cols,
            "is_symmetric": grid == transposed,
            "stabilizer_size": stab,
            "row_equiv": tuple(map(sum, grid)) == tuple(map(sum, transposed)),
            # every column on the diagonal: top == bottom
            "row_equal": sum(flat[:: side + 1]) == len(tops),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def state_matrix(pair: PairMatrix) -> StateMatrix:
    """Fold a pair into its column-type count matrix.

    Invariant to column permutations of the pair; swapping the rows
    transposes the result.
    """
    side = pair.draw_size + 1
    grid = [[0] * side for _ in range(side)]
    for top, bottom in pair.columns:
        grid[top][bottom] += 1
    return StateMatrix(tuple(tuple(row) for row in grid))


def canonicalize(m: StateMatrix) -> StateMatrix:
    """Canonical form under transpose: the flattening-smaller of m, m^T."""
    side = len(m.entries)
    return _unflatten(_canonical_flat(m.flattened, side), side)


@lru_cache(maxsize=None)
def _transpose_index(side: int) -> tuple[int, ...]:
    """Positions that read a row-major flattened matrix as its transpose."""
    return tuple((pos % side) * side + pos // side for pos in range(side * side))


def _canonical_flat(flat: tuple[int, ...], side: int) -> tuple[int, ...]:
    return min(flat, tuple(map(flat.__getitem__, _transpose_index(side))))


def merge_transposes(
    weights: dict[tuple[int, ...], object], side: int
) -> dict[StateMatrix, object]:
    """Sum weights keyed by row-major flattened side x side matrices per state.

    A matrix and its transpose are one state, so each key is replaced by
    its canonical form and the weights landing on one form are added in
    the input's order. Returns {canonical StateMatrix: weight} sorted by
    flattened matrix; a StateMatrix is built only for each state returned.
    """
    merged: dict[tuple[int, ...], object] = {}
    for flat, weight in weights.items():
        flat = _canonical_flat(flat, side)
        merged[flat] = merged.get(flat, 0) + weight
    return {_unflatten(flat, side): merged[flat] for flat in sorted(merged)}


@lru_cache(maxsize=None)
def _canonical_flat_keys(draw_size: int) -> tuple[tuple[int, ...], ...]:
    """Sorted flattened canonical matrices at I = 2K (the full catalog).

    Every node of the cell recursion (module docstring) is one matrix;
    of M and its transpose only the flattening-smaller one is kept.
    """
    side = draw_size + 1
    span = 2 * draw_size
    # (1, 0) and (0, 1) take the leftover budgets at each node instead
    cells = [(a, b) for a in range(side) for b in range(side) if a + b >= 2]
    m = [0] * (side * side)
    keys: list[tuple[int, ...]] = []

    def rec(start: int, top: int, bottom: int, used: int):
        m[side] = top
        m[1] = bottom
        m[0] = span - used - top - bottom
        flat = tuple(m)
        if _canonical_flat(flat, side) == flat:
            keys.append(flat)
        for idx in range(start, len(cells)):
            a, b = cells[idx]
            if a > top or b > bottom:
                continue
            pos = a * side + b
            count = 1
            while count * a <= top and count * b <= bottom:
                m[pos] = count
                rec(idx + 1, top - count * a, bottom - count * b, used + count)
                count += 1
            m[pos] = 0

    rec(0, draw_size, draw_size, 0)
    keys.sort()
    return tuple(keys)


def _unflatten(flat: tuple[int, ...], side: int) -> StateMatrix:
    rows = tuple(flat[r * side : (r + 1) * side] for r in range(side))
    return StateMatrix(rows)


def _check_sizes(draw_size: int, objects: int):
    if draw_size < 1:
        raise ValueError(f"draw size must be >= 1, got {draw_size}")
    if objects < 1:
        raise ValueError(f"object count must be >= 1, got {objects}")


def enumerate_states(draw_size: int, n_objects: int) -> list[IdentityState]:
    """Full identity-state catalog for the given draw size and object count.

    Exactly one record per state, sorted by flattened canonical matrix.
    For n_objects >= 2K the catalog has the same states as at 2K (padded
    with zero columns); below 2K it is the subset fitting in n_objects
    columns.
    """
    _check_sizes(draw_size, n_objects)
    span = 2 * draw_size
    side = draw_size + 1
    # M_00 = I - (nonzero columns) moves entry 0 of every sorted key by the
    # same constant, so the keys' order is the catalog order
    return [
        IdentityState(_unflatten((n_objects - span + flat[0],) + flat[1:], side))
        for flat in _canonical_flat_keys(draw_size)
        if span - flat[0] <= n_objects
    ]


def state_count(draw_size: int, n_objects: int) -> int:
    """Number of identity states, without building state records."""
    _check_sizes(draw_size, n_objects)
    span = 2 * draw_size
    return sum(
        1 for flat in _canonical_flat_keys(draw_size) if span - flat[0] <= n_objects
    )
