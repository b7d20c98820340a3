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
its transpose; catalogs are emitted sorted by that flattened form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .core import DissimilarityValue, DrawVector, PairMatrix, dissimilarity


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
        grid = tuple(tuple(int(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", grid)
        side = len(grid)
        if side < 2 or any(len(row) != side for row in grid):
            raise ValueError("state matrix must be square with side >= 2")
        if any(v < 0 for row in grid for v in row):
            raise ValueError("state matrix entries must be nonnegative")
        k = side - 1
        top = sum(i * v for i, row in enumerate(grid) for v in row)
        bottom = sum(j * v for row in grid for j, v in enumerate(row))
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

    @property
    def flattened(self) -> tuple[int, ...]:
        """Row-major flattening; the sort/dedup key for canonical forms."""
        return tuple(v for row in self.entries for v in row)

    def transpose(self) -> "StateMatrix":
        return StateMatrix(tuple(zip(*self.entries)))


@dataclass(frozen=True)
class IdentityState:
    """One identity state: canonical matrix plus derived bookkeeping.

    The representative pair has its columns sorted in decreasing
    lexicographic order by (top, bottom), which puts nonzero columns
    first and reproduces the canonical matrix exactly (not just up to
    transpose).

    Three nested flags describe the relation between the two rows:
    row_equal (identical vectors) implies is_symmetric (some relabeling
    swaps the rows, i.e. the matrix equals its transpose), which implies
    row_equiv (the rows use the same partition of the draw size). The
    middle one is the strongest that probability weighting cares about;
    row_equiv alone does not make the two draw orders relabel onto the
    same pairs (e.g. rows (2,1,0) and (1,0,2)).
    """

    canonical_matrix: StateMatrix
    representative: PairMatrix
    dissimilarity: DissimilarityValue
    n_distinct: int
    is_symmetric: bool
    stabilizer_size: int
    row_equiv: bool
    row_equal: bool

    def __post_init__(self):
        rebuilt = canonicalize(state_matrix(self.representative))
        if rebuilt != self.canonical_matrix:
            raise ValueError("representative does not reproduce canonical matrix")
        if not 1 <= self.n_distinct <= min(
            self.representative.n_objects, 2 * self.representative.draw_size
        ):
            raise ValueError(f"n_distinct {self.n_distinct} out of range")
        if self.row_equal and not self.is_symmetric:
            raise ValueError("equal rows must give a symmetric matrix")
        if self.is_symmetric and not self.row_equiv:
            raise ValueError("a symmetric matrix forces row-equivalent rows")


def unordered_partitions(total: int) -> list[tuple[int, ...]]:
    """All partitions of `total` into nonincreasing positive parts.

    Emitted in lexicographically decreasing order, e.g. 3 -> (3,), (2, 1),
    (1, 1, 1).
    """
    if total < 1:
        raise ValueError(f"cannot partition {total}; need a positive integer")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(total, total, [])
    return out


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
    return canonical_from_flat(m.flattened, len(m.entries))


@lru_cache(maxsize=None)
def _transpose_index(side: int) -> tuple[int, ...]:
    """Positions that read a row-major flattened matrix as its transpose."""
    return tuple((pos % side) * side + pos // side for pos in range(side * side))


def _canonical_flat(flat: tuple[int, ...], side: int) -> tuple[int, ...]:
    return min(flat, tuple(map(flat.__getitem__, _transpose_index(side))))


def canonical_from_flat(flat: tuple[int, ...], side: int) -> StateMatrix:
    """Canonical StateMatrix of a row-major flattened side x side matrix."""
    return _unflatten(_canonical_flat(flat, side), side)


def n_distinct(pair: PairMatrix) -> int:
    """Number of distinct objects appearing in the pair (nonzero columns)."""
    return sum(1 for top, bottom in pair.columns if top or bottom)


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


def _representative_pair(matrix: StateMatrix) -> PairMatrix:
    """Pair realizing the matrix, columns in decreasing lexicographic order."""
    columns: list[tuple[int, int]] = []
    for top, row in enumerate(matrix.entries):
        for bottom, count in enumerate(row):
            columns.extend([(top, bottom)] * count)
    columns.sort(reverse=True)
    row1 = tuple(c[0] for c in columns)
    row2 = tuple(c[1] for c in columns)
    return PairMatrix(DrawVector(row1), DrawVector(row2))


def _build_state(matrix: StateMatrix, nonzero_cols: int) -> IdentityState:
    grid = matrix.entries
    rep = _representative_pair(matrix)
    row_sums = tuple(sum(row) for row in grid)
    col_sums = tuple(sum(col) for col in zip(*grid))
    stab = 1
    for top, row in enumerate(grid):
        for bottom, count in enumerate(row):
            if (top, bottom) != (0, 0):
                stab *= factorial(count)
    return IdentityState(
        canonical_matrix=matrix,
        representative=rep,
        dissimilarity=dissimilarity(rep.row1, rep.row2),
        n_distinct=nonzero_cols,
        is_symmetric=grid == tuple(zip(*grid)),
        stabilizer_size=stab,
        row_equiv=row_sums == col_sums,
        row_equal=all(
            v == 0 for i, row in enumerate(grid) for j, v in enumerate(row) if i != j
        ),
    )


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
    states = []
    for flat in _canonical_flat_keys(draw_size):
        nonzero_cols = span - flat[0]
        if nonzero_cols > n_objects:
            continue
        adjusted = (n_objects - nonzero_cols,) + flat[1:]
        states.append(_build_state(_unflatten(adjusted, side), nonzero_cols))
    states.sort(key=lambda s: s.canonical_matrix.flattened)
    return states


def state_count(draw_size: int, n_objects: int) -> int:
    """Number of identity states, without building state records."""
    _check_sizes(draw_size, n_objects)
    span = 2 * draw_size
    return sum(
        1 for flat in _canonical_flat_keys(draw_size) if span - flat[0] <= n_objects
    )


def state_from_matrix(matrix: StateMatrix) -> IdentityState:
    """Rebuild the full state record from a canonical matrix."""
    if matrix != canonicalize(matrix):
        raise ValueError("matrix is not in canonical (transpose-minimal) form")
    return _build_state(matrix, matrix.n_objects - matrix.entries[0][0])
