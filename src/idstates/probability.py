"""Exact probabilities of identity states under two frequency vectors.

The first draw samples K objects with replacement using frequencies p,
the second using q. The probability of an identity state sums the
probabilities of every labeled pair in its equivalence class.

Production path, state_distribution: one pass over the objects gives
every state at once. Each object i becomes one column (a, b) of the pair,
a of its K top items and b of its K bottom items, and contributes
p_i^a q_i^b. The orderings of the two draws add multinomial factors,
built up one object at a time: with `top` and `bottom` items already
placed, the column (a, b) multiplies by C(top + a, a) * C(bottom + b, b).
So the objects fold into a table keyed by the partial column-type matrix
and the budgets used; at the end the nodes with both budgets at K are the
state matrices M, with M_00 = I - (nonzero columns), and M and its
transpose merge into one state. In exact mode p and q are integer
numerators over their lcm denominators D_p and D_q, the fold runs on
Python ints, and one division by D_p^K * D_q^K ends it. Float mode runs
the same fold on floats.

Reference path, state_probability: the paper's closed form, one state at
a time,

    P[state] = m(g1) * m(g2) / ((1 + swap_fixed) * stabilizer)
               * sum over injective index tuples (i_1..i_N) of
                 prod_j p_{i_j}^{g1_j} q_{i_j}^{g2_j}
               + prod_j p_{i_j}^{g2_j} q_{i_j}^{g1_j}

where m() is the multinomial coefficient counting orderings of a draw, N
is the state's number of distinct objects, g1/g2 are the representative's
nonzero columns, and the stabilizer counts column permutations fixing the
representative. swap_fixed is 1 exactly when some relabeling turns
(g1, g2) into (g2, g1), i.e. when the state matrix is symmetric: then the
two draw orders relabel onto the same pairs and the sum double-counts.
Rows merely sharing a partition of K is not enough: (2,1,0)/(1,0,2) has
no single relabeling swapping its rows, and its class sum needs both
orientations at full weight. Its cost is a falling factorial in I, so it
serves as a cross-check on small inputs.

Two numeric modes: exact rationals (Fraction entries; all identities hold
bit-exactly) and floats. Two independent oracles check both paths: an
exhaustive iteration over all ordered outcome pairs, and a seeded Monte
Carlo sampler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import DrawVector, PairMatrix
from .enumeration import (
    IdentityState,
    StateMatrix,
    canonical_from_flat,
    canonicalize,
    state_matrix,
)

if TYPE_CHECKING:
    import numpy as np

_EXACT_TYPES = (int, Fraction)

#: Largest I**(2K) the exhaustive oracle will attempt without force=True.
BRUTE_FORCE_GUARD = 10**8


def _is_exact(values) -> bool:
    return all(isinstance(v, _EXACT_TYPES) for v in values)


@dataclass(frozen=True)
class FrequencyVector:
    """Probability vector over I objects; exact (Fraction) or float entries.

    Exact vectors must sum to exactly 1. Float vectors may deviate from 1
    by at most 1e-9 and are renormalized on construction.
    """

    entries: tuple
    exact: bool

    SUM_TOLERANCE = 1e-9

    def __post_init__(self):
        values = tuple(self.entries)
        if not values:
            raise ValueError("frequency vector must not be empty")
        if self.exact:
            if not _is_exact(values):
                raise ValueError(
                    "exact mode needs int/Fraction entries; "
                    "parse strings with Fraction() first"
                )
            values = tuple(Fraction(v) for v in values)
            total = sum(values)
            if total != 1:
                # a long fraction can pass Python's limit on int-to-str digits
                short = max(total.numerator.bit_length(),
                            total.denominator.bit_length()) <= 64
                shown = total if short else f"{'more' if total > 1 else 'less'} than 1"
                raise ValueError(f"frequencies sum to {shown}, expected exactly 1")
        else:
            values = tuple(float(v) for v in values)
            total = math.fsum(values)
            if abs(total - 1.0) > self.SUM_TOLERANCE:
                raise ValueError(f"frequencies sum to {total:.12g}, expected 1")
            if total != 1.0:
                values = tuple(v / total for v in values)
        if any(v < 0 for v in values):
            raise ValueError("frequencies must be nonnegative")
        object.__setattr__(self, "entries", values)

    @classmethod
    def from_values(cls, values, mode: str = "auto") -> "FrequencyVector":
        """Build a vector; mode is "rational", "float", or "auto".

        Auto picks rational exactly when every entry is an int/Fraction.
        """
        values = tuple(values)
        if mode == "auto":
            exact = _is_exact(values)
        elif mode == "rational":
            exact = True
        elif mode == "float":
            exact = False
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return cls(values, exact)

    @classmethod
    def uniform(cls, n_objects: int, exact: bool = True) -> "FrequencyVector":
        if n_objects < 1:
            raise ValueError("need at least one object")
        if exact:
            return cls((Fraction(1, n_objects),) * n_objects, True)
        return cls((1.0 / n_objects,) * n_objects, False)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class StateProbability:
    """Probability assigned to one identity state."""

    state: IdentityState
    value: object

    def __post_init__(self):
        slack = 0 if isinstance(self.value, _EXACT_TYPES) else 1e-12
        if not -slack <= self.value <= 1 + slack:
            raise ValueError(f"probability {self.value} out of [0, 1]")


def multinomial(total: int, parts) -> int:
    """Orderings of a draw: total! / prod(parts[i]!), exact integer."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if sum(parts) != total:
        raise ValueError(f"parts {parts} sum to {sum(parts)}, expected {total}")
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def row_signature(g: DrawVector) -> tuple[int, ...]:
    """Length-(K+1) value histogram of a draw: entry v counts positions equal to v.

    Two draws have equal signatures exactly when one is a position
    permutation of the other.
    """
    sig = [0] * (g.draw_size + 1)
    for c in g.counts:
        sig[c] += 1
    return tuple(sig)


def stabilizer_size(pair: PairMatrix) -> int:
    """Number of permutations of the nonzero columns that fix the pair.

    Equal columns are interchangeable, so this is the product of
    factorials of the equal-column class sizes.
    """
    classes = {}
    for col in pair.columns:
        if col != (0, 0):
            classes[col] = classes.get(col, 0) + 1
    out = 1
    for count in classes.values():
        out *= math.factorial(count)
    return out


def _check_freqs(p, q):
    if len(p) != len(q):
        raise ValueError(f"frequency length mismatch: {len(p)} vs {len(q)}")


def ordered_pair_probability(pair: PairMatrix, p, q):
    """Probability of drawing exactly (row1 from p, row2 from q), in order."""
    if len(p) != pair.n_objects or len(q) != pair.n_objects:
        raise ValueError(
            f"pair covers {pair.n_objects} objects, frequencies cover "
            f"{len(p)} and {len(q)}"
        )
    k = pair.draw_size
    out = multinomial(k, pair.row1.counts) * multinomial(k, pair.row2.counts)
    for freq, counts in ((p, pair.row1.counts), (q, pair.row2.counts)):
        for f, c in zip(freq, counts):
            if c:
                out *= f**c
    return out


def _injective_pair_sum(p, q, exp1, exp2, one):
    """Sum over injective index tuples of both p/q orientations of the product."""
    n = len(exp1)
    slots = len(p)
    total = one - one  # zero of the working numeric type

    def rec(depth, mask, fwd, rev):
        nonlocal total
        if depth == n:
            total += fwd + rev
            return
        e1, e2 = exp1[depth], exp2[depth]
        for i in range(slots):
            if mask >> i & 1:
                continue
            pi, qi = p[i], q[i]
            f = fwd * pi**e1 * qi**e2
            r = rev * pi**e2 * qi**e1
            if f or r:  # all continuations of a doubly-zero branch are zero
                rec(depth + 1, mask | 1 << i, f, r)

    rec(0, 0, one, one)
    return total


def _state_exponents(state: IdentityState):
    n = state.n_distinct
    return (
        state.representative.row1.counts[:n],
        state.representative.row2.counts[:n],
    )


def state_probability(state: IdentityState, p, q) -> StateProbability:
    """Probability of the state when the draws use frequencies p and q.

    Exact when both vectors are exact. A state needing more distinct
    objects than p provides has probability zero (empty injective sum),
    not an error. Cost grows as the falling factorial I * (I-1) * ...
    over the state's distinct-object count (zero entries prune early),
    so keep I small for large draw sizes. This is the paper's closed
    form, kept as the reference for state_distribution.
    """
    _check_freqs(p, q)
    exact = _is_exact(p) and _is_exact(q)
    zero = Fraction(0) if exact else 0.0
    if state.n_distinct > len(p):
        return StateProbability(state, zero)
    exp1, exp2 = _state_exponents(state)
    k = state.representative.draw_size
    weight = multinomial(k, exp1) * multinomial(k, exp2)
    divisor = (1 + state.is_symmetric) * state.stabilizer_size
    one = Fraction(1) if exact else 1.0
    total = _injective_pair_sum(tuple(p), tuple(q), exp1, exp2, one)
    if exact:
        value = Fraction(weight, divisor) * total
    else:
        value = weight / divisor * total
    return StateProbability(state, value)


def brute_force_state_distribution(
    draw_size: int, n_objects: int, p, q, force: bool = False
) -> dict[StateMatrix, object]:
    """Exhaustive ground truth: iterate every ordered outcome pair.

    Walks all I^K ordered outcomes per side, accumulating each outcome's
    probability (a plain product of entry frequencies) onto the canonical
    state of its pair. No multinomials, no stabilizers: independent of the
    closed form it checks. Exact in rational mode; the result sums to 1.
    """
    _check_freqs(p, q)
    if len(p) != n_objects:
        raise ValueError(f"frequencies cover {len(p)} objects, expected {n_objects}")
    cost = n_objects ** (2 * draw_size)
    if cost > BRUTE_FORCE_GUARD and not force:
        raise ValueError(
            f"{n_objects}^(2*{draw_size}) = {cost} ordered outcome pairs "
            f"exceeds the guard ({BRUTE_FORCE_GUARD}); pass force=True to override"
        )
    exact = _is_exact(p) and _is_exact(q)

    def side_totals(freq):
        # probability mass reaching each count vector, one ordered outcome
        # at a time
        acc: dict[tuple[int, ...], list] = {}
        for outcome in itertools.product(range(n_objects), repeat=draw_size):
            prob = Fraction(1) if exact else 1.0
            counts = [0] * n_objects
            for obj in outcome:
                prob *= freq[obj]
                counts[obj] += 1
            acc.setdefault(tuple(counts), []).append(prob)
        if exact:
            return {g: sum(terms) for g, terms in acc.items()}
        return {g: math.fsum(terms) for g, terms in acc.items()}

    totals1 = side_totals(p)
    totals2 = side_totals(q)
    dist: dict[StateMatrix, list] = {}
    for g1, pr1 in totals1.items():
        if not pr1:
            continue
        for g2, pr2 in totals2.items():
            if not pr2:
                continue
            pair = PairMatrix(DrawVector(g1), DrawVector(g2))
            key = canonicalize(state_matrix(pair))
            dist.setdefault(key, []).append(pr1 * pr2)
    if exact:
        return {key: sum(terms) for key, terms in dist.items()}
    return {key: math.fsum(terms) for key, terms in dist.items()}


def state_distribution(draw_size: int, p, q) -> dict[StateMatrix, object]:
    """Probability of every identity state in one pass over the objects.

    Folds the objects in one at a time (module docstring). Returns the
    states of nonzero probability, keyed by canonical matrix with
    M_00 = len(p) - (nonzero columns), sorted by flattened matrix. Exact,
    summing to exactly 1, when both vectors are exact; floats otherwise.
    """
    _check_freqs(p, q)
    if draw_size < 1:
        raise ValueError(f"draw size must be >= 1, got {draw_size}")
    k = draw_size
    side = k + 1
    exact = _is_exact(p) and _is_exact(q)
    if exact:
        p = [Fraction(v) for v in p]
        q = [Fraction(v) for v in q]
        den_p = math.lcm(*(v.denominator for v in p))
        den_q = math.lcm(*(v.denominator for v in q))
        p = [v.numerator * (den_p // v.denominator) for v in p]
        q = [v.numerator * (den_q // v.denominator) for v in q]
    else:
        p = [float(v) for v in p]
        q = [float(v) for v in q]
    binom = [[math.comb(n, r) for r in range(side)] for n in range(side)]
    # A partial matrix is one int: digit a * side + b, in radix side,
    # counts the columns (a, b). No cell count exceeds K.
    moves = [
        (a, b, side ** (a * side + b))
        for a in range(side)
        for b in range(side)
        if a or b
    ]
    # (top, bottom) budgets used -> {partial matrix: weight}
    layers: dict[tuple[int, int], dict[int, object]] = {(0, 0): {0: 1}}
    for pi, qi in zip(p, q):
        p_pow = [pi**a for a in range(side)]
        q_pow = [qi**b for b in range(side)]
        # Visit layers fullest first: every move writes to a layer with a
        # larger top + bottom, already read, so one object adds one column.
        for top, bottom in sorted(layers, key=sum, reverse=True):
            source = layers[top, bottom]
            for a, b, step in moves:
                if top + a > k or bottom + b > k:
                    continue
                factor = (binom[top + a][a] * binom[bottom + b][b]
                          * p_pow[a] * q_pow[b])
                if not factor:
                    continue
                target = layers.setdefault((top + a, bottom + b), {})
                for key, weight in source.items():
                    key += step
                    target[key] = target.get(key, 0) + weight * factor
    merged: dict[StateMatrix, object] = {}
    for key, weight in layers.get((k, k), {}).items():
        flat = [0] * (side * side)
        for pos in range(side * side):
            key, flat[pos] = divmod(key, side)
        flat[0] = len(p) - sum(flat)
        state = canonical_from_flat(tuple(flat), side)
        merged[state] = merged.get(state, 0) + weight
    scale = den_p**k * den_q**k if exact else 1
    return {
        state: Fraction(weight, scale) if exact else weight
        for state, weight in sorted(merged.items(), key=lambda e: e[0].flattened)
    }


def _distinct_rows(rows: np.ndarray, radix: int):
    """Index the distinct rows of an integer matrix whose entries are < radix.

    Returns (first row of each distinct row, each row's distinct index).
    Rows are coded as mixed-radix int64, a chunk of columns at a time;
    before the code could pass 2^63 - 1 it is replaced by its index among
    the distinct codes so far.
    """
    import numpy as np

    limit = int(np.iinfo(np.int64).max)
    code = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every code is below bound
    start = 0
    while start < rows.shape[1]:
        width = 0
        while (start + width < rows.shape[1]
               and bound * radix ** (width + 1) <= limit):
            width += 1
        if not width:
            _, code = np.unique(code, return_inverse=True)
            bound = int(code.max()) + 1
            continue
        digits = radix ** np.arange(width, dtype=np.int64)
        code = code * radix**width + rows[:, start : start + width] @ digits
        bound *= radix**width
        start += width
    _, first, index = np.unique(code, return_index=True, return_inverse=True)
    return first, index


def monte_carlo_state_distribution(
    draw_size: int, n_objects: int, p, q, n_samples: int, seed: int
) -> dict[StateMatrix, Fraction]:
    """Empirical state frequencies from seeded sampling.

    Each sample draws K objects from p and K from q (as multinomial count
    vectors via numpy's PCG64 generator). Object j of a sample is one
    column (a, b) of its pair, coded as the matrix cell a * (K+1) + b.
    Sorted, a sample's cells list its state matrix's columns, so samples
    with equal sorted cells share a matrix; numpy counts each distinct
    matrix, and only those are canonicalized. Frequencies are exact counts
    over n_samples, so they sum to exactly 1. Reproducible for a fixed
    (seed, numpy version).
    """
    import numpy as np

    _check_freqs(p, q)
    if len(p) != n_objects:
        raise ValueError(f"frequencies cover {len(p)} objects, expected {n_objects}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    pf = np.asarray([float(v) for v in p])
    qf = np.asarray([float(v) for v in q])
    side = draw_size + 1
    area = side * side
    # cells a * side + b, built in place from the p-draw's counts a
    cells = rng.multinomial(draw_size, pf / pf.sum(), size=n_samples)
    cells *= side
    cells += rng.multinomial(draw_size, qf / qf.sum(), size=n_samples)
    cells.sort(axis=1)
    first, index = _distinct_rows(cells, area)
    counts = np.bincount(index)
    # flattened matrix of each distinct row: one bincount over row x cell
    offsets = np.arange(len(first))[:, None] * area
    matrices = np.bincount(
        (offsets + cells[first]).ravel(), minlength=len(first) * area
    ).reshape(len(first), area)
    # a matrix and its transpose are one state
    totals: dict[StateMatrix, int] = {}
    for flat, count in zip(matrices.tolist(), counts.tolist()):
        state = canonical_from_flat(tuple(flat), side)
        totals[state] = totals.get(state, 0) + count
    return {state: Fraction(count, n_samples) for state, count in totals.items()}
