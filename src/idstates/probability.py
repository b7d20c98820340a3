"""Exact probabilities of identity states under two frequency vectors.

The first draw samples K objects with replacement using frequencies p,
the second using q. The probability of an identity state sums the
probabilities of every labeled pair in its equivalence class.

Production path, state_distribution: one pass over the objects (_fold)
weighs every column-type matrix M, keyed by its code (_cell_bases), and
_merge_codes merges M and its transpose into one state.

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
bit-exactly) and floats. Both run one arithmetic (_quotient): every path,
the fold, the closed form and the exhaustive walk, sums integer products
of the numerators of p and q over D_p and D_q (_numerators), a float
entry read as its exact binary value, and divides once at the end. So a
float probability is the correctly rounded value of the exact
probability of the float inputs, the same on every platform. Two oracles
check both paths: an exhaustive walk over all ordered outcomes of each
draw, which sums each pair of count vectors onto its canonical flattened
matrix itself, sharing no code with the production merge, and a seeded
Monte Carlo sampler, which counts the same matrix codes as
state_distribution and ends with the same _merge_codes.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import Value
from .enumeration import (
    IdentityState,
    StateMatrix,
    _canonical_flat,
    _check_sizes,
    _pair_flat,
)

if TYPE_CHECKING:
    import numpy as np

_EXACT_TYPES = (int, Fraction)

#: Most steps the exhaustive oracle's walk may take without force=True;
#: a step took about 10^-7 s (CPython 3.11, one shared vCPU core).
BRUTE_FORCE_GUARD = 10**8

#: Float rounding allowed on a computed expectation beyond its range or its
#: exact value. State probabilities need none: each is rounded once.
ROUNDING_SLACK = 1e-12

#: Rows a sampler draws and reduces at a time. Consecutive numpy draws
#: continue one stream, so this bounds memory without changing results.
#: Every per-chunk array scales with it: at 4096 rows one chunk of 10
#: float64 Gamma draws is 0.33 MB, well under the interpreter's own
#: resident memory, while numpy's per-call cost stays a few ms per 10^6
#: rows.
SAMPLE_CHUNK = 4096


def _chunks(draw, n_rows: int):
    """Yield draw(m) for consecutive pieces of n_rows, at most SAMPLE_CHUNK each.

    Consecutive numpy draws continue one stream exactly as one call would,
    so the pieces in order are the draw of the whole block.
    """
    for start in range(0, n_rows, SAMPLE_CHUNK):
        yield draw(min(SAMPLE_CHUNK, n_rows - start))


def _is_exact(values) -> bool:
    return all(isinstance(v, _EXACT_TYPES) for v in values)


def _quotient(exact: bool):
    """The one division that ends every state probability: an integer sum
    over an integer scale, kept as a Fraction in rational mode and rounded
    once in float mode (int / int is the correctly rounded quotient)."""
    return Fraction if exact else operator.truediv


class FrequencyVector(Value):
    """Probability vector over I objects; exact (Fraction) or float entries.

    The one check on frequency values: every function that takes p and q
    passes them through here. Entries must be finite and nonnegative.
    Exact vectors must sum to exactly 1. Float vectors may deviate from 1
    by at most 1e-9 and are renormalized on construction.
    """

    __slots__ = ("entries", "exact")

    SUM_TOLERANCE = 1e-9

    def __init__(self, entries, exact: bool):
        values = tuple(entries)
        if not values:
            raise ValueError("frequency vectors must not be empty")
        if exact and not _is_exact(values):
            raise ValueError(
                "exact mode needs int/Fraction entries; "
                "parse strings with Fraction() first"
            )
        values = tuple(map(Fraction if exact else float, values))
        for v in values:
            if not 0 <= v < math.inf:  # NaN fails both comparisons
                raise ValueError(f"frequencies must be finite and nonnegative, got {v}")
        if exact:
            total = sum(values)
            if total != 1:
                # a long fraction can pass Python's limit on int-to-str digits
                short = max(total.numerator.bit_length(),
                            total.denominator.bit_length()) <= 64
                shown = total if short else f"{'more' if total > 1 else 'less'} than 1"
                raise ValueError(f"frequencies sum to {shown}, expected exactly 1")
        else:
            try:
                total = math.fsum(values)
            except OverflowError:  # finite entries can sum past the float maximum
                total = math.inf
            if not abs(total - 1.0) <= self.SUM_TOLERANCE:
                raise ValueError(f"frequencies sum to {total:.12g}, expected 1")
            if total != 1.0:
                values = tuple(v / total for v in values)
        self._fill(values, exact)

    @classmethod
    def uniform(cls, n_objects: int, exact: bool = True) -> "FrequencyVector":
        if n_objects < 1:
            raise ValueError("need at least one object")
        return cls((Fraction(1, n_objects),) * n_objects, exact)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class StateProbability(Value):
    """Probability assigned to one identity state."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not 0 <= value <= 1:
            raise ValueError(f"probability {value} out of [0, 1]")
        self._fill(value)


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


def _frequency_pair(p, q) -> tuple[FrequencyVector, FrequencyVector]:
    """p and q as FrequencyVectors of one mode, exact only when both are;
    one already in that mode passes through untouched."""
    if len(p) != len(q):
        raise ValueError(f"frequency length mismatch: {len(p)} vs {len(q)}")
    exact = _is_exact(p) and _is_exact(q)
    return tuple(v if isinstance(v, FrequencyVector) and v.exact == exact
                 else FrequencyVector(v, exact) for v in (p, q))


def _numerators(freq: FrequencyVector) -> tuple[list[int], int]:
    """A vector's entries as integer numerators over the lcm D of their
    denominators, and D. A float entry counts as its exact binary value."""
    ratios = [v.as_integer_ratio() for v in freq]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _injective_pair_sum(p, q, exp1, exp2):
    """Sum over injective index tuples of both p/q orientations of the product."""
    n = len(exp1)
    slots = len(p)
    total = 0

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

    rec(0, 0, 1, 1)
    return total


def state_probability(state: IdentityState, p, q) -> StateProbability:
    """Probability of the state when the draws use frequencies p and q.

    Exact when both vectors are exact. A state needing more distinct
    objects than p provides has probability zero (empty injective sum),
    not an error. Cost grows as the falling factorial I * (I-1) * ...
    over the state's distinct-object count (zero entries prune early),
    so keep I small for large draw sizes. This is the paper's closed
    form, kept as the reference for state_distribution.
    """
    p, q = _frequency_pair(p, q)
    row1, row2 = state.representative
    exp1, exp2 = row1[: state.n_distinct], row2[: state.n_distinct]
    k = state.canonical_matrix.draw_size
    weight = multinomial(k, exp1) * multinomial(k, exp2)
    divisor = (1 + state.is_symmetric) * state.stabilizer_size
    # each product has K factors from p and K from q in both orientations
    (p_num, den_p), (q_num, den_q) = _numerators(p), _numerators(q)
    total = _injective_pair_sum(p_num, q_num, exp1, exp2)
    return StateProbability(
        _quotient(p.exact)(weight * total, divisor * den_p**k * den_q**k))


def _check_exhaustive_cost(draw_size: int, n_objects: int) -> None:
    """Refuse an exhaustive walk of more than BRUTE_FORCE_GUARD steps."""
    # the walk's steps: each side's I^K ordered outcomes, K + I steps each,
    # then every pair of its C(K+I-1, K) count vectors, an I-column matrix
    # and a (K+1)^2-cell canonical key each
    k, i = draw_size, n_objects
    vectors = math.comb(k + i - 1, k)
    cost = 2 * i**k * (k + i) + vectors**2 * (i + (k + 1) ** 2)
    if cost > BRUTE_FORCE_GUARD:
        raise ValueError(
            f"the exhaustive oracle at K={k}, I={i} takes {cost} steps "
            "(2*I^K*(K+I) + C(K+I-1,K)^2*(I+(K+1)^2)), over its guard "
            f"({BRUTE_FORCE_GUARD}); pass force=True (the CLI's --force) "
            "to override")


def brute_force_state_distribution(
    draw_size: int, n_objects: int, p, q, force: bool = False
) -> dict[StateMatrix, object]:
    """Exhaustive ground truth over every ordered outcome of both draws.

    Sums each of the I^K ordered outcomes per side (a plain product of
    entry frequencies) onto its count vector, then each pair's product
    onto its canonical flattened matrix. No multinomials, no stabilizers,
    no _merge_codes: independent of the paths it checks. Each value ends
    with _quotient, like theirs. The rational result sums to 1.
    """
    p, q = _frequency_pair(p, q)
    _check_sizes(draw_size, n_objects)
    if len(p) != n_objects:
        raise ValueError(f"frequencies cover {len(p)} objects, expected {n_objects}")
    if not force:
        _check_exhaustive_cost(draw_size, n_objects)
    # each side's products share the denominator D^K
    (p_num, den_p), (q_num, den_q) = _numerators(p), _numerators(q)

    def side_totals(freq):
        # probability mass reaching each count vector, one ordered outcome
        # at a time
        acc: dict[tuple[int, ...], int] = {}
        for outcome in itertools.product(range(n_objects), repeat=draw_size):
            prob = 1
            counts = [0] * n_objects
            for obj in outcome:
                prob *= freq[obj]
                counts[obj] += 1
            counts = tuple(counts)
            acc[counts] = acc.get(counts, 0) + prob
        return acc

    side = draw_size + 1
    totals1 = side_totals(p_num)
    totals2 = side_totals(q_num)
    dist: dict[tuple[int, ...], int] = {}
    for g1, pr1 in totals1.items():
        if not pr1:
            continue
        for g2, pr2 in totals2.items():
            if not pr2:
                continue
            key = _canonical_flat(_pair_flat(g1, g2, side), side)
            dist[key] = dist.get(key, 0) + pr1 * pr2
    scale = den_p**draw_size * den_q**draw_size
    value = _quotient(p.exact)
    return {StateMatrix(key): value(weight, scale) for key, weight in dist.items()}


def _cell_bases(draw_size: int, n_objects: int) -> list[int]:
    """Digit bases of the one integer code of a flattened state matrix.

    The code is a mixed-radix number whose digit d counts cell
    d + 1 = a * (K+1) + b; M_00 has no digit, since I implies it. No M_ab
    exceeds min(I, K // max(a, b)), so digit d's base is that plus 1.
    """
    side = draw_size + 1
    return [min(n_objects, draw_size // max(divmod(c, side))) + 1
            for c in range(1, side * side)]


def _merge_codes(
    weights: dict[int, object], draw_size: int, n_objects: int
) -> dict[StateMatrix, object]:
    """Sum weights keyed by matrix codes (_cell_bases) per state.

    Each code is decoded to its flattened matrix, with M_00 = I minus the
    other cells. A matrix and its transpose are one state, so each matrix
    is replaced by its canonical form and the weights landing on one form
    are added in the input's order. Returns {canonical StateMatrix:
    weight} sorted by flattened matrix.
    """
    side = draw_size + 1
    bases = _cell_bases(draw_size, n_objects)
    merged: dict[tuple[int, ...], object] = {}
    for code, weight in weights.items():
        flat = [0]
        for base in bases:
            code, digit = divmod(code, base)
            flat.append(digit)
        flat[0] = n_objects - sum(flat)
        flat = _canonical_flat(tuple(flat), side)
        merged[flat] = merged.get(flat, 0) + weight
    return {StateMatrix(flat): merged[flat] for flat in sorted(merged)}


def _fold(draw_size: int, rows, moves) -> dict[int, object]:
    """Weight of every key a pair of size-K draws reaches, one object at a time.

    Object i becomes one column (a, b) of the pair, a of the K top items and
    b of the K bottom items, weighing u[a] * v[b] for its rows (u, v) in
    `rows`. The orderings of the two draws add multinomial factors, built
    up one object at a time: with `top` and `bottom` items already placed,
    the column also multiplies by C(top + a, a) * C(bottom + b, b). A move
    (a, b, step) places a column (a, b) != (0, 0) and adds step to the
    node's integer key; a (0, 0) column leaves the node as it is. Each
    layer, one per (top, bottom) budgets used, maps key to weight; returns
    the layer at (K, K).
    """
    k = draw_size
    binom = [[math.comb(n, r) for r in range(k + 1)] for n in range(k + 1)]
    layers: dict[tuple[int, int], dict[int, object]] = {(0, 0): {0: 1}}
    for u, v in rows:
        # Visit layers fullest first: every move writes to a layer with a
        # larger top + bottom, already read, so one object adds one column.
        for top, bottom in sorted(layers, key=sum, reverse=True):
            source = layers[top, bottom]
            for a, b, step in moves:
                if top + a > k or bottom + b > k:
                    continue
                factor = binom[top + a][a] * binom[bottom + b][b] * u[a] * v[b]
                if not factor:
                    continue
                target = layers.setdefault((top + a, bottom + b), {})
                for key, weight in source.items():
                    key += step
                    target[key] = target.get(key, 0) + weight * factor
    return layers.get((k, k), {})


def state_distribution(draw_size: int, p, q) -> dict[StateMatrix, object]:
    """Probability of every identity state in one pass over the objects.

    Folds the objects (_fold) with rows p_i^a and q_i^b of the integer
    numerators. Returns the states of nonzero exact probability, keyed by
    canonical matrix with M_00 = len(p) - (nonzero columns), sorted by
    flattened matrix, each value ended by _quotient. Exact, summing to
    exactly 1, when both vectors are exact; floats otherwise.
    """
    p, q = _frequency_pair(p, q)
    k, n_objects = draw_size, len(p)
    _check_sizes(k, n_objects)
    side = k + 1
    value = _quotient(p.exact)
    (p, den_p), (q, den_q) = _numerators(p), _numerators(q)
    # a move (a, b) adds one to the code's digit of cell a * side + b; no
    # partial count passes the finished matrix's, so the digits fit
    places = itertools.accumulate(_cell_bases(k, n_objects), operator.mul, initial=1)
    moves = [(*divmod(c, side), place)
             for c, place in zip(range(1, side * side), places)]
    rows = (([pi**a for a in range(side)], [qi**b for b in range(side)])
            for pi, qi in zip(p, q))
    merged = _merge_codes(_fold(k, rows, moves), k, n_objects)
    scale = den_p**k * den_q**k
    return {state: value(weight, scale) for state, weight in merged.items()}


def _code_words(bases: list[int]) -> list[tuple[np.ndarray, int, int]]:
    """Split a matrix code (_cell_bases) into int64 words, most significant first.

    Each word is (weight of each cell within the word, the word's radix,
    place of its lowest digit), a digit's place being the product of the
    bases below it. The top word codes below 2^63. Every lower word is
    appended to the index of a distinct code among at most SAMPLE_CHUNK
    rows, so its radix is at most (2^63 - 1) // SAMPLE_CHUNK.
    """
    import numpy as np

    places = list(itertools.accumulate(bases, operator.mul, initial=1))
    words = []
    high, limit = len(bases), 2**63
    while high:
        low = high
        while low and places[high] // places[low - 1] <= limit:
            low -= 1
        weights = np.zeros(len(bases) + 1, dtype=np.int64)
        weights[low + 1 : high + 1] = [places[d] // places[low] for d in range(low, high)]
        words.append((weights, places[high] // places[low], places[low]))
        high, limit = low, (2**63 - 1) // SAMPLE_CHUNK
    return words


def _count_codes(cells: np.ndarray, words) -> dict[int, int]:
    """Count the matrix codes of a chunk of samples, one row of cells each.

    A row's code is the sum of its cells' weights, one word at a time.
    Before a lower word is appended, the code so far is replaced by its
    index among the distinct codes so far; the counted codes are then
    unwound to the full code, one Python int per distinct matrix.
    """
    import numpy as np

    code = None
    levels = []  # (distinct codes before a word, the word's radix, its place)
    for weights, radix, place in words:
        digits = weights[cells[:, 0]]
        for j in range(1, cells.shape[1]):
            digits += weights[cells[:, j]]
        if code is not None:
            distinct, code = np.unique(code, return_inverse=True)
            levels.append((distinct, radix, place))
            digits += code * radix
        code = digits
    code, counts = np.unique(code, return_counts=True)
    full = [0] * len(code)
    for distinct, radix, place in reversed(levels):
        code, digits = np.divmod(code, radix)
        full = [f + d * place for f, d in zip(full, digits.tolist())]
        code = distinct[code]
    top_place = words[0][2]
    return {f + c * top_place: n
            for f, c, n in zip(full, code.tolist(), counts.tolist())}


def _packed_counts(draw_size: int, n_objects: int):
    """(pack, cells) for the Monte Carlo sampler's held p block.

    pack(counts) packs each row of n_objects counts 0..K. Each count takes
    the smallest of 1, 2, 4 or 8 bits that holds K, so per = 8, 4, 2 or 1
    counts share a byte, lowest bits first, and the last byte of a row is
    zero-padded; past K = 255 each count takes one item of the smallest
    unsigned type that holds K. cells(packed) gives the rows' cells
    a * (K+1) with one lookup per item: a table maps every item value to
    the per cells of its counts, held as one unsigned integer.
    """
    import numpy as np

    item = np.min_scalar_type(draw_size)
    per = next((n for n in (8, 4, 2) if draw_size < 1 << (8 // n)), 1)
    bits = 8 * item.itemsize // per
    width = -(-n_objects // per) * per

    def pack(counts: np.ndarray) -> np.ndarray:
        padded = np.zeros((len(counts), width), dtype=item)
        padded[:, :n_objects] = counts
        packed = padded[:, ::per].copy()
        for j in range(1, per):
            packed |= padded[:, j::per] << bits * j
        return packed

    shifts = bits * np.arange(per)
    # the largest item holds K in every slot
    values = np.arange((draw_size << shifts).sum() + 1)
    cell = np.min_scalar_type(draw_size * (draw_size + 1))
    table = ((values[:, None] >> shifts) & (1 << bits) - 1) * (draw_size + 1)
    table = table.astype(cell).view(f"u{per * cell.itemsize}")[:, 0]

    def cells(packed: np.ndarray) -> np.ndarray:
        return table[packed].view(cell)[:, :n_objects]

    return pack, cells


def monte_carlo_state_distribution(
    draw_size: int, p, q, n_samples: int, seed: int
) -> dict[StateMatrix, Fraction]:
    """Empirical state frequencies from seeded sampling; I is len(p).

    Each sample draws K objects from p and K from q (as multinomial count
    vectors via numpy's PCG64 generator). Object j of a sample is one
    column (a, b) of its pair, the matrix cell a * (K+1) + b, so the
    sample's matrix M is the histogram of its I cells and its code
    (_cell_bases) is the sum of its cells' weights, with no sort. numpy
    counts each distinct code, and _merge_codes decodes each once and
    adds its matrix to its state. Above K = 6 the code passes 2^63 and
    spans several int64 words (_code_words). Frequencies are exact counts
    over n_samples, so they sum to exactly 1; states are sorted by
    flattened matrix. Reproducible for a fixed (seed, numpy version).

    The stream holds every p-draw before every q-draw. So the p block is
    drawn through _chunks and kept only as its chunks of counts a, packed
    several to a byte (_packed_counts); then the q chunks are drawn
    through _chunks in step with them, and each is classified at once
    with the cells a * (K+1) + b of its unpacked p chunk. A sample holds
    ceil(I / c) bytes, with c = 8, 4, 2 or 1 counts a byte at K = 1,
    K <= 3, K <= 15 and K <= 255, and I items of a wider type past
    K = 255: 2 bytes at K=3 I=6 and 8 at K=8 I=16. Memory is that times
    n_samples plus O(SAMPLE_CHUNK), and the result is the one that drawing
    both blocks whole gives.
    """
    import numpy as np

    p, q = _frequency_pair(p, q)
    n_objects = len(p)
    _check_sizes(draw_size, n_objects)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    pf = np.asarray([float(v) for v in p])
    qf = np.asarray([float(v) for v in q])
    pf, qf = pf / pf.sum(), qf / qf.sum()
    words = _code_words(_cell_bases(draw_size, n_objects))
    pack, p_cells = _packed_counts(draw_size, n_objects)
    p_draws = _chunks(lambda m: rng.multinomial(draw_size, pf, size=m), n_samples)
    p_block = [pack(drawn) for drawn in p_draws]
    q_draws = _chunks(lambda m: rng.multinomial(draw_size, qf, size=m), n_samples)
    # matrix code -> samples
    totals: dict[int, int] = {}
    for packed, cells in zip(p_block, q_draws):
        # cells a * (K+1) + b
        cells += p_cells(packed)
        for code, count in _count_codes(cells, words).items():
            totals[code] = totals.get(code, 0) + count
    return {
        state: Fraction(count, n_samples)
        for state, count in _merge_codes(totals, draw_size, n_objects).items()
    }
