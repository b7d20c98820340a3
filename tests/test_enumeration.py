"""State enumeration: canonical forms, catalogs, state records."""

import random
from itertools import accumulate
from operator import lt, mul

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idstates import (
    DissimilarityValue,
    IdentityState,
    StateMatrix,
    canonicalize,
    dissimilarity,
    enumerate_states,
    state_count,
    state_matrix,
)
from idstates.enumeration import _canonical_flat_keys
from idstates.probability import _cell_bases, _merge_codes

from conftest import canonical_key, compositions, random_draw, stabilizer_oracle


def test_state_matrix_known_cases():
    pair = (2, 0, 0, 0), (1, 1, 0, 0)
    assert state_matrix(*pair).entries == ((2, 1, 0), (0, 0, 0), (0, 1, 0))
    assert state_matrix(*pair[::-1]) == state_matrix(*pair).transpose()
    m = state_matrix((3, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0)).entries
    assert m[0][0] == 5 and m[3][3] == 1


def test_state_matrix_column_permutation_invariant():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randrange(1, 5)
        n = rng.randrange(2, 7)
        g1 = random_draw(rng, k, n)
        g2 = random_draw(rng, k, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h1 = tuple(g1[j] for j in perm)
        h2 = tuple(g2[j] for j in perm)
        assert state_matrix(g1, g2) == state_matrix(h1, h2)


def test_canonicalize_properties():
    m = StateMatrix((2, 1, 0, 0, 0, 0, 0, 1, 0))
    c = canonicalize(m)
    assert canonicalize(c) == c
    assert canonicalize(m.transpose()) == c
    assert c in (m, m.transpose())
    sym = StateMatrix((2, 0, 0, 0, 2, 0, 0, 0, 0))
    assert canonicalize(sym) == sym


def test_canonical_matrices_distinct_for_pairs_of_two():
    states = enumerate_states(2, 4)
    keys = {s.canonical_matrix for s in states}
    assert len(keys) == len(states) == 7


def test_catalog_counts():
    assert state_count(1, 2) == 2
    assert state_count(2, 4) == 7
    assert state_count(3, 6) == 21
    assert state_count(4, 5) == 57


def test_catalog_counts_beyond_paper_grid():
    from idstates import enumeration

    enumeration._canonical_flat_keys.cache_clear()
    try:
        assert state_count(7, 14) == 1579
        assert state_count(8, 16) == 4348
    finally:
        enumeration._canonical_flat_keys.cache_clear()


#: Bits per coefficient of a polynomial in z packed into one int. A
#: coefficient counts matrices: thousands at K = 8, far below 2^64.
Z_BITS = 64


def burnside_object_counts(k):
    """States at draw size k by n distinct objects, n = 0 .. 2k, and
    dissimilarity numerator j, j = 0 .. k^2, as counts[n][j]; enumerating
    nothing.

    A state is a matrix M with both weighted sums k, taken together with
    its transpose; its columns (a, b) != (0, 0) are its distinct objects,
    and their overlap s = sum of a * b gives the dissimilarity
    (k^2 - s) / k^2. Transposing keeps n and s, so Burnside's lemma over
    {identity, transpose} counts the states with n objects and overlap s
    as (N_ns + S_ns) / 2, where N_ns counts the matrices with n objects
    and overlap s and S_ns the symmetric ones: the coefficients of
    x^k y^k t^n z^s in prod 1 / (1 - x^a y^b t z^(ab)) and in
    prod_a 1 / (1 - (xy)^a t z^(a^2))
        * prod_{a<b} 1 / (1 - (xy)^(a+b) t^2 z^(2ab)).
    A polynomial in z is one int, coefficient s in bits s * Z_BITS and up,
    so z^s is a shift and adding ints adds polynomials.
    """
    n_max = 2 * k
    # full[x][y][n]: matrices with weighted sums x and y and n objects
    full = [[[0] * (n_max + 1) for _ in range(k + 1)] for _ in range(k + 1)]
    full[0][0][0] = 1
    for a in range(k + 1):
        for b in range(k + 1):
            if a or b:  # times 1 / (1 - x^a y^b t z^(ab)): one more column (a, b)
                shift = a * b * Z_BITS
                for n in range(1, n_max + 1):
                    for x in range(a, k + 1):
                        for y in range(b, k + 1):
                            full[x][y][n] += full[x - a][y - b][n - 1] << shift
    # sym[x][n]: symmetric matrices with both weighted sums x and n objects;
    # a column (a, a) is one object, a pair (a, b), (b, a) is two
    sym = [[0] * (n_max + 1) for _ in range(k + 1)]
    sym[0][0] = 1
    factors = [(a, 1, a * a) for a in range(1, k + 1)]
    factors += [(a + b, 2, 2 * a * b)
                for b in range(1, k + 1) for a in range(b) if a + b <= k]
    for weight, objects, overlap in factors:
        shift = overlap * Z_BITS
        for n in range(objects, n_max + 1):
            for x in range(weight, k + 1):
                sym[x][n] += sym[x - weight][n - objects] << shift
    mask = (1 << Z_BITS) - 1
    counts = []
    for n in range(n_max + 1):
        both = full[k][k][n] + sym[k][n]
        row = []
        for j in range(k * k + 1):  # overlap k^2 - j
            orbits, rest = divmod(both >> (k * k - j) * Z_BITS & mask, 2)
            assert not rest
            row.append(orbits)
        counts.append(row)
    return counts


def burnside_state_counts(k):
    """State counts at draw size k for I = 1 .. 2k + 1: the states with at
    most I distinct objects."""
    by_objects = [sum(row) for row in burnside_object_counts(k)]
    return [sum(by_objects[: i + 1]) for i in range(1, 2 * k + 2)]


def test_catalog_counts_match_burnside():
    # 30,205 states at K=10, I=20
    _canonical_flat_keys.cache_clear()
    try:
        for k in range(1, 11):
            want = burnside_state_counts(k)
            got = [state_count(k, i) for i in range(1, 2 * k + 2)]
            assert got == want, k
        assert want[19] == 30205
    finally:
        _canonical_flat_keys.cache_clear()


@pytest.mark.parametrize("k, counts", [(12, (49, 733)), (16, (81, 2022))])
def test_small_object_counts_at_high_draw_size_match_burnside(k, counts):
    # a biallelic and a triallelic marker at high ploidy; the I = 2K catalog
    # at K = 16 holds 6,074,353 states, so these must not read it
    want = burnside_state_counts(k)
    assert (want[1], want[2]) == counts
    for i in (2, 3):
        assert len(enumerate_states(k, i)) == want[i - 1]


def test_catalog_is_the_full_catalog_filtered_to_what_fits():
    # the catalog at I is the one at I = 2K cut to the keys whose
    # 2K - M_00 nonzero columns fit in I, with M_00 moved by I - 2K
    for k in range(1, 9):
        full = [s.canonical_matrix.flattened for s in enumerate_states(k, 2 * k)]
        for i in range(1, 2 * k + 2):
            want = [(flat[0] + i - 2 * k,) + flat[1:]
                    for flat in full if flat[0] >= 2 * k - i]
            got = [s.canonical_matrix.flattened for s in enumerate_states(k, i)]
            assert got == want, (k, i)
            assert len(got) == state_count(k, i), (k, i)


def test_catalog_distinct_objects_match_burnside():
    # the N column of the full catalog, I = 2K, per number of objects
    for k in range(1, 10):
        got = [0] * (2 * k + 1)
        for s in enumerate_states(k, 2 * k):
            got[s.n_distinct] += 1
        assert got == [sum(row) for row in burnside_object_counts(k)], k


def test_catalog_dissimilarities_match_burnside():
    # the D column of the full catalog, I = 2K, per dissimilarity numerator
    for k in range(1, 10):
        got = [0] * (k * k + 1)
        for s in enumerate_states(k, 2 * k):
            got[s.dissimilarity.numerator] += 1
        assert got == [sum(column) for column in zip(*burnside_object_counts(k))], k


def test_catalog_rejects_bad_sizes():
    with pytest.raises(ValueError):
        enumerate_states(0, 2)
    with pytest.raises(ValueError):
        state_count(2, 0)


def test_catalog_sorted_and_self_consistent():
    for k, i in [(1, 2), (2, 4), (3, 6), (2, 3), (4, 8), (4, 5)]:
        states = enumerate_states(k, i)
        assert len(states) == state_count(k, i)
        flats = [s.canonical_matrix.flattened for s in states]
        assert flats == sorted(flats)
        for s in states:
            row1, row2 = s.representative
            # the representative is the canonical matrix itself, not its transpose
            assert s.canonical_matrix == state_matrix(row1, row2)
            # columns of the representative are sorted, zero columns last
            cols = list(zip(row1, row2))
            assert cols == sorted(cols, reverse=True)
            assert s.dissimilarity == dissimilarity(row1, row2)
            assert s.n_distinct == sum(col != (0, 0) for col in cols)
            assert s.n_distinct <= min(i, 2 * k)
            assert s.stabilizer_size == stabilizer_oracle(s.representative)
            assert s.row_equiv == (sorted(row1) == sorted(row2))
            assert s.row_equal == (row1 == row2)
            if s.row_equal:
                assert s.row_equiv
            assert s.is_symmetric == (
                s.canonical_matrix == s.canonical_matrix.transpose()
            )


def test_n_distinct_examples():
    def n_distinct(row1, row2):
        return IdentityState(canonical_key(row1, row2)).n_distinct

    assert n_distinct((2, 0, 0, 0), (1, 1, 0, 0)) == 2
    assert n_distinct((1, 1, 0, 0), (0, 0, 1, 1)) == 4
    assert n_distinct((3, 0), (3, 0)) == 1


def test_count_monotone_and_plateau():
    for k in range(1, 5):
        counts = [state_count(k, i) for i in range(1, 2 * k + 4)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        plateau = counts[2 * k - 1]
        assert all(c == plateau for c in counts[2 * k - 1 :])
        assert state_count(k, 1) == 1


def test_padding_beyond_plateau_keeps_catalog():
    wide = enumerate_states(2, 6)
    base = enumerate_states(2, 4)
    assert len(wide) == len(base) == 7
    assert sorted(s.dissimilarity.value for s in wide) == sorted(
        s.dissimilarity.value for s in base
    )
    for s in wide:
        assert list(map(len, s.representative)) == [6, 6]
        assert s.canonical_matrix.entries[0][0] == 6 - s.n_distinct


def _full_matrix_set(k):
    """Matrices of every pair of count vectors of K in 2K slots."""
    rows = list(compositions(k, 2 * k))
    # the sorted column list fixes the matrix; fold one pair per list
    pairs = {tuple(sorted(zip(r1, r2))): (r1, r2) for r1 in rows for r2 in rows}
    return {state_matrix(r1, r2) for r1, r2 in pairs.values()}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reduction_matches_unreduced_enumeration(k):
    full = _full_matrix_set(k)
    canonical = {canonicalize(m) for m in full}
    states = enumerate_states(k, 2 * k)
    assert canonical == {s.canonical_matrix for s in states}
    # symmetric + 2 * asymmetric recovers the pre-quotient matrix count
    n_sym = sum(1 for s in states if s.is_symmetric)
    n_asym = len(states) - n_sym
    assert n_sym + 2 * n_asym == len(full)


def test_group_action_invariance_randomized():
    rng = random.Random(77)
    for k in (2, 3):
        for _ in range(200):
            n = rng.randrange(2, 7)
            g1 = random_draw(rng, k, n)
            g2 = random_draw(rng, k, n)
            perm = list(range(n))
            rng.shuffle(perm)
            swap = rng.randrange(2)
            h1 = tuple(g1[j] for j in perm)
            h2 = tuple(g2[j] for j in perm)
            if swap:
                h1, h2 = h2, h1
            assert canonical_key(g1, g2) == canonical_key(h1, h2)


def test_catalog_classifies_every_pair():
    # every raw pair lands on exactly one catalog state
    for k, i in [(2, 3), (3, 4)]:
        states = enumerate_states(k, i)
        keys = {s.canonical_matrix for s in states}
        draws = list(compositions(k, i))
        for g1 in draws:
            for g2 in draws:
                assert canonical_key(g1, g2) in keys


def test_state_from_matrix_round_trip():
    for k, i in [(2, 4), (3, 6), (1, 2)]:
        for s in enumerate_states(k, i):
            assert IdentityState(s.canonical_matrix) == s


def _plain_fields(s):
    """The eight fields of a record as plain values, the representative as
    its two rows and the dissimilarity as numerator and denominator."""
    return (
        s.canonical_matrix.flattened,
        *s.representative,
        (s.dissimilarity.numerator, s.dissimilarity.denominator),
        s.n_distinct,
        s.is_symmetric,
        s.stabilizer_size,
        s.row_equiv,
        s.row_equal,
    )


def test_catalog_records_match_the_validating_constructor():
    # enumerate_states hands its keys to IdentityState without StateMatrix's
    # checks; each record must be what the same constructor builds from a
    # checked matrix, and its derived values must pass their own checks
    for k in range(1, 8):
        for i in range(1, 2 * k + 2):
            for s in enumerate_states(k, i):
                got = _plain_fields(s)
                want = _plain_fields(IdentityState(StateMatrix(s.canonical_matrix.flattened)))
                assert got == want
                assert list(map(type, got)) == list(map(type, want))
                rep = s.representative
                # two tuples of ints, a pair the validating state_matrix takes
                assert type(rep) is tuple and list(map(type, rep)) == [tuple, tuple]
                assert {type(c) for row in rep for c in row} == {int}
                assert state_matrix(*rep) == s.canonical_matrix
                assert s.dissimilarity == DissimilarityValue(*got[3])
                assert type(s) is IdentityState


def test_state_from_matrix_rejects_noncanonical():
    asym = next(
        s for s in enumerate_states(2, 4) if not s.is_symmetric
    )
    with pytest.raises(ValueError):
        IdentityState(asym.canonical_matrix.transpose())


def test_state_matrix_validation():
    mismatch = r"weighted sums \({}, {}\) do not match draw size 1"
    with pytest.raises(ValueError, match=mismatch.format(0, 0)):
        StateMatrix((1, 0, 0, 0))
    # the top sum weights rows, the bottom sum weights columns
    with pytest.raises(ValueError, match=mismatch.format(1, 0)):
        StateMatrix((0, 0, 1, 0))
    # lengths that are not a square: a 2 x 3 grid, a ragged one, an empty one
    with pytest.raises(ValueError, match="square with side >= 2"):
        StateMatrix((1, 0, 0, 0, 1, 0))
    with pytest.raises(ValueError, match="square with side >= 2"):
        StateMatrix((1, 0, 0))
    with pytest.raises(ValueError, match="square with side >= 2"):
        StateMatrix(())
    with pytest.raises(ValueError, match="square with side >= 2"):
        StateMatrix((1,))
    with pytest.raises(ValueError, match="nonnegative"):
        StateMatrix((3, -1, 1, 0, 0, 0, 1, 0, 0))
    # entries are integers, never truncated: 2.9 would read as a K=2 matrix
    # with two (1, 1) columns
    for flat in ((0, 0, 0, 0, 2.9, 0, 0, 0, 0), [1.0, 0, 0, 1], (1, 0, 0, "1")):
        with pytest.raises(ValueError, match="state matrix entries must be integers"):
            StateMatrix(flat)
    m = StateMatrix([True, 0, np.int64(0), 1])
    assert m.flattened == (1, 0, 0, 1) and m.entries == ((1, 0), (0, 1))
    assert set(map(type, m.flattened)) == {int}
    assert m == StateMatrix((1, 0, 0, 1)) and hash(m) == hash(StateMatrix((1, 0, 0, 1)))


def test_catalog_matrices_match_a_rows_reference():
    """Each catalog matrix for K <= 6, I = K..2K, against rows built in the
    test: the flattening round-trips, entries are its rows, and the transpose,
    symmetry and row-sum flags agree with zip(*rows)."""
    for k in range(1, 7):
        for i in range(k, 2 * k + 1):
            for state in enumerate_states(k, i):
                m = state.canonical_matrix
                flat = m.flattened
                assert StateMatrix(flat) == m
                assert tuple(v for row in m.entries for v in row) == flat
                rows = tuple(flat[r * (k + 1) : (r + 1) * (k + 1)] for r in range(k + 1))
                assert m.entries == rows
                columns = tuple(zip(*rows))
                assert m.transpose().entries == columns
                assert m.transpose().transpose() == m
                assert state.is_symmetric == (rows == columns)
                assert state.row_equiv == (list(map(sum, rows)) == list(map(sum, columns)))
                assert (m.draw_size, m.n_objects) == (k, i)



def _code(flat, bases):
    """A flattened matrix's code: cell c's count is digit c - 1 (_cell_bases)."""
    return sum(map(mul, flat[1:], accumulate(bases, mul, initial=1)))


def test_catalog_matrices_fit_the_cell_bases():
    for k in range(1, 7):
        side = k + 1
        for i in range(1, 2 * k + 2):
            bases = _cell_bases(k, i)
            assert len(bases) == side * side - 1
            for s in enumerate_states(k, i):
                for m in (s.canonical_matrix, s.canonical_matrix.transpose()):
                    assert all(map(lt, m.flattened[1:], bases)), (k, i, m)


@st.composite
def coded_weights(draw):
    """(K, I, int weights keyed by flattened catalog matrices at K <= 4 and
    I <= 2K + 2), each key given as itself or as its transpose."""
    k = draw(st.integers(1, 4))
    i = draw(st.integers(1, 2 * k + 2))
    weights = {}
    for s in draw(st.lists(st.sampled_from(enumerate_states(k, i)),
                           min_size=1, max_size=30)):
        m = s.canonical_matrix.transpose() if draw(st.booleans()) else s.canonical_matrix
        flat = m.flattened
        weights[flat] = weights.get(flat, 0) + draw(st.integers(0, 10**6))
    return k, i, weights


@given(coded_weights())
def test_merge_codes_sums_each_matrix_with_its_transpose(case):
    k, i, weights = case
    bases = _cell_bases(k, i)
    merged = _merge_codes({_code(flat, bases): w for flat, w in weights.items()}, k, i)
    assert sum(merged.values()) == sum(weights.values())
    keys = [m.flattened for m in merged]
    assert keys == sorted(set(keys))
    for m, weight in merged.items():
        assert isinstance(m, StateMatrix) and len(m.entries) == k + 1
        assert m.n_objects == i
        assert m.flattened <= m.transpose().flattened
        # m and m^T are one key: their weights, and only theirs, land on it
        orbit = {m.flattened, m.transpose().flattened}
        assert weight == sum(w for flat, w in weights.items() if flat in orbit)
