"""State enumeration: canonical forms, catalogs, state records."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idstates import (
    DrawVector,
    IdentityState,
    PairMatrix,
    StateMatrix,
    canonicalize,
    dissimilarity,
    enumerate_states,
    state_count,
    state_matrix,
)
from idstates.enumeration import _canonical_flat_keys, merge_transposes

from conftest import canonical_key, compositions, random_draw, stabilizer_oracle


def test_state_matrix_known_cases():
    pair = PairMatrix(DrawVector((2, 0, 0, 0)), DrawVector((1, 1, 0, 0)))
    assert state_matrix(pair).entries == ((2, 1, 0), (0, 0, 0), (0, 1, 0))
    swapped = PairMatrix(DrawVector((1, 1, 0, 0)), DrawVector((2, 0, 0, 0)))
    assert state_matrix(swapped) == state_matrix(pair).transpose()
    triple = PairMatrix(
        DrawVector((3, 0, 0, 0, 0, 0)), DrawVector((3, 0, 0, 0, 0, 0))
    )
    m = state_matrix(triple).entries
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
        assert state_matrix(
            PairMatrix(DrawVector(g1), DrawVector(g2))
        ) == state_matrix(PairMatrix(DrawVector(h1), DrawVector(h2)))


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
            assert s.canonical_matrix == canonicalize(
                state_matrix(s.representative)
            )
            # columns of the representative are sorted, zero columns last
            cols = s.representative.columns
            assert list(cols) == sorted(cols, reverse=True)
            assert s.dissimilarity == dissimilarity(
                s.representative.row1, s.representative.row2
            )
            assert s.n_distinct == sum(col != (0, 0) for col in cols)
            assert s.n_distinct <= min(i, 2 * k)
            assert s.stabilizer_size == stabilizer_oracle(s.representative)
            assert s.row_equiv == (
                sorted(s.representative.row1.counts)
                == sorted(s.representative.row2.counts)
            )
            assert s.row_equal == (
                s.representative.row1 == s.representative.row2
            )
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
        assert s.representative.n_objects == 6
        assert s.canonical_matrix.entries[0][0] == 6 - s.n_distinct


def _full_matrix_set(k):
    """Matrices of every pair of count vectors of K in 2K slots."""
    rows = list(compositions(k, 2 * k))
    # the sorted column list fixes the matrix; fold one pair per list
    pairs = {tuple(sorted(zip(r1, r2))): (r1, r2) for r1 in rows for r2 in rows}
    return {
        state_matrix(PairMatrix(DrawVector(r1), DrawVector(r2)))
        for r1, r2 in pairs.values()
    }


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
    m = StateMatrix([1.0, 0, 0, "1"])
    assert m.flattened == (1, 0, 0, 1) and m.entries == ((1, 0), (0, 1))
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



@st.composite
def flat_weights(draw):
    """(side, int weights keyed by flattened catalog matrices at K <= 4), each
    key given as itself or as its transpose."""
    k = draw(st.integers(1, 4))
    side = k + 1
    weights = {}
    for flat in draw(st.lists(st.sampled_from(_canonical_flat_keys(k)),
                              min_size=1, max_size=30)):
        if draw(st.booleans()):
            flat = tuple(flat[c * side + r] for r in range(side) for c in range(side))
        weights[flat] = weights.get(flat, 0) + draw(st.integers(0, 10**6))
    return side, weights


@given(flat_weights())
def test_merge_transposes_sums_each_matrix_with_its_transpose(case):
    side, weights = case
    merged = merge_transposes(weights, side)
    assert sum(merged.values()) == sum(weights.values())
    keys = [m.flattened for m in merged]
    assert keys == sorted(set(keys))
    for m, weight in merged.items():
        assert isinstance(m, StateMatrix) and len(m.entries) == side
        assert m.flattened <= m.transpose().flattened
        # m and m^T are one key: their weights, and only theirs, land on it
        orbit = {m.flattened, m.transpose().flattened}
        assert weight == sum(w for flat, w in weights.items() if flat in orbit)
