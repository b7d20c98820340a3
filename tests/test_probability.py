"""State probabilities: closed form, oracles, and numeric modes."""

import itertools
import math
import random
import time
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idstates import (
    DrawVector,
    FrequencyVector,
    PairMatrix,
    brute_force_state_distribution,
    enumerate_states,
    monte_carlo_state_distribution,
    multinomial,
    ordered_pair_probability,
    row_signature,
    stabilizer_size,
    state_distribution,
    state_probability,
)
from idstates.enumeration import canonicalize, state_matrix

from conftest import (
    canonical_key,
    compositions,
    find_state,
    random_draw,
    random_rational_vector,
)

HALF = Fraction(1, 2)


def distinct_orderings(parts):
    """Oracle for multinomial: count distinct words with given letter counts."""
    word = []
    for letter, count in enumerate(parts):
        word.extend([letter] * count)
    return len(set(itertools.permutations(word)))


def test_multinomial_examples():
    assert multinomial(2, [1, 1]) == 2 == distinct_orderings([1, 1])
    assert multinomial(3, [2, 1]) == 3 == distinct_orderings([2, 1])
    assert multinomial(6, [2, 2, 1, 1]) == 180 == distinct_orderings([2, 2, 1, 1])
    assert multinomial(3, [3]) == 1


def test_multinomial_validation():
    with pytest.raises(ValueError):
        multinomial(3, [2, 2])
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])


def test_row_signature_examples():
    assert row_signature(DrawVector((2, 0, 0, 0))) == (3, 0, 1)
    assert row_signature(DrawVector((1, 1, 0, 0))) == (2, 2, 0)
    assert row_signature(DrawVector((2, 1, 0, 0, 0, 0))) == (4, 1, 1, 0)


def stabilizer_oracle(pair):
    """Count column permutations (of nonzero columns) fixing the pair."""
    cols = [c for c in pair.columns if c != (0, 0)]
    return sum(
        1
        for perm in itertools.permutations(range(len(cols)))
        if [cols[j] for j in perm] == cols
    )


def test_stabilizer_examples():
    pair = PairMatrix(DrawVector((1, 1, 0, 0)), DrawVector((0, 0, 1, 1)))
    assert stabilizer_size(pair) == stabilizer_oracle(pair) == 4
    distinct = PairMatrix(DrawVector((2, 1, 0)), DrawVector((1, 1, 1)))
    assert stabilizer_size(distinct) == stabilizer_oracle(distinct) == 1
    single = PairMatrix(DrawVector((2, 0)), DrawVector((2, 0)))
    assert stabilizer_size(single) == stabilizer_oracle(single) == 1


def test_stabilizer_randomized_against_oracle():
    rng = random.Random(55)
    for _ in range(100):
        k = rng.randrange(1, 4)
        n = rng.randrange(1, 6)
        a = random_draw(rng, k, n)
        b = random_draw(rng, k, n)
        pair = PairMatrix(DrawVector(a), DrawVector(b))
        assert stabilizer_size(pair) == stabilizer_oracle(pair)


def test_frequency_vector_modes():
    v = FrequencyVector.from_values((Fraction(1, 3), Fraction(2, 3)))
    assert v.exact and sum(v) == 1
    f = FrequencyVector.from_values((0.3, 0.7))
    assert not f.exact
    with pytest.raises(ValueError):
        FrequencyVector.from_values((0.5, 0.6))  # off by 0.1 > 1e-9
    with pytest.raises(ValueError):
        FrequencyVector.from_values((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        FrequencyVector.from_values((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        FrequencyVector.from_values((0.8, 0.2), mode="rational")  # floats not exact
    with pytest.raises(ValueError):
        FrequencyVector.from_values(())
    drift = FrequencyVector.from_values((0.1,) * 10)
    assert math.fsum(drift.entries) == 1.0
    assert FrequencyVector.uniform(4).entries == (Fraction(1, 4),) * 4


def test_ordered_pair_probability_certain():
    pair = PairMatrix(DrawVector((2, 0)), DrawVector((2, 0)))
    assert ordered_pair_probability(pair, (1, 0), (1, 0)) == 1


def test_ordered_pair_probability_against_outcome_enumeration():
    # oracle: iterate the 16 ordered outcome pairs for K=2, I=2
    p = q = (HALF, HALF)
    pair = PairMatrix(DrawVector((1, 1)), DrawVector((2, 0)))
    want = Fraction(0)
    for x1 in itertools.product(range(2), repeat=2):
        for x2 in itertools.product(range(2), repeat=2):
            g1 = (x1.count(0), x1.count(1))
            g2 = (x2.count(0), x2.count(1))
            if (g1, g2) == ((1, 1), (2, 0)):
                prob = Fraction(1)
                for obj in x1:
                    prob *= p[obj]
                for obj in x2:
                    prob *= q[obj]
                want += prob
    assert want == Fraction(1, 8)
    assert ordered_pair_probability(pair, p, q) == Fraction(1, 8)


def test_ordered_pair_probabilities_total_one():
    p = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    q = (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    total = Fraction(0)
    for g1 in compositions(2, 3):
        for g2 in compositions(2, 3):
            pair = PairMatrix(DrawVector(g1), DrawVector(g2))
            total += ordered_pair_probability(pair, p, q)
    assert total == 1


def test_ordered_pair_probability_length_mismatch():
    pair = PairMatrix(DrawVector((2, 0)), DrawVector((2, 0)))
    with pytest.raises(ValueError):
        ordered_pair_probability(pair, (1, 0, 0), (1, 0, 0))


def test_state_probability_heterozygous_pair_uniform():
    states = enumerate_states(2, 2)
    state = find_state(states, (1, 1), (1, 1))
    got = state_probability(state, (HALF, HALF), (HALF, HALF)).value
    assert got == Fraction(1, 4)
    oracle = brute_force_state_distribution(2, 2, (HALF, HALF), (HALF, HALF))
    assert oracle[state.canonical_matrix] == Fraction(1, 4)


def test_state_probability_point_mass():
    states = enumerate_states(2, 4)
    e1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for state in states:
        want = Fraction(1) if state.row_equal and state.n_distinct == 1 else Fraction(0)
        assert state_probability(state, e1, e1).value == want


def test_state_probability_unequal_homozygotes():
    # pair of single-kind draws of different kinds: p1^2 q2^2 + p2^2 q1^2
    p = (Fraction(4, 5), Fraction(1, 5))
    q = (Fraction(9, 10), Fraction(1, 10))
    states = enumerate_states(2, 2)
    state = find_state(states, (2, 0), (0, 2))
    got = state_probability(state, p, q).value
    assert got == Fraction(97, 2500)  # 0.0064 + 0.0324
    assert abs(float(got) - 0.0388) < 1e-12
    fstate = state_probability(state, (0.8, 0.2), (0.9, 0.1)).value
    assert abs(fstate - 0.0388) < 1e-12


def test_state_probabilities_sum_to_one():
    rng = random.Random(99)
    # includes padded catalogs (object count beyond twice the draw size)
    for k, i in [(2, 2), (2, 4), (3, 3), (3, 5), (4, 3), (4, 6), (1, 3), (2, 6)]:
        p = random_rational_vector(rng, i)
        q = random_rational_vector(rng, i)
        states = enumerate_states(k, i)
        assert sum(state_probability(s, p, q).value for s in states) == 1


def test_state_distribution_same_population_matches_closed_form():
    rng = random.Random(123)
    for k, i in [(2, 4), (3, 4)]:
        states = enumerate_states(k, i)
        for vec in [
            random_rational_vector(rng, i),
            random_rational_vector(rng, i, force_zeros=2),
            FrequencyVector.uniform(i).entries,
        ]:
            dist = state_distribution(k, vec, vec)
            for s in states:
                assert (
                    dist.get(s.canonical_matrix, 0)
                    == state_probability(s, vec, vec).value
                )


def test_state_distribution_same_population_mixed_pair_example():
    # single-kind vs two-kind pair under a uniform pair of frequencies:
    # outcome enumeration over the 16 ordered pairs gives 1/2
    oracle = brute_force_state_distribution(2, 2, (HALF, HALF), (HALF, HALF))
    key = canonical_key((2, 0), (1, 1))
    assert oracle[key] == Fraction(1, 2)
    state = find_state(enumerate_states(2, 2), (2, 0), (1, 1))
    dist = state_distribution(2, (HALF, HALF), (HALF, HALF))
    assert dist[state.canonical_matrix] == Fraction(1, 2)


def test_state_probability_empty_support_is_zero():
    states = enumerate_states(2, 4)
    p = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
    dist = state_distribution(2, p, p)
    for s in states:
        if s.n_distinct > 2:
            assert state_probability(s, p, p).value == 0
            assert s.canonical_matrix not in dist
    # shorter frequency vectors than the catalog's object count: empty sum
    four = find_state(states, (1, 1, 0, 0), (0, 0, 1, 1))
    assert state_probability(four, (HALF, HALF), (HALF, HALF)).value == 0


def test_state_probability_joint_support_bound():
    # supports {0,1} and {1,2} jointly cover 3 objects; 4-object states die
    p = (HALF, HALF, Fraction(0), Fraction(0))
    q = (Fraction(0), HALF, HALF, Fraction(0))
    for s in enumerate_states(2, 4):
        if s.n_distinct > 3:
            assert state_probability(s, p, q).value == 0
    # and the whole distribution still sums to 1
    assert sum(
        state_probability(s, p, q).value for s in enumerate_states(2, 4)
    ) == 1


def test_state_probability_argument_checks():
    state = enumerate_states(2, 4)[0]
    with pytest.raises(ValueError):
        state_probability(state, (HALF, HALF), (HALF, HALF, Fraction(0)))


def test_state_probability_symmetric_in_populations():
    rng = random.Random(7)
    p = random_rational_vector(rng, 4)
    q = random_rational_vector(rng, 4, force_zeros=1)
    for s in enumerate_states(2, 4):
        assert state_probability(s, p, q).value == state_probability(s, q, p).value


def test_state_probability_relabel_invariant():
    rng = random.Random(8)
    p = random_rational_vector(rng, 4)
    q = random_rational_vector(rng, 4)
    perm = [2, 0, 3, 1]
    pp = tuple(p[j] for j in perm)
    qp = tuple(q[j] for j in perm)
    for s in enumerate_states(3, 4):
        assert state_probability(s, p, q).value == state_probability(s, pp, qp).value


def test_brute_force_two_singleton_draws():
    dist = brute_force_state_distribution(1, 2, (HALF, HALF), (HALF, HALF))
    same = canonical_key((1, 0), (1, 0))
    diff = canonical_key((1, 0), (0, 1))
    assert dist == {same: HALF, diff: HALF}


def test_brute_force_total_and_degenerate():
    p = (Fraction(1), Fraction(0))
    dist = brute_force_state_distribution(3, 2, p, p)
    assert dist == {canonical_key((3, 0), (3, 0)): Fraction(1)}
    rng = random.Random(4)
    q = random_rational_vector(rng, 3)
    r = random_rational_vector(rng, 3)
    dist = brute_force_state_distribution(2, 3, q, r)
    assert sum(dist.values()) == 1


def test_brute_force_guard():
    p = FrequencyVector.uniform(10).entries
    with pytest.raises(ValueError):
        brute_force_state_distribution(5, 10, p, p)


def test_brute_force_matches_closed_form():
    rng = random.Random(31)
    p = random_rational_vector(rng, 4)
    q = random_rational_vector(rng, 4)
    states = enumerate_states(2, 4)
    dist = brute_force_state_distribution(2, 4, p, q)
    for s in states:
        want = dist.get(s.canonical_matrix, Fraction(0))
        assert state_probability(s, p, q).value == want


def orbit_sum_oracle(draw_size, n_objects, p, q):
    """Second oracle: add up ordered-pair probabilities over each class."""
    dist = {}
    for g1 in compositions(draw_size, n_objects):
        for g2 in compositions(draw_size, n_objects):
            pair = PairMatrix(DrawVector(g1), DrawVector(g2))
            key = canonical_key(g1, g2)
            dist[key] = dist.get(key, Fraction(0)) + ordered_pair_probability(
                pair, p, q
            )
    return dist


def test_orbit_sum_matches_closed_form():
    # independent of stabilizers and injective sums: pure multinomial route
    rng = random.Random(47)
    for k, i in [(2, 4), (3, 4), (2, 6)]:
        p = random_rational_vector(rng, i)
        q = random_rational_vector(rng, i, force_zeros=1)
        dist = orbit_sum_oracle(k, i, p, q)
        for s in enumerate_states(k, i):
            want = dist.get(s.canonical_matrix, Fraction(0))
            assert state_probability(s, p, q).value == want


def injective_sum(n_objects, arity, term):
    return sum(
        term(idx) for idx in itertools.permutations(range(n_objects), arity)
    )


# published probability column for the seven size-2 states, as functions
# of (p, q);  keyed by a pair realizing each state
SIZE2_PROBABILITY_COLUMN = [
    ((2, 0, 0, 0), (2, 0, 0, 0),
     lambda p, q: sum(p[i] ** 2 * q[i] ** 2 for i in range(len(p)))),
    ((2, 0, 0, 0), (1, 1, 0, 0),
     lambda p, q: 2 * injective_sum(
         len(p), 2,
         lambda t: p[t[0]] ** 2 * q[t[0]] * q[t[1]]
         + p[t[0]] * p[t[1]] * q[t[0]] ** 2)),
    ((2, 0, 0, 0), (0, 2, 0, 0),
     lambda p, q: injective_sum(
         len(p), 2, lambda t: p[t[0]] ** 2 * q[t[1]] ** 2)),
    ((2, 0, 0, 0), (0, 1, 1, 0),
     lambda p, q: injective_sum(
         len(p), 3,
         lambda t: p[t[0]] ** 2 * q[t[1]] * q[t[2]]
         + p[t[1]] * p[t[2]] * q[t[0]] ** 2)),
    ((1, 1, 0, 0), (1, 1, 0, 0),
     lambda p, q: 2 * injective_sum(
         len(p), 2, lambda t: p[t[0]] * p[t[1]] * q[t[0]] * q[t[1]])),
    ((1, 1, 0, 0), (1, 0, 1, 0),
     lambda p, q: 4 * injective_sum(
         len(p), 3, lambda t: p[t[0]] * p[t[1]] * q[t[0]] * q[t[2]])),
    ((1, 1, 0, 0), (0, 0, 1, 1),
     lambda p, q: injective_sum(
         len(p), 4, lambda t: p[t[0]] * p[t[1]] * q[t[2]] * q[t[3]])),
]


def test_size2_probability_column():
    rng = random.Random(53)
    states = enumerate_states(2, 4)
    vectors = [
        (random_rational_vector(rng, 4), random_rational_vector(rng, 4)),
        (random_rational_vector(rng, 4, force_zeros=2),
         random_rational_vector(rng, 4)),
        ((Fraction(1, 4),) * 4, (Fraction(1, 4),) * 4),
    ]
    for p, q in vectors:
        for row1, row2, column_formula in SIZE2_PROBABILITY_COLUMN:
            state = find_state(states, row1, row2)
            assert state_probability(state, p, q).value == column_formula(p, q)


def test_monte_carlo_degenerate_and_total():
    p = (Fraction(1), Fraction(0), Fraction(0))
    for seed in (0, 9):
        freq = monte_carlo_state_distribution(2, 3, p, p, n_samples=500, seed=seed)
        assert freq == {canonical_key((2, 0, 0), (2, 0, 0)): Fraction(1)}
    u = FrequencyVector.uniform(3)
    freq = monte_carlo_state_distribution(2, 3, u, u, n_samples=777, seed=3)
    assert sum(freq.values()) == 1


def test_monte_carlo_reproducible():
    u = FrequencyVector.uniform(4)
    a = monte_carlo_state_distribution(2, 4, u, u, n_samples=2000, seed=42)
    b = monte_carlo_state_distribution(2, 4, u, u, n_samples=2000, seed=42)
    assert a == b
    c = monte_carlo_state_distribution(2, 4, u, u, n_samples=2000, seed=43)
    assert c != a


def test_monte_carlo_validation():
    u = FrequencyVector.uniform(2)
    with pytest.raises(ValueError):
        monte_carlo_state_distribution(2, 2, u, u, n_samples=0, seed=1)


def unique_rows_reference(draw_size, n_objects, p, q, n_samples, seed):
    """Monte Carlo classifier by np.unique over whole sample rows.

    Draws exactly as monte_carlo_state_distribution does, then counts each
    distinct (draw1, draw2) row of the stacked samples.
    """
    rng = np.random.default_rng(seed)
    pf = np.asarray([float(v) for v in p])
    qf = np.asarray([float(v) for v in q])
    draws1 = rng.multinomial(draw_size, pf / pf.sum(), size=n_samples)
    draws2 = rng.multinomial(draw_size, qf / qf.sum(), size=n_samples)
    rows, counts = np.unique(np.hstack([draws1, draws2]), axis=0, return_counts=True)
    freq = {}
    for row, count in zip(rows, counts):
        g1 = tuple(int(v) for v in row[:n_objects])
        g2 = tuple(int(v) for v in row[n_objects:])
        key = canonicalize(state_matrix(PairMatrix(DrawVector(g1), DrawVector(g2))))
        freq[key] = freq.get(key, Fraction(0)) + Fraction(int(count), n_samples)
    return freq


def test_monte_carlo_matches_unique_rows_reference():
    # at K=2, I=48 the row codes (radix 3) would pass 2^63, so they are
    # re-indexed partway through each row
    rng = random.Random(61)
    for k, i, n_samples in [(2, 4, 3000), (3, 6, 3000), (2, 48, 400)]:
        p = random_rational_vector(rng, i, force_zeros=i // 4)
        q = FrequencyVector.uniform(i)
        for seed in (0, 5, 2026):
            got = monte_carlo_state_distribution(k, i, p, q, n_samples, seed)
            want = unique_rows_reference(k, i, p, q, n_samples, seed)
            assert got == want


def test_monte_carlo_matches_reference_many_pairs():
    # many distinct pairs (K=4, I=8), fewer objects than 2K, one object,
    # and zeros on both sides
    rng = random.Random(62)
    for k, i, n_samples in [(4, 8, 2000), (3, 2, 500), (1, 1, 50), (5, 3, 800)]:
        p = random_rational_vector(rng, i, force_zeros=i // 3)
        q = random_rational_vector(rng, i, force_zeros=i // 2)
        for seed in (1, 77):
            got = monte_carlo_state_distribution(k, i, p, q, n_samples, seed)
            assert got == unique_rows_reference(k, i, p, q, n_samples, seed)


def test_monte_carlo_many_pairs_within_time():
    # about 10^5 distinct ordered pairs; 0.2 s measured, 4.9 s when each
    # distinct pair (not each distinct matrix) is canonicalized in Python
    u = FrequencyVector.uniform(12, exact=False)
    start = time.perf_counter()
    freq = monte_carlo_state_distribution(6, 12, u, u, n_samples=10**5, seed=1)
    assert time.perf_counter() - start < 2.0
    assert sum(freq.values()) == 1


def test_numpy_annotations_resolve():
    # numpy is imported for type checkers only, so it is supplied here
    from idstates.expectation import within_exceeds_between_fraction
    from idstates.probability import _distinct_rows

    for fn in (_distinct_rows, within_exceeds_between_fraction):
        hints = typing.get_type_hints(fn, localns={"np": np})
        assert np.ndarray in hints.values()


def test_state_distribution_argument_checks():
    with pytest.raises(ValueError):
        state_distribution(2, (HALF, HALF), (HALF, HALF, Fraction(0)))
    with pytest.raises(ValueError):
        state_distribution(0, (HALF, HALF), (HALF, HALF))


def test_state_distribution_beyond_closed_form_reach():
    # K=6 over 12 objects: out of reach of the per-state injective sums
    rng = random.Random(66)
    p = random_rational_vector(rng, 12, force_zeros=3)
    q = random_rational_vector(rng, 12)
    dist = state_distribution(6, p, q)
    assert sum(dist.values()) == 1
    assert set(dist) <= {s.canonical_matrix for s in enumerate_states(6, 12)}


@st.composite
def rational_case(draw):
    """(K, I, p, q) with K <= 3, I <= 5, zero entries allowed, p = q at times."""
    k = draw(st.integers(1, 3))
    i = draw(st.integers(1, 5))
    weights = st.lists(st.integers(0, 6), min_size=i, max_size=i).filter(any)
    p = draw(weights)
    q = p if draw(st.booleans()) else draw(weights)
    return (k, i, tuple(Fraction(w, sum(p)) for w in p),
            tuple(Fraction(w, sum(q)) for w in q))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rational_case())
def test_state_distribution_matches_closed_form_and_oracle(case):
    k, i, p, q = case
    dist = state_distribution(k, p, q)
    closed = {}
    for s in enumerate_states(k, i):
        value = state_probability(s, p, q).value
        if value:
            closed[s.canonical_matrix] = value
    assert dist == closed == brute_force_state_distribution(k, i, p, q)
    assert sum(dist.values()) == 1
    floats = state_distribution(k, [float(v) for v in p], [float(v) for v in q])
    assert floats.keys() == dist.keys()
    for m, value in dist.items():
        assert abs(floats[m] - value) <= 1e-12
