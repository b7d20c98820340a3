"""State probabilities: closed form, oracles, and numeric modes."""

import inspect
import itertools
import math
import random
import time
import tracemalloc
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idstates
from idstates import (
    DrawVector,
    FrequencyVector,
    IdentityState,
    PairMatrix,
    StateMatrix,
    StateProbability,
    brute_force_state_distribution,
    comparison_report,
    enumerate_states,
    expected_dissimilarity,
    monte_carlo_state_distribution,
    state_count,
    state_distribution,
    state_probability,
)
from idstates import probability
from idstates.probability import multinomial
from idstates.enumeration import _canonical_flat_keys, canonicalize, state_matrix

from conftest import (
    canonical_key,
    compositions,
    find_state,
    random_draw,
    random_rational_vector,
    stabilizer_oracle,
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


def state_of(row1, row2):
    return IdentityState(canonical_key(row1, row2))


def test_row_signature_examples():
    # row_equiv holds when the rows have the same value histogram (row
    # signature): one row is a position permutation of the other
    assert not state_of((2, 0, 0, 0), (1, 1, 0, 0)).row_equiv
    assert state_of((2, 0, 0, 0), (0, 0, 2, 0)).row_equiv
    assert state_of((1, 1, 0, 0), (0, 1, 0, 1)).row_equiv
    assert not state_of((2, 1, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)).row_equiv
    equiv_not_symmetric = state_of((2, 1, 0), (1, 0, 2))
    assert equiv_not_symmetric.row_equiv and not equiv_not_symmetric.is_symmetric
    rng = random.Random(56)
    for _ in range(100):
        k, n = rng.randrange(1, 4), rng.randrange(1, 6)
        a, b = random_draw(rng, k, n), random_draw(rng, k, n)
        assert state_of(a, b).row_equiv == (sorted(a) == sorted(b))


def test_stabilizer_examples():
    for row1, row2, size in [
        ((1, 1, 0, 0), (0, 0, 1, 1), 4),
        ((2, 1, 0), (1, 1, 1), 1),
        ((2, 0), (2, 0), 1),
    ]:
        pair = PairMatrix(DrawVector(row1), DrawVector(row2))
        assert state_of(row1, row2).stabilizer_size == stabilizer_oracle(pair) == size


def test_stabilizer_randomized_against_oracle():
    rng = random.Random(55)
    for _ in range(100):
        k = rng.randrange(1, 4)
        n = rng.randrange(1, 6)
        a = random_draw(rng, k, n)
        b = random_draw(rng, k, n)
        pair = PairMatrix(DrawVector(a), DrawVector(b))
        assert state_of(a, b).stabilizer_size == stabilizer_oracle(pair)


def test_frequency_vector_modes():
    v = FrequencyVector((Fraction(1, 3), Fraction(2, 3)), True)
    assert v.exact and sum(v) == 1
    f = FrequencyVector((0.3, 0.7), False)
    assert not f.exact
    with pytest.raises(ValueError):
        FrequencyVector((0.5, 0.6), False)  # off by 0.1 > 1e-9
    with pytest.raises(ValueError):
        FrequencyVector((Fraction(1, 2), Fraction(1, 3)), True)
    with pytest.raises(ValueError):
        FrequencyVector((Fraction(3, 2), Fraction(-1, 2)), True)
    with pytest.raises(ValueError):
        FrequencyVector((0.8, 0.2), True)  # floats not exact
    with pytest.raises(ValueError):
        FrequencyVector((), True)
    # a NaN entry fails the entry check; it would renormalize to NaNs
    nan = float("nan")
    for values in ((nan, 1.0), (nan,), (0.5, 0.5, nan)):
        with pytest.raises(ValueError,
                           match="frequencies must be finite and nonnegative, got nan"):
            FrequencyVector(values, False)
    drift = FrequencyVector((0.1,) * 10, False)
    assert math.fsum(drift.entries) == 1.0
    assert FrequencyVector.uniform(4).entries == (Fraction(1, 4),) * 4
    with pytest.raises(ValueError, match="need at least one object"):
        FrequencyVector.uniform(0)


def ordered_pair_probability(pair: PairMatrix, p, q):
    """Probability of drawing exactly (row1 from p, row2 from q), in order.

    The per-pair term of orbit_sum_oracle: two multinomial orderings times
    the frequency powers, with no stabilizer or injective sum.
    """
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


def test_oracles_reject_frequencies_of_another_length():
    p = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="cover 2 objects, expected 3"):
        brute_force_state_distribution(2, 3, p, p)
    # Monte Carlo reads I from p, so only q can be of another length
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        monte_carlo_state_distribution(2, p, (Fraction(1, 3),) * 3, n_samples=10, seed=0)


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
    exact = state_probability(four, (HALF, HALF), (HALF, HALF)).value
    assert type(exact) is Fraction and exact == 0
    floats = state_probability(four, (0.5, 0.5), (0.5, 0.5)).value
    assert type(floats) is float and floats == 0.0


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
    for value in (Fraction(3, 2), 1.5):
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            StateProbability(value)


# The float golden inputs of tests/test_cli.py. In float mode every path
# rounds its exact integer sum once, so each value must equal, bit for bit,
# the exhaustive oracle's correctly rounded one on the same binary inputs.
FLOAT_P = (0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05)
FLOAT_Q = (0.125, 0.125, 0.125, 0.125, 0.2, 0.1, 0.2, 0.0)


def test_float_closed_form_bits_are_pinned():
    for k in (3, 4):
        oracle = brute_force_state_distribution(k, 8, FLOAT_P, FLOAT_Q)
        for s in enumerate_states(k, 8):
            got = state_probability(s, FLOAT_P, FLOAT_Q).value
            assert got.hex() == oracle.get(s.canonical_matrix, 0.0).hex(), (k, s)


def test_float_fold_bits_are_pinned():
    for k in (3, 4):
        oracle = brute_force_state_distribution(k, 8, FLOAT_P, FLOAT_Q)
        got = state_distribution(k, FLOAT_P, FLOAT_Q)
        assert {m: v.hex() for m, v in got.items()} == {
            m: v.hex() for m, v in oracle.items()}


def _random_float_case(rng):
    """(K, I, p, q) with K <= 4, I <= 6 and random float entries, zeros allowed."""
    k, i = rng.randint(1, 4), rng.randint(1, 6)

    def vector():
        while True:
            weights = [0.0 if rng.random() < 0.25 else rng.random() for _ in range(i)]
            if any(weights):
                return [w / sum(weights) for w in weights]

    return k, i, vector(), vector()


def test_float_paths_near_the_correctly_rounded_oracle():
    """The exhaustive oracle gives each state's correctly rounded float; the
    fold and the closed form give the same float on 60 seeded random cases."""
    rng = random.Random(0)
    for k, i, p, q in (_random_float_case(rng) for _ in range(60)):
        oracle = brute_force_state_distribution(k, i, p, q)
        assert state_distribution(k, p, q) == oracle, (k, p, q)
        for s in enumerate_states(k, i):
            want = oracle.get(s.canonical_matrix, 0.0)
            assert state_probability(s, p, q).value == want, (k, p, q)


@st.composite
def float_case(draw):
    """(K, I, p, q) with K <= 3, I <= 5 and float entries, zeros allowed,
    p = q at times."""
    k = draw(st.integers(1, 3))
    i = draw(st.integers(1, 5))
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    weights = st.lists(weight, min_size=i, max_size=i).filter(any)
    p = draw(weights)
    q = p if draw(st.booleans()) else draw(weights)
    return k, i, [w / sum(p) for w in p], [w / sum(q) for w in q]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(float_case())
def test_float_paths_equal_the_oracle_bit_for_bit(case):
    k, i, p, q = case
    oracle = brute_force_state_distribution(k, i, p, q)
    assert {m: v.hex() for m, v in state_distribution(k, p, q).items()} == {
        m: v.hex() for m, v in oracle.items()}
    for s in enumerate_states(k, i):
        want = oracle.get(s.canonical_matrix, 0.0)
        assert state_probability(s, p, q).value.hex() == want.hex()


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
    with pytest.raises(ValueError, match=r"I\^\(2K\) = 10\^10 = 10000000000 exceeds"):
        brute_force_state_distribution(5, 10, p, p)


def object_path_oracle(draw_size, n_objects, p, q):
    """The exhaustive oracle with a fold through validated objects per pair.

    Sums the ordered outcomes of each draw onto their count vectors, then
    keys each pair of count vectors on conftest.canonical_key (DrawVector,
    PairMatrix, state_matrix, canonicalize). Sums in Fractions in both
    modes: in float mode each entry, as FrequencyVector holds it after
    renormalization, counts as its exact binary value, and each state's
    sum is rounded to a float once at the end.
    """
    exact = all(isinstance(v, (int, Fraction)) for v in (*p, *q))
    if not exact:
        p, q = ([Fraction(v) for v in FrequencyVector(w, False).entries] for w in (p, q))

    def side_totals(freq):
        acc = {}
        for outcome in itertools.product(range(n_objects), repeat=draw_size):
            prob = Fraction(1)
            for obj in outcome:
                prob *= freq[obj]
            counts = tuple(outcome.count(obj) for obj in range(n_objects))
            acc[counts] = acc.get(counts, 0) + prob
        return acc

    totals2 = side_totals(q)
    dist = {}
    for g1, pr1 in side_totals(p).items():
        for g2, pr2 in totals2.items():
            if pr1 and pr2:
                key = canonical_key(g1, g2)
                dist[key] = dist.get(key, 0) + pr1 * pr2
    return {key: value if exact else float(value) for key, value in dist.items()}


def test_brute_force_builds_one_state_matrix_per_state(monkeypatch):
    built = {StateMatrix: 0, DrawVector: 0, PairMatrix: 0}
    for cls in built:
        def counting(self, *args, original=cls.__init__, cls=cls, **kwargs):
            built[cls] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    rng = random.Random(71)
    p = random_rational_vector(rng, 4, force_zeros=1)
    q = random_rational_vector(rng, 4)
    dist = brute_force_state_distribution(3, 4, p, q)
    assert built == {StateMatrix: len(dist), DrawVector: 0, PairMatrix: 0}


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
        freq = monte_carlo_state_distribution(2, p, p, n_samples=500, seed=seed)
        assert freq == {canonical_key((2, 0, 0), (2, 0, 0)): Fraction(1)}
    u = FrequencyVector.uniform(3)
    freq = monte_carlo_state_distribution(2, u, u, n_samples=777, seed=3)
    assert sum(freq.values()) == 1


def test_monte_carlo_reproducible():
    u = FrequencyVector.uniform(4)
    a = monte_carlo_state_distribution(2, u, u, n_samples=2000, seed=42)
    b = monte_carlo_state_distribution(2, u, u, n_samples=2000, seed=42)
    assert a == b
    c = monte_carlo_state_distribution(2, u, u, n_samples=2000, seed=43)
    assert c != a


def test_monte_carlo_validation():
    u = FrequencyVector.uniform(2)
    with pytest.raises(ValueError):
        monte_carlo_state_distribution(2, u, u, n_samples=0, seed=1)


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
    # K=2, I=48: rows of 48 cells, most of them the cell (0, 0) that the
    # matrix code leaves out
    rng = random.Random(61)
    for k, i, n_samples in [(2, 4, 3000), (3, 6, 3000), (2, 48, 400)]:
        p = random_rational_vector(rng, i, force_zeros=i // 4)
        q = FrequencyVector.uniform(i)
        for seed in (0, 5, 2026):
            got = monte_carlo_state_distribution(k, p, q, n_samples, seed)
            want = unique_rows_reference(k, i, p, q, n_samples, seed)
            assert got == want


def test_monte_carlo_matches_reference_many_pairs():
    # many distinct pairs (K=4, I=8), fewer objects than 2K, one object,
    # and zeros on both sides; at K=7 and 8 the matrix codes span two
    # int64 words, also with fewer objects than K, and at K=10 three. The
    # held p counts take 1 bit at K=1, 2 at K=3, 4 at K=4 and 15, and a
    # byte at K=16 and 17; I=9, 5 and 3 leave the last byte partly used
    rng = random.Random(62)
    for k, i, n_samples in [(4, 8, 2000), (3, 2, 500), (1, 1, 50), (5, 3, 800),
                            (7, 14, 1500), (7, 5, 600), (8, 16, 1500), (8, 6, 600),
                            (10, 20, 1500), (1, 9, 500), (3, 5, 500), (4, 3, 500),
                            (15, 2, 300), (16, 2, 300), (17, 3, 300)]:
        p = random_rational_vector(rng, i, force_zeros=i // 3)
        q = random_rational_vector(rng, i, force_zeros=i // 2)
        for seed in (1, 77):
            got = monte_carlo_state_distribution(k, p, q, n_samples, seed)
            assert got == unique_rows_reference(k, i, p, q, n_samples, seed)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_monte_carlo_same_at_every_chunk_size(monkeypatch, offset):
    # chunk sizes 1 and 7, then n - 1, n and n + 1 for each n
    rng = random.Random(63)
    for k, i, n_samples in [(2, 4, 300), (3, 6, 250), (4, 3, 120)]:
        p = random_rational_vector(rng, i, force_zeros=i // 4)
        q = random_rational_vector(rng, i)
        want = unique_rows_reference(k, i, p, q, n_samples, 9)
        for chunk in ((1, 7) if offset is None else (n_samples + offset,)):
            monkeypatch.setattr(probability, "SAMPLE_CHUNK", chunk)
            got = monte_carlo_state_distribution(k, p, q, n_samples, 9)
            assert got == want, (k, i, chunk)
            assert list(got) == sorted(got, key=lambda m: m.flattened)


def test_monte_carlo_memory_is_the_packed_block_plus_a_chunk():
    # 97 MB at 10^6 samples when every draw was held as int64, 7.6 MB at
    # one byte per object; six 2-bit counts pack into 2 bytes a sample
    n_samples = 10**6
    u = FrequencyVector.uniform(6)
    monte_carlo_state_distribution(3, u, u, 10, 1)  # first calls stay untraced
    tracemalloc.start()
    try:
        monte_carlo_state_distribution(3, u, u, n_samples, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n_samples * 2 + 1.5 * 10**6


def test_monte_carlo_many_pairs_within_time():
    # about 10^5 distinct ordered pairs; 0.2 s measured, 4.9 s when each
    # distinct pair (not each distinct matrix) is canonicalized in Python
    u = FrequencyVector.uniform(12, exact=False)
    start = time.perf_counter()
    freq = monte_carlo_state_distribution(6, u, u, n_samples=10**5, seed=1)
    assert time.perf_counter() - start < 2.0
    assert sum(freq.values()) == 1


def test_numpy_annotations_resolve():
    # numpy is imported for type checkers only, so it is supplied here
    from idstates.expectation import _count_within_exceeds
    from idstates.probability import _count_codes

    for fn in (_count_codes, _count_within_exceeds):
        hints = typing.get_type_hints(fn, localns={"np": np})
        assert np.ndarray in hints.values()


def test_state_distribution_argument_checks():
    with pytest.raises(ValueError):
        state_distribution(2, (HALF, HALF), (HALF, HALF, Fraction(0)))
    with pytest.raises(ValueError):
        state_distribution(0, (HALF, HALF), (HALF, HALF))


@pytest.mark.parametrize("k", [0, -1])
def test_nonpositive_draw_size_is_the_same_error_everywhere(k):
    p = FrequencyVector.uniform(2)
    calls = [
        lambda: enumerate_states(k, 2),
        lambda: state_count(k, 2),
        lambda: state_distribution(k, p, p),
        lambda: brute_force_state_distribution(k, 2, p, p),
        lambda: monte_carlo_state_distribution(k, p, p, n_samples=10, seed=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^draw size must be >= 1, got {k}$"):
            call()


def test_empty_frequency_vectors_rejected():
    state = enumerate_states(1, 1)[0]
    calls = [
        lambda: state_distribution(2, [], []),
        lambda: brute_force_state_distribution(2, 0, [], []),
        lambda: monte_carlo_state_distribution(2, [], [], n_samples=10, seed=1),
        lambda: state_probability(state, [], []),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="frequency vectors must not be empty"):
            call()


def frequency_entry_points():
    """Every public callable taking frequencies p and q, with the other
    arguments it needs: {name: (callable, keyword arguments)}."""
    state = enumerate_states(2, 2)[0]
    others = {"draw_size": 2, "n_objects": 2, "state": state,
              "n_samples": 10, "seed": 1}
    found = {}
    for name in idstates.__all__:
        func = getattr(idstates, name)
        if name == "inner_product" or not callable(func):
            continue  # inner_product is plain vector algebra on any sequences
        params = inspect.signature(func).parameters
        if {"p", "q"} <= params.keys():
            found[name] = func, {n: others[n] for n, param in params.items()
                                 if n not in ("p", "q")
                                 and param.default is param.empty}
    return found


def test_frequency_entry_points_found():
    assert sorted(frequency_entry_points()) == [
        "brute_force_state_distribution", "comparison_report",
        "expected_dissimilarity", "expected_dissimilarity_via_states",
        "monte_carlo_state_distribution", "state_distribution",
        "state_probability",
    ]


@pytest.mark.parametrize("bad, message", [
    # sums to 1, so only the value check can catch it
    ([1.5, -0.5], "must be finite and nonnegative, got -0.5"),
    ([math.nan, 1.0], "must be finite and nonnegative, got nan"),
    ([math.inf, 0.0], "must be finite and nonnegative, got inf"),
    ([Fraction(-1, 2), Fraction(3, 2)], "must be finite and nonnegative, got -0.5"),
    ([1, 1], "sum to 2, expected 1"),
    ([0.3, 0.3], "sum to 0.6, expected 1"),
    ([1e308, 1e308], "sum to inf, expected 1"),
], ids=["negative", "nan", "inf", "negative-fraction", "ones", "short", "overflow"])
def test_frequency_values_rejected(bad, message):
    good = [0.5, 0.5]
    for func, others in frequency_entry_points().values():
        for p, q in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=message):
                func(p=p, q=q, **others)


def test_mixed_modes_compute_in_float():
    # exact p with float q (or the reverse) gives the all-float results,
    # in every expectation of the comparison report too
    rng = random.Random(18)
    k, i = 2, 3
    states = enumerate_states(k, i)

    def results(p, q):
        report = comparison_report(p, q)
        return [
            [(name, getattr(report, name))
             for name in ("e_pq", "e_pp", "e_qq", "avg_within")],
            list(state_distribution(k, p, q).items()),
            list(brute_force_state_distribution(k, i, p, q).items()),
            [(s, state_probability(s, p, q).value) for s in states],
            [(None, expected_dissimilarity(p, q))],
        ]

    for _ in range(5):
        exact = random_rational_vector(rng, i)
        floats = tuple(float(v) for v in random_rational_vector(rng, i))
        as_float = tuple(float(v) for v in exact)
        for p_exact in (exact, FrequencyVector(exact, True)):
            for mixed, float_only in (((p_exact, floats), (as_float, floats)),
                                      ((floats, p_exact), (floats, as_float))):
                got = results(*mixed)
                assert got == results(*float_only)
                assert all(type(v) is float for rows in got for _, v in rows)


def test_state_distribution_beyond_closed_form_reach():
    # K=6 over 12 objects: out of reach of the per-state injective sums
    rng = random.Random(66)
    p = random_rational_vector(rng, 12, force_zeros=3)
    q = random_rational_vector(rng, 12)
    dist = state_distribution(6, p, q)
    assert sum(dist.values()) == 1
    assert set(dist) <= {s.canonical_matrix for s in enumerate_states(6, 12)}


def overlap_distribution(k, p, q):
    """{s: P(s)} for the overlap s = sum_i a_i b_i = K^2 (1 - D).

    The fold of state_distribution with key step a * b instead of the
    matrix code, on the integer numerators of exact p and q.
    """
    den_p = math.lcm(*(v.denominator for v in p))
    den_q = math.lcm(*(v.denominator for v in q))
    rows = [([int(pi * den_p) ** a for a in range(k + 1)],
             [int(qi * den_q) ** b for b in range(k + 1)]) for pi, qi in zip(p, q)]
    moves = [(a, b, a * b) for a in range(k + 1) for b in range(k + 1) if a or b]
    scale = den_p**k * den_q**k
    return {s: Fraction(w, scale)
            for s, w in probability._fold(k, rows, moves).items()}


def overlap_case(k, i):
    """Random exact p != q over I objects, each with a zero in its own place
    and two nonzero entries, with <p, q> > 0."""
    rng = random.Random(100 * k + i)
    while True:
        p = random_rational_vector(rng, i, force_zeros=1)
        q = random_rational_vector(rng, i, force_zeros=1)[::-1]
        spread = all(sum(map(bool, v)) >= 2 for v in (p, q))
        if p != q and spread and any(pi * qi for pi, qi in zip(p, q)):
            return p, q


OVERLAP_CASES = [(2, 3), (3, 4), (4, 5), (6, 7)]


@pytest.mark.parametrize("k, i", OVERLAP_CASES)
def test_overlap_fold_is_the_dissimilarity_marginal(k, i):
    p, q = overlap_case(k, i)
    dist = state_distribution(k, p, q)
    marginal = {}
    for state in enumerate_states(k, i):
        if value := dist.get(state.canonical_matrix, 0):
            s = k * k - state.dissimilarity.numerator  # over K^2, unreduced
            marginal[s] = marginal.get(s, 0) + value
    assert overlap_distribution(k, p, q) == marginal


@pytest.mark.parametrize("k, i", OVERLAP_CASES + [(10, 20)])
def test_overlap_fold_moments_are_exact(k, i):
    # D = 1 - s / K^2 with s = sum_i a_i b_i for independent multinomial
    # counts a ~ (K, p) and b ~ (K, q): E[D] = 1 - <p, q>, and Var[D]
    # follows from E[a_i a_j] = K (K - 1) p_i p_j + [i = j] K p_i
    p, q = overlap_case(k, i)
    dist = {1 - Fraction(s, k * k): w for s, w in overlap_distribution(k, p, q).items()}
    pq = sum(pi * qi for pi, qi in zip(p, q))
    mixed = sum(pi * qi * (pi + qi) for pi, qi in zip(p, q))
    mean = sum(d * w for d, w in dist.items())
    assert sum(dist.values()) == 1
    assert mean == 1 - pq
    assert sum(d * d * w for d, w in dist.items()) - mean**2 == (
        ((1 - 2 * k) * pq**2 + (k - 1) * mixed + pq) / k**2)


@st.composite
def rational_case(draw, max_objects=5):
    """(K, I, p, q) with K <= 3, I <= max_objects, zeros allowed, p = q at times."""
    k = draw(st.integers(1, 3))
    i = draw(st.integers(1, max_objects))
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


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rational_case(max_objects=4), st.booleans())
# in floats, summing rounded per-pair products gives ...556 for the state
# of one shared object; the exact sum rounds once to ...555
@example((1, 3, (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
          (Fraction(0), Fraction(1, 3), Fraction(2, 3))), True)
def test_brute_force_matches_object_path(case, floats):
    k, i, p, q = case
    if floats:
        p, q = [float(v) for v in p], [float(v) for v in q]
    got = brute_force_state_distribution(k, i, p, q)
    want = object_path_oracle(k, i, p, q)
    # same keys, values and value types, in the same order
    assert [(m, v, type(v)) for m, v in got.items()] == [
        (m, v, type(v)) for m, v in want.items()]



def uniform_formula(k, i):
    """P(M) for p = q uniform over I objects, on each catalog key:

        (2 - [M = M^T]) * I! / prod M_ab! * K!^2 / prod (a! b!)^M_ab / I^(2K)

    with M_00 in the first product. The first two factors count the
    labelings of the columns and the orderings of both draws; a state that
    is not its own transpose also holds its transpose's pairs. Reaches past
    the exhaustive oracle and shares no code with _fold."""
    side = k + 1
    f = math.factorial
    out = {}
    for flat in _canonical_flat_keys(k, i):
        labelings = orderings = 1
        for cell, count in enumerate(flat):
            a, b = divmod(cell, side)
            labelings *= f(count)
            orderings *= (f(a) * f(b)) ** count
        symmetric = all(flat[a * side + b] == flat[b * side + a]
                        for a in range(side) for b in range(a))
        out[StateMatrix(flat)] = Fraction(
            (2 - symmetric) * (f(i) // labelings) * (f(k) ** 2 // orderings),
            i ** (2 * k))
    return out


@pytest.mark.parametrize("k, i", [(3, 4), (3, 6), (4, 3), (6, 12), (8, 16)])
def test_uniform_distribution_is_the_formula(k, i):
    want = uniform_formula(k, i)
    assert state_distribution(k, [Fraction(1, i)] * i, [Fraction(1, i)] * i) == want
    if i in (4, 16):  # 1/I is exact in binary: float mode rounds the formula once
        got = state_distribution(k, [1 / i] * i, [1 / i] * i)
        assert {m: v.hex() for m, v in got.items()} == {
            m: float(v).hex() for m, v in want.items()}
