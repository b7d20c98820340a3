"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from idstates import (
    FrequencyVector,
    brute_force_state_distribution,
    enumerate_states,
    expected_dissimilarity,
    expected_dissimilarity_via_states,
    inner_product,
    monte_carlo_state_distribution,
    state_count,
    state_probability,
)
from idstates import enumeration

from conftest import canonical_key, compositions, random_rational_vector

FLOAT_SLACK = 1e-12

# published count grid: (draw size K, object count I) -> state count
COUNT_GRID = {
    (1, 1): 1, (2, 1): 1, (3, 1): 1, (4, 1): 1, (5, 1): 1, (6, 1): 1,
    (1, 2): 2, (2, 2): 4, (3, 2): 6, (4, 2): 9, (5, 2): 12, (6, 2): 16,
    (2, 3): 6, (3, 3): 13, (4, 3): 26, (5, 3): 46, (6, 3): 79,
    (3, 4): 18, (4, 4): 45, (5, 4): 96, (6, 4): 200,
    (3, 5): 20, (4, 5): 57, (5, 5): 140, (6, 5): 333,
    (3, 6): 21, (4, 6): 63, (5, 6): 169, (6, 6): 440,
    (4, 7): 65, (5, 7): 183, (6, 7): 506,
    (4, 8): 66, (5, 8): 189, (6, 8): 541,
    (5, 9): 191, (6, 9): 556,
    (5, 10): 192, (6, 10): 562,
    (6, 11): 564,
    (6, 12): 565,
}

# published 7-state catalog for draws of size 2 over 4 objects:
# (row1, row2, matrix, dissimilarity)
CATALOG_K2 = [
    ((2, 0, 0, 0), (2, 0, 0, 0), ((3, 0, 0), (0, 0, 0), (0, 0, 1)), Fraction(0)),
    ((2, 0, 0, 0), (1, 1, 0, 0), ((2, 1, 0), (0, 0, 0), (0, 1, 0)), Fraction(1, 2)),
    ((2, 0, 0, 0), (0, 2, 0, 0), ((2, 0, 1), (0, 0, 0), (1, 0, 0)), Fraction(1)),
    ((2, 0, 0, 0), (0, 1, 1, 0), ((1, 2, 0), (0, 0, 0), (1, 0, 0)), Fraction(1)),
    ((1, 1, 0, 0), (1, 1, 0, 0), ((2, 0, 0), (0, 2, 0), (0, 0, 0)), Fraction(1, 2)),
    ((1, 1, 0, 0), (1, 0, 1, 0), ((1, 1, 0), (1, 1, 0), (0, 0, 0)), Fraction(3, 4)),
    ((1, 1, 0, 0), (0, 0, 1, 1), ((0, 2, 0), (2, 0, 0), (0, 0, 0)), Fraction(1)),
]

# published 21-state catalog for draws of size 3 over 6 objects
CATALOG_K3 = [
    ((3, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0),
     ((5, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)), Fraction(0)),
    ((3, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0),
     ((4, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)), Fraction(1, 3)),
    ((3, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0),
     ((4, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)), Fraction(2, 3)),
    ((3, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0),
     ((3, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)), Fraction(2, 3)),
    ((3, 0, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0),
     ((4, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)), Fraction(1)),
    ((3, 0, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0),
     ((3, 1, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)), Fraction(1)),
    ((3, 0, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0),
     ((2, 3, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)), Fraction(1)),
    ((2, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0),
     ((4, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)), Fraction(4, 9)),
    ((2, 1, 0, 0, 0, 0), (2, 0, 1, 0, 0, 0),
     ((3, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)), Fraction(5, 9)),
    ((2, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0),
     ((4, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 0)), Fraction(5, 9)),
    ((2, 1, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0),
     ((3, 1, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)), Fraction(2, 3)),
    ((2, 1, 0, 0, 0, 0), (1, 0, 2, 0, 0, 0),
     ((3, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)), Fraction(7, 9)),
    ((2, 1, 0, 0, 0, 0), (1, 0, 1, 1, 0, 0),
     ((2, 2, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)), Fraction(7, 9)),
    ((2, 1, 0, 0, 0, 0), (0, 1, 2, 0, 0, 0),
     ((3, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)), Fraction(8, 9)),
    ((2, 1, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0),
     ((2, 2, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)), Fraction(8, 9)),
    ((2, 1, 0, 0, 0, 0), (0, 0, 2, 1, 0, 0),
     ((2, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)), Fraction(1)),
    ((2, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0),
     ((1, 3, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)), Fraction(1)),
    ((1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0),
     ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), Fraction(2, 3)),
    ((1, 1, 1, 0, 0, 0), (1, 1, 0, 1, 0, 0),
     ((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), Fraction(7, 9)),
    ((1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 1, 0),
     ((1, 2, 0, 0), (2, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), Fraction(8, 9)),
    ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1),
     ((0, 3, 0, 0), (3, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), Fraction(1)),
]


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _vector_suite(rng, n):
    """Six exact (p, q) pairs including degenerate and zero-entry vectors."""
    uniform = tuple(Fraction(1, n) for _ in range(n))
    point = (Fraction(1),) + (Fraction(0),) * (n - 1)
    return [
        (uniform, uniform),
        (point, uniform),
        (random_rational_vector(rng, n), random_rational_vector(rng, n)),
        (random_rational_vector(rng, n, force_zeros=1),
         random_rational_vector(rng, n)),
        (random_rational_vector(rng, n, force_zeros=n - 1),
         random_rational_vector(rng, n, force_zeros=1)),
        (random_rational_vector(rng, n), point),
    ]


def _pairs_match_up_to_symmetry(pair_a, pair_b):
    """Equality of pairs up to row swap plus column permutation."""
    a1, a2 = pair_a
    b1, b2 = pair_b
    cols_a = sorted(zip(a1, a2))
    return cols_a in (sorted(zip(b1, b2)), sorted(zip(b2, b1)))


def test_criterion_1_state_counts_and_runtime():
    enumeration._canonical_flat_keys.cache_clear()
    counts = [state_count(k, 2 * k) for k in range(1, 6)]
    start = time.perf_counter()
    counts.append(state_count(6, 12))
    elapsed = time.perf_counter() - start
    ok = counts == [2, 7, 21, 66, 192, 565] and elapsed < 60.0
    _report(1, ok, f"counts K=1..6 {counts}, K=6 fresh in {elapsed:.2f}s")


def test_criterion_2_count_grid():
    mismatches = {
        (k, i): (state_count(k, i), want)
        for (k, i), want in COUNT_GRID.items()
        if state_count(k, i) != want
    }
    _report(2, not mismatches,
            f"all {len(COUNT_GRID)} published grid cells exact"
            if not mismatches else f"mismatches {mismatches}")


def _check_catalog(criterion, draw_size, n_objects, published):
    states = enumerate_states(draw_size, n_objects)
    problems = []
    if len(states) != len(published):
        problems.append(f"{len(states)} states, published {len(published)}")
    by_key = {s.canonical_matrix: s for s in states}
    seen = set()
    for row1, row2, matrix_rows, diss in published:
        key = canonical_key(row1, row2)
        state = by_key.get(key)
        if state is None:
            problems.append(f"missing state for {row1}/{row2}")
            continue
        if key in seen:
            problems.append(f"duplicate class for {row1}/{row2}")
        seen.add(key)
        if canonical_key(*zip(*_matrix_to_columns(matrix_rows))) != key:
            problems.append(f"published matrix disagrees for {row1}/{row2}")
        if state.dissimilarity.value != diss:
            problems.append(
                f"dissimilarity {state.dissimilarity.value} != {diss} "
                f"for {row1}/{row2}"
            )
        rep = state.representative
        if not _pairs_match_up_to_symmetry(
            (rep.row1.counts, rep.row2.counts), (row1, row2)
        ):
            problems.append(f"representative mismatch for {row1}/{row2}")
    if len(seen) != len(published):
        problems.append("published rows do not cover all classes")
    diss_multiset = sorted(s.dissimilarity.value for s in states)
    published_diss = sorted(d for *_, d in published)
    if diss_multiset != published_diss:
        problems.append("dissimilarity multiset differs")
    _report(criterion, not problems,
            f"{len(published)} published rows matched (pairs, matrices, D)"
            if not problems else "; ".join(problems[:4]))


def _matrix_to_columns(matrix_rows):
    cols = []
    for top, row in enumerate(matrix_rows):
        for bottom, count in enumerate(row):
            cols.extend([(top, bottom)] * count)
    return cols


def test_criterion_3_catalog_for_pairs_of_two():
    _check_catalog(3, 2, 4, CATALOG_K2)


def test_criterion_4_catalog_for_triples():
    _check_catalog(4, 3, 6, CATALOG_K3)


def test_criterion_5_closed_form_vs_exhaustive_oracle():
    rng = random.Random(20260810)
    checked = 0
    problems = []
    for draw_size, n_objects in [(2, 2), (2, 4), (3, 3), (3, 6)]:
        states = enumerate_states(draw_size, n_objects)
        for p, q in _vector_suite(rng, n_objects):
            oracle = brute_force_state_distribution(draw_size, n_objects, p, q)
            total = Fraction(0)
            for s in states:
                got = state_probability(s, p, q).value
                want = oracle.get(s.canonical_matrix, Fraction(0))
                if got != want:
                    problems.append(
                        f"K={draw_size} I={n_objects}: state prob {got} != {want}"
                    )
                total += got
            if total != 1:
                problems.append(f"K={draw_size} I={n_objects}: sum {total} != 1")
            checked += 1
    _report(5, not problems,
            f"{checked} (p,q) suites exact vs oracle, sums exactly 1"
            if not problems else problems[0])


def test_criterion_6_closed_form_expectation():
    rng = random.Random(60)
    problems = []
    pairs = [
        (random_rational_vector(rng, 3), random_rational_vector(rng, 3))
        for _ in range(4)
    ]
    pairs.append((random_rational_vector(rng, 3, force_zeros=1),
                  random_rational_vector(rng, 3)))
    for p, q in pairs:
        want = 1 - inner_product(p, q)
        for draw_size in (1, 2, 3, 4):
            got = expected_dissimilarity_via_states(draw_size, p, q)
            if got != want:
                problems.append(f"K={draw_size}: {got} != {want}")
    e_pq = expected_dissimilarity((0.8, 0.2), (0.9, 0.1))
    e_pp = expected_dissimilarity((0.8, 0.2), (0.8, 0.2))
    if abs(e_pq - 0.26) > FLOAT_SLACK:
        problems.append(f"worked example e_pq {e_pq}")
    if abs(e_pp - 0.32) > FLOAT_SLACK:
        problems.append(f"worked example e_pp {e_pp}")
    _report(6, not problems,
            f"{len(pairs)} seeded pairs exact for K=1..4; example 0.26/0.32"
            if not problems else problems[0])


def _sign(x):
    if abs(x) <= FLOAT_SLACK:
        return 0
    return 1 if x > 0 else -1


def test_criterion_7_within_between_inequalities():
    rng = np.random.default_rng(70)
    n_trials = 10**4
    problems = []
    for n_objects in (2, 5, 10):
        p_rows = rng.dirichlet(np.ones(n_objects), size=n_trials)
        q_rows = rng.dirichlet(np.ones(n_objects), size=n_trials)
        for p_row, q_row in zip(p_rows, q_rows):
            p, q = tuple(p_row), tuple(q_row)
            e_pq = expected_dissimilarity(p, q)
            e_pp = expected_dissimilarity(p, p)
            e_qq = expected_dissimilarity(q, q)
            if (e_pp + e_qq) / 2 > e_pq + FLOAT_SLACK:
                problems.append(f"averaged-within bound fails at I={n_objects}")
                break
            if _sign(e_pq - e_pp) != _sign(inner_product(p, p) - inner_product(p, q)):
                problems.append(f"sign biconditional fails at I={n_objects}")
                break
    _report(7, not problems,
            f"{3 * n_trials} Dirichlet trials satisfy bound and biconditional"
            if not problems else problems[0])


def test_criterion_8_monte_carlo_consistency():
    n_samples = 10**6
    uniform = FrequencyVector.uniform(4)
    states = enumerate_states(2, 4)
    empirical = monte_carlo_state_distribution(
        2, uniform, uniform, n_samples=n_samples, seed=20260810
    )
    worst = 0.0
    ok = True
    for s in states:
        theory = state_probability(s, uniform, uniform).value
        sigma = math.sqrt(float(theory) * (1 - float(theory)) / n_samples)
        err = abs(float(empirical.get(s.canonical_matrix, Fraction(0))) - float(theory))
        worst = max(worst, err / sigma if sigma else 0.0)
        ok = ok and err <= 4 * sigma
    _report(8, ok, f"10^6 samples; worst deviation {worst:.2f} sigma (limit 4)")


def test_criterion_9_group_action_soundness_and_completeness():
    problems = []
    rng = random.Random(90)
    # randomized invariance under draw swap + relabeling
    for draw_size in (2, 3):
        for _ in range(1000):
            n = rng.randrange(2, 7)
            g1 = [0] * n
            g2 = [0] * n
            for _ in range(draw_size):
                g1[rng.randrange(n)] += 1
                g2[rng.randrange(n)] += 1
            perm = list(range(n))
            rng.shuffle(perm)
            h1 = tuple(g1[j] for j in perm)
            h2 = tuple(g2[j] for j in perm)
            if rng.randrange(2):
                h1, h2 = h2, h1
            if canonical_key(tuple(g1), tuple(g2)) != canonical_key(h1, h2):
                problems.append(f"invariance breaks for {g1}/{g2}")
                break
    # orbit partition: classes by canonical matrix are exactly the orbits
    for draw_size in (1, 2, 3):
        for n_objects in range(1, 7):
            draws = list(compositions(draw_size, n_objects))
            classes = {}
            for g1 in draws:
                for g2 in draws:
                    classes.setdefault(canonical_key(g1, g2), set()).add((g1, g2))
            if len(classes) != state_count(draw_size, n_objects):
                problems.append(
                    f"K={draw_size} I={n_objects}: {len(classes)} classes"
                )
                continue
            perms = list(itertools.permutations(range(n_objects)))
            for members in classes.values():
                g1, g2 = next(iter(members))
                orbit = set()
                for perm in perms:
                    h1 = tuple(g1[j] for j in perm)
                    h2 = tuple(g2[j] for j in perm)
                    orbit.add((h1, h2))
                    orbit.add((h2, h1))
                if orbit != members:
                    problems.append(
                        f"K={draw_size} I={n_objects}: class is not one orbit"
                    )
                    break
    _report(9, not problems,
            "2000 randomized action trials + exhaustive orbit partition "
            "for K<=3, I<=6" if not problems else problems[0])
