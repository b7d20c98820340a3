"""Expected dissimilarity: closed form, state-sum route, comparisons."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from idstates import (
    ExpectationReport,
    comparison_report,
    expected_dissimilarity,
    expected_dissimilarity_via_states,
    inner_product,
    prevalence_experiment,
)
from idstates import probability
from idstates.expectation import _block, _count_within_exceeds, _late, _normalize

from conftest import random_rational_vector

P_EXAMPLE = (0.8, 0.2)
Q_EXAMPLE = (0.9, 0.1)


def test_worked_example():
    assert abs(expected_dissimilarity(P_EXAMPLE, Q_EXAMPLE) - 0.26) < 1e-12
    assert abs(expected_dissimilarity(P_EXAMPLE, P_EXAMPLE) - 0.32) < 1e-12


def test_closed_form_extremes():
    e1 = (Fraction(1), Fraction(0))
    assert expected_dissimilarity(e1, e1) == 0
    disjoint_p = (Fraction(1), Fraction(0), Fraction(0))
    disjoint_q = (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    assert expected_dissimilarity(disjoint_p, disjoint_q) == 1
    with pytest.raises(ValueError):
        expected_dissimilarity((1, 0), (1, 0, 0))


def test_state_sum_matches_closed_form_exactly():
    rng = random.Random(17)
    p = random_rational_vector(rng, 3)
    q = random_rational_vector(rng, 3)
    want = 1 - inner_product(p, q)
    for draw_size in (1, 2, 3, 4):
        assert expected_dissimilarity_via_states(draw_size, p, q) == want


def test_state_sum_same_distribution():
    rng = random.Random(18)
    p = random_rational_vector(rng, 3)
    assert expected_dissimilarity_via_states(3, p, p) == 1 - inner_product(p, p)


def test_state_sum_worked_example_float():
    got = expected_dissimilarity_via_states(2, P_EXAMPLE, Q_EXAMPLE)
    assert abs(got - 0.26) < 1e-12


def test_state_sum_point_mass():
    e1 = (Fraction(1), Fraction(0))
    assert expected_dissimilarity_via_states(2, e1, e1) == 0


def test_comparison_report_worked_example():
    report = comparison_report(P_EXAMPLE, Q_EXAMPLE)
    assert abs(report.e_pq - 0.26) < 1e-12
    assert abs(report.e_pp - 0.32) < 1e-12
    assert report.within_exceeds_between


def test_comparison_report_equal_vectors():
    p = (Fraction(3, 5), Fraction(2, 5))
    report = comparison_report(p, p)
    assert report.avg_within == report.e_pq
    assert not report.within_exceeds_between


def test_comparison_report_disjoint_point_masses():
    p = (Fraction(1), Fraction(0))
    q = (Fraction(0), Fraction(1))
    report = comparison_report(p, q)
    assert (report.e_pp, report.e_qq, report.e_pq) == (0, 0, 1)


def test_comparison_report_quadratic_identity():
    # avg_within - e_pq always equals -<p-q, p-q>/2
    rng = random.Random(19)
    for _ in range(50):
        p = random_rational_vector(rng, 5)
        q = random_rational_vector(rng, 5)
        report = comparison_report(p, q)
        diff = tuple(a - b for a, b in zip(p, q))
        assert report.avg_within - report.e_pq == -Fraction(1, 2) * inner_product(
            diff, diff
        )
        assert report.within_exceeds_between == (
            inner_product(p, q) > inner_product(p, p)
        )


def test_report_validation():
    with pytest.raises(ValueError):
        ExpectationReport(e_pq=0.2, e_pp=0.5, e_qq=0.5)
    with pytest.raises(ValueError):
        ExpectationReport(e_pq=1.5, e_pp=0.5, e_qq=0.5)
    # the derived fields are read from the three expectations
    report = ExpectationReport(e_pq=0.5, e_pp=0.1, e_qq=0.3)
    assert (report.avg_within, report.within_exceeds_between) == (0.2, False)


def test_fraction_zero_for_identical_rows():
    rows = np.asarray([[0.4, 0.6], [0.9, 0.1], [0.25, 0.75]])
    assert _count_within_exceeds(rows, rows.copy()) == 0
    # <p, q> against <p, p>: 0.6 > 0.52, 0.1 < 0.82, 0.75 > 0.625
    assert _count_within_exceeds(rows, np.asarray([[0.0, 1.0]] * 3)) == 2


def test_prevalence_reproducible_and_bounded():
    a = prevalence_experiment(2, 2000, seed=5)
    b = prevalence_experiment(2, 2000, seed=5)
    assert a == b
    assert 0.0 < a < 1.0


def test_prevalence_trend_reported():
    # soft trend check: report only, no ordering assertion
    fractions = {
        i: prevalence_experiment(i, 20000, seed=11) for i in (2, 5, 10, 20)
    }
    print(f"within>between prevalence by object count: {fractions}")
    assert all(0.0 <= f <= 1.0 for f in fractions.values())


def test_prevalence_validation():
    with pytest.raises(ValueError):
        prevalence_experiment(1, 100, seed=0)
    with pytest.raises(ValueError):
        prevalence_experiment(3, 0, seed=0)
    with pytest.raises(ValueError):
        prevalence_experiment(3, 100, seed=0, concentration=0.0)


def dirichlet_rows_reference(rng, concentration, n_rows, n_cols):
    """Whole-block symmetric Dirichlet rows: one Gamma call, then redraws.

    The sampler prevalence_experiment streams in chunks, drawn in one piece:
    every all-zero row of the block is redrawn together, round by round.
    """
    raw = rng.gamma(shape=concentration, scale=1.0, size=(n_rows, n_cols))
    totals = raw.sum(axis=1, keepdims=True)
    bad = totals[:, 0] == 0.0
    while bad.any():
        raw[bad] = rng.gamma(shape=concentration, scale=1.0, size=(bad.sum(), n_cols))
        totals = raw.sum(axis=1, keepdims=True)
        bad = totals[:, 0] == 0.0
    return raw / totals


def prevalence_reference(n_objects, n_trials, seed, concentration):
    rng = np.random.default_rng(seed)
    p = dirichlet_rows_reference(rng, concentration, n_trials, n_objects)
    q = dirichlet_rows_reference(rng, concentration, n_trials, n_objects)
    return float(np.mean(np.einsum("ij,ij->i", p, q) > np.einsum("ij,ij->i", p, p)))


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_prevalence_same_at_every_chunk_size(monkeypatch, offset):
    # chunk sizes 1 and 7, then n - 1, n and n + 1 for each n; at
    # concentration 0.001 about 120 of 1000 rows are redrawn, spread over
    # many chunks
    for i, n_trials, seed, concentration in [
        (3, 1000, 3, 0.001), (10, 300, 4, 1.0), (5, 257, 2, 0.3)
    ]:
        want = prevalence_reference(i, n_trials, seed, concentration)
        want_rows = dirichlet_rows_reference(
            np.random.default_rng(seed), concentration, n_trials, i)
        for chunk in ((1, 7) if offset is None else (n_trials + offset,)):
            monkeypatch.setattr(probability, "SAMPLE_CHUNK", chunk)
            got = prevalence_experiment(i, n_trials, seed, concentration)
            assert got == want, (i, concentration, chunk)
            # the chunks, their all-zero rows filled by the rows redrawn
            # after the last chunk, are bit-identical to the whole block
            rng = np.random.default_rng(seed)
            rows, zero = [], []
            for raw, totals in _block(rng, concentration, n_trials, i):
                zero.append(_normalize(raw, totals))
                rows.append(raw)
            rows, zero = np.concatenate(rows), np.concatenate(zero)
            rows[zero] = _late(rng, concentration, int(zero.sum()), i)
            assert np.array_equal(rows, want_rows), (i, concentration, chunk)


def test_prevalence_concentration_too_small(monkeypatch):
    # every Gamma draw underflows: the redraw rounds run out
    monkeypatch.setattr(probability, "SAMPLE_CHUNK", 7)
    with pytest.raises(ValueError, match="too small"):
        prevalence_experiment(2, 20, seed=0, concentration=1e-300)


@pytest.mark.parametrize("zero_calls, fails", [(99, False), (100, True)])
def test_prevalence_redraw_cap(monkeypatch, zero_calls, fails):
    # each generator's first zero_calls Gamma draws underflow to all-zero
    # rows; one trial's p row is drawn at most DIRICHLET_ROUNDS = 100 times,
    # counting its first draw, so 99 all-zero draws still leave room
    class Underflowing:
        def __init__(self, seed):
            self.calls = 0

        def standard_gamma(self, shape, size):
            self.calls += 1
            return np.zeros(size) if self.calls <= zero_calls else np.ones(size)

    monkeypatch.setattr(np.random, "default_rng", Underflowing)
    if fails:
        with pytest.raises(ValueError, match="too small"):
            prevalence_experiment(2, 1, 0)
    else:
        # p = q = (1/2, 1/2): <p, q> > <p, p> fails on the tie
        assert prevalence_experiment(2, 1, 0) == 0.0


# Known bias at small concentrations: normalized rows round onto a vertex
# of the simplex, and the strict float comparison counts the tie as false.
FLOAT_TIES = pytest.mark.xfail(
    strict=True, reason="float ties at simplex vertices bias prevalence low")


@pytest.mark.parametrize("concentration", [
    pytest.param(0.01, marks=FLOAT_TIES),
    pytest.param(0.03, marks=FLOAT_TIES),
    0.3, 1.0, 100.0,
])
def test_prevalence_two_objects_is_one_quarter(concentration):
    # p = (x, 1 - x), q = (y, 1 - y): <p, q> - <p, p> = (2x - 1)(y - x), and
    # x, y are iid and symmetric about 1/2, so the prevalence is
    # 2 P(y > x > 1/2) = 1/4 at every concentration
    n_trials = 2 * 10**5
    got = prevalence_experiment(2, n_trials, 1, concentration)
    z = (got - 0.25) / math.sqrt(0.25 * 0.75 / n_trials)
    assert abs(z) < 5, (got, z)


def test_prevalence_memory_does_not_grow_with_trials():
    # 83 MB at 10^6 trials while the p block (10^6 x 10 float64) was kept,
    # 5.8 MB at chunks of 16384 rows
    prevalence_experiment(10, 10, 1)  # first calls stay untraced
    for n_trials in (10**5, 10**6):
        tracemalloc.start()
        try:
            prevalence_experiment(10, n_trials, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 10**6, (n_trials, peak)


@pytest.mark.parametrize("shape", [1.0, 0.001, 0.3, 2.5, 1e-300, 1e300])
def test_standard_gamma_is_unit_scale_gamma(shape):
    # prevalence_experiment draws with standard_gamma; its seeded output was
    # recorded with gamma(scale=1.0), and the replay of p relies on both
    # leaving the generator where the other would
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    with np.errstate(over="ignore"):
        want = a.gamma(shape=shape, scale=1.0, size=(300, 7))
        got = b.standard_gamma(shape, size=(300, 7))
    assert np.array_equal(got, want)
    assert b.bit_generator.state == a.bit_generator.state
