"""Expected dissimilarity between two random draws.

The expectation has a closed form that does not depend on the draw size:

    E[D(p, q)] = 1 - <p, q>

It can also be assembled state by state, weighting each identity state's
dissimilarity by its probability; in rational mode the two routes agree
bit-exactly, which this package uses as a cross-check.

Consequences covered here: draws from one distribution can be *more*
dissimilar in expectation than draws from two different distributions
(exactly when <p, q> > <p, p>), but the average of the two within-
distribution expectations never exceeds the between expectation, with
equality only at p = q. How often the within > between reversal happens
for random frequency vectors is estimated empirically by Dirichlet
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import inner_product
from .enumeration import enumerate_states
# state_probability is unused here but stays importable: bench/trace_child.py wraps it
from .probability import state_distribution, state_probability  # noqa: F401


@dataclass(frozen=True)
class ExpectationReport:
    """Within- and between-distribution expected dissimilarities."""

    e_pq: object
    e_pp: object
    e_qq: object
    avg_within: object
    within_exceeds_between: bool

    _SLACK = 1e-12

    def __post_init__(self):
        for v in (self.e_pq, self.e_pp, self.e_qq, self.avg_within):
            if not -self._SLACK <= v <= 1 + self._SLACK:
                raise ValueError(f"expectation {v} out of [0, 1]")
        if self.avg_within > self.e_pq + self._SLACK:
            raise ValueError(
                f"average within ({self.avg_within}) exceeds between ({self.e_pq})"
            )


def expected_dissimilarity(p, q):
    """Closed-form expected dissimilarity: 1 - <p, q> (draw-size independent)."""
    return 1 - inner_product(p, q)


def expected_dissimilarity_via_states(draw_size: int, p, q):
    """Expected dissimilarity assembled from the identity-state catalog.

    Sums D(state) * P[state] over all states for the given draw size.
    Agrees with expected_dissimilarity(p, q) exactly in rational mode.
    """
    dist = state_distribution(draw_size, p, q)
    total = 0
    for state in enumerate_states(draw_size, len(p)):
        prob = dist.get(state.canonical_matrix)
        if prob:
            total += state.dissimilarity.value * prob
    return total


def comparison_report(p, q) -> ExpectationReport:
    """Within/between comparison for two frequency vectors."""
    e_pq = expected_dissimilarity(p, q)
    e_pp = expected_dissimilarity(p, p)
    e_qq = expected_dissimilarity(q, q)
    avg = (e_pp + e_qq) / 2
    return ExpectationReport(
        e_pq=e_pq,
        e_pp=e_pp,
        e_qq=e_qq,
        avg_within=avg,
        within_exceeds_between=e_pp > e_pq,
    )


def within_exceeds_between_fraction(p_rows: np.ndarray, q_rows: np.ndarray) -> float:
    """Fraction of row pairs whose within-dissimilarity exceeds the between.

    E[D(p, p)] > E[D(p, q)] unwinds to <p, q> > <p, p>: the p-draw matches
    a q-draw more readily than another p-draw.
    """
    p_rows = np.asarray(p_rows, dtype=float)
    q_rows = np.asarray(q_rows, dtype=float)
    if p_rows.shape != q_rows.shape:
        raise ValueError(f"shape mismatch: {p_rows.shape} vs {q_rows.shape}")
    self_sim = np.einsum("ij,ij->i", p_rows, p_rows)
    cross_sim = np.einsum("ij,ij->i", p_rows, q_rows)
    return float(np.mean(cross_sim > self_sim))


def _dirichlet_rows(rng, concentration: float, n_rows: int, n_cols: int):
    # symmetric Dirichlet via the normalized-Gamma construction
    raw = rng.gamma(shape=concentration, scale=1.0, size=(n_rows, n_cols))
    totals = raw.sum(axis=1, keepdims=True)
    # zero rows have measure zero but guard against float underflow anyway
    bad = totals[:, 0] == 0.0
    while bad.any():
        raw[bad] = rng.gamma(shape=concentration, scale=1.0, size=(bad.sum(), n_cols))
        totals = raw.sum(axis=1, keepdims=True)
        bad = totals[:, 0] == 0.0
    return raw / totals


def prevalence_experiment(
    n_objects: int, n_trials: int, seed: int, concentration: float = 1.0
) -> float:
    """Estimate how often within-dissimilarity exceeds between for random p, q.

    Each trial draws independent p and q from a symmetric Dirichlet with
    the given concentration and tests <p, q> > <p, p>. Returns the
    fraction of trials where it holds; reproducible per seed.
    """
    if n_objects < 2:
        raise ValueError(f"need at least two objects, got {n_objects}")
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    if not concentration > 0:
        raise ValueError(f"concentration must be positive, got {concentration}")
    rng = np.random.default_rng(seed)
    p_rows = _dirichlet_rows(rng, concentration, n_trials, n_objects)
    q_rows = _dirichlet_rows(rng, concentration, n_trials, n_objects)
    return within_exceeds_between_fraction(p_rows, q_rows)
