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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import inner_product
from .enumeration import enumerate_states
# state_probability is unused here but stays importable: bench/trace_child.py wraps it
from .probability import (  # noqa: F401
    SAMPLE_CHUNK,
    state_distribution,
    state_probability,
)

if TYPE_CHECKING:
    import numpy as np


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


def _count_within_exceeds(p_rows: np.ndarray, q_rows: np.ndarray) -> int:
    """Rows with <p, q> > <p, p>: the one comparison rule of this module.

    E[D(p, p)] > E[D(p, q)] unwinds to <p, q> > <p, p>: the p-draw matches
    a q-draw more readily than another p-draw.
    """
    import numpy as np

    self_sim = np.einsum("ij,ij->i", p_rows, p_rows)
    cross_sim = np.einsum("ij,ij->i", p_rows, q_rows)
    return int(np.count_nonzero(cross_sim > self_sim))


#: Draws of a row allowed before its Gamma entries, all underflowed to 0,
#: count as a concentration too small to sample.
DIRICHLET_ROUNDS = 100


def _dirichlet_chunks(rng, concentration: float, n_rows: int, n_cols: int):
    """Yield (row indices, normalized rows) of an n_rows x n_cols Dirichlet block.

    Symmetric Dirichlet via the normalized-Gamma construction, drawn
    SAMPLE_CHUNK rows at a time. Every index is yielded exactly once.
    Rows whose Gamma entries all underflow to 0 (measure zero, but real at
    tiny concentrations) are held back and redrawn together after the
    last chunk, a bounded number of rounds, as one whole-block draw
    followed by its redraws would.
    """
    import numpy as np

    deferred: list[int] = []
    for start in range(0, n_rows, SAMPLE_CHUNK):
        raw = rng.gamma(shape=concentration, scale=1.0,
                        size=(min(SAMPLE_CHUNK, n_rows - start), n_cols))
        # Gamma draws near the float maximum overflow their row sum to inf,
        # and the normalized rows would be NaN
        with np.errstate(over="ignore"):
            totals = raw.sum(axis=1, keepdims=True)
        if not np.isfinite(totals).all():
            raise ValueError(
                f"concentration {concentration} is too large: Gamma row sums overflow"
            )
        zero = np.flatnonzero(totals[:, 0] == 0.0)
        if len(zero):
            deferred.extend(zero + start)
            kept = np.flatnonzero(totals[:, 0])
            yield kept + start, raw[kept] / totals[kept]
        else:
            raw /= totals
            yield slice(start, start + len(raw)), raw
    redraw = np.array(deferred, dtype=np.intp)
    rounds = 1
    while len(redraw):
        if rounds == DIRICHLET_ROUNDS:
            raise ValueError(
                f"concentration {concentration} is too small: Gamma draws "
                f"still underflow to all-zero rows after {rounds} rounds"
            )
        raw = rng.gamma(shape=concentration, scale=1.0, size=(len(redraw), n_cols))
        totals = raw.sum(axis=1, keepdims=True)
        kept = np.flatnonzero(totals[:, 0])
        yield redraw[kept], raw[kept] / totals[kept]
        redraw = redraw[totals[:, 0] == 0.0]
        rounds += 1


def prevalence_experiment(
    n_objects: int, n_trials: int, seed: int, concentration: float = 1.0
) -> float:
    """Estimate how often within-dissimilarity exceeds between for random p, q.

    Each trial draws independent p and q from a symmetric Dirichlet with
    the given concentration and tests <p, q> > <p, p>. Returns the
    fraction of trials where it holds; reproducible per seed.

    The stream holds the whole p block, with its redraws, before any
    q-draw, and consecutive Gamma calls continue it exactly as one call
    would. So p is drawn in chunks and kept whole (n_trials * n_objects
    float64), while each q chunk is compared with its p rows as soon as it
    is drawn: the result is the one that drawing both blocks whole gives.
    """
    if n_objects < 2:
        raise ValueError(f"need at least two objects, got {n_objects}")
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    if not 0 < concentration < math.inf:
        raise ValueError(
            f"concentration must be positive and finite, got {concentration}"
        )
    import numpy as np

    rng = np.random.default_rng(seed)
    p_rows = np.empty((n_trials, n_objects))
    for rows, block in _dirichlet_chunks(rng, concentration, n_trials, n_objects):
        p_rows[rows] = block
    count = 0
    for rows, block in _dirichlet_chunks(rng, concentration, n_trials, n_objects):
        count += _count_within_exceeds(p_rows[rows], block)
    return count / n_trials
