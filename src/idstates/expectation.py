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
    _check_freqs,
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
    _check_freqs(p, q)
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


def _gamma_chunks(rng, concentration: float, n_rows: int, n_cols: int):
    """Yield (start, Gamma rows, row sums) of an n_rows x n_cols block.

    Draws SAMPLE_CHUNK rows at a time; consecutive Gamma calls continue the
    stream exactly as one whole-block call would. The rows are not
    normalized: a row sum of 0 marks a row whose entries all underflowed.
    """
    import numpy as np

    for start in range(0, n_rows, SAMPLE_CHUNK):
        raw = rng.standard_gamma(
            concentration, size=(min(SAMPLE_CHUNK, n_rows - start), n_cols))
        # Gamma draws near the float maximum overflow their row sum to inf,
        # and the normalized rows would be NaN
        with np.errstate(over="ignore"):
            totals = raw.sum(axis=1, keepdims=True)
        if not np.isfinite(totals).all():
            raise ValueError(
                f"concentration {concentration} is too large: Gamma row sums overflow"
            )
        yield start, raw, totals


def _redraws(rng, concentration: float, n_rows: int, n_cols: int):
    """Yield (positions, normalized rows) as n_rows all-zero rows are redrawn.

    Each round redraws together every row still all-zero; positions index
    the n_rows in their original order. A row is drawn at most
    DIRICHLET_ROUNDS times, counting the draw that first underflowed.
    """
    import numpy as np

    redraw = np.arange(n_rows)
    rounds = 1
    while len(redraw):
        if rounds == DIRICHLET_ROUNDS:
            raise ValueError(
                f"concentration {concentration} is too small: Gamma draws "
                f"still underflow to all-zero rows after {rounds} rounds"
            )
        raw = rng.standard_gamma(concentration, size=(len(redraw), n_cols))
        totals = raw.sum(axis=1, keepdims=True)
        kept = np.flatnonzero(totals[:, 0])
        yield redraw[kept], raw[kept] / totals[kept]
        redraw = redraw[totals[:, 0] == 0.0]
        rounds += 1


def _dirichlet_chunks(rng, concentration: float, n_rows: int, n_cols: int):
    """Yield (row indices, normalized rows) of an n_rows x n_cols Dirichlet block.

    Symmetric Dirichlet via the normalized-Gamma construction, in the
    stream order prevalence_experiment replays: the rows of each chunk of
    _gamma_chunks, then the rows whose Gamma entries all underflowed to 0
    (measure zero, but real at tiny concentrations), redrawn together
    after the last chunk as one whole-block draw followed by its redraws
    would. Every index is yielded exactly once.
    """
    import numpy as np

    deferred = []
    for start, raw, totals in _gamma_chunks(rng, concentration, n_rows, n_cols):
        zero = np.flatnonzero(totals[:, 0] == 0.0)
        if len(zero):
            deferred.append(zero + start)
            kept = np.flatnonzero(totals[:, 0])
            yield kept + start, raw[kept] / totals[kept]
        else:
            raw /= totals
            yield slice(start, start + len(raw)), raw
    deferred = np.concatenate(deferred) if deferred else np.empty(0, np.intp)
    for positions, rows in _redraws(rng, concentration, len(deferred), n_cols):
        yield deferred[positions], rows


def prevalence_experiment(
    n_objects: int, n_trials: int, seed: int, concentration: float = 1.0
) -> float:
    """Estimate how often within-dissimilarity exceeds between for random p, q.

    Each trial draws independent p and q from a symmetric Dirichlet with
    the given concentration and tests <p, q> > <p, p>. Returns the
    fraction of trials where it holds; reproducible per seed.

    The stream holds the whole p block, with its redraws, before any
    q-draw (the order of _dirichlet_chunks), so p is drawn twice rather
    than kept. The first pass draws p only to move the generator to where
    q starts, normalizing nothing and keeping just the p rows redrawn
    after the last chunk. The second replays p from a fresh generator of
    the same seed in step with q, comparing each q chunk with its p rows
    as soon as it is drawn; a q row redrawn after the last chunk holds its
    p row until the redraw arrives. Memory is O(SAMPLE_CHUNK + redrawn
    rows) whatever n_trials, and the result is the one that drawing both
    blocks whole gives.
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
    # pass 1: move rng past the p block, keeping only p's redrawn rows
    n_late = sum(int(np.count_nonzero(totals == 0.0)) for _, _, totals in
                 _gamma_chunks(rng, concentration, n_trials, n_objects))
    late_p = np.empty((n_late, n_objects))
    for positions, rows in _redraws(rng, concentration, n_late, n_objects):
        late_p[positions] = rows
    # pass 2: replay p in step with q; the chunks meet their redrawn p rows
    # in the order pass 1 counted them
    used = 0
    held_p = []
    count = 0
    for (_, p, p_totals), (_, q, q_totals) in zip(
        _gamma_chunks(np.random.default_rng(seed), concentration, n_trials, n_objects),
        _gamma_chunks(rng, concentration, n_trials, n_objects),
    ):
        p_zero = p_totals[:, 0] == 0.0
        n_zero = int(np.count_nonzero(p_zero))
        p_totals[p_zero] = 1.0  # an all-zero row stays 0 until replaced
        p /= p_totals
        p[p_zero] = late_p[used:used + n_zero]
        used += n_zero
        q_zero = q_totals[:, 0] == 0.0
        if q_zero.any():
            held_p.append(p[q_zero])
            p, q, q_totals = p[~q_zero], q[~q_zero], q_totals[~q_zero]
        q /= q_totals
        count += _count_within_exceeds(p, q)
    if held_p:
        held_p = np.concatenate(held_p)
        for positions, rows in _redraws(rng, concentration, len(held_p), n_objects):
            count += _count_within_exceeds(held_p[positions], rows)
    return count / n_trials
