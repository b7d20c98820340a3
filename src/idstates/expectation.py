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
from typing import TYPE_CHECKING

from .core import Value, inner_product
from .enumeration import enumerate_states
# state_probability is unused here but stays importable: bench/trace_child.py wraps it
from .probability import (  # noqa: F401
    ROUNDING_SLACK,
    _chunks,
    _frequency_pair,
    state_distribution,
    state_probability,
)

if TYPE_CHECKING:
    import numpy as np


class ExpectationReport(Value):
    """Within- and between-distribution expected dissimilarities; the
    average within and whether e_pp > e_pq are derived from the three."""

    __slots__ = ("e_pq", "e_pp", "e_qq", "avg_within", "within_exceeds_between")

    def __init__(self, e_pq, e_pp, e_qq):
        avg_within = (e_pp + e_qq) / 2
        for v in (e_pq, e_pp, e_qq, avg_within):
            if not -ROUNDING_SLACK <= v <= 1 + ROUNDING_SLACK:
                raise ValueError(f"expectation {v} out of [0, 1]")
        if avg_within > e_pq + ROUNDING_SLACK:
            raise ValueError(f"average within ({avg_within}) exceeds between ({e_pq})")
        self._fill(e_pq, e_pp, e_qq, avg_within, e_pp > e_pq)


def expected_dissimilarity(p, q):
    """Closed-form expected dissimilarity: 1 - <p, q> (draw-size independent)."""
    p, q = _frequency_pair(p, q)
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
    """Within/between comparison for two frequency vectors, all three
    expectations in the one mode of the pair."""
    p, q = _frequency_pair(p, q)
    return ExpectationReport(expected_dissimilarity(p, q),
                             expected_dissimilarity(p, p),
                             expected_dissimilarity(q, q))


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


def _block(rng, concentration: float, n_rows: int, n_cols: int):
    """Yield (Gamma rows, row sums) of an n_rows x n_cols block, chunk by chunk.

    The rows are not normalized: a row sum of 0 marks a row whose entries
    all underflowed.
    """
    import numpy as np

    for raw in _chunks(lambda m: rng.standard_gamma(concentration, size=(m, n_cols)),
                       n_rows):
        # Gamma draws near the float maximum overflow their row sum to inf,
        # and the normalized rows would be NaN
        with np.errstate(over="ignore"):
            totals = raw.sum(axis=1, keepdims=True)
        if not np.isfinite(totals).all():
            raise ValueError(
                f"concentration {concentration} is too large: Gamma row sums overflow"
            )
        yield raw, totals


def _normalize(rows: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Divide rows by their sums in place; return the mask of all-zero rows.

    An all-zero row stays 0 until a redrawn row replaces it.
    """
    zero = totals[:, 0] == 0.0
    totals[zero] = 1.0
    rows /= totals
    return zero


def _late(rng, concentration: float, n: int, n_cols: int) -> np.ndarray:
    """The n normalized rows redrawn for n all-zero rows, in their order.

    Each round redraws together every row still all-zero. A row is drawn
    at most DIRICHLET_ROUNDS times, counting the draw that first underflowed.
    """
    import numpy as np

    rows = np.empty((n, n_cols))
    todo = np.arange(n)
    for _ in range(DIRICHLET_ROUNDS - 1):  # round 1 was the block's draw
        if not len(todo):
            break
        raw = rng.standard_gamma(concentration, size=(len(todo), n_cols))
        zero = _normalize(raw, raw.sum(axis=1, keepdims=True))
        rows[todo] = raw
        todo = todo[zero]
    if len(todo):
        raise ValueError(
            f"concentration {concentration} is too small: Gamma draws "
            f"still underflow to all-zero rows after {DIRICHLET_ROUNDS} rounds"
        )
    return rows


def prevalence_experiment(
    n_objects: int, n_trials: int, seed: int, concentration: float = 1.0
) -> float:
    """Estimate how often within-dissimilarity exceeds between for random p, q.

    Each trial draws independent p and q from a symmetric Dirichlet with
    the given concentration and tests <p, q> > <p, p>. Returns the
    fraction of trials where it holds; reproducible per seed.

    The stream holds the whole p block, with the rows _late redraws for
    its all-zero rows, before any q-draw, so p is drawn twice rather than
    kept. The first pass reads the _block chunks of p only to count their
    all-zero rows and move the generator past them, then keeps _late's
    rows for p. The second replays the _block chunks of p from a fresh
    generator of the same seed in step with those of q, normalizing each
    pair with _normalize and filling p's all-zero rows from its late rows
    in order; a p row whose q row is all-zero is held and compared with
    _late's rows for q at the end. Memory is O(SAMPLE_CHUNK + redrawn
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
    n_late = sum(int(np.count_nonzero(totals == 0.0))
                 for _, totals in _block(rng, concentration, n_trials, n_objects))
    late_p = _late(rng, concentration, n_late, n_objects)
    # pass 2: replay p in step with q; the chunks meet their redrawn p rows
    # in the order pass 1 counted them
    used = 0
    held_p = []
    count = 0
    for (p, p_totals), (q, q_totals) in zip(
        _block(np.random.default_rng(seed), concentration, n_trials, n_objects),
        _block(rng, concentration, n_trials, n_objects),
    ):
        p_zero = _normalize(p, p_totals)
        n_zero = int(np.count_nonzero(p_zero))
        p[p_zero] = late_p[used:used + n_zero]
        used += n_zero
        q_zero = _normalize(q, q_totals)
        held_p.append(p[q_zero])
        # an all-zero q row is never counted: <p, 0> = 0 < <p, p>
        count += _count_within_exceeds(p, q)
    held_p = np.concatenate(held_p)
    late_q = _late(rng, concentration, len(held_p), n_objects)
    return (count + _count_within_exceeds(held_p, late_q)) / n_trials
