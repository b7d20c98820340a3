"""Shared helpers: independent draw generators, rational vectors and oracles."""

import itertools
from fractions import Fraction

from hypothesis import settings

from idstates import canonicalize, state_matrix

# Property tests draw the same examples on every run.
settings.register_profile("idstates", derandomize=True, deadline=None, database=None)
settings.load_profile("idstates")


def compositions(total, slots):
    """All count vectors of `slots` nonnegative entries summing to `total`."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, slots - 1):
            yield (first,) + rest


def random_draw(rng, draw_size, n_objects):
    """Count vector of `draw_size` independent uniform object picks."""
    counts = [0] * n_objects
    for _ in range(draw_size):
        counts[rng.randrange(n_objects)] += 1
    return tuple(counts)


def random_rational_vector(rng, n_objects, force_zeros=0):
    """Exact probability vector from small random integer weights."""
    while True:
        weights = [rng.randrange(0, 10) for _ in range(n_objects)]
        for idx in range(min(force_zeros, n_objects - 1)):
            weights[idx] = 0
        total = sum(weights)
        if total:
            return tuple(Fraction(w, total) for w in weights)


def canonical_key(row1, row2):
    """Canonical state matrix of a raw pair of count vectors."""
    return canonicalize(state_matrix(row1, row2))


def find_state(states, row1, row2):
    """Catalog state whose class contains the given pair."""
    key = canonical_key(row1, row2)
    for state in states:
        if state.canonical_matrix == key:
            return state
    raise AssertionError(f"no state found for pair {row1} / {row2}")


def stabilizer_oracle(pair):
    """Count column permutations (of nonzero columns) fixing the pair
    (row1, row2)."""
    cols = [c for c in zip(*pair) if c != (0, 0)]
    return sum(
        1
        for perm in itertools.permutations(range(len(cols)))
        if [cols[j] for j in perm] == cols
    )
