"""Identity states for unordered pairs of unordered draws with replacement.

Enumerate the equivalence classes of pairs of size-K draws from I objects
(up to draw order and object relabeling), compute each class's exact
probability under two frequency vectors, and evaluate the expected
dissimilarity between draws.
"""

from .core import (
    DissimilarityValue,
    DrawVector,
    PairMatrix,
    dissimilarity,
    inner_product,
)
from .enumeration import (
    IdentityState,
    StateMatrix,
    canonicalize,
    enumerate_states,
    n_distinct,
    state_count,
    state_from_matrix,
    state_matrix,
    unordered_partitions,
)
from .expectation import (
    ExpectationReport,
    comparison_report,
    expected_dissimilarity,
    expected_dissimilarity_via_states,
    prevalence_experiment,
)
from .probability import (
    FrequencyVector,
    StateProbability,
    brute_force_state_distribution,
    monte_carlo_state_distribution,
    multinomial,
    ordered_pair_probability,
    row_signature,
    stabilizer_size,
    state_distribution,
    state_probability,
)
from .serialize import parse_frequency_file

__version__ = "0.1.0"

__all__ = [
    "DissimilarityValue",
    "DrawVector",
    "ExpectationReport",
    "FrequencyVector",
    "IdentityState",
    "PairMatrix",
    "StateMatrix",
    "StateProbability",
    "brute_force_state_distribution",
    "canonicalize",
    "comparison_report",
    "dissimilarity",
    "enumerate_states",
    "expected_dissimilarity",
    "expected_dissimilarity_via_states",
    "inner_product",
    "monte_carlo_state_distribution",
    "multinomial",
    "n_distinct",
    "ordered_pair_probability",
    "parse_frequency_file",
    "prevalence_experiment",
    "row_signature",
    "stabilizer_size",
    "state_count",
    "state_from_matrix",
    "state_distribution",
    "state_matrix",
    "state_probability",
    "unordered_partitions",
]
