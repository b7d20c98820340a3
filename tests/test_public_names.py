"""The package's public surface, pinned.

Removing a name from idstates or adding one is a deliberate edit of
PUBLIC_NAMES, in the same way test_each_command_takes_only_the_flags_it_reads
pins the CLI's options.
"""

import ast
from pathlib import Path

import idstates

PUBLIC_NAMES = {
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
    "parse_frequency_file",
    "prevalence_experiment",
    "state_count",
    "state_distribution",
    "state_matrix",
    "state_probability",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 23
    assert sorted(idstates.__all__) == sorted(PUBLIC_NAMES)
    # every name __init__.py imports is exported, and every export imported
    tree = ast.parse(Path(idstates.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == PUBLIC_NAMES
    assert all(hasattr(idstates, name) for name in PUBLIC_NAMES)
