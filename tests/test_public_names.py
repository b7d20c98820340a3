"""The package's public surface, pinned.

Removing a name from idstates or adding one is a deliberate edit of
PUBLIC_NAMES, in the same way test_each_command_takes_only_the_flags_it_reads
pins the CLI's options.
"""

import importlib

import pytest

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
    # the lazy table, which __getattr__ imports from, is the export list
    assert set(idstates._LAZY) == PUBLIC_NAMES
    assert all(hasattr(idstates, name) for name in PUBLIC_NAMES)


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from idstates import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(idstates))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        idstates.no_such_name
    assert not hasattr(idstates, "parse_frequency_values")


def test_each_public_name_is_its_home_modules_object():
    for name, module in idstates._LAZY.items():
        home = importlib.import_module(f"idstates.{module}")
        assert getattr(idstates, name) is getattr(home, name), name
