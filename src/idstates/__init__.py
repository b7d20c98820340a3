"""Identity states for unordered pairs of unordered draws with replacement.

Enumerate the equivalence classes of pairs of size-K draws from I objects
(up to draw order and object relabeling), compute each class's exact
probability under two frequency vectors, and evaluate the expected
dissimilarity between draws.

Importing the package loads none of its modules: each public name is
imported from its home module the first time it is read (PEP 562).
"""

__version__ = "0.1.0"

#: Each public name and the module it lives in.
_LAZY = {
    "DissimilarityValue": "core",
    "ExpectationReport": "expectation",
    "FrequencyVector": "probability",
    "IdentityState": "enumeration",
    "StateMatrix": "enumeration",
    "StateProbability": "probability",
    "brute_force_state_distribution": "probability",
    "canonicalize": "enumeration",
    "comparison_report": "expectation",
    "dissimilarity": "core",
    "enumerate_states": "enumeration",
    "expected_dissimilarity": "expectation",
    "expected_dissimilarity_via_states": "expectation",
    "inner_product": "core",
    "monte_carlo_state_distribution": "probability",
    "parse_frequency_file": "serialize",
    "prevalence_experiment": "expectation",
    "state_count": "enumeration",
    "state_distribution": "probability",
    "state_matrix": "enumeration",
    "state_probability": "probability",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    """A public name's first read: import it from its home module."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
