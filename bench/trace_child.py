"""Run one idstates CLI request with a span around every layer call.

Usage: python trace_child.py SPANS_PATH ARG...

Behaves like `python -m idstates ARG...`, but first replaces the public
functions that idstates.cli and idstates.expectation call, in those modules'
namespaces, with wrappers that record a span (name, start, end, parent) and
the layer's work counts. No file of the package changes. When the request
ends, {"imported": T, "spans": [...], "counts": {...}} is written to
SPANS_PATH as JSON, where T is the moment `idstates.cli` finished importing.

Times are time.perf_counter() readings. On Linux that clock is
CLOCK_MONOTONIC, which every process shares, so the parent can place these
spans beside its own.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import idstates.cli as cli
import idstates.expectation as expectation

IMPORTED = time.perf_counter()

spans: list[dict] = []
counts: Counter = Counter()
_open: list[int] = []


@contextmanager
def span(name: str):
    record = {"name": name, "parent": _open[-1] if _open else None}
    _open.append(len(spans))
    spans.append(record)
    record["start"] = time.perf_counter()
    try:
        yield
    finally:
        record["end"] = time.perf_counter()
        _open.pop()


def _probability_layer(args) -> str:
    exact = args["p"].exact and args["q"].exact
    return "probability.rational" if exact else "probability.float"


def _count_evals(result, args):
    counts["probability.evals"] += 1
    counts["probability.nonzero"] += result.value != 0


def _count(metric: str, measure):
    def add(result, args):
        counts[metric] += measure(result, args)

    return add


_STATES = _count("enumeration.states_built", lambda r, a: len(r))
_BYTES = _count("serialize.bytes_out", lambda r, a: len(r.encode()))

#: (module, function, span name or function of the bound arguments, counter)
LAYER_CALLS = [
    (cli, "state_count", "enumeration.state_count", None),
    (cli, "enumerate_states", "enumeration.enumerate_states", _STATES),
    (expectation, "enumerate_states", "enumeration.enumerate_states", _STATES),
    (cli, "state_probability", _probability_layer, _count_evals),
    (expectation, "state_probability", _probability_layer, _count_evals),
    (cli, "brute_force_state_distribution", "probability.exhaustive",
     _count("probability.exhaustive_pairs",
            lambda r, a: a["n_objects"] ** (2 * a["draw_size"]))),
    (cli, "monte_carlo_state_distribution", "probability.monte_carlo",
     _count("probability.samples", lambda r, a: a["n_samples"])),
    (cli, "expected_dissimilarity_via_states", "expectation.via_states", None),
    (cli, "prevalence_experiment", "expectation.prevalence",
     _count("expectation.trials", lambda r, a: a["n_trials"])),
    (cli, "parse_frequency_file", "serialize.parse", None),
    (cli, "parse_frequency_values", "serialize.parse", None),
    (cli, "write_state_table", "serialize.write", _BYTES),
    (cli, "write_count_grid", "serialize.write", _BYTES),
    (cli, "write_fields", "serialize.write", _BYTES),
]


def _wrap(module, attr: str, name, counter):
    fn = getattr(module, attr)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = None
        if callable(name) or counter:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
        with span(name(bound) if callable(name) else name):
            result = fn(*args, **kwargs)
        if counter:
            counter(result, bound)
        return result

    setattr(module, attr, traced)


def main(spans_path: str, argv: list[str]) -> int:
    for call in LAYER_CALLS:
        _wrap(*call)
    try:
        with span("cli.main"):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"imported": IMPORTED, "spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
