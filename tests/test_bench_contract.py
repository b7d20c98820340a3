"""What the benchmark under bench/ reaches into in the package.

The benchmark imports names from idstates, wraps functions by name to time
each layer, reads some of their parameters to count work, and sends its
requests through the CLI. A renamed function, parameter or flag would drop
a span or fail a request without any package test noticing, so these tests
read bench/ (they never edit it) and check that each name still resolves.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import idstates.cli as cli
import idstates.expectation as expectation
from idstates import FrequencyVector, brute_force_state_distribution, state_probability
from idstates.serialize import parse_state_csv, parse_state_records

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """bench/<name>.py as a module, registered under a name of its own
    (dataclasses look a class's module up in sys.modules)."""
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _idstates_imports(source):
    """(module, name) for every `from idstates... import name` in source."""
    return {(node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module.startswith("idstates")
            for alias in node.names}


def _setup_probe():
    """The SETUP_PROBE program that bench/harness.py runs to time set-up."""
    tree = ast.parse((BENCH / "harness.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SETUP_PROBE":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/harness.py has no SETUP_PROBE")


def test_every_layer_call_resolves_to_a_callable():
    calls = _load("trace_child").LAYER_CALLS
    assert calls
    for module, attr, *_ in calls:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


# argv: bench/, a frequency file; wraps every LAYER_CALLS name the way the
# tracer does, before any request, then runs requests that reach each one
# and prints the (module, name) pairs whose wrapper was called
WRAP_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import trace_child

called = set()

def wrapped(module, attr):
    fn = getattr(module, attr)
    def wrapper(*args, **kwargs):
        called.add((module.__name__, attr))
        return fn(*args, **kwargs)
    return wrapper

for module, attr, *_ in trace_child.LAYER_CALLS:
    setattr(module, attr, wrapped(module, attr))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in [
        ["count-table", "--k", "2"],
        ["enumerate", "--k", "2", "--i", "2"],
        ["probabilities", "--k", "2", "--i", "2", "--p", "1/2,1/2"],
        ["probabilities", "--k", "2", "--i", "2", "--freq", sys.argv[2]],
        ["expectation", "--p", "1/2,1/2", "--q", "1/4,3/4"],
        ["oracle-check", "--k", "2", "--i", "2"],
        ["simulate", "--k", "2", "--i", "2", "--samples", "10"],
        ["prevalence", "--i", "2", "--samples", "10"],
    ]:
        assert trace_child.cli.main(argv) == 0, argv
print(json.dumps(sorted(called)))
"""


def test_tracer_wrappers_survive_lazy_binding(tmp_path):
    freq = tmp_path / "freq.csv"
    freq.write_text("object_id,p\na,1/2\nb,1/2\n", encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", WRAP_PROBE, str(BENCH), str(freq)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    called = {tuple(pair) for pair in json.loads(proc.stdout)}
    wrapped = {(module.__name__, attr)
               for module, attr, *_ in _load("trace_child").LAYER_CALLS}
    # expectation keeps its state_probability import for the tracer alone;
    # nothing calls it there
    assert called == wrapped - {("idstates.expectation", "state_probability")}


#: Parameters the tracer's counters and span names read from bound arguments.
COUNTED_PARAMETERS = [
    (cli, "brute_force_state_distribution", ["draw_size", "n_objects"]),
    (cli, "monte_carlo_state_distribution", ["n_samples"]),
    (cli, "prevalence_experiment", ["n_trials"]),
    (cli, "state_probability", ["p", "q"]),
    (expectation, "state_probability", ["p", "q"]),
]


@pytest.mark.parametrize("module, attr, names", COUNTED_PARAMETERS)
def test_counted_parameters_exist(module, attr, names):
    parameters = inspect.signature(getattr(module, attr)).parameters
    assert set(names) <= set(parameters)


def test_imported_names_resolve():
    names = _idstates_imports(_setup_probe())
    names |= _idstates_imports((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert {("idstates.cli", "config_from_args"), ("idstates.cli", "build_parser"),
            ("idstates.probability", "BRUTE_FORCE_GUARD"),
            ("idstates.serialize", "format_exact"),
            ("idstates.serialize", "parse_state_records"),
            ("idstates.serialize", "parse_state_csv")} <= names


def test_every_benchmark_request_parses(tmp_path):
    workloads = _load("workloads")
    argvs = [req.argv for name in workloads.WORKLOADS
             for tiny in (False, True)
             for req in workloads.build(name, 1, tmp_path, tiny=tiny)]
    # bench/tests drives one deliberate oracle mismatch through this flag
    argvs.append(["oracle-check", "--k", "2", "--i", "3", "--p", "1/2,1/4,1/4",
                  "--perturb", "0"])
    for argv in argvs:
        cli.config_from_args(cli.build_parser().parse_args(argv))


def test_attributes_the_benchmark_reads(capsys):
    """Attributes bench/ reads from package objects: the workload checks read
    parsed tables and compare their matrices with the oracle's keys, and the
    tracer reads FrequencyVector.exact and StateProbability.value."""
    p, q = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 3),) * 3
    inline = ["--p", ",".join(map(str, p)), "--q", ",".join(map(str, q))]
    oracle = brute_force_state_distribution(2, 3, p, q)
    for fmt, parse in (("records", parse_state_records), ("csv", parse_state_csv)):
        assert cli.main(["probabilities", "--k", "2", "--i", "3", "--format", fmt,
                         *inline]) == 0
        table = parse(capsys.readouterr().out)
        assert (table.draw_size, table.n_objects, table.exact) == (2, 3, True)
        assert len(table.states) == len(table.probabilities) > 0
        probs = dict(zip((s.canonical_matrix for s in table.states),
                         table.probabilities))
        assert probs == oracle
        for m in probs:
            assert type(m.flattened) is tuple and len(m.flattened) == 9
            assert all(type(v) is int for v in m.flattened)
    assert FrequencyVector(p, True).exact
    assert not FrequencyVector((0.5, 0.5), False).exact
    state = table.states[0]
    assert state_probability(state, p, q).value == probs[state.canonical_matrix]
