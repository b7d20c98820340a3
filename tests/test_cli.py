"""CLI behavior: commands, formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idstates.cli as cli
from idstates.cli import main
from idstates.serialize import parse_state_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """main(argv) with stdout and stderr captured, for hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "usage:" not in err and "Traceback" not in err


def test_enumerate_basic(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--k", "2", "--i", "4")
    assert code == 0 and not err
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 7  # header + states


def test_enumerate_single_draws(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "1", "--i", "2")
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert code == 0 and len(rows) == 1 + 2


def test_enumerate_with_frequencies_records(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,1/3,1/6\nB,1/3,2/6\nC,1/6,1/6\nD,1/6,2/6\nE,0,0\nF,0,0\n")
    code, out, _ = run_cli(
        capsys, "enumerate", "--k", "3", "--i", "6",
        "--freq", str(path), "--format", "records",
    )
    assert code == 0
    table = parse_state_records(out)
    assert len(table.states) == 21
    assert sum(table.probabilities) == 1


def test_probabilities_requires_frequencies(capsys):
    code, _, err = run_cli(capsys, "probabilities", "--k", "2", "--i", "4")
    assert code == 1 and "requires" in err


def test_count_table_columns(capsys):
    code, out, _ = run_cli(capsys, "count-table", "--k", "2", "--format", "csv")
    assert code == 0
    cells = {}
    for line in out.splitlines()[1:]:
        k, i, count, plateau = line.split(",")
        cells[(int(k), int(i))] = int(count)
    assert [cells[(2, i)] for i in (1, 2, 3, 4)] == [1, 4, 6, 7]
    assert [cells[(1, i)] for i in (1, 2)] == [1, 2]


def test_count_table_paper_layout(capsys):
    code, out, _ = run_cli(capsys, "count-table", "--k", "2", "--paper-layout")
    assert code == 0 and "*" not in out


def test_expectation_worked_example(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,0.8,0.9\nB,0.2,0.1\n")
    code, out, _ = run_cli(
        capsys, "expectation", "--freq", str(path), "--format", "records"
    )
    assert code == 0
    report = json.loads(out)
    assert report["e_pq"] == 0.26
    assert report["e_pp"] == 0.32
    assert report["within_exceeds_between"] is True


def test_expectation_rational_crosscheck(capsys):
    code, out, _ = run_cli(
        capsys, "expectation", "--p", "4/5,1/5", "--q", "9/10,1/10",
        "--k", "3", "--format", "records",
    )
    assert code == 0
    report = json.loads(out)
    assert report["e_pq"] == "13/50"
    assert report["state_sum_matches"] is True
    assert report["state_sum_draw_size"] == 3


def test_expectation_uniform_inline(capsys):
    code, out, _ = run_cli(
        capsys, "expectation", "--p", "1/4,1/4,1/4,1/4", "--format", "records"
    )
    report = json.loads(out)
    assert code == 0 and report["e_pq"] == "3/4"


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--k", "2", "--i", "4",
        "--p", "1/4,1/4,1/4,1/4",
    )
    assert code == 0
    assert "# PASS" in out


def test_oracle_check_random_seeded(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--k", "3", "--i", "3",
                           "--seed", "12")
    assert code == 0 and "# PASS" in out


def test_oracle_check_perturbation_fails(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--k", "2", "--i", "2",
        "--p", "1/2,1/2", "--perturb", "1",
    )
    assert code == 2
    failing = [ln for ln in out.splitlines() if "\tFAIL\t" in ln]
    assert len(failing) == 1 and failing[0].startswith("1\t")


def test_oracle_check_flags_one_pass_mismatch(capsys, monkeypatch):
    real = cli.state_distribution

    def corrupted(draw_size, p, q):
        dist = real(draw_size, p, q)
        first = next(iter(dist))
        dist[first] += Fraction(1, 1000)
        return dist

    monkeypatch.setattr(cli, "state_distribution", corrupted)
    code, out, _ = run_cli(
        capsys, "oracle-check", "--k", "2", "--i", "2", "--p", "1/2,1/2",
    )
    assert code == 2
    failing = [ln for ln in out.splitlines() if "\tFAIL\t" in ln]
    assert len(failing) == 1 and "\tstate_distribution=" in failing[0]


def test_oracle_check_perturb_out_of_range(capsys):
    # K=2, I=3 has 6 states: valid indices are 0..5
    for index in ("99", "6", "-1"):
        code, out, err = run_cli(
            capsys, "oracle-check", "--k", "2", "--i", "3",
            "--p", "1/3,1/3,1/3", "--perturb", index,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_simulate_runs(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "2", "--i", "4",
        "--samples", "5000", "--seed", "2",
    )
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 7


def test_prevalence_runs(capsys):
    code, out, _ = run_cli(
        capsys, "prevalence", "--i", "2", "--samples", "5000",
        "--seed", "4", "--format", "records",
    )
    assert code == 0
    report = json.loads(out)
    assert 0.0 < report["fraction_within_exceeds_between"] < 1.0
    assert report["ci95_low"] <= report["fraction_within_exceeds_between"]
    assert report["ci95_high"] >= report["fraction_within_exceeds_between"]


def test_guard_rejects_large_draw_size(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--k", "9", "--i", "4")
    assert code == 1 and "guard" in err


def test_oracle_guard_respected(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--k", "5", "--i", "10")
    assert code == 1 and "guard" in err


def test_missing_frequency_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "expectation", "--freq", str(tmp_path / "nope.csv")
    )
    assert code == 1 and err


def test_bad_frequency_file(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,0.8\nB,0.1\n")
    code, _, err = run_cli(capsys, "expectation", "--freq", str(path))
    assert code == 1 and "sum to 0.9" in err


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "table.txt"
    code, out, _ = run_cli(
        capsys, "enumerate", "--k", "2", "--i", "4", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert "states=7" in out_path.read_text()


def test_output_file_unwritable(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "table.txt"
    code, out, err = run_cli(
        capsys, "enumerate", "--k", "2", "--i", "3", "--out", str(missing)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(
        capsys, "enumerate", "--k", "3", "--i", "6",
        "--p", "1/2,1/2,0,0,0,0", "--format", "records",
    )
    _, second, _ = run_cli(
        capsys, "enumerate", "--k", "3", "--i", "6",
        "--p", "1/2,1/2,0,0,0,0", "--format", "records",
    )
    assert first == second


# SHA-256 of stdout of fixed requests, each exiting 0. A change to any
# byte of the state tables, count grid or reports shows here; simulate and
# prevalence are in SAMPLING_OUTPUTS because their output depends on the
# numpy version.
GOLDEN_OUTPUTS = [
    ("count-table-k6",
     ["count-table", "--k", "6"],
     "bf542b1dfb66234fca44ffb2005c978e0a13651aea5b828971430e803c513db6"),
    ("enumerate-k6-i12-table",
     ["enumerate", "--k", "6", "--i", "12"],
     "6542a2cf69152ebb3530986f3d24f783f1150730791407489af07af967c289a0"),
    ("enumerate-k6-i12-records",
     ["enumerate", "--k", "6", "--i", "12", "--format", "records"],
     "cfcd9d35a2bbf52898597506d795c4ca5886a12f632e96c64f57bcc19c8b004a"),
    ("enumerate-k6-i12-csv",
     ["enumerate", "--k", "6", "--i", "12", "--format", "csv"],
     "1cd9d5696a7e34f407e73659706dc68285bbfed519d4f77aa48403f587616383"),
    ("enumerate-k5-i8-table",
     ["enumerate", "--k", "5", "--i", "8"],
     "ae147ac0f05d0b22af2c88653fbeb8955b9ca91dc276faf5e42ace1f176545c7"),
    ("probabilities-k3-i4-rational-records",
     ["probabilities", "--k", "3", "--i", "4", "--p", "1/2,1/4,1/8,1/8",
      "--q", "1/10,2/5,0,1/2", "--format", "records"],
     "8f414cafa5bf46dd4e6145d85e479f7c639135c1bf45e1dafab1347c7a2df289"),
    ("probabilities-k4-i8-float-csv",
     ["probabilities", "--k", "4", "--i", "8",
      "--p", "0.3,0.2,0.1,0.1,0.1,0.1,0.05,0.05",
      "--q", "0.125,0.125,0.125,0.125,0.2,0.1,0.2,0", "--format", "csv"],
     "4eb9e530cd98f03e10e9303ffaddd29434b4373d197c6754000de80ff65dad2c"),
    ("expectation-rational-records",
     ["expectation", "--p", "1/2,1/3,1/6", "--q", "1/6,1/3,1/2",
      "--format", "records"],
     "0e852e1230c657650735170a8bb25f9258522d7fbdf49470e0d8a9fe580f2bb0"),
    ("oracle-check-k3-i4",
     ["oracle-check", "--k", "3", "--i", "4"],
     "abd7a00310a8888fb7fc5cb471fb310f8b714d7a8b6abb414786b5fd854450ee"),
]


@pytest.mark.parametrize(
    "argv, digest",
    [case[1:] for case in GOLDEN_OUTPUTS],
    ids=[case[0] for case in GOLDEN_OUTPUTS],
)
def test_golden_output_digests(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Seeded simulate and prevalence stdout, pinned for the numpy release the
# digests were recorded with: its generator streams may change in another.
SAMPLING_NUMPY = "2.4.6"
SAMPLING_OUTPUTS = [
    ("simulate-k2-i4",
     ["simulate", "--k", "2", "--i", "4", "--samples", "100000", "--seed", "11"],
     "b18b16d58870c670c25ef7e5ffde2e511cc1f69df662c0a327f69c19b67074ff"),
    ("simulate-k3-i6",
     ["simulate", "--k", "3", "--i", "6", "--samples", "100000", "--seed", "12"],
     "9d70bd17b23a56940a0aafe7ead160b760b413e337f87a74d24bd5682ac101ac"),
    # about 55,000 distinct ordered pairs
    ("simulate-k4-i8",
     ["simulate", "--k", "4", "--i", "8", "--samples", "100000", "--seed", "13"],
     "1dccb09f706650820d9c4e6943d5f4b0482b45d8d40284e4a0f407dddbfc1ac5"),
    ("prevalence-i10",
     ["prevalence", "--i", "10", "--seed", "14"],
     "74dd007c08d7fc405daa080220657beb95b576edcb2c4c856eff5e44f31ad0a9"),
    # about 120 of the first 1000 Gamma rows underflow to zero and are redrawn
    ("prevalence-i3-redraw",
     ["prevalence", "--i", "3", "--samples", "1000", "--seed", "3",
      "--concentration", "0.001"],
     "c95bac3fa461e641b7886829b56956f5e4a155f7108aad47314813f233f91a8e"),
]


@pytest.mark.skipif(numpy.__version__ != SAMPLING_NUMPY,
                    reason=f"sampling digests are for numpy {SAMPLING_NUMPY}")
@pytest.mark.parametrize(
    "argv, digest",
    [case[1:] for case in SAMPLING_OUTPUTS],
    ids=[case[0] for case in SAMPLING_OUTPUTS],
)
def test_sampling_output_digests(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


NUMPY_PROBE = """
import contextlib, io, sys
import idstates
from idstates import cli

def loaded_after(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(argv[0], code, "numpy" in sys.modules)

print("import", 0, "numpy" in sys.modules)
for argv in [
    ["count-table", "--k", "3"],
    ["enumerate", "--k", "2", "--i", "4"],
    ["enumerate", "--k", "2", "--i", "4", "--format", "records"],
    ["enumerate", "--k", "2", "--i", "4", "--format", "csv"],
    ["probabilities", "--k", "2", "--i", "3", "--p", "1/2,1/4,1/4"],
    ["probabilities", "--k", "2", "--i", "3", "--p", "0.5,0.25,0.25"],
    ["expectation", "--p", "1/2,1/2", "--q", "1/4,3/4"],
    ["oracle-check", "--k", "2", "--i", "3"],
    ["simulate", "--k", "2", "--i", "3", "--samples", "100"],
]:
    loaded_after(argv)
"""


def test_only_sampling_loads_numpy():
    # a fresh interpreter: this one already has numpy loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert len(lines) == 10
    for command, code, loaded in lines:
        assert code == "0", command
        assert loaded == str(command == "simulate"), command


def test_inline_frequency_length_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--k", "2", "--i", "4", "--p", "1/2,1/2"
    )
    assert code == 1 and "--i" in err


def test_q_without_p_rejected(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--k", "2", "--i", "2", "--q", "1/2,1/2"
    )
    assert code == 1 and "--p" in err


def test_freq_and_inline_conflict(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,1/2\nB,1/2\n")
    code, _, err = run_cli(
        capsys, "enumerate", "--k", "2", "--i", "2",
        "--freq", str(path), "--p", "1/2,1/2",
    )
    assert code == 1 and "not both" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--k", "abc", "--i", "3"],
    ["no-such-command"],
    [],
    ["enumerate", "--k", "2", "--i", "3", "--format", "xml"],
    ["enumerate", "--k", "2", "--i", "3", "stray\nargument"],
])
def test_usage_errors_exit_one_line(capsys, argv):
    assert_one_error_line(*run_cli(capsys, *argv))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-h"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_huge_decimal_frequency_exits_one_line(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,1e400\nB,1\n")
    # the header probe reads the first row's second cell before any parse
    huge = tmp_path / "huge.csv"
    huge.write_text("o1,1e2000000\no2,1\n")
    for argv in (
        ["enumerate", "--k", "2", "--i", "2", "--p", "1e400,1"],
        ["enumerate", "--k", "2", "--i", "2", "--freq", str(path)],
        ["expectation", "--p", "1e10000000,1"],
        ["expectation", "--mode", "rational", "--p", "1e-10000000,1"],
        ["expectation", "--freq", str(huge)],
    ):
        start = time.perf_counter()
        result = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert_one_error_line(*result)


def test_rational_sum_message_survives_long_fractions(capsys):
    # the sum 1 + 10^-4300 has more digits than Python will print
    for p, word in [("1e-4300,1", "more"), ("1e-4300,1/2", "less")]:
        result = run_cli(capsys, "expectation", "--mode", "rational", "--p", p)
        assert_one_error_line(*result)
        assert f"sum to {word} than 1, expected exactly 1" in result[2]
    result = run_cli(capsys, "expectation", "--p", "1/3,1/3")
    assert_one_error_line(*result)
    assert "sum to 2/3, expected exactly 1" in result[2]


def test_memory_error_exits_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(cli, "monte_carlo_state_distribution", exhausted)
    assert_one_error_line(*run_cli(
        capsys, "simulate", "--k", "2", "--i", "3", "--samples", "100"))


@pytest.mark.parametrize("concentration", ["inf", "1e-300"])
def test_prevalence_concentration_out_of_reach(capsys, concentration):
    assert_one_error_line(*run_cli(
        capsys, "prevalence", "--i", "3", "--samples", "50",
        "--concentration", concentration))


def test_auto_mode_decided_over_p_and_q_together(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,0.5,1\nB,0.5,0\n")
    for source in (["--p", "0.5,0.5", "--q", "1,0"], ["--freq", str(path)]):
        code, out, _ = run_cli(capsys, "expectation", *source, "--format", "records")
        report = json.loads(out)
        assert code == 0
        assert report["e_qq"] == 0.0 and "e_qq_float" not in report
        assert "state_sum_matches" not in report


# -- argv and frequency-file fuzz: exit 0, 1 or 2, never a traceback ---------

ODD_TOKENS = ["abc", "1e400", "inf", "nan", "-1", "1/0", ",,", "1e-300", "", "0"]


def _options_by_command():
    """Each command's value-taking options and flags, read from the parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a.option_strings[0] for a in parser._actions
               if a.option_strings and a.option_strings[0] not in ("-h", "--out", "--freq")]
        for name, parser in sub.choices.items()
    }


OPTIONS = _options_by_command()
ALL_OPTIONS = sorted({opt for opts in OPTIONS.values() for opt in opts})


def maybe_odd(draw, good: str) -> str:
    """good, or now and then one of the odd tokens."""
    return draw(st.sampled_from(ODD_TOKENS)) if draw(st.integers(0, 7)) == 0 else good


@st.composite
def frequency_tokens(draw, n):
    """n frequency tokens summing to 1, rational or decimal, maybe one odd."""
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    total = sum(weights)
    decimal = draw(st.booleans())
    tokens = [repr(w / total) if decimal else f"{w}/{total}" for w in weights]
    j = draw(st.integers(0, n - 1))
    tokens[j] = maybe_odd(draw, tokens[j])
    return tokens


@st.composite
def argv_case(draw):
    """A command with mostly well-formed options (K <= 4, I <= 6,
    --samples <= 1000), some odd values, and at times an option it lacks."""
    command = draw(st.sampled_from([*OPTIONS, "bogus"]))
    k, i = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    good = {
        "--k": str(k), "--i": str(i),
        "--p": ",".join(draw(frequency_tokens(i))),
        "--q": ",".join(draw(frequency_tokens(i))),
        "--samples": str(draw(st.integers(1, 1000))),
        "--seed": str(draw(st.integers(0, 99))),
        "--perturb": str(draw(st.integers(-1, 20))),
        "--concentration": draw(st.sampled_from(["0.5", "1", "3"])),
        "--mode": draw(st.sampled_from(["auto", "rational", "float"])),
        "--format": draw(st.sampled_from(["table", "records", "csv"])),
    }
    argv = [command]
    for opt in OPTIONS.get(command, []):
        # --k, --i and --p are given 7 times in 8, the rest half the time
        mostly = opt in ("--k", "--i", "--p")
        if draw(st.integers(0, 7)) if mostly else draw(st.booleans()):
            argv.append(opt)
            if opt in good:
                argv.append(maybe_odd(draw, good[opt]))
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(ALL_OPTIONS)))
    return argv


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 1:
        assert_one_error_line(code, out, err)
    else:
        assert err == ""


@settings(max_examples=120)
@given(argv_case())
def test_argv_fuzz_keeps_exit_contract(argv):
    assert_contract(*run_captured(argv))


@st.composite
def frequency_file(draw):
    """Frequency-file bytes with, at times, a header, a ragged row, a
    duplicate id, an odd number or bytes that are not UTF-8."""
    n = draw(st.integers(1, 5))
    columns = [draw(frequency_tokens(n)) for _ in range(draw(st.integers(1, 2)))]
    rows = [[f"o{j}", *(column[j] for column in columns)] for j in range(n)]
    fault = draw(st.sampled_from([None, "ragged", "duplicate", "wide", "bytes"]))
    if fault == "ragged":
        rows[-1].pop()
    elif fault == "duplicate":
        rows[-1][0] = rows[0][0]
    elif fault == "wide":
        rows = [row + ["1"] for row in rows]
    if draw(st.booleans()):
        rows.insert(0, ["object_id", "p", "q"][: len(columns) + 1])
    delim = draw(st.sampled_from([",", "\t"]))
    data = "\n".join(delim.join(row) for row in rows).encode()
    if fault == "bytes":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("])) + data[cut:]
    return data, n


@settings(max_examples=80)
@given(frequency_file())
def test_frequency_file_fuzz_keeps_exit_contract(tmp_path_factory, case):
    data, n_objects = case
    path = tmp_path_factory.mktemp("freq") / "f.csv"
    path.write_bytes(data)
    for argv in (["expectation", "--freq", str(path)],
                 ["enumerate", "--k", "2", "--i", str(n_objects), "--freq", str(path)]):
        assert_contract(*run_captured(argv))
