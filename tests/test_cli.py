"""CLI behavior: commands, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
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
from idstates import StateMatrix, StateProbability, enumerate_states
from idstates.cli import main
from idstates.probability import brute_force_state_distribution
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


def parser_options():
    """Each command's options (first spelling, -h left out), read from the parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a.option_strings[0] for a in parser._actions
               if a.option_strings and a.option_strings[0] != "-h"]
        for name, parser in sub.choices.items()
    }


def test_enumerate_basic(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--k", "2", "--i", "4")
    assert code == 0 and not err
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 7  # header + states


def test_enumerate_single_draws(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "1", "--i", "2")
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert code == 0 and len(rows) == 1 + 2


def test_probabilities_records(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,1/3,1/6\nB,1/3,2/6\nC,1/6,1/6\nD,1/6,2/6\nE,0,0\nF,0,0\n")
    code, out, _ = run_cli(
        capsys, "probabilities", "--k", "3", "--i", "6",
        "--freq", str(path), "--format", "records",
    )
    assert code == 0
    table = parse_state_records(out)
    assert len(table.states) == 21
    assert sum(table.probabilities) == 1


def test_probabilities_requires_frequencies(capsys):
    code, _, err = run_cli(capsys, "probabilities", "--k", "2", "--i", "4")
    assert code == 1 and "requires" in err


def test_nonpositive_object_count_names_the_flag(capsys):
    result = run_cli(capsys, "enumerate", "--k", "2", "--i", "0")
    assert_one_error_line(*result)
    assert result[2] == "error: --i must be a positive integer\n"


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


def test_expectation_state_sum_mismatch_exits_two(capsys, monkeypatch):
    via_states = cli.expected_dissimilarity_via_states
    monkeypatch.setattr(cli, "expected_dissimilarity_via_states",
                        lambda k, p, q: via_states(k, p, q) + Fraction(1, 1000))
    code, out, err = run_cli(capsys, "expectation", "--p", "4/5,1/5",
                             "--q", "9/10,1/10", "--k", "3")
    # the report is still printed in full
    assert (code, err) == (2, "")
    assert out.splitlines()[-1].split() == ["state_sum_matches", "no"]


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
    real_oracle = cli.brute_force_state_distribution

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

    # a state of I=4 reached in an I=2 run is in no row, so it gets its own line
    outside = StateMatrix((0, 2, 0, 2, 0, 0, 0, 0, 0))

    def reaching_outside(distribution):
        def reached(*args, **kwargs):
            dist = distribution(*args, **kwargs)
            dist[outside] = Fraction(1, 1000)
            return dist
        return reached

    monkeypatch.setattr(cli, "state_distribution", reaching_outside(real))
    monkeypatch.setattr(cli, "brute_force_state_distribution",
                        reaching_outside(real_oracle))
    code, out, _ = run_cli(
        capsys, "oracle-check", "--k", "2", "--i", "2", "--p", "1/2,1/2",
    )
    assert code == 2
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == [
        "FAIL\toracle reached states missing from the catalog",
        "FAIL\tstate_distribution reached states missing from the catalog",
    ]


@pytest.mark.parametrize("path", ["state_distribution", "state_probability"])
def test_float_oracle_check_flags_a_wrong_tiny_state(capsys, monkeypatch, path):
    # three of the 21 states lie below 1e-12; float oracle-check compares
    # each value by ==, so tripling the least likely one fails the check
    inline = "0.5,0.499996,0.000001,0.000001,0.000001,0.000001"
    p = [float(v) for v in inline.split(",")]
    real_distribution, real_probability = cli.state_distribution, cli.state_probability
    dist = real_distribution(3, p, p)
    least = min(dist, key=dist.get)  # about 1.8e-22

    def tripled_distribution(draw_size, p, q):
        dist = real_distribution(draw_size, p, q)
        dist[least] *= 3
        return dist

    def tripled_probability(state, p, q):
        value = real_probability(state, p, q).value
        return StateProbability(3 * value if state.canonical_matrix == least else value)

    monkeypatch.setattr(cli, path, {"state_distribution": tripled_distribution,
                                    "state_probability": tripled_probability}[path])
    code, out, _ = run_cli(capsys, "oracle-check", "--k", "3", "--i", "6", "--p", inline)
    assert code == 2
    failing = [ln for ln in out.splitlines() if "\tFAIL\t" in ln]
    assert len(failing) == 1
    assert ("\tstate_distribution=" in failing[0]) == (path == "state_distribution")


def test_probabilities_at_high_draw_size_and_two_objects(capsys):
    # K = 16 at I = 2 lists 81 states without building the I = 2K catalog
    p = [Fraction(1, 3), Fraction(2, 3)]
    code, out, _ = run_cli(
        capsys, "probabilities", "--k", "16", "--i", "2", "--p", "1/3,2/3",
        "--force", "--format", "records",
    )
    assert code == 0
    table = parse_state_records(out)
    assert len(table.states) == 81
    oracle = brute_force_state_distribution(16, 2, p, p, force=True)
    assert dict(zip((s.canonical_matrix for s in table.states),
                    table.probabilities)) == oracle


def test_oracle_check_perturb_out_of_range(capsys, monkeypatch):
    # the range is checked before either oracle runs
    def boom(*args, **kwargs):
        raise AssertionError("an oracle ran")

    for name in ("brute_force_state_distribution", "state_probability",
                 "state_distribution"):
        monkeypatch.setattr(cli, name, boom)
    # K=2, I=3 has 6 states: valid indices are 0..5; K=5, I=9 has 191
    for k, i, index, states in [("2", "3", "99", 6), ("2", "3", "6", 6),
                                ("2", "3", "-1", 6), ("5", "9", "100000", 191)]:
        code, out, err = run_cli(capsys, "oracle-check", "--k", k, "--i", i,
                                 "--perturb", index)
        assert_one_error_line(code, out, err)
        assert f"--perturb {index} is outside the {states} states" in err


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


@pytest.mark.parametrize("fraction", [0.0, 1.0])
@pytest.mark.parametrize("samples", ["3", "10"])
def test_prevalence_interval_holds_its_estimate_at_the_ends(
        capsys, monkeypatch, fraction, samples):
    # the float Wilson formula leaves 5.6e-17 as the low bound at n = 3 and
    # 1 - 1.1e-16 as the high bound at n = 10; the printed 12 digits show
    # the first only, so the unrounded fields are checked too
    monkeypatch.setattr(cli, "prevalence_experiment", lambda *a, **kw: fraction)
    fields = {}
    write_fields = cli.write_fields

    def keep_fields(pairs, fmt):
        fields.update(pairs)
        return write_fields(pairs, fmt)

    monkeypatch.setattr(cli, "write_fields", keep_fields)
    code, out, _ = run_cli(capsys, "prevalence", "--i", "2", "--samples", samples,
                           "--format", "records")
    assert code == 0
    for report in (json.loads(out), fields):
        assert report["fraction_within_exceeds_between"] == fraction
        assert report["ci95_low"] <= fraction <= report["ci95_high"]
        assert report["ci95_low" if fraction == 0 else "ci95_high"] == fraction


def test_guard_rejects_large_draw_size(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--k", "9", "--i", "4")
    assert code == 1 and "guard" in err


def test_oracle_guard_respected(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--k", "5", "--i", "10")
    assert code == 1 and "guard" in err
    assert "K=5, I=10 takes 187368184 steps" in err and "--force" in err


@pytest.mark.parametrize("k, i, products", [
    (1, 1, 1), (3, 2, 12),  # I < 2K
    (3, 6, 4956), (4, 4, 964),  # the benchmark's oracle-check requests
    (3, 8, 44640),  # CI's float oracle-check
    (5, 9, 8031537),
    (4, 12, 33323148), (3, 20, 32259360),
])
def test_closed_form_products_and_guard(capsys, monkeypatch, k, i, products):
    # a state of N distinct objects sums I!/(I-N)! products; oracle-check
    # prices its guard over the catalog it checks
    assert products == sum(math.perm(i, s.n_distinct) for s in enumerate_states(k, i))

    def stop(*args, **kwargs):
        raise AssertionError("past the guards")

    monkeypatch.setattr(cli, "brute_force_state_distribution", stop)
    argv = ["oracle-check", "--k", str(k), "--i", str(i)]
    if (k, i) in {(4, 12), (3, 20)}:
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert f"K={k}, I={i} sums {products} products" in err
    else:
        with pytest.raises(AssertionError, match="past the guards"):
            main(argv)


def test_closed_form_guard_refuses_before_either_oracle(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an oracle ran")

    for name in ("brute_force_state_distribution", "state_probability",
                 "state_distribution"):
        monkeypatch.setattr(cli, name, boom)
    code, out, err = run_cli(capsys, "oracle-check", "--k", "4", "--i", "12")
    assert_one_error_line(code, out, err)
    assert "K=4, I=12 sums 33323148 products" in err and "--force" in err
    # --force skips both guards and reaches the oracle
    with pytest.raises(AssertionError, match="an oracle ran"):
        cli.main(["oracle-check", "--k", "4", "--i", "12", "--force"])


def _refuse_catalog_work(monkeypatch):
    """Patch every catalog, fold and sampler the handlers call to raise."""
    def boom(*args, **kwargs):
        raise AssertionError("catalog work ran")

    for name in ("enumerate_states", "state_distribution",
                 "expected_dissimilarity_via_states",
                 "monte_carlo_state_distribution"):
        monkeypatch.setattr(cli, name, boom)


UNIFORM_92 = ",".join(["1/92"] * 92)


@pytest.mark.parametrize("argv, counts", [
    (["enumerate", "--k", "1", "--i", "100000000000000000000"],
     "K=1, I=100000000000000000000 holds 200000000000000000000 counts"),
    # 4,348 states x 92 objects, the first I past the guard at K = 8
    (["enumerate", "--k", "8", "--i", "92"], "K=8, I=92 holds 400016 counts"),
    (["probabilities", "--k", "8", "--i", "92", "--p", UNIFORM_92],
     "K=8, I=92 holds 400016 counts"),
    (["expectation", "--k", "8", "--p", UNIFORM_92],
     "K=8, I=92 holds 400016 counts"),
    (["simulate", "--k", "8", "--i", "10000", "--samples", "10"],
     "K=8, I=10000 holds 43480000 counts"),
], ids=["enumerate-1e20", "enumerate", "probabilities", "expectation", "simulate"])
def test_catalog_guard_refuses_past_the_plateau(capsys, monkeypatch, argv, counts):
    _refuse_catalog_work(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert counts in err and "over its guard (400000)" in err and "--force" in err


@pytest.mark.parametrize("argv", [
    # 4,348 x 91 = 395,668 counts, within the guard
    ["enumerate", "--k", "8", "--i", "91"],
    ["expectation", "--k", "8", "--p", ",".join(["1/91"] * 91)],
    # --force skips the guard; below the plateau it is never read
    ["enumerate", "--k", "8", "--i", "92", "--force"],
    ["simulate", "--k", "1", "--i", "400001", "--samples", "10", "--mode", "float",
     "--force"],
    ["enumerate", "--k", "16", "--i", "2", "--force"],
])
def test_catalog_guard_admits(monkeypatch, argv):
    _refuse_catalog_work(monkeypatch)
    with pytest.raises(AssertionError, match="catalog work ran"):
        main(argv)


def test_simulate_checks_samples_before_the_fold(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the catalog or the fold ran")

    monkeypatch.setattr(cli, "enumerate_states", boom)
    monkeypatch.setattr(cli, "state_distribution", boom)
    code, out, err = run_cli(capsys, "simulate", "--k", "8", "--i", "16",
                             "--samples", "0")
    assert_one_error_line(code, out, err)
    assert "need at least one sample, got 0" in err


def test_missing_frequency_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "expectation", "--freq", str(tmp_path / "nope.csv")
    )
    assert code == 1 and err


def test_bad_frequency_file(capsys, tmp_path):
    path = tmp_path / "f.csv"
    for text, message in (("A,0.8\nB,0.1\n", "sum to 0.9"),
                          ("", "no data rows"), ("\n \n\t\n", "no data rows"),
                          ("object_id,p,q\n", "no data rows")):
        path.write_text(text)
        result = run_cli(capsys, "expectation", "--freq", str(path))
        assert_one_error_line(*result)
        assert message in result[2]


def test_malformed_first_row_is_data_not_header(capsys, tmp_path):
    # only a second cell reading p marks the object_id,p[,q] header
    for first in ("a,0..5", "a,1/0"):
        path = tmp_path / "f.csv"
        path.write_text(f"{first}\nb,0.5\nc,0.5\n")
        result = run_cli(capsys, "expectation", "--freq", str(path))
        assert_one_error_line(*result)
        assert "not a number" in result[2]


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
        capsys, "probabilities", "--k", "3", "--i", "6",
        "--p", "1/2,1/2,0,0,0,0", "--format", "records",
    )
    _, second, _ = run_cli(
        capsys, "probabilities", "--k", "3", "--i", "6",
        "--p", "1/2,1/2,0,0,0,0", "--format", "records",
    )
    assert first == second


# SHA-256 of stdout of fixed requests, each exiting 0. A change to any
# byte of the state tables, count grid or reports shows here; simulate and
# prevalence are in SAMPLING_OUTPUTS because their output depends on the
# numpy version. A float probability is the correctly rounded value of
# the exact probability of the float inputs, so the float tables print
# that value to 12 digits: state 48 at K=4 is 0.00078620472656250003...,
# printed 0.000786204726563.
RATIONAL_PQ = ["--p", "1/2,1/4,1/8,1/8", "--q", "1/10,2/5,0,1/2"]
FLOAT_PQ = ["--p", "0.3,0.2,0.1,0.1,0.1,0.1,0.05,0.05",
            "--q", "0.125,0.125,0.125,0.125,0.2,0.1,0.2,0"]
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
     ["probabilities", "--k", "3", "--i", "4", *RATIONAL_PQ, "--format", "records"],
     "8f414cafa5bf46dd4e6145d85e479f7c639135c1bf45e1dafab1347c7a2df289"),
    ("probabilities-k4-i8-float-csv",
     ["probabilities", "--k", "4", "--i", "8", *FLOAT_PQ, "--format", "csv"],
     "7f5f53fc1265e32907345925232f5a35a1d6071cfeb6f57616cbe99ee4eef90d"),
    ("expectation-rational-records",
     ["expectation", "--p", "1/2,1/3,1/6", "--q", "1/6,1/3,1/2",
      "--format", "records"],
     "0e852e1230c657650735170a8bb25f9258522d7fbdf49470e0d8a9fe580f2bb0"),
    ("oracle-check-k3-i4",
     ["oracle-check", "--k", "3", "--i", "4"],
     "abd7a00310a8888fb7fc5cb471fb310f8b714d7a8b6abb414786b5fd854450ee"),
    ("oracle-check-k3-i8-float",
     ["oracle-check", "--k", "3", "--i", "8", *FLOAT_PQ],
     "8093b54785df7d55625fc62e1a43e132ca684deb7e1b8409a054067f8235ede3"),
    ("count-table-k4-records",
     ["count-table", "--k", "4", "--format", "records"],
     "e4d843a3f3cfb1fc54c1e83092852a717cf15a32d9155d689c101cbd9faecb90"),
    ("count-table-k4-csv",
     ["count-table", "--k", "4", "--format", "csv"],
     "b380b02c67f3ecf4c3e9146b2545cff08568ae1fa4c7497c1eaa99eb80be72ed"),
    ("count-table-k4-paper-table",
     ["count-table", "--k", "4", "--paper-layout"],
     "2302d484aee1028f416a84bab53943a6720293c0d0e97f3558e327b16e12f67d"),
    ("count-table-k4-paper-records",
     ["count-table", "--k", "4", "--paper-layout", "--format", "records"],
     "c928f7755e8f7968d4b84a4a742835a4089e3c2d04ce2b1eb4855477978228b9"),
    ("count-table-k4-paper-csv",
     ["count-table", "--k", "4", "--paper-layout", "--format", "csv"],
     "55a1386aae13abe885f3af67d5008b3f5d0aeadec0dea680ba8b30d33d2f8b53"),
    ("probabilities-k3-i4-rational-table",
     ["probabilities", "--k", "3", "--i", "4", *RATIONAL_PQ],
     "d2ccbcbf24f324d1f71137b57559420fd1ea3a19a7cba25f91cefab8591b704b"),
    ("probabilities-k3-i4-rational-csv",
     ["probabilities", "--k", "3", "--i", "4", *RATIONAL_PQ, "--format", "csv"],
     "d99f3193ac52fec7b1277ac7df72b5dcc9fb1ff177fea8fc277b6c981aa2f1a2"),
    ("probabilities-k4-i8-float-table",
     ["probabilities", "--k", "4", "--i", "8", *FLOAT_PQ],
     "e8462956c975057032d76995efd58e0b73234c01cef62ddd429d12df39213afc"),
    ("probabilities-k4-i8-float-records",
     ["probabilities", "--k", "4", "--i", "8", *FLOAT_PQ, "--format", "records"],
     "e64c4e622c40d40607e7a357a0c3f9f73ffe43f177c3c1d20de4e0caa568b4cb"),
    ("expectation-rational-csv",
     ["expectation", "--p", "1/2,1/3,1/6", "--q", "1/6,1/3,1/2", "--format", "csv"],
     "5334597306cafdcb3e8950af0ce7f01103ae83f91199ff094bcbd1fc88fca3f0"),
    ("expectation-rational-table",
     ["expectation", "--p", "1/2,1/3,1/6", "--q", "1/6,1/3,1/2"],
     "a668ce1449799c1b618f3f73c18a6c7b2699dc68676f860bbe12d17732d1da7b"),
    # <p, p> is 0.5399999999999999 in floats: the 12-digit rounding shows
    ("expectation-float-table",
     ["expectation", "--p", "0.7,0.2,0.1", "--q", "0.15,0.35,0.5"],
     "986f4f1efe88e582819f4b9fa42e495afb9fd9a2cdd0233e253afb8b9a4708ea"),
    ("expectation-float-records",
     ["expectation", "--p", "0.7,0.2,0.1", "--q", "0.15,0.35,0.5",
      "--format", "records"],
     "221a8591b150367c08519594299197f8a96bf9f3597116ee2d5912513473a106"),
    ("expectation-float-csv",
     ["expectation", "--p", "0.7,0.2,0.1", "--q", "0.15,0.35,0.5",
      "--format", "csv"],
     "c02315c2b25098ed2eb760a74a83a37064ebaa50f0eb06208ce09ad8e48b9d41"),
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


def test_csv_lines_split_at_their_commas(capsys):
    """No csv cell the CLI writes needs quoting: csv.reader reads each csv
    output as the rows that splitting its lines at their commas gives, and
    every row is as wide as the header."""
    requests = [argv for name, argv, _ in GOLDEN_OUTPUTS if name.endswith("-csv")]
    requests.append(["prevalence", "--i", "4", "--samples", "200", "--format", "csv"])
    assert {argv[0] for argv in requests} == {
        "enumerate", "probabilities", "count-table", "expectation", "prevalence"}
    for argv in requests:
        code, out, _ = run_cli(capsys, *argv)
        rows = [line.split(",") for line in out.splitlines()]
        assert code == 0 and list(csv.reader(io.StringIO(out))) == rows, argv
        assert {len(row) for row in rows} == {len(rows[0])}, argv


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
    # four chunks; 5452 p rows underflow to zero and are redrawn after the
    # last one
    ("prevalence-i3-multi-chunk-redraw",
     ["prevalence", "--i", "3", "--samples", "50000", "--seed", "3",
      "--concentration", "0.001"],
     "80c920190e44578faa4b87168e4bc2a0eab8e9737c3d74424121dd4fb6e17a6c"),
    ("prevalence-i5-csv",
     ["prevalence", "--i", "5", "--samples", "2000", "--seed", "15",
      "--format", "csv"],
     "8bd249c916354f06a725b9afcb0775cbfcc2b9c6764b6b40e654b4beea154a4d"),
    ("prevalence-i5-records",
     ["prevalence", "--i", "5", "--samples", "2000", "--seed", "15",
      "--format", "records"],
     "e9fa3e9e35a0dc914321298dd43c5e884ef1c79a1369f76730f3838b703ceed2"),
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


#: Modules that only some requests run: the package's probability and
#: expectation layers, json (records) and numpy (sampling), and dataclasses,
#: which no request loads.
WATCHED = ("dataclasses", "idstates.expectation", "idstates.probability", "json",
           "numpy")

# argv: the request; prints the package's submodules after `import idstates`,
# then the request's exit code and the WATCHED modules loaded after it
LOAD_PROBE = f"""
import contextlib, io, sys
import idstates
print(*sorted(m for m in sys.modules if m.startswith("idstates.")), sep=",")
from idstates import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(set({WATCHED!r}) & sys.modules.keys()), sep=",")
"""

#: Each command with the WATCHED modules it loads.
LOADS = [
    (["count-table", "--k", "3"], []),
    (["enumerate", "--k", "2", "--i", "4"], []),
    (["enumerate", "--k", "2", "--i", "4", "--format", "csv"], []),
    (["enumerate", "--k", "2", "--i", "4", "--format", "records"], ["json"]),
    (["probabilities", "--k", "2", "--i", "3", "--p", "1/2,1/4,1/4"],
     ["idstates.probability"]),
    (["probabilities", "--k", "2", "--i", "3", "--p", "0.5,0.25,0.25"],
     ["idstates.probability"]),
    (["oracle-check", "--k", "2", "--i", "3"], ["idstates.probability"]),
    (["simulate", "--k", "2", "--i", "3", "--samples", "100"],
     ["idstates.probability", "numpy"]),
    (["expectation", "--p", "1/2,1/2", "--q", "1/4,3/4"],
     ["idstates.expectation", "idstates.probability"]),
    (["prevalence", "--i", "3", "--samples", "100"],
     ["idstates.expectation", "idstates.probability", "numpy"]),
]


def test_only_sampling_loads_numpy():
    # and each command loads only the modules it runs: one fresh interpreter
    # a request, since this one has them all loaded already
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv, loads in LOADS:
        proc = subprocess.run(
            [sys.executable, "-c", LOAD_PROBE, *argv], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        after_import, after_request = proc.stdout.splitlines()
        # import idstates loads no submodule
        assert after_import == "", argv
        assert after_request.split(",") == ["0", *loads], argv


# the probabilities column comes from whatever cli.state_distribution is
# when the request runs, even when it was set before the module bound it
PATCH_PROBE = """
import contextlib, io, sys
from fractions import Fraction
from idstates import cli, enumerate_states

def fake(draw_size, p, q):
    return {s.canonical_matrix: Fraction(1, 7)
            for s in enumerate_states(draw_size, len(p))}

cli.state_distribution = fake
assert "idstates.probability" not in sys.modules
cli.main(["probabilities", "--k", "2", "--i", "3", "--p", "1/2,1/4,1/4",
          "--format", "csv"])
"""


def test_patch_set_before_the_first_request_is_kept():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PATCH_PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    column = header.split(",").index("probability")
    assert len(rows) == 6
    assert {row.split(",")[column] for row in rows} == {"1/7"}


# One request per command, with inputs at the edges of the float range; a
# numpy or Python warning on any of them is turned into an error.
QUIET_REQUESTS = [
    ["count-table", "--k", "3"],
    ["enumerate", "--k", "2", "--i", "3", "--format", "csv"],
    ["probabilities", "--k", "2", "--i", "3", "--p", "1e-320,0.5,0.5"],
    ["expectation", "--p", "1e-320,0.5,0.5", "--format", "records"],
    ["oracle-check", "--k", "2", "--i", "3"],
    ["simulate", "--k", "2", "--i", "3", "--samples", "100", "--p", "1e-320,0.5,0.5"],
    ["simulate", "--k", "2", "--i", "3", "--samples", "100", "--p", "1,0,0"],
    ["prevalence", "--i", "3", "--samples", "1000", "--seed", "3",
     "--concentration", "0.001"],
    ["prevalence", "--i", "3", "--samples", "100", "--concentration", "1e300"],
]


def run_warnings_as_errors(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "idstates", *argv],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )


def test_module_entry_point_matches_main(capsys, tmp_path):
    # python -m idstates freezes the collector before it exits; its stdout
    # bytes, stderr and exit code are main()'s, and an --out file is whole.
    # Streams stay buffered, so an exit that skipped the flush would show.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])

    def run_module(argv):
        return subprocess.run([sys.executable, "-m", "idstates", *argv],
                              capture_output=True, env=env, timeout=120)

    records = ["enumerate", "--k", "6", "--i", "12", "--format", "records"]
    for argv, want in [
        (records, 0),
        (["enumerate", "--k", "0", "--i", "2"], 1),
        (["oracle-check", "--k", "3", "--i", "3", "--perturb", "0"], 2),
        # seeded sampling: numpy runs on one BLAS thread in the module
        (["simulate", "--k", "3", "--i", "6", "--samples", "20000", "--seed", "7"], 0),
        (["prevalence", "--i", "6", "--samples", "20000", "--seed", "8"], 0),
    ]:
        code, out, err = run_cli(capsys, *argv)
        proc = run_module(argv)
        assert code == proc.returncode == want, argv
        assert (proc.stdout, proc.stderr) == (out.encode(), err.encode()), argv
    path = tmp_path / "states.jsonl"
    proc = run_module([*records, "--out", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert path.read_bytes() == run_cli(capsys, *records)[1].encode()


# replaces cli.main with a stub that loads numpy, then runs the entry point;
# prints the BLAS thread setting the stub saw and the process's thread count
RUN_PROBE = """
import os
import idstates.cli

def stub():
    import numpy
    tasks = "/proc/self/task"
    print(os.environ["OPENBLAS_NUM_THREADS"],
          len(os.listdir(tasks)) if os.path.isdir(tasks) else "-")
    return 0

idstates.cli.main = stub
from idstates.__main__ import run
run()
"""


@pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")])
def test_entry_point_sets_one_blas_thread_unless_given(given, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", RUN_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    value, tasks = proc.stdout.split()
    # the caller's value is kept; unset, numpy starts no BLAS worker
    assert value == want
    if given is None and tasks != "-":
        assert tasks == "1"


def test_cli_writes_no_warnings():
    for argv in QUIET_REQUESTS:
        proc = run_warnings_as_errors(argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert proc.stdout
    proc = run_warnings_as_errors(
        ["prevalence", "--i", "2", "--samples", "5", "--concentration", "1e308"])
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert "too large" in proc.stderr


def test_inline_frequency_length_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "probabilities", "--k", "2", "--i", "4", "--p", "1/2,1/2"
    )
    assert code == 1 and "--i" in err


def test_q_without_p_rejected(capsys):
    code, _, err = run_cli(
        capsys, "probabilities", "--k", "2", "--i", "2", "--q", "1/2,1/2"
    )
    assert code == 1 and "--p" in err


def test_freq_and_inline_conflict(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,1/2\nB,1/2\n")
    code, _, err = run_cli(
        capsys, "probabilities", "--k", "2", "--i", "2",
        "--freq", str(path), "--p", "1/2,1/2",
    )
    assert code == 1 and "not both" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--k", "abc", "--i", "3"],
    ["no-such-command"],
    [],
    ["enumerate", "--k", "2", "--i", "3", "--format", "xml"],
    ["enumerate", "--k", "2", "--i", "3", "stray\nargument"],
    # flags a command does not read are usage errors
    ["simulate", "--k", "2", "--i", "2", "--format", "csv"],
    ["oracle-check", "--k", "2", "--i", "2", "--format", "records"],
    ["prevalence", "--i", "2", "--mode", "rational"],
    ["prevalence", "--i", "2", "--force"],
    ["count-table", "--k", "2", "--seed", "5"],
    ["enumerate", "--k", "2", "--i", "3", "--mode", "float"],
    ["enumerate", "--k", "2", "--i", "3", "--mode", "auto"],
    ["enumerate", "--k", "2", "--i", "3", "--p", "1/2,1/4,1/4"],
    ["enumerate", "--k", "2", "--i", "3", "--q", "1/2,1/4,1/4"],
    ["enumerate", "--k", "2", "--i", "3", "--freq", "f.csv"],
    # --mode sets how given frequencies parse; only simulate has a default
    ["oracle-check", "--k", "2", "--i", "3", "--mode", "float"],
    ["oracle-check", "--k", "2", "--i", "3", "--mode", "rational"],
    # a flag given its default value is still given
    ["oracle-check", "--k", "2", "--i", "3", "--mode", "auto"],
    # oracle-check reads --seed only to draw frequencies; float expectation
    # runs no state-sum check, so it reads neither --k nor --force
    ["oracle-check", "--k", "2", "--i", "3", "--p", "1/2,1/4,1/4", "--seed", "5"],
    ["oracle-check", "--k", "2", "--i", "3", "--p", "1/2,1/4,1/4", "--seed", "0"],
    ["expectation", "--k", "7", "--p", "0.5,0.5"],
    ["expectation", "--k", "9", "--p", "0.5,0.5"],
    ["expectation", "--k", "2", "--p", "0.5,0.5"],
    ["expectation", "--force", "--p", "0.5,0.5"],
    # an empty value counts as given
    ["probabilities", "--k", "2", "--i", "2", "--p", ""],
    ["enumerate", "--k", "2", "--i", "2", "--out", ""],
    ["probabilities", "--k", "2", "--i", "2", "--freq", ""],
    ["simulate", "--k", "2", "--i", "2", "--p", ""],
    ["expectation", "--p", "1/2,1/2", "--q", ""],
])
def test_usage_errors_exit_one_line(capsys, argv):
    assert_one_error_line(*run_cli(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "2", "--i", "3", "--samples", "10", "--seed", "-1"],
    ["prevalence", "--i", "3", "--samples", "10", "--seed", "-1"],
    ["oracle-check", "--k", "2", "--i", "3", "--seed", "-3"],
])
def test_negative_seed_names_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err == "error: --seed must be a non-negative integer\n"


def test_mode_without_frequencies_sets_the_simulate_default(capsys):
    for mode in ("rational", "float"):
        code, out, err = run_cli(capsys, "simulate", "--k", "1", "--i", "2",
                                 "--samples", "10", "--mode", mode)
        assert (code, err) == (0, "") and out
    code, out, _ = run_cli(capsys, "oracle-check", "--k", "2", "--i", "3",
                           "--p", "1/2,1/4,1/4", "--mode", "float")
    assert code == 0 and "mode=float" in out


def test_flags_some_requests_read_default_where_read(capsys):
    # an unread --k is named, not checked against the draw-size guard
    code, _, err = run_cli(capsys, "expectation", "--k", "9", "--p", "0.5,0.5")
    assert code == 1 and "--k" in err and "guard" not in err
    code, out, _ = run_cli(capsys, "expectation", "--p", "1/2,1/2", "--format", "records")
    assert code == 0 and json.loads(out)["state_sum_draw_size"] == 2
    seeded = run_cli(capsys, "oracle-check", "--k", "2", "--i", "3", "--seed", "0")
    assert seeded[0] == 0
    assert run_cli(capsys, "oracle-check", "--k", "2", "--i", "3") == seeded


FREQUENCY_FLAGS = ["--freq", "--p", "--q", "--mode"]


def test_each_command_takes_only_the_flags_it_reads():
    expected = {
        "enumerate": ["--k", "--i", "--format", "--out", "--force"],
        "count-table": ["--k", "--paper-layout", "--format", "--out", "--force"],
        "probabilities": ["--k", "--i", *FREQUENCY_FLAGS, "--format", "--out", "--force"],
        "expectation": ["--k", *FREQUENCY_FLAGS, "--format", "--out", "--force"],
        "oracle-check": ["--k", "--i", *FREQUENCY_FLAGS, "--seed", "--perturb",
                         "--out", "--force"],
        "simulate": ["--k", "--i", *FREQUENCY_FLAGS, "--samples", "--seed",
                     "--out", "--force"],
        "prevalence": ["--i", "--samples", "--seed", "--concentration", "--format",
                       "--out"],
    }
    options = parser_options()
    assert {name: sorted(opts) for name, opts in options.items()} == {
        name: sorted(opts) for name, opts in expected.items()}
    assert sum(map(len, options.values())) == 53


#: A request each command runs without error.
VALID_REQUESTS = {
    "enumerate": ["--k", "2", "--i", "2"],
    "count-table": ["--k", "2"],
    "probabilities": ["--k", "2", "--i", "2", "--p", "1/2,1/2"],
    "expectation": ["--p", "1/2,1/2"],
    "oracle-check": ["--k", "2", "--i", "2"],
    "simulate": ["--k", "1", "--i", "2", "--samples", "10"],
    "prevalence": ["--i", "2", "--samples", "10"],
}


def test_option_prefixes_are_usage_errors(capsys, tmp_path):
    # argparse accepts a unique prefix of a long option unless allow_abbrev
    # is off; then `--form csv` or `--pert 0` would pass as a flag that no
    # README row lists
    freq = tmp_path / "freq.csv"
    freq.write_text("a,0.5,0.5\nb,0.5,0.5\n", encoding="utf-8")
    values = {"--freq": str(freq), "--p": "1/2,1/2", "--q": "1/2,1/2",
              "--mode": "float", "--samples": "10", "--seed": "1",
              "--format": "csv", "--out": str(tmp_path / "out.txt"),
              "--perturb": "0", "--concentration": "0.5"}
    spellings = [["--he"], ["--hel"]]
    for command, options in parser_options().items():
        for option in [*options, "--help"]:
            value = values.get(option)
            for end in range(3, len(option)):
                if option[:end] in options:
                    continue
                request = [command, *VALID_REQUESTS[command], option[:end]]
                spellings.append(request + ([value] if value else []))
                if value:
                    spellings.append(request[:-1] + [f"{option[:end]}={value}"])
    assert len(spellings) > 100
    for argv in spellings:
        assert_one_error_line(*run_cli(capsys, *argv))
    assert not (tmp_path / "out.txt").exists()


def test_readme_flag_table_matches_parser():
    """README's per-command flag table lists exactly the parser's options."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            flags = sorted(re.findall(r"`(--[a-z-]+)", cells[2]))
            for command in re.findall(r"`([a-z-]+)`", cells[1]):
                documented[command] = flags
    assert documented == {name: sorted(opts) for name, opts in parser_options().items()}


def test_readme_cli_examples_parse():
    """Every `idstates ...` line of README's CLI example block is a request
    the parser and config_from_args accept."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    examples = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("idstates ")]
    assert len(examples) >= 8
    assert {argv[0] for argv in examples} == set(parser_options())
    for argv in examples:
        cli.config_from_args(cli.build_parser().parse_args(argv))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-h"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_huge_decimal_frequency_exits_one_line(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,1e400\nB,1\n")
    # the first row's second cell is not p, so it is data and parsed
    huge = tmp_path / "huge.csv"
    huge.write_text("o1,1e2000000\no2,1\n")
    for argv in (
        ["probabilities", "--k", "2", "--i", "2", "--p", "1e400,1"],
        ["probabilities", "--k", "2", "--i", "2", "--freq", str(path)],
        ["expectation", "--p", "1e10000000,1"],
        ["expectation", "--mode", "rational", "--p", "1e-10000000,1"],
        ["expectation", "--freq", str(huge)],
        ["expectation", "--p", "1e308,1e308"],
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


@pytest.mark.parametrize("concentration", ["inf", "1e-300", "1e308"])
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

ODD_TOKENS = ["abc", "1e400", "inf", "nan", "-1", "1/0", ",,", "1e-300", "1e308",
              "", "0"]


def _options_by_command():
    """Each command's value-taking options and flags, read from the parser."""
    return {name: [opt for opt in opts if opt not in ("--out", "--freq")]
            for name, opts in parser_options().items()}


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
                 ["probabilities", "--k", "2", "--i", str(n_objects), "--freq", str(path)]):
        assert_contract(*run_captured(argv))
