"""CLI behavior: commands, formats, exit codes, determinism."""

import json

from idstates.cli import main
from idstates.serialize import parse_state_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
