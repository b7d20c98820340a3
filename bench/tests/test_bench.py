"""Tests of the benchmark itself, on tiny request sizes.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from harness import child_env, run_benchmark, run_pass, summarize  # noqa: E402
from workloads import WORKLOADS, Request, build, check_oracle_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

CLI_LAYER = ["cli.import_s", "cli.self_s", "cli.exit_s"]

#: per-layer metrics that must be nonzero on each workload, where the layer works
LAYER_WORK = {
    "catalog": CLI_LAYER + [
        "enumeration.state_count_s", "enumeration.enumerate_states_s",
        "enumeration.states_built", "serialize.write_s", "serialize.bytes_out",
        "serialize.parse_s",
    ],
    "probability": CLI_LAYER + [
        "enumeration.enumerate_states_s", "probability.rational_s",
        "probability.float_s", "probability.evals", "probability.nonzero_share",
        "probability.exhaustive_s", "probability.exhaustive_pairs",
        "probability.monte_carlo_s", "probability.samples",
        "expectation.via_states_self_s", "expectation.prevalence_s",
        "expectation.trials", "serialize.parse_s",
    ],
}


def test_layer_table_covers_every_per_layer_metric():
    named = {m for names in LAYER_WORK.values() for m in names}
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert named == declared - {"trace.overhead_share"}


def test_same_seed_gives_same_requests(tmp_path):
    for workload in WORKLOADS:
        first = [r.argv for r in build(workload, 5, tmp_path, tiny=True)]
        assert first == [r.argv for r in build(workload, 5, tmp_path, tiny=True)]
    assert ([r.argv for r in build("probability", 5, tmp_path)]
            != [r.argv for r in build("probability", 6, tmp_path)])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(workload, tmp_path):
    report = run_benchmark(workload, 3, 0, False, tmp_path, tiny=True)
    assert report["failed"] == 0, report["records"]
    assert report["attempted"] == len(build(workload, 3, tmp_path, tiny=True))
    for metric in SPEC["end_to_end"]:
        assert report["metrics"][metric["name"]] > 0
    assert (tmp_path / "report.json").is_file()


def test_deliberate_failure_counts_in_failed_share(tmp_path):
    inline = ["--p", "1/2,1/4,1/4", "--q", "1/3,1/3,1/3"]
    base = ["oracle-check", "--k", "2", "--i", "3", *inline]
    requests = [
        Request(base + ["--perturb", "0"], check_oracle_pass),
        Request(base, check_oracle_pass),
    ]
    records = run_pass(requests, child_env(), tmp_path)
    assert records[0]["exit"] == 2
    assert records[0]["failure"].startswith("exit 2")
    assert records[1]["failure"] is None
    assert summarize(records) == {"attempted": 2, "failed": 1, "failed_share": 0.5}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_each_layer(workload, tmp_path):
    report = run_benchmark(workload, 3, 0, True, tmp_path, tiny=True)
    assert report["failed"] == 0, report["records"]
    metrics = report["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in LAYER_WORK[workload]:
        assert metrics[name] > 0, name

    spans = json.loads((tmp_path / "report.json").read_text())["spans"]
    assert all(set(s) == {"name", "start", "end", "parent", "request"} for s in spans)
    # self times of the spans under each request add up to its wall time
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]

    def root(idx):
        while spans[idx]["parent"] is not None:
            idx = spans[idx]["parent"]
        return idx

    walls = {i: s["end"] - s["start"] for i, s in enumerate(spans)
             if s["name"] == "request"}
    totals = dict.fromkeys(walls, 0.0)
    for idx in range(len(spans)):
        if root(idx) in totals:
            totals[root(idx)] += own[idx]
    assert totals == pytest.approx(walls, abs=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert '"metrics"' not in run.stdout
