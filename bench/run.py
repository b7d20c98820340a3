"""Benchmark of the idstates CLI, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload {catalog,exact,float-sim} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics. The full
report (environment, every request, and the spans of a traced run) is
written to bench/out/<workload>-seed<N>-trace<T>/report.json. See
bench/README.md for what each metric and workload means.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "idstates" / "cli.py").is_file():
        print(f"error: no idstates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from harness import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), workdir)

    env = report["environment"]
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"commit {env['commit']}")
    for rec in report["records"]:
        status = "ok" if rec["failure"] is None else f"FAILED ({rec['failure']})"
        print(f"{rec['wall_s']:8.3f} s  {rec['cpu_s']:8.3f} cpu-s  "
              f"{rec['rss_mb']:6.1f} MB  {' '.join(rec['argv'])[:80]}  {status}")
    print(f"failed_share {report['failed_share']}  report {workdir / 'report.json'}")
    metrics = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
