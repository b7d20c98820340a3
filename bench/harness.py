"""Closed-loop load generator for the idstates CLI.

One client sends one request at a time and waits for it: each request is a
fresh interpreter, started with a fixed environment, and its wall time, CPU
time and peak RSS come from the kernel's accounting of that process. Outputs
are checked after the pass, outside the timed requests.

A traced pass runs each request through trace_child.py instead, which records
spans around every layer call; self time of a span is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy

from workloads import PARSERS, CheckFailed, Request, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: An untraced run sends a set-up probe before every PROBE_EVERY-th request,
#: so the probes spread over the whole run; setup_s is their median.
PROBE_EVERY = 3

#: What setup_s times: start the interpreter, import the CLI, parse the request.
SETUP_PROBE = (
    "import sys\n"
    "from idstates.cli import build_parser, config_from_args\n"
    "config_from_args(build_parser().parse_args(sys.argv[1:]))\n"
)

#: per-layer metric -> span whose self time it sums
SELF_TIMES = {
    "enumeration.state_count_s": "enumeration.state_count",
    "enumeration.enumerate_states_s": "enumeration.enumerate_states",
    "probability.rational_s": "probability.rational",
    "probability.float_s": "probability.float",
    "probability.exhaustive_s": "probability.exhaustive",
    "probability.monte_carlo_s": "probability.monte_carlo",
    "expectation.via_states_self_s": "expectation.via_states",
    "expectation.prevalence_s": "expectation.prevalence",
    "serialize.write_s": "serialize.write",
    "serialize.parse_s": "serialize.parse",
    "cli.import_s": "cli.import",
    "cli.self_s": "cli.main",
    "cli.exit_s": "request",
}

#: per-layer work counts summed from the traced requests
COUNTS = [
    "enumeration.states_built",
    "probability.evals",
    "probability.exhaustive_pairs",
    "probability.samples",
    "expectation.trials",
    "serialize.bytes_out",
]


@dataclass
class Outcome:
    """One finished child process."""

    start: float
    end: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict[str, str]:
    """The caller's environment without IDSTATES_THREADS, importing from src."""
    env = {k: v for k, v in os.environ.items() if k != "IDSTATES_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], env: dict[str, str], workdir: Path) -> Outcome:
    """Run cmd to completion; stdout and stderr pass through files in workdir."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        start=start,
        end=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
    )


def _parse(text: str, fmt: str):
    return PARSERS[fmt](text)


def failure(req: Request, out: Outcome, parse) -> str | None:
    """Why the request failed, or None when its output passed its check."""
    if out.code != 0:
        last = out.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {out.code}: {last[0]}"
    if "Traceback (most recent call last)" in out.stderr:
        return "traceback on stderr"
    try:
        req.check(out.stdout, parse)
    except CheckFailed as err:
        return str(err)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return f"unreadable output: {err!r}"
    return None


class Trace:
    """Spans and counts of a traced pass, with one root span per request."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()

    def add(self, rid: int, out: Outcome, child: dict):
        root = len(self.spans)
        self.spans.append(self._span("request", out.start, out.end, None, rid))
        # the child's import span starts when the parent started the process
        self.spans.append(self._span("cli.import", out.start, child["imported"], root, rid))
        base = len(self.spans)
        for s in child["spans"]:
            parent = root if s["parent"] is None else base + s["parent"]
            self.spans.append(self._span(s["name"], s["start"], s["end"], parent, rid))
        self.counts.update(child["counts"])

    def parser(self, rid: int):
        """parse(text, fmt) that records the client's parse-back as a span."""

        def parse(text: str, fmt: str):
            start = time.perf_counter()
            table = _parse(text, fmt)
            self.spans.append(
                self._span("serialize.parse", start, time.perf_counter(), None, rid)
            )
            return table

        return parse

    @staticmethod
    def _span(name, start, end, parent, rid) -> dict:
        return {"name": name, "start": start, "end": end, "parent": parent,
                "request": rid}

    def self_times(self) -> Counter:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        totals: Counter = Counter()
        for s, t in zip(self.spans, own):
            totals[s["name"]] += t
        return totals

    def wall_s(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == "request")

    def metrics(self, untraced_wall_s: float) -> dict[str, float]:
        own = self.self_times()
        metrics = {metric: float(own[name]) for metric, name in SELF_TIMES.items()}
        metrics.update({name: self.counts[name] for name in COUNTS})
        evals = self.counts["probability.evals"]
        metrics["probability.nonzero_share"] = (
            self.counts["probability.nonzero"] / evals if evals else 0.0
        )
        metrics["trace.overhead_share"] = self.wall_s() / untraced_wall_s - 1
        return metrics


def _child_trace(path: Path, out: Outcome) -> dict:
    """The traced child's spans; none when it died before writing them."""
    if not path.is_file():
        return {"imported": out.start, "spans": [], "counts": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def run_pass(requests: list[Request], env, workdir: Path, trace: Trace | None = None,
             probes: list[float] | None = None, sent: int = 0):
    """Send every request once, in order, then check the outputs.

    When probes is given, every PROBE_EVERY-th request of the run, counting
    the `sent` requests of earlier passes, is preceded by a set-up probe
    whose wall time is appended to probes.
    """
    outcomes = []
    spans_path = workdir / "child-spans.json"
    for rid, req in enumerate(requests):
        if probes is not None and (sent + rid) % PROBE_EVERY == 0:
            probe = [sys.executable, "-c", SETUP_PROBE, *req.argv]
            probes.append(spawn(probe, env, workdir).wall_s)
        if trace is None:
            out = spawn([sys.executable, "-m", "idstates", *req.argv], env, workdir)
        else:
            spans_path.unlink(missing_ok=True)
            out = spawn([sys.executable, str(BENCH / "trace_child.py"),
                         str(spans_path), *req.argv], env, workdir)
            trace.add(rid, out, _child_trace(spans_path, out))
        outcomes.append(out)
    records = []
    for rid, (req, out) in enumerate(zip(requests, outcomes)):
        parse = _parse if trace is None else trace.parser(rid)
        records.append({
            "argv": req.argv,
            "wall_s": out.wall_s,
            "cpu_s": out.cpu_s,
            "rss_mb": out.rss_mb,
            "exit": out.code,
            "failure": failure(req, out, parse),
        })
    return records


def summarize(records: list[dict]) -> dict:
    failed = sum(r["failure"] is not None for r in records)
    return {"attempted": len(records), "failed": failed,
            "failed_share": failed / len(records)}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": _git_commit()}


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  workdir: Path, tiny: bool = False) -> dict:
    """Run one workload; returns metrics, records and environment.

    Untraced: whole passes over the request list until another pass would
    take the measured time (requests and probes) past `seconds`, with at
    least one pass, then a partial pass, without probes, over the leading
    requests that fill the rest of `seconds`. Each request counts with its
    best pass. Traced: one untraced pass, then one traced pass.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    requests = build(workload, seed, workdir, tiny)
    report = {"workload": workload, "seed": seed, "trace": traced,
              "environment": environment()}
    if traced:
        plain = run_pass(requests, env, workdir)
        trace = Trace()
        records = plain + run_pass(requests, env, workdir, trace)
        report["metrics"] = trace.metrics(sum(r["wall_s"] for r in plain))
        report["spans"] = trace.spans
    else:
        probes: list[float] = []
        passes = []
        measured = 0.0
        while True:
            before = measured
            passes.append(run_pass(requests, env, workdir, probes=probes,
                                   sent=len(requests) * len(passes)))
            # measured time only: output checks do not use up the run
            measured = sum(probes) + sum(r["wall_s"] for p in passes for r in p)
            left = seconds - measured
            if left < measured - before:
                break
        # the rest of the run goes to a partial pass over the leading
        # requests that still fit, going by their times in the last pass
        fit = 0
        for r in passes[-1]:
            left -= r["wall_s"]
            if left < 0:
                break
            fit += 1
        if fit:
            passes.append(run_pass(requests[:fit], env, workdir))
        records = [r for p in passes for r in p]
        # best pass per request: other tenants slow the shared host for
        # stretches of a minute or more, and the fastest pass is the one
        # they slowed least
        best = [{key: min(p[j][key] for p in passes if j < len(p))
                 for key in ("wall_s", "cpu_s", "rss_mb")}
                for j in range(len(requests))]
        report["metrics"] = {
            "wall_s": sum(b["wall_s"] for b in best),
            "cpu_s": sum(b["cpu_s"] for b in best),
            "peak_rss_mb": max(b["rss_mb"] for b in best),
            "setup_s": statistics.median(probes),
        }
        report["setup_probes"] = probes
        report["passes"] = len(passes)
    report["records"] = records
    report.update(summarize(records))
    for scratch in ("stdout", "stderr", "child-spans.json"):
        (workdir / scratch).unlink(missing_ok=True)
    (workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report
