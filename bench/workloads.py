"""Request lists, generated inputs and output checks for the benchmark workloads.

Every request is one `python -m idstates ARGS` invocation. The mix follows the
README's CLI examples and the ROADMAP's end-to-end cases; the repository has
no user logs, so this traffic is chosen, not observed. Frequency vectors and
sampler seeds come from the workload seed alone: the same seed gives the same
requests.

Each request carries a check of its output. A check raises CheckFailed when
the output is wrong; the harness counts that request as failed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

from idstates.enumeration import state_count
from idstates.probability import (
    BRUTE_FORCE_GUARD,
    FrequencyVector,
    brute_force_state_distribution,
)
from idstates.serialize import format_exact, parse_state_csv, parse_state_records

#: State counts of the paper's grid at the I = 2K plateau.
PLATEAU = {1: 2, 2: 7, 3: 21, 4: 66, 5: 192, 6: 565}
#: Grid cells below the plateau (I < 2K) that requests enumerate.
GRID_CELLS = {(3, 4): 18, (5, 8): 189}

#: Tolerance of float-mode probabilities against the rational value, as in
#: the package's tests.
FLOAT_TOLERANCE = 1e-12

PARSERS = {"records": parse_state_records, "csv": parse_state_csv}


class CheckFailed(Exception):
    """A request's output is wrong."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Request:
    """One CLI invocation and the check of its stdout.

    The check is called as check(stdout, parse), where parse(text, fmt) reads
    a records/csv state table back with idstates.serialize.
    """

    argv: list[str]
    check: Callable[[str, Callable], None]


def _args(*parts) -> list[str]:
    return [str(p) for p in parts]


def _expected_count(k: int, i: int) -> int:
    return PLATEAU[k] if i >= 2 * k else GRID_CELLS[(k, i)]


# -- generated inputs -------------------------------------------------------


def _zero_slots(n: int) -> tuple[range, range]:
    """Fixed zero positions of p and q, n // 4 each.

    p's zeros sit at the tail and q's one slot further left.
    """
    z = n // 4
    return range(n - z, n), range(n - z - 1, n - 1)


def _parts(rng: random.Random, n: int, zeros: range, total: int) -> list[int]:
    """Random positive integers summing to total, with 0 at the zero slots."""
    slots = [j for j in range(n) if j not in zeros]
    cuts = sorted(rng.sample(range(1, total), len(slots) - 1))
    weights = [0] * n
    for j, lo, hi in zip(slots, [0] + cuts, cuts + [total]):
        weights[j] = hi - lo
    return weights


def rational_pair(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """Seeded p != q as exact "a/b" tokens.

    The denominators are the primes 31 (p) and 37 (q) and the zero slots are
    fixed, so the cost of exact arithmetic does not swing between seeds.
    """
    zp, zq = _zero_slots(n)
    return ([format_exact(Fraction(w, 31)) for w in _parts(rng, n, zp, 31)],
            [format_exact(Fraction(w, 37)) for w in _parts(rng, n, zq, 37)])


def decimal_pair(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """Seeded p != q as decimal tokens (float mode) in thousandths.

    The tokens sum to exactly 1, so they also have an exact rational value.
    """
    zp, zq = _zero_slots(n)
    while True:
        p, q = ([f"0.{w:03d}" if w else "0" for w in _parts(rng, n, zeros, 1000)]
                for zeros in (zp, zq))
        if p != q:
            return p, q


def _inline(p: list[str], q: list[str]) -> list[str]:
    return ["--p", ",".join(p), "--q", ",".join(q)]


def _freq_file(workdir: Path, name: str, p: list[str], q: list[str]) -> list[str]:
    path = workdir / name
    rows = ["object_id,p,q"] + [f"o{j},{a},{b}" for j, (a, b) in enumerate(zip(p, q))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["--freq", str(path)]


@lru_cache(maxsize=None)
def _oracle(k: int, i: int, p: tuple[str, ...], q: tuple[str, ...]):
    """Exhaustive exact state distribution for the tokens' exact values."""
    pv = FrequencyVector(tuple(Fraction(t) for t in p), True)
    qv = FrequencyVector(tuple(Fraction(t) for t in q), True)
    return brute_force_state_distribution(k, i, pv, qv)


# -- checks -----------------------------------------------------------------


def check_count_grid(k_max: int):
    def check(stdout: str, parse):
        rows = {}
        for line in stdout.splitlines():
            if line.startswith(("#", "I\\K")):
                continue
            cells = line.split()
            rows[int(cells[0])] = [int(c.rstrip("*")) for c in cells[1:]]
        expect(sorted(rows) == list(range(1, 2 * k_max + 1)), "grid rows missing")
        for k in range(1, k_max + 1):
            for i in range(2 * k, 2 * k_max + 1):
                expect(rows[i][k - 1] == PLATEAU[k], f"grid cell K={k} I={i} wrong")
        for (k, i), count in GRID_CELLS.items():
            if k <= k_max:
                expect(rows[i][k - 1] == count, f"grid cell K={k} I={i} wrong")

    return check


def check_catalog(k: int, i: int, fmt: str):
    want = _expected_count(k, i)

    def check(stdout: str, parse):
        if fmt == "table":
            header = [ln for ln in stdout.splitlines() if ln.startswith("# draw_size=")]
            rows = [ln for ln in stdout.splitlines() if ln[:1].isdigit()]
            expect(header == [f"# draw_size={k} n_objects={i} states={want}"],
                   "table header wrong")
            expect(len(rows) == want, f"{len(rows)} state rows, expected {want}")
        else:
            table = parse(stdout, fmt)
            got = len(table.states)
            expect((table.draw_size, table.n_objects) == (k, i), "table size wrong")
            expect(got == want, f"{got} states parsed back, expected {want}")

    return check


def _probabilities(stdout: str, parse, fmt: str, k: int, i: int):
    table = parse(stdout, fmt)
    expect(len(table.states) == state_count(k, i), "state count wrong")
    return table, dict(
        zip((s.canonical_matrix for s in table.states), table.probabilities)
    )


def check_exact_probabilities(k, i, p, q, fmt):
    def check(stdout: str, parse):
        table, probs = _probabilities(stdout, parse, fmt, k, i)
        expect(table.exact, "probabilities are not exact")
        expect(sum(probs.values()) == 1, "probabilities do not sum to exactly 1")
        if i ** (2 * k) <= BRUTE_FORCE_GUARD:
            oracle = _oracle(k, i, tuple(p), tuple(q))
            for m in probs.keys() | oracle.keys():
                expect(probs.get(m, 0) == oracle.get(m, 0),
                       f"probability of {m.flattened} differs from the oracle")

    return check


def check_float_probabilities(k, i, p, q, fmt):
    def check(stdout: str, parse):
        table, probs = _probabilities(stdout, parse, fmt, k, i)
        expect(not table.exact, "probabilities are not floats")
        oracle = _oracle(k, i, tuple(p), tuple(q))
        for m in probs.keys() | oracle.keys():
            err = abs(probs.get(m, 0.0) - oracle.get(m, 0))
            expect(err <= FLOAT_TOLERANCE,
                   f"probability of {m.flattened} is {err:.3g} off the rational value")

    return check


def check_expectation(p, q):
    inner = sum(Fraction(a) * Fraction(b) for a, b in zip(p, q))

    def check(stdout: str, parse):
        rec = json.loads(stdout)
        expect(rec["state_sum_matches"] is True, "state_sum_matches is not true")
        expect(Fraction(rec["e_pq"]) == 1 - inner, "e_pq is not 1 - <p, q>")

    return check


def check_oracle_pass(stdout: str, parse):
    expect(stdout.rstrip().splitlines()[-1].startswith("# PASS"),
           "oracle-check did not end in PASS")


def check_simulation(k: int, i: int, samples: int):
    def check(stdout: str, parse):
        rows = [ln.split("\t") for ln in stdout.splitlines() if ln[:1].isdigit()]
        expect(len(rows) == state_count(k, i), "state count wrong")
        expect(abs(sum(float(r[2]) for r in rows) - 1) <= 1e-9,
               "closed-form column does not sum to 1")
        for r in rows:
            # five sigma, plus five samples' worth for the rarest states,
            # where the normal approximation breaks down
            expect(float(r[4]) <= 5 * float(r[5]) + 5 / samples,
                   f"state {r[0]}: abs_error {r[4]} beyond five sigma ({r[5]})")

    return check


def check_prevalence(samples: int):
    def check(stdout: str, parse):
        rec = json.loads(stdout)
        frac = rec["fraction_within_exceeds_between"]
        expect(rec["n_trials"] == samples, "trial count wrong")
        expect(0 < frac < 1, "fraction not inside (0, 1)")
        expect(rec["ci95_low"] <= frac <= rec["ci95_high"],
               "fraction outside its own confidence interval")

    return check


# -- workloads --------------------------------------------------------------


def catalog(rng: random.Random, workdir: Path, tiny: bool) -> list[Request]:
    """State keys, records and serialization only; no probability code runs.

    No input depends on the seed.
    """
    k, (k_sub, i_sub) = (3, (3, 4)) if tiny else (6, (5, 8))
    reqs = [Request(_args("count-table", "--k", k), check_count_grid(k))]
    for fmt in ("table", "records", "csv"):
        reqs.append(Request(_args("enumerate", "--k", k, "--i", 2 * k, "--format", fmt),
                            check_catalog(k, 2 * k, fmt)))
    reqs.append(Request(_args("enumerate", "--k", k_sub, "--i", i_sub),
                        check_catalog(k_sub, i_sub, "table")))
    return reqs


def exact(rng: random.Random, workdir: Path, tiny: bool) -> list[Request]:
    """Rational closed form and the exhaustive oracle; enumeration is small."""
    small, mid, wide = ((2, 4), (2, 5), (3, 4)) if tiny else ((3, 8), (3, 10), (4, 8))
    oracles = ((2, 3), (2, 2)) if tiny else ((3, 6), (4, 4))
    reqs = []
    p, q = rational_pair(rng, small[1])
    for fmt, source in (("records", _inline(p, q)),
                        ("csv", _freq_file(workdir, "exact-small.csv", p, q))):
        reqs.append(Request(
            _args("probabilities", "--k", small[0], "--i", small[1], "--format", fmt)
            + source, check_exact_probabilities(*small, p, q, fmt)))
    reqs.append(Request(
        _args("expectation", "--k", small[0], "--format", "records") + _inline(p, q),
        check_expectation(p, q)))
    p, q = rational_pair(rng, mid[1])
    reqs.append(Request(
        _args("probabilities", "--k", mid[0], "--i", mid[1], "--format", "records")
        + _freq_file(workdir, "exact-mid.csv", p, q),
        check_exact_probabilities(*mid, p, q, "records")))
    p, q = rational_pair(rng, wide[1])
    reqs.append(Request(
        _args("probabilities", "--k", wide[0], "--i", wide[1], "--format", "records")
        + _inline(p, q), check_exact_probabilities(*wide, p, q, "records")))
    for k, i in oracles:
        p, q = rational_pair(rng, i)
        reqs.append(Request(_args("oracle-check", "--k", k, "--i", i) + _inline(p, q),
                            check_oracle_pass))
    return reqs


def float_sim(rng: random.Random, workdir: Path, tiny: bool) -> list[Request]:
    """Float probabilities beside numpy sampling and the Dirichlet experiment."""
    wide, mid = ((2, 4), (2, 5)) if tiny else ((4, 8), (3, 10))
    sims = ((2, 3), (2, 4)) if tiny else ((2, 4), (3, 6))
    oracle = (2, 3) if tiny else (3, 6)
    samples = 2000 if tiny else 1_000_000
    prevalence_i = 5 if tiny else 10
    reqs = []
    p, q = decimal_pair(rng, wide[1])
    reqs.append(Request(
        _args("probabilities", "--k", wide[0], "--i", wide[1], "--mode", "float",
              "--format", "records") + _inline(p, q),
        check_float_probabilities(*wide, p, q, "records")))
    p, q = decimal_pair(rng, mid[1])
    reqs.append(Request(
        _args("probabilities", "--k", mid[0], "--i", mid[1], "--format", "csv")
        + _freq_file(workdir, "float-mid.csv", p, q),
        check_float_probabilities(*mid, p, q, "csv")))
    for k, i in sims:
        p, q = decimal_pair(rng, i)
        reqs.append(Request(
            _args("simulate", "--k", k, "--i", i, "--mode", "float", "--samples",
                  samples, "--seed", rng.randrange(2**31)) + _inline(p, q),
            check_simulation(k, i, samples)))
    reqs.append(Request(
        _args("prevalence", "--i", prevalence_i, "--samples", samples, "--seed",
              rng.randrange(2**31), "--format", "records"),
        check_prevalence(samples)))
    p, q = decimal_pair(rng, oracle[1])
    reqs.append(Request(
        _args("oracle-check", "--k", oracle[0], "--i", oracle[1]) + _inline(p, q),
        check_oracle_pass))
    return reqs


def probability(rng: random.Random, workdir: Path, tiny: bool) -> list[Request]:
    """The exact requests, then the float and sampling requests."""
    return exact(rng, workdir, tiny) + float_sim(rng, workdir, tiny)


WORKLOADS = {"catalog": catalog, "probability": probability}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Request]:
    """The workload's requests for this seed; frequency files go to workdir.

    tiny shrinks every size so the whole list runs in a few seconds (tests).
    """
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir, tiny)
