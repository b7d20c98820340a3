"""Command-line front end.

Subcommands:

  enumerate     identity-state table for one (K, I); probabilities appended
                when frequencies are supplied
  count-table   grid of state counts for K = 1..K_max, I = 1..2*K_max
  probabilities state table with the probability column (frequencies required)
  expectation   within/between expected-dissimilarity report
  oracle-check  closed-form state probabilities vs the exhaustive oracle
  simulate      closed-form probabilities vs seeded Monte Carlo frequencies
  prevalence    Dirichlet experiment: how often within > between

Exit codes: 0 success, 1 invalid input or guard violation, 2 internal
check failure (oracle mismatch).

Frequencies come from --freq (delimited file) or inline --p/--q
(comma-separated values, decimals or "a/b"). Numeric mode is chosen
automatically (rational when every value is an integer or "a/b" literal,
float when any is a decimal) unless forced with --mode.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import enumerate_states, state_count
from .expectation import (
    comparison_report,
    expected_dissimilarity_via_states,
    prevalence_experiment,
)
from .probability import (
    FrequencyVector,
    brute_force_state_distribution,
    monte_carlo_state_distribution,
    state_probability,
)
from .serialize import (
    StateTable,
    format_exact,
    format_float,
    parse_frequency_file,
    parse_frequency_values,
    write_count_grid,
    write_fields,
    write_state_table,
)

#: Largest draw size accepted without --force.
DRAW_SIZE_GUARD = 8


@dataclass
class RunConfig:
    """Validated invocation parameters for one CLI run."""

    command: str
    draw_size: int | None = None
    n_objects: int | None = None
    freq_input: str | None = None
    inline_p: str | None = None
    inline_q: str | None = None
    output_format: str = "table"
    mode: str = "auto"
    seed: int = 0
    n_samples: int = 100000
    output_path: str | None = None
    paper_layout: bool = False
    force: bool = False
    concentration: float = 1.0
    perturb_state: int | None = None

    def validate(self):
        needs_k = {"enumerate", "count-table", "probabilities", "oracle-check",
                   "simulate", "expectation"}
        needs_i = {"enumerate", "probabilities", "oracle-check", "simulate",
                   "prevalence"}
        if self.command in needs_k:
            if self.draw_size is None or self.draw_size < 1:
                raise ValueError("--k must be a positive integer")
            if self.draw_size > DRAW_SIZE_GUARD and not self.force:
                raise ValueError(
                    f"draw size {self.draw_size} exceeds the guard "
                    f"({DRAW_SIZE_GUARD}); pass --force to override"
                )
        if self.command in needs_i:
            if self.n_objects is None or self.n_objects < 1:
                raise ValueError("--i must be a positive integer")
        if self.inline_q and not self.inline_p:
            raise ValueError("--q needs --p")
        if self.freq_input and self.inline_p:
            raise ValueError("give either --freq or --p/--q, not both")
        if self.command in ("probabilities", "expectation"):
            if not (self.freq_input or self.inline_p):
                raise ValueError(f"{self.command} requires --freq or --p")
        if self.command == "prevalence":
            if self.n_objects < 2:
                raise ValueError("prevalence needs --i >= 2")
            if not self.concentration > 0:
                raise ValueError("--concentration must be positive")
        if self.n_samples < 1:
            raise ValueError("--samples must be >= 1")
        return self


def _frequencies(config: RunConfig, default_uniform: bool = False):
    """Resolve (p, q) from config, or None when absent and no default asked."""
    if config.freq_input:
        return parse_frequency_file(config.freq_input, config.mode)
    if config.inline_p:
        p = parse_frequency_values(config.inline_p.split(","), config.mode)
        if config.inline_q:
            q = parse_frequency_values(config.inline_q.split(","), config.mode)
        else:
            q = p
        return p, q
    if default_uniform:
        p = FrequencyVector.uniform(config.n_objects, exact=config.mode != "float")
        return p, p
    return None


def _random_rational_vector(rng, n_objects: int) -> FrequencyVector:
    """Random exact frequency vector with small denominators; zeros allowed."""
    while True:
        weights = [rng.randrange(0, 10) for _ in range(n_objects)]
        total = sum(weights)
        if total:
            return FrequencyVector(
                tuple(Fraction(w, total) for w in weights), exact=True
            )


def _check_lengths(p, config: RunConfig):
    if len(p) != config.n_objects:
        raise ValueError(
            f"frequencies cover {len(p)} objects but --i is {config.n_objects}"
        )


def _state_table(config: RunConfig, freqs) -> StateTable:
    states = enumerate_states(config.draw_size, config.n_objects)
    if freqs is None:
        return StateTable(config.draw_size, config.n_objects, states)
    p, q = freqs
    _check_lengths(p, config)
    probs = [state_probability(s, p, q).value for s in states]
    return StateTable(
        config.draw_size,
        config.n_objects,
        states,
        probabilities=probs,
        exact=p.exact and q.exact,
    )


def cmd_enumerate(config: RunConfig) -> str:
    table = _state_table(config, _frequencies(config))
    return write_state_table(table, config.output_format)


def cmd_probabilities(config: RunConfig) -> str:
    freqs = _frequencies(config)
    if freqs is None:
        raise ValueError("probabilities requires --freq or --p")
    return write_state_table(_state_table(config, freqs), config.output_format)


def cmd_count_table(config: RunConfig) -> str:
    k_max = config.draw_size
    counts = {
        (k, i): state_count(k, i)
        for k in range(1, k_max + 1)
        for i in range(1, 2 * k_max + 1)
    }
    return write_count_grid(
        counts, k_max, config.output_format, paper_layout=config.paper_layout
    )


def cmd_expectation(config: RunConfig) -> str:
    p, q = _frequencies(config)
    report = comparison_report(p, q)
    exact = p.exact and q.exact
    fields = [
        ("e_pq", report.e_pq),
        ("e_pp", report.e_pp),
        ("e_qq", report.e_qq),
        ("avg_within", report.avg_within),
        ("within_exceeds_between", report.within_exceeds_between),
    ]
    if exact:
        # state-weighted route must agree bit-exactly with the closed form
        via_states = expected_dissimilarity_via_states(config.draw_size, p, q)
        fields.append(("state_sum_draw_size", config.draw_size))
        fields.append(("state_sum_matches", via_states == report.e_pq))
    return write_fields(fields, config.output_format, exact)


def cmd_oracle_check(config: RunConfig) -> tuple[str, int]:
    freqs = _frequencies(config)
    if freqs is None:
        import random

        rng = random.Random(config.seed)
        p = _random_rational_vector(rng, config.n_objects)
        q = _random_rational_vector(rng, config.n_objects)
    else:
        p, q = freqs
    _check_lengths(p, config)
    exact = p.exact and q.exact
    # run the oracle first so its size guard fires before the closed-form
    # evaluation (whose injective sums grow with the same inputs)
    oracle = brute_force_state_distribution(
        config.draw_size, config.n_objects, p, q, force=config.force
    )
    states = enumerate_states(config.draw_size, config.n_objects)
    if config.perturb_state is not None and not (
        0 <= config.perturb_state < len(states)
    ):
        raise ValueError(
            f"--perturb {config.perturb_state} is outside the "
            f"{len(states)} states (0..{len(states) - 1})"
        )
    theory = [state_probability(s, p, q).value for s in states]
    if config.perturb_state is not None:
        # test hook: corrupt one closed-form value to prove mismatches surface
        bump = Fraction(1, 1000) if exact else 1e-3
        theory[config.perturb_state] = theory[config.perturb_state] + bump
    tolerance = 0 if exact else 1e-12
    lines = [
        "# closed-form state probabilities vs exhaustive oracle",
        f"# draw_size={config.draw_size} n_objects={config.n_objects} "
        f"mode={'rational' if exact else 'float'}",
    ]
    failures = 0
    fmt = format_exact if exact else format_float
    zero = Fraction(0) if exact else 0.0
    for idx, state in enumerate(states):
        want = oracle.get(state.canonical_matrix, zero)
        ok = theory[idx] == want if exact else abs(theory[idx] - want) <= tolerance
        failures += not ok
        lines.append(
            f"{idx}\t{'PASS' if ok else 'FAIL'}\ttheory={fmt(theory[idx])}"
            f"\toracle={fmt(want)}"
        )
    stray = set(oracle) - {s.canonical_matrix for s in states}
    if any(oracle[m] != zero for m in stray):
        failures += 1
        lines.append("FAIL\toracle reached states missing from the catalog")
    lines.append(f"# {'PASS' if not failures else 'FAIL'}: "
                 f"{len(states) - failures}/{len(states)} states match")
    return "\n".join(lines) + "\n", 0 if not failures else 2


def cmd_simulate(config: RunConfig) -> str:
    p, q = _frequencies(config, default_uniform=True)
    _check_lengths(p, config)
    states = enumerate_states(config.draw_size, config.n_objects)
    empirical = monte_carlo_state_distribution(
        config.draw_size,
        config.n_objects,
        p,
        q,
        n_samples=config.n_samples,
        seed=config.seed,
    )
    lines = [
        "# Monte Carlo state frequencies vs closed form",
        f"# draw_size={config.draw_size} n_objects={config.n_objects} "
        f"samples={config.n_samples} seed={config.seed}",
        "index\tD\ttheory\tempirical\tabs_error\tsigma",
    ]
    for idx, state in enumerate(states):
        theory = float(state_probability(state, p, q).value)
        freq = float(empirical.get(state.canonical_matrix, Fraction(0)))
        sigma = math.sqrt(theory * (1 - theory) / config.n_samples)
        lines.append(
            f"{idx}\t{state.dissimilarity}\t{format_float(theory)}"
            f"\t{format_float(freq)}\t{format_float(abs(freq - theory))}"
            f"\t{format_float(sigma)}"
        )
    return "\n".join(lines) + "\n"


def cmd_prevalence(config: RunConfig) -> str:
    fraction = prevalence_experiment(
        config.n_objects,
        config.n_samples,
        config.seed,
        concentration=config.concentration,
    )
    # Wilson 95% interval for the trial fraction
    n = config.n_samples
    z = 1.959963984540054
    center = (fraction + z * z / (2 * n)) / (1 + z * z / n)
    half = (
        z
        * math.sqrt(fraction * (1 - fraction) / n + z * z / (4 * n * n))
        / (1 + z * z / n)
    )
    fields = [
        ("n_objects", config.n_objects),
        ("n_trials", n),
        ("seed", config.seed),
        ("concentration", config.concentration),
        ("fraction_within_exceeds_between", fraction),
        ("ci95_low", max(0.0, center - half)),
        ("ci95_high", min(1.0, center + half)),
    ]
    return write_fields(fields, config.output_format, exact=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idstates",
        description="Identity states, exact probabilities, and expected "
        "dissimilarity for pairs of unordered draws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, k=False, i=False, freq=False, samples=False):
        sp = sub.add_parser(name, help=help_text)
        if k:
            sp.add_argument("--k", type=int, help="draw size (items per draw)")
        if i:
            sp.add_argument("--i", type=int, help="number of distinct objects")
        if freq:
            sp.add_argument("--freq", help="frequency file (object_id,p[,q])")
            sp.add_argument("--p", help="inline frequencies, comma-separated")
            sp.add_argument("--q", help="inline second frequencies")
        if samples:
            sp.add_argument("--samples", type=int, default=100000,
                            help="sample/trial count")
        sp.add_argument("--mode", choices=("auto", "rational", "float"),
                        default="auto", help="numeric mode")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        sp.add_argument("--format", choices=("table", "records", "csv"),
                        default="table", help="output form")
        sp.add_argument("--out", help="write output to this path")
        sp.add_argument("--force", action="store_true",
                        help="override size guards")
        return sp

    add("enumerate", "identity-state table for one (K, I)",
        k=True, i=True, freq=True)
    ct = add("count-table", "state-count grid for K=1..K_max")
    ct.add_argument("--k", type=int, default=6, help="largest draw size K_max")
    ct.add_argument("--paper-layout", action="store_true",
                    help="blank plateau cells (I > 2K) instead of marking them")
    add("probabilities", "state table with probabilities (frequencies required)",
        k=True, i=True, freq=True)
    ex = add("expectation", "expected-dissimilarity report", freq=True)
    ex.add_argument("--k", type=int, default=2,
                    help="draw size for the state-sum cross-check")
    oc = add("oracle-check", "closed form vs exhaustive oracle",
             k=True, i=True, freq=True)
    oc.add_argument("--perturb", type=int, default=None, metavar="INDEX",
                    help="test hook: corrupt state INDEX before comparing")
    add("simulate", "closed form vs Monte Carlo (uniform p=q by default)",
        k=True, i=True, freq=True, samples=True)
    pv = add("prevalence", "Dirichlet within-vs-between experiment",
             i=True, samples=True)
    pv.add_argument("--concentration", type=float, default=1.0,
                    help="symmetric Dirichlet concentration")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        draw_size=getattr(args, "k", None),
        n_objects=getattr(args, "i", None),
        freq_input=getattr(args, "freq", None),
        inline_p=getattr(args, "p", None),
        inline_q=getattr(args, "q", None),
        output_format=args.format,
        mode=args.mode,
        seed=args.seed,
        n_samples=getattr(args, "samples", 100000),
        output_path=args.out,
        paper_layout=getattr(args, "paper_layout", False),
        force=args.force,
        concentration=getattr(args, "concentration", 1.0),
        perturb_state=getattr(args, "perturb", None),
    ).validate()


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "count-table": cmd_count_table,
    "probabilities": cmd_probabilities,
    "expectation": cmd_expectation,
    "simulate": cmd_simulate,
    "prevalence": cmd_prevalence,
}


def run(config: RunConfig) -> tuple[str, int]:
    if config.command == "oracle-check":
        return cmd_oracle_check(config)
    return _COMMANDS[config.command](config), 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        output, code = run(config)
        if config.output_path:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(output)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not config.output_path:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
