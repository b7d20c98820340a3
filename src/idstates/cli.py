"""Command-line front end.

Subcommands:

  enumerate     identity-state table for one (K, I); probabilities appended
                when frequencies are supplied
  count-table   grid of state counts for K = 1..K_max, I = 1..2*K_max
  probabilities state table with the probability column (frequencies required)
  expectation   within/between expected-dissimilarity report
  oracle-check  one-pass state distribution and closed-form state
                probabilities vs the exhaustive oracle
  simulate      one-pass state distribution (the "theory" column, which
                its header line still calls the closed form) vs seeded
                Monte Carlo frequencies
  prevalence    Dirichlet experiment: how often within > between

Exit codes: 0 success; 1 bad input of any kind (usage errors such as an
unknown command, flag or choice and a non-integer number, bad
frequencies, a guard violation, an unwritable --out, running out of
memory), reported as one "error: ..." line on stderr; 2 internal check
failure (oracle mismatch). -h prints help and exits 0.

Frequencies come from --freq (delimited file) or inline --p/--q
(comma-separated values, decimals or "a/b"). Numeric mode is chosen
automatically, once over p and q together (rational when every value is
an integer or "a/b" literal, float when any is a decimal), unless forced
with --mode.

The parser built by build_parser is the one table of which command takes
which flag and of every flag's default; handlers read the parsed
namespace directly. A command takes a flag only if it reads it (in its
handler, _validate or _frequencies), so any other flag is a usage error.
A flag that only some requests read (--mode, expectation's --k,
oracle-check's --seed) defaults to None and is resolved where it is
read; a request that does not read it rejects it when given. A flag
given an empty value counts as given.
"""

from __future__ import annotations

import argparse
import math
import sys
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
    state_distribution,
    state_probability,
)
from .serialize import (
    StateTable,
    format_exact,
    format_float,
    numeric_mode,
    parse_frequency_file,
    parse_frequency_values,
    write_count_grid,
    write_fields,
    write_state_table,
)

#: Largest draw size accepted without --force.
DRAW_SIZE_GUARD = 8


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ValueError.

    main reports them like any other bad input: exit 1, one error line.
    Subparsers are built from the same class.
    """

    def error(self, message):
        raise ValueError(message)


def _draw_size(k, force: bool) -> int:
    """--k, once it is positive and within the guard (or forced)."""
    if k is None or k < 1:
        raise ValueError("--k must be a positive integer")
    if k > DRAW_SIZE_GUARD and not force:
        raise ValueError(
            f"draw size {k} exceeds the guard "
            f"({DRAW_SIZE_GUARD}); pass --force to override"
        )
    return k


def _validate(args: argparse.Namespace) -> argparse.Namespace:
    """Checks that neither the parser nor the library makes."""
    # expectation reads --k only in rational mode; its handler checks it
    if hasattr(args, "k") and args.command != "expectation":
        _draw_size(args.k, args.force)
    if hasattr(args, "i") and (args.i is None or args.i < 1):
        raise ValueError("--i must be a positive integer")
    if hasattr(args, "p"):
        if args.q is not None and args.p is None:
            raise ValueError("--q needs --p")
        if args.freq is not None and args.p is not None:
            raise ValueError("give either --freq or --p/--q, not both")
        if args.freq is None and args.p is None:
            if args.command in ("probabilities", "expectation"):
                raise ValueError(f"{args.command} requires --freq or --p")
            # simulate reads --mode for its uniform default frequencies
            if args.mode is not None and args.command != "simulate":
                raise ValueError(f"--mode {args.mode} needs --freq or --p")
    return args


#: bench/harness.py's set-up probe imports the parse-and-validate step by
#: this name.
config_from_args = _validate


def _frequencies(args: argparse.Namespace, default_uniform: bool = False):
    """Resolve (p, q) from the arguments, or None when absent and no default asked.

    --mode defaults to auto, decided once over the p and q values
    together. Commands that take --i need frequencies over exactly that
    many objects.
    """
    mode = "auto" if args.mode is None else args.mode
    if args.freq is not None:
        p, q = parse_frequency_file(args.freq, mode)
    elif args.p is not None:
        p_tokens = args.p.split(",")
        q_tokens = [] if args.q is None else args.q.split(",")
        mode = numeric_mode(p_tokens + q_tokens, mode)
        p = parse_frequency_values(p_tokens, mode)
        q = parse_frequency_values(q_tokens, mode) if q_tokens else p
    elif default_uniform:
        p = q = FrequencyVector.uniform(args.i, exact=mode != "float")
    else:
        return None
    if hasattr(args, "i") and len(p) != args.i:
        raise ValueError(f"frequencies cover {len(p)} objects but --i is {args.i}")
    return p, q


def _random_rational_vector(rng, n_objects: int) -> FrequencyVector:
    """Random exact frequency vector with small denominators; zeros allowed."""
    while True:
        weights = [rng.randrange(0, 10) for _ in range(n_objects)]
        total = sum(weights)
        if total:
            return FrequencyVector(
                tuple(Fraction(w, total) for w in weights), exact=True
            )


def _state_table(args: argparse.Namespace, freqs) -> StateTable:
    states = enumerate_states(args.k, args.i)
    if freqs is None:
        return StateTable(args.k, args.i, states)
    p, q = freqs
    exact = p.exact and q.exact
    dist = state_distribution(args.k, p, q)
    zero = Fraction(0) if exact else 0.0
    probs = [dist.get(s.canonical_matrix, zero) for s in states]
    return StateTable(args.k, args.i, states, probabilities=probs, exact=exact)


def cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    """State table; `enumerate` and `probabilities` (frequencies required)."""
    table = _state_table(args, _frequencies(args))
    return write_state_table(table, args.format), 0


def cmd_count_table(args: argparse.Namespace) -> tuple[str, int]:
    counts = {
        (k, i): state_count(k, i)
        for k in range(1, args.k + 1)
        for i in range(1, 2 * args.k + 1)
    }
    return write_count_grid(
        counts, args.k, args.format, paper_layout=args.paper_layout
    ), 0


def cmd_expectation(args: argparse.Namespace) -> tuple[str, int]:
    p, q = _frequencies(args)
    exact = p.exact and q.exact
    if not exact and (args.k is not None or args.force):
        raise ValueError("--k and --force set the state-sum check, "
                         "which runs in rational mode only")
    report = comparison_report(p, q)
    fields = [
        ("e_pq", report.e_pq),
        ("e_pp", report.e_pp),
        ("e_qq", report.e_qq),
        ("avg_within", report.avg_within),
        ("within_exceeds_between", report.within_exceeds_between),
    ]
    if exact:
        # state-weighted route must agree bit-exactly with the closed form
        k = _draw_size(2 if args.k is None else args.k, args.force)
        via_states = expected_dissimilarity_via_states(k, p, q)
        fields.append(("state_sum_draw_size", k))
        fields.append(("state_sum_matches", via_states == report.e_pq))
    return write_fields(fields, args.format), 0


def cmd_oracle_check(args: argparse.Namespace) -> tuple[str, int]:
    freqs = _frequencies(args)
    if freqs is None:
        import random

        # --seed (default 0) draws the random frequencies
        rng = random.Random(0 if args.seed is None else args.seed)
        p = _random_rational_vector(rng, args.i)
        q = _random_rational_vector(rng, args.i)
    elif args.seed is not None:
        raise ValueError("--seed draws random frequencies; "
                         "it has no use with --freq or --p")
    else:
        p, q = freqs
    exact = p.exact and q.exact
    # run the oracle first so its size guard fires before the closed-form
    # evaluation (whose injective sums grow with the same inputs)
    oracle = brute_force_state_distribution(args.k, args.i, p, q, force=args.force)
    states = enumerate_states(args.k, args.i)
    if args.perturb is not None and not 0 <= args.perturb < len(states):
        raise ValueError(
            f"--perturb {args.perturb} is outside the "
            f"{len(states)} states (0..{len(states) - 1})"
        )
    theory = [state_probability(s, p, q).value for s in states]
    if args.perturb is not None:
        # test hook: corrupt one closed-form value to prove mismatches surface
        bump = Fraction(1, 1000) if exact else 1e-3
        theory[args.perturb] = theory[args.perturb] + bump
    one_pass = state_distribution(args.k, p, q)
    tolerance = 0 if exact else 1e-12
    lines = [
        "# closed-form state probabilities vs exhaustive oracle",
        f"# draw_size={args.k} n_objects={args.i} "
        f"mode={'rational' if exact else 'float'}",
    ]
    failures = 0
    fmt = format_exact if exact else format_float
    zero = Fraction(0) if exact else 0.0
    for idx, state in enumerate(states):
        want = oracle.get(state.canonical_matrix, zero)
        got = one_pass.get(state.canonical_matrix, zero)
        closed_ok = abs(theory[idx] - want) <= tolerance
        one_pass_ok = abs(got - want) <= tolerance
        failures += not (closed_ok and one_pass_ok)
        lines.append(
            f"{idx}\t{'PASS' if closed_ok and one_pass_ok else 'FAIL'}"
            f"\ttheory={fmt(theory[idx])}\toracle={fmt(want)}"
            + ("" if one_pass_ok else f"\tstate_distribution={fmt(got)}")
        )
    catalog = {s.canonical_matrix for s in states}
    if any(oracle[m] != zero for m in set(oracle) - catalog):
        failures += 1
        lines.append("FAIL\toracle reached states missing from the catalog")
    if set(one_pass) - catalog:
        failures += 1
        lines.append("FAIL\tstate_distribution reached states missing from the catalog")
    lines.append(f"# {'PASS' if not failures else 'FAIL'}: "
                 f"{len(states) - failures}/{len(states)} states match")
    return "\n".join(lines) + "\n", 0 if not failures else 2


def cmd_simulate(args: argparse.Namespace) -> tuple[str, int]:
    p, q = _frequencies(args, default_uniform=True)
    states = enumerate_states(args.k, args.i)
    dist = state_distribution(args.k, p, q)
    empirical = monte_carlo_state_distribution(
        args.k, args.i, p, q, n_samples=args.samples, seed=args.seed
    )
    lines = [
        "# Monte Carlo state frequencies vs closed form",
        f"# draw_size={args.k} n_objects={args.i} "
        f"samples={args.samples} seed={args.seed}",
        "index\tD\ttheory\tempirical\tabs_error\tsigma",
    ]
    for idx, state in enumerate(states):
        theory = float(dist.get(state.canonical_matrix, 0))
        freq = float(empirical.get(state.canonical_matrix, Fraction(0)))
        sigma = math.sqrt(theory * (1 - theory) / args.samples)
        lines.append(
            f"{idx}\t{state.dissimilarity}\t{format_float(theory)}"
            f"\t{format_float(freq)}\t{format_float(abs(freq - theory))}"
            f"\t{format_float(sigma)}"
        )
    return "\n".join(lines) + "\n", 0


def cmd_prevalence(args: argparse.Namespace) -> tuple[str, int]:
    fraction = prevalence_experiment(
        args.i, args.samples, args.seed, concentration=args.concentration
    )
    # Wilson 95% interval for the trial fraction
    n = args.samples
    z = 1.959963984540054
    center = (fraction + z * z / (2 * n)) / (1 + z * z / n)
    half = (
        z
        * math.sqrt(fraction * (1 - fraction) / n + z * z / (4 * n * n))
        / (1 + z * z / n)
    )
    fields = [
        ("n_objects", args.i),
        ("n_trials", n),
        ("seed", args.seed),
        ("concentration", args.concentration),
        ("fraction_within_exceeds_between", fraction),
        # the Wilson bound at fraction 0 (1) is exactly 0 (1); the float
        # formula can leave a rounding residue there that excludes the estimate
        ("ci95_low", 0.0 if fraction == 0 else max(0.0, center - half)),
        ("ci95_high", 1.0 if fraction == 1 else min(1.0, center + half)),
    ]
    return write_fields(fields, args.format), 0


def build_parser() -> argparse.ArgumentParser:
    """The one table of commands, their flags and every flag's default."""
    # allow_abbrev=False: only the spellings listed here are accepted, not
    # their unique prefixes
    parser = _Parser(
        prog="idstates",
        allow_abbrev=False,
        description="Identity states, exact probabilities, and expected "
        "dissimilarity for pairs of unordered draws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, k=None, k_default=None, i=False,
            freq=False, samples=False, seed=False, fmt=True):
        """One command; k is the help text of its --k, which brings --force."""
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.set_defaults(handler=handler)
        if k:
            sp.add_argument("--k", type=int, default=k_default, help=k)
        if i:
            sp.add_argument("--i", type=int, help="number of distinct objects")
        if freq:
            sp.add_argument("--freq", help="frequency file (object_id,p[,q])")
            sp.add_argument("--p", help="inline frequencies, comma-separated")
            sp.add_argument("--q", help="inline second frequencies")
            sp.add_argument("--mode", choices=("auto", "rational", "float"),
                            help="numeric mode (default auto)")
        if samples:
            sp.add_argument("--samples", type=int, default=100000,
                            help="sample/trial count")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        if fmt:
            sp.add_argument("--format", choices=("table", "records", "csv"),
                            default="table", help="output form")
        sp.add_argument("--out", help="write output to this path")
        if k:
            sp.add_argument("--force", action="store_true",
                            help="override size guards")
        return sp

    draw = "draw size (items per draw)"
    add("enumerate", cmd_enumerate, "identity-state table for one (K, I)",
        k=draw, i=True, freq=True)
    ct = add("count-table", cmd_count_table, "state-count grid for K=1..K_max",
             k="largest draw size K_max", k_default=6)
    ct.add_argument("--paper-layout", action="store_true",
                    help="blank plateau cells (I > 2K) instead of marking them")
    add("probabilities", cmd_enumerate,
        "state table with probabilities (frequencies required)",
        k=draw, i=True, freq=True)
    add("expectation", cmd_expectation, "expected-dissimilarity report",
        k="draw size for the rational state-sum cross-check (default 2)",
        freq=True)
    oc = add("oracle-check", cmd_oracle_check,
             "one-pass and closed-form probabilities vs exhaustive oracle",
             k=draw, i=True, freq=True, seed=True, fmt=False)
    oc.add_argument("--perturb", type=int, default=None, metavar="INDEX",
                    help="test hook: corrupt state INDEX before comparing")
    # --seed draws random frequencies (default 0) only when none are given
    oc.set_defaults(seed=None)
    add("simulate", cmd_simulate,
        "one-pass probabilities vs Monte Carlo (uniform p=q by default)",
        k=draw, i=True, freq=True, samples=True, seed=True, fmt=False)
    pv = add("prevalence", cmd_prevalence, "Dirichlet within-vs-between experiment",
             i=True, samples=True, seed=True)
    pv.add_argument("--concentration", type=float, default=1.0,
                    help="symmetric Dirichlet concentration")
    return parser


def main(argv=None) -> int:
    try:
        args = _validate(build_parser().parse_args(argv))
        output, code = args.handler(args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
    except (ValueError, OSError, MemoryError) as err:
        # one line, even when the message quotes an argument holding newlines
        message = " ".join(str(err).splitlines()) or type(err).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
