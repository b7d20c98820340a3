"""Command-line front end.

Subcommands:

  enumerate     identity-state table for one (K, I), the catalog alone
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
failure (an oracle mismatch, or expectation's state sum disagreeing with
its closed form). -h prints help and exits 0.

Frequencies come from --freq (delimited file) or inline --p/--q
(comma-separated values, decimals or "a/b"). Numeric mode is chosen
automatically, once over p and q together (float when any value is a
decimal, holding ".", "e" or "E"; rational otherwise), unless forced
with --mode.

The parser built by build_parser is the one table of which command takes
which flag and of every flag's default; handlers read the parsed
namespace directly. A command takes a flag only if it reads it (in its
handler, config_from_args or _frequencies), so any other flag is a usage
error. A flag that only some requests read (--mode, expectation's --k,
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

#: Names the handlers read from modules that only some commands run, and
#: each name's home module. A handler binds them with _bind before use, so
#: count-table and enumerate never load probability or expectation.
_LAZY = {
    "FrequencyVector": "probability",
    "_check_exhaustive_cost": "probability",
    "brute_force_state_distribution": "probability",
    "monte_carlo_state_distribution": "probability",
    "state_distribution": "probability",
    "state_probability": "probability",
    "comparison_report": "expectation",
    "expected_dissimilarity_via_states": "expectation",
    "prevalence_experiment": "expectation",
}


def _bind(module: str) -> None:
    """Import the _LAZY names that live in module into this namespace.

    A name already bound is kept, so one set from outside (a test's patch,
    a tracer's wrapper) wins. __import__, unlike importlib.import_module,
    shows in -X importtime.
    """
    names = [name for name, where in _LAZY.items() if where == module]
    home = __import__(f"{__package__}.{module}", fromlist=names)
    for name in names:
        globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    """A _LAZY name read from outside before any handler bound it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


#: Largest draw size accepted without --force.
DRAW_SIZE_GUARD = 8

#: Most injective products oracle-check's closed form may sum over the
#: catalog without --force; a product took about 6.5e-7 s (CPython 3.11,
#: one shared vCPU core, random rational frequencies), so about 10 s.
CLOSED_FORM_GUARD = 15 * 10**6

#: Most states x objects a catalog past the plateau (I > 2K) may hold
#: without --force; below it DRAW_SIZE_GUARD bounds them (4,348 x 16 at
#: K = 8). At the bound the one-pass fold took 7.8 s at K = 8 (I = 91,
#: uniform floats; 4.0 s rational), 2.3 s at K = 4 and 1.5 s at K = 2
#: (CPU time, CPython 3.11, 2 shared vCPUs).
CATALOG_GUARD = 4 * 10**5


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


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Checks that neither the parser nor the library makes."""
    # expectation reads --k only in rational mode; its handler checks it
    if hasattr(args, "k") and args.command != "expectation":
        _draw_size(args.k, args.force)
    if hasattr(args, "i") and (args.i is None or args.i < 1):
        raise ValueError("--i must be a positive integer")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
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


def _check_catalog_size(k: int, i: int, force: bool) -> None:
    """Refuse a catalog past the plateau of more than CATALOG_GUARD counts."""
    if i <= 2 * k or force:
        return
    # each state's record holds two rows of I counts
    cells = state_count(k, i) * i
    if cells > CATALOG_GUARD:
        raise ValueError(
            f"the catalog at K={k}, I={i} holds {cells} counts "
            f"(states x I), over its guard ({CATALOG_GUARD}); "
            "pass --force to override")


def _frequencies(args: argparse.Namespace):
    """Resolve (p, q) from the arguments, or None when neither --freq nor --p.

    --mode defaults to auto, decided once over the p and q values
    together. Commands that take --i need frequencies over exactly that
    many objects.
    """
    mode = "auto" if args.mode is None else args.mode
    if args.freq is not None:
        p, q = parse_frequency_file(args.freq, mode)
    elif args.p is not None:
        q_tokens = None if args.q is None else args.q.split(",")
        p, q = parse_frequency_values(args.p.split(","), q_tokens, mode)
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


def cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    _check_catalog_size(args.k, args.i, args.force)
    table = StateTable(enumerate_states(args.k, args.i))
    return write_state_table(table, args.format), 0


def cmd_probabilities(args: argparse.Namespace) -> tuple[str, int]:
    _bind("probability")
    _check_catalog_size(args.k, args.i, args.force)
    p, q = _frequencies(args)
    states = enumerate_states(args.k, args.i)
    dist = state_distribution(args.k, p, q)
    zero = Fraction(0) if p.exact else 0.0
    probs = [dist.get(s.canonical_matrix, zero) for s in states]
    return write_state_table(StateTable(states, probs), args.format), 0


def cmd_count_table(args: argparse.Namespace) -> tuple[str, int]:
    counts = {(k, i): state_count(k, i)
              for k in range(1, args.k + 1) for i in range(1, 2 * k + 1)}
    return write_count_grid(counts, args.format, paper_layout=args.paper_layout), 0


def cmd_expectation(args: argparse.Namespace) -> tuple[str, int]:
    _bind("expectation")
    p, q = _frequencies(args)
    exact = p.exact
    if not exact and (args.k is not None or args.force):
        raise ValueError("--k and --force set the state-sum check, "
                         "which runs in rational mode only")
    report = comparison_report(p, q)
    fields = [(name, getattr(report, name)) for name in report.__slots__]
    matches = True
    if exact:
        # state-weighted route must agree bit-exactly with the closed form
        k = _draw_size(2 if args.k is None else args.k, args.force)
        _check_catalog_size(k, len(p), args.force)
        matches = expected_dissimilarity_via_states(k, p, q) == report.e_pq
        fields.append(("state_sum_draw_size", k))
        fields.append(("state_sum_matches", matches))
    return write_fields(fields, args.format), 0 if matches else 2


def cmd_oracle_check(args: argparse.Namespace) -> tuple[str, int]:
    _bind("probability")
    freqs = _frequencies(args)
    if freqs is not None and args.seed is not None:
        raise ValueError("--seed draws random frequencies; "
                         "it has no use with --freq or --p")
    # every refusal before either oracle runs, the exhaustive guard first,
    # so the oracle's own guard is then already passed
    if not args.force:
        _check_exhaustive_cost(args.k, args.i)
    states = enumerate_states(args.k, args.i)
    # a state of N distinct objects sums I!/(I-N)! injective products
    products = sum(math.perm(args.i, s.n_distinct) for s in states)
    if products > CLOSED_FORM_GUARD and not args.force:
        raise ValueError(
            f"the closed form at K={args.k}, I={args.i} sums {products} "
            "products (I!/(I-N)! for each state of N distinct objects), "
            f"over its guard ({CLOSED_FORM_GUARD}); pass --force to override")
    if args.perturb is not None and not 0 <= args.perturb < len(states):
        raise ValueError(
            f"--perturb {args.perturb} is outside the "
            f"{len(states)} states (0..{len(states) - 1})"
        )
    if freqs is None:
        import random

        # --seed (default 0) draws the random frequencies
        rng = random.Random(0 if args.seed is None else args.seed)
        freqs = (_random_rational_vector(rng, args.i),
                 _random_rational_vector(rng, args.i))
    p, q = freqs
    exact = p.exact
    oracle = brute_force_state_distribution(args.k, args.i, p, q, force=True)
    theory = [state_probability(s, p, q).value for s in states]
    if args.perturb is not None:
        # test hook: corrupt one closed-form value to prove mismatches surface
        bump = Fraction(1, 1000) if exact else 1e-3
        theory[args.perturb] = theory[args.perturb] + bump
    one_pass = state_distribution(args.k, p, q)
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
        closed_ok = theory[idx] == want
        one_pass_ok = got == want
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
    _bind("probability")
    _check_catalog_size(args.k, args.i, args.force)
    # uniform p = q by default, rational unless --mode float
    p, q = _frequencies(args) or (
        FrequencyVector.uniform(args.i, exact=args.mode != "float"),) * 2
    # the sampler checks --samples at its top, before the catalog and the fold
    empirical = monte_carlo_state_distribution(
        args.k, p, q, n_samples=args.samples, seed=args.seed
    )
    states = enumerate_states(args.k, args.i)
    dist = state_distribution(args.k, p, q)
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
    _bind("expectation")
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
            freq=False, samples=False, seed=None, fmt=True):
        """One command; k and seed: help texts of its --k (with --force), --seed."""
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
            sp.add_argument("--seed", type=int, default=0, help=seed)
        if fmt:
            sp.add_argument("--format", choices=("table", "records", "csv"),
                            default="table", help="output form")
        sp.add_argument("--out", help="write output to this path")
        if k:
            sp.add_argument("--force", action="store_true",
                            help="override size guards")
        return sp

    draw = "draw size (items per draw)"
    numpy_seed = "numpy RNG seed (default 0)"
    add("enumerate", cmd_enumerate, "identity-state table for one (K, I)",
        k=draw, i=True)
    ct = add("count-table", cmd_count_table, "state-count grid for K=1..K_max",
             k="largest draw size K_max", k_default=6)
    ct.add_argument("--paper-layout", action="store_true",
                    help="blank plateau cells (I > 2K) instead of marking them")
    add("probabilities", cmd_probabilities,
        "state table with probabilities (frequencies required)",
        k=draw, i=True, freq=True)
    add("expectation", cmd_expectation, "expected-dissimilarity report",
        k="draw size for the rational state-sum cross-check (default 2)",
        freq=True)
    oc = add("oracle-check", cmd_oracle_check,
             "one-pass and closed-form probabilities vs exhaustive oracle",
             k=draw, i=True, freq=True, fmt=False,
             seed="seed that draws the random rational frequencies, read only "
                  "without --freq/--p (default 0)")
    oc.add_argument("--perturb", type=int, default=None, metavar="INDEX",
                    help="test hook: corrupt state INDEX before comparing")
    # --seed draws random frequencies (default 0) only when none are given
    oc.set_defaults(seed=None)
    add("simulate", cmd_simulate,
        "one-pass probabilities vs Monte Carlo (uniform p=q by default)",
        k=draw, i=True, freq=True, samples=True, seed=numpy_seed, fmt=False)
    pv = add("prevalence", cmd_prevalence, "Dirichlet within-vs-between experiment",
             i=True, samples=True, seed=numpy_seed)
    pv.add_argument("--concentration", type=float, default=1.0,
                    help="symmetric Dirichlet concentration")
    return parser


def main(argv=None) -> int:
    try:
        args = config_from_args(build_parser().parse_args(argv))
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
