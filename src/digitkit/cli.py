"""Command-line harness for recoding, evaluation, statistics, and checks.

Subcommands: recode, multiexp, stats, verify, markov, falsify; each
verify check and falsify claim is a subcommand of its own, and a flag
follows the name it belongs to.  argparse rejects every flag a command
does not read: a check reads the flags of its bounds (bound_names).
stats --exhaustive, which samples nothing, exits 2 on a given --samples,
--seed or --workers.  Exit codes: 0 for success or a passing check, 1
for a failed verification or an unrefuted claim, 2 for usage errors, and
141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .experiments import (
    RunConfig,
    complement_bit_probabilities,
    cost_slope,
    csv_header,
    exhaustive_stats,
    record_to_csv_row,
    record_to_json_line,
    run_stats,
)
from .multiexp import AdditiveGroup, GroupOps, ModGroup, multiexp
from .recoding import RecodingScheme, recode_joint
from .transducer import (
    _ratios,
    _walk,
    double_naf_transducer,
    state_distribution,
    stationary_distribution,
    transition_matrix,
)
from .verification import CHECKS, bound_names, run_check

_TARGET_SLOPE = 14 / 9
_CLAIMED_SLOPES = {"wllc-slope": 1.304, "sun-slope": 1.471}
OUTPUT_FORMATS = ("json", "csv")
# The most chain steps markov prints; the output grows quadratically with them.
_MARKOV_STEPS_CAP = 1000
# The widest length recode prints and stats or falsify samples: recode's
# display decodes every column (about 80 bytes each), and a sample's cost
# grows with its length.
_LENGTH_CAP = 1 << 16


def _integer_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None


def _seed_value(text: str) -> int:
    value = _integer_arg(text)
    if not 0 <= value < (1 << 64):
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _positive(text: str) -> int:
    value = _integer_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


# The flag that sets each verify bound, and the type that reads it.
_BOUND_FLAGS = {
    "max_n": ("--max-n", _positive),
    "max_length": ("--max-length", _positive),
    "random_pairs": ("--pairs", _positive),
    "instances": ("--instances", _positive),
    "seed": ("--seed", _seed_value),
}
# The sampling flags' values when stats samples without them.
_STATS_SAMPLING = {"samples": 10_000, "seed": 0, "workers": 1}


def _add_sampling_flags(p: argparse.ArgumentParser, samples, seed, workers) -> None:
    p.add_argument("--samples", type=_positive, default=samples)
    p.add_argument("--seed", type=_seed_value, default=seed, metavar="U64")
    p.add_argument("--workers", type=_positive, default=workers, metavar="N")


def _given(args: argparse.Namespace, names) -> dict:
    """The flags among names that the command line set (not None), by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _check_length(length: int, cap: int = _LENGTH_CAP) -> None:
    if length > cap:
        raise ValueError(f"length {length} exceeds its cap of {cap}")


def _parse_group(spec: str) -> GroupOps:
    if spec == "intadd":
        return AdditiveGroup()
    if spec.startswith("modp:"):
        try:
            modulus = int(spec.removeprefix("modp:"))
        except ValueError:
            pass
        else:
            return ModGroup(modulus)
    raise ValueError(f"unknown group spec {spec!r}; use modp:<prime> or intadd")


def _scheme(name: str) -> RecodingScheme:
    try:
        return RecodingScheme.from_name(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown scheme {name!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitkit",
        description="signed-digit recoding and multi-exponentiation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recode", help="print recoded expansions")
    p.add_argument("--scheme", type=_scheme, required=True)
    p.add_argument(
        "--n", type=_integer_arg, action="append", required=True, metavar="INT",
        help="exponent; repeat for joint recodings",
    )
    p.add_argument("--length", type=_positive, default=None)
    p.set_defaults(func=cmd_recode)

    p = sub.add_parser("multiexp", help="evaluate a multi-exponentiation")
    p.add_argument("--group", required=True, metavar="modp:<prime>|intadd")
    for flag in ("--base", "--n"):
        p.add_argument(
            flag, type=_integer_arg, action="append", required=True, metavar="INT"
        )
    p.add_argument("--scheme", type=_scheme, required=True)
    p.set_defaults(func=cmd_multiexp)

    p = sub.add_parser("stats", help="sample recoding and cost statistics")
    p.add_argument(
        "--format", choices=OUTPUT_FORMATS, default="json", dest="output_format"
    )
    p.add_argument("--scheme", type=_scheme, required=True)
    p.add_argument(
        "--length", type=_positive, action="append", required=True, metavar="L"
    )
    # None marks a flag not given; cmd_stats supplies _STATS_SAMPLING.
    _add_sampling_flags(p, None, None, None)
    p.add_argument("--dimension", type=_positive, default=2)
    p.add_argument(
        "--exhaustive", action="store_true",
        help="count exact means over every exponent vector instead of sampling",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run an invariant suite")
    checks = p.add_subparsers(dest="check", required=True)
    for check in sorted(CHECKS):
        c = checks.add_parser(check)
        for bound in bound_names(check):
            flag, type_ = _BOUND_FLAGS[bound]
            c.add_argument(flag, type=type_, dest=bound)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "markov", help="print the product recoder's exact chain analysis"
    )
    p.add_argument("--steps", type=_positive, default=5)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser(
        "falsify", help="measure a published constant against this implementation"
    )
    claims = p.add_subparsers(dest="claim", required=True)
    for claim in _CLAIMED_SLOPES:
        c = claims.add_parser(claim)
        c.add_argument("--length", type=_positive, default=256)
        _add_sampling_flags(c, 100_000, 0, 1)
        c.set_defaults(func=_falsify_slope)
    c = claims.add_parser("bit-prob")
    c.add_argument("--length", type=_positive, default=4)
    c.set_defaults(func=_falsify_bits)

    return parser


def cmd_recode(args: argparse.Namespace) -> int:
    if args.length is not None:
        _check_length(args.length)
    joint = recode_joint(args.n, args.scheme, length=args.length)
    print(f"scheme: {args.scheme.value}")
    for k, row in enumerate(joint.rows):
        print(
            f"row {k}: {row if len(row) else '(empty)'} "
            f"(value {row.value()}, weight {row.weight()})"
        )
    print(
        f"columns: {len(joint)}, joint weight: {joint.joint_weight()}, "
        f"weight1: {joint.weight1()}"
    )
    return 0


def cmd_multiexp(args: argparse.Namespace) -> int:
    if len(args.base) != len(args.n):
        raise ValueError("need as many --base values as --n values")
    group = _parse_group(args.group)
    bases = tuple(group.element(b) for b in args.base)
    result, counter = multiexp(bases, tuple(args.n), args.scheme, group)
    print(f"result: {result}")
    print(f"squarings: {counter.squarings}")
    print(f"multiplications: {counter.multiplications}")
    print(f"precomputation multiplications: {counter.precomp_multiplications}")
    print(f"inversions: {counter.inversions}")
    return 0


def _print_records(records, output_format: str) -> None:
    if output_format == "csv":
        print(csv_header())
        for record in records:
            print(record_to_csv_row(record))
    else:
        for record in records:
            print(record_to_json_line(record))


def cmd_stats(args: argparse.Namespace) -> int:
    for length in args.length:
        _check_length(length)
    given = _given(args, _STATS_SAMPLING)
    if args.exhaustive:
        if given:
            raise ValueError(f"--exhaustive takes no --{next(iter(given))}")
        records = [
            exhaustive_stats(args.scheme, length, args.dimension)
            for length in args.length
        ]
    else:
        # Imported here: the exhaustive branch and the other commands log nothing.
        import logging

        logging.basicConfig(stream=sys.stderr, format="%(message)s")
        logging.getLogger("digitkit").setLevel(logging.INFO)
        config = RunConfig(
            **{**_STATS_SAMPLING, **given},
            lengths=tuple(args.length),
            scheme=args.scheme,
            dimension=args.dimension,
        )
        records = run_stats(config)
    _print_records(records, args.output_format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_check(args.check, **_given(args, bound_names(args.check)))
    print(f"check: {report.check}")
    print(f"result: {'PASS' if report.passed else 'FAIL'} ({report.cases} cases)")
    print(f"details: {report.details}")
    for line in report.counterexamples:
        print(f"counterexample: {line}")
    return 0 if report.passed else 1


def _fraction_row(values) -> str:
    exact = " ".join(f"{str(v):>5}" for v in values)
    decimal = " ".join(f"{float(v):.4f}" for v in values)
    return f"{exact}   | {decimal}"


def cmd_markov(args: argparse.Namespace) -> int:
    if args.steps > _MARKOV_STEPS_CAP:
        raise ValueError(
            f"steps = {args.steps} exceeds its cap of {_MARKOV_STEPS_CAP}"
        )
    machine = double_naf_transducer()
    p = transition_matrix(machine)
    print(f"states: {' '.join(p.labels)}")
    print("transition matrix P:")
    for label, row in zip(p.labels, p.entries):
        print(f"  from {label}: {_fraction_row(row)}")
    print("state distribution after k input bits (started in state 1):")
    walk = _walk(p, state_distribution(p, 0).weights)
    for k, (numerators, denominator) in zip(range(1, args.steps + 1), walk):
        print(f"  k={k}: {_fraction_row(_ratios(numerators, denominator))}")
    pi = stationary_distribution(p)
    print(f"stationary: {_fraction_row(pi.weights)}")
    return 0


def _falsify_slope(args: argparse.Namespace) -> int:
    claimed = _CLAIMED_SLOPES[args.claim]
    _check_length(args.length, _LENGTH_CAP // 2)  # the slope also samples twice it
    report = cost_slope(
        RecodingScheme.WLLC, args.length, args.samples, args.seed, workers=args.workers
    )
    total_low = report.low.mean_multiplications + report.low.mean_squarings
    total_high = report.high.mean_multiplications + report.high.mean_squarings
    print(f"claim: total cost grows as {claimed} per exponent bit")
    print(
        f"measured: lengths {args.length}/{2 * args.length}, "
        f"{args.samples} samples, seed {args.seed}"
    )
    print(f"  mean total cost at {args.length}: {total_low:.3f}")
    print(f"  mean total cost at {2 * args.length}: {total_high:.3f}")
    print(f"  slope: {report.slope:.4f}")
    for constant in (*_CLAIMED_SLOPES.values(), _TARGET_SLOPE):
        print(f"  distance to {constant:.4f}: {abs(report.slope - constant):.4f}")
    gap_claim = abs(report.slope - claimed)
    gap_target = abs(report.slope - _TARGET_SLOPE)
    if gap_target < gap_claim:
        print(
            f"verdict: claim refuted; the slope misses {claimed} by "
            f"{gap_claim:.4f} but sits {gap_target:.4f} from 14/9"
        )
        return 0
    print("verdict: claim not refuted by this run")
    return 1


def _falsify_bits(args: argparse.Namespace) -> int:
    report = complement_bit_probabilities(args.length)
    claimed = Fraction(3, 4)
    print(
        "claim: after conditional complementing, every bit is 0 with "
        "probability 3/4, independently"
    )
    print(f"exhaustive enumeration of all {report.samples} words of length {args.length}:")
    for i, prob in enumerate(report.zero_probability):
        marker = "" if prob == claimed else "  != 3/4"
        print(f"  P(bit {i} = 0) = {prob} = {float(prob):.4f}{marker}")
    dependent = []
    for (i, j), prob in sorted(report.pair_zero_probability.items()):
        product = report.zero_probability[i] * report.zero_probability[j]
        if prob != product:
            dependent.append(((i, j), prob, product))
    if dependent:
        (i, j), prob, product = dependent[0]
        print(
            f"  P(bit {i} = 0 and bit {j} = 0) = {prob} != "
            f"{product} = product of marginals"
        )
        print(
            f"dependent pairs: {len(dependent)} of "
            f"{len(report.pair_zero_probability)}"
        )
    marginal_off = any(p != claimed for p in report.zero_probability)
    if marginal_off or dependent:
        print("verdict: claim refuted exactly")
        return 0
    print("verdict: claim not refuted at this length")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Output still buffered goes to the null
        # device, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a writer the signal ended
    raise SystemExit(code)
