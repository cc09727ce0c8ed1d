"""Command line interface.

Every command prints a short human summary by default and a single JSON
object with --structured.  Rationals appear as "p/q" strings in the
structured output.  Exit codes: 0 on success, 1 on a usage error, 2
when an internal consistency check failed (or a verification suite
reported failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .classify import CensusReport, census, saturation_violation
from .correlation import bootstrap
from .decider import InternalConsistencyError, decide
from .oracle import empirical_correlation, empirical_restricted_correlation
from .pattern_sets import (
    PatternSet,
    PeriodicFactor,
    invariant_decomposition,
    twist,
)
from .suites import SUITE_NAMES, run_suite

# Largest operating modulus base**level a set command accepts: binary
# length 8.  Decision time and memory set the limit, not the tables
# (bootstrap takes about 0.5 ms at K = 512): a saturated binary length-8
# decision takes 8.0-9.2 s and 150 MB on a 2-vCPU machine, and each
# doubling of K multiplies the decision time by 7.5 to 9.5.
MAX_MODULUS = 256
# Largest --workers of census and verify, and largest census family.
# Every pool word doubles the family, so 2**16 candidates means --length
# at most 4 for "all" and 5 for "self-invariant"; the largest, the
# self-invariant length-5 family, takes about 5 s with 2 workers on a
# 2-vCPU machine.
MAX_WORKERS = 64
MAX_CANDIDATES = 1 << 16
# Largest --max-shift sweep, largest bit length of one --shift, and
# largest prefix samples + shift that estimate reads.  At the largest
# modulus, on a 2-vCPU machine with process start-up included: the sweep
# takes 0.9-1.4 s and peaks at 150-177 MB, as the memo keeps every shift
# it asks for; a 2048-bit shift takes 0.35-0.50 s and 31 MB, and the
# estimate 0.36 s and 46 MB.
MAX_SWEEP = 1 << 14
MAX_SHIFT_BITS = 2048
MAX_PREFIX = 1 << 23


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401  (argparse hook)
        raise _UsageError(message)


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _add_set_arguments(parser: argparse.ArgumentParser, level: bool = False) -> None:
    parser.add_argument("-k", "--base", type=int, default=2, help="digit base (default 2)")
    parser.add_argument(
        "-s",
        "--set",
        dest="set_text",
        required=True,
        help='comma-separated digit words, e.g. "01,11"; "" is the empty set',
    )
    if not level:
        parser.set_defaults(level=None)
        return
    parser.add_argument(
        "--level",
        type=int,
        default=None,
        help="operating length (defaults to the longest word length)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decide", help="decide whether all shifted correlations vanish")
    _add_set_arguments(p)
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("correlation", help="exact correlation values")
    _add_set_arguments(p, level=True)
    p.add_argument("--shift", type=int, default=None, help="a single shift")
    p.add_argument("--max-shift", type=int, default=None, help="sweep shifts 1..MAX")
    p.add_argument("--residue", type=int, default=None, help="restrict to one class")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_correlation)

    p = sub.add_parser("census", help="sweep a binary candidate family")
    p.add_argument("-k", "--base", type=int, default=2)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--selection", choices=("all", "self-invariant"), default="all")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--list", dest="list_path", default=None, help="write noncorrelated sets to a file")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("saturation", help="test the saturation property")
    _add_set_arguments(p)
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_saturation)

    p = sub.add_parser("decompose", help="split off the self-invariant part")
    _add_set_arguments(p)
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("twist", help="multiply by a periodic sign and rebuild the set")
    _add_set_arguments(p)
    p.add_argument(
        "--factor",
        required=True,
        help='one period as a sign string, e.g. "+-"',
    )
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_twist)

    p = sub.add_parser("estimate", help="empirical correlation from a prefix")
    _add_set_arguments(p, level=True)
    p.add_argument("--shift", type=int, required=True)
    p.add_argument("--samples", type=int, default=1 << 20)
    p.add_argument("--residue", type=int, default=None)
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--structured", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _parse_set(ns: argparse.Namespace) -> PatternSet:
    pattern_set = PatternSet.parse(ns.set_text, ns.base)
    level = pattern_set.length if ns.level is None else ns.level
    modulus = 1
    # at most nine steps: the base is at least 2 and 2**9 > MAX_MODULUS
    for _ in range(level):
        modulus *= ns.base
        if modulus > MAX_MODULUS:
            raise _UsageError(
                f"operating modulus {ns.base}**{level} exceeds {MAX_MODULUS}"
            )
    return pattern_set


def _cmd_decide(ns: argparse.Namespace) -> int:
    decision = decide(_parse_set(ns))
    if ns.structured:
        _emit(decision.to_record())
    elif decision.noncorrelated:
        print(
            f"noncorrelated  ({decision.elements_created} elements, "
            f"{decision.expansions} expansions)"
        )
    else:
        print(
            f"correlated: witness shift {decision.witness_shift}, "
            f"correlation {decision.witness_value}  "
            f"({decision.elements_created} elements, {decision.expansions} expansions)"
        )
    return 0


def _cmd_correlation(ns: argparse.Namespace) -> int:
    if (ns.shift is None) == (ns.max_shift is None):
        raise _UsageError("give exactly one of --shift or --max-shift")
    if ns.max_shift is not None and ns.max_shift < 1:
        raise _UsageError(f"--max-shift {ns.max_shift} is below 1")
    if ns.max_shift is not None and ns.max_shift > MAX_SWEEP:
        raise _UsageError(f"--max-shift {ns.max_shift} exceeds {MAX_SWEEP}")
    if ns.shift is not None and ns.shift.bit_length() > MAX_SHIFT_BITS:
        raise _UsageError(
            f"--shift has {ns.shift.bit_length()} bits, more than {MAX_SHIFT_BITS}"
        )
    table = bootstrap(_parse_set(ns), ns.level)
    shifts = [ns.shift] if ns.shift is not None else list(range(1, ns.max_shift + 1))
    if any(s < 0 for s in shifts):
        raise _UsageError("shifts must be nonnegative")
    if ns.residue is None:
        values = {s: table.correlation(s) for s in shifts}
    else:
        values = {s: table.restricted(ns.residue, s) for s in shifts}
    if ns.structured:
        record = {
            "base": table.base,
            "level": table.level,
            "residue": ns.residue,
            "values": {str(s): _rational(v) for s, v in values.items()},
        }
        _emit(record)
    else:
        for s in shifts:
            print(f"shift {s}: {values[s]}")
    return 0


def _render_census(report: CensusReport, ns: argparse.Namespace) -> None:
    if ns.structured:
        _emit(report.to_record())
        return
    print(
        f"{report.noncorrelated} of {report.candidates} candidates noncorrelated "
        f"(base {report.base}, length {report.length}, {report.selection})"
    )
    for exact, count in sorted(report.by_exact_length.items()):
        print(f"  exact length {exact}: {count}")
    print(
        f"peak stored {report.peak_stored}, total expansions {report.total_expansions}"
    )
    if report.timing:
        timing = report.timing
        print(
            f"  {timing['correlated']} correlated, {timing['noncorrelated']} noncorrelated, "
            f"decided in {timing['decide_seconds']:.2f}s summed over workers"
        )


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise _UsageError(f"--workers {workers} is below 1")
    if workers > MAX_WORKERS:
        raise _UsageError(f"--workers {workers} exceeds {MAX_WORKERS}")


def _cmd_census(ns: argparse.Namespace) -> int:
    _check_workers(ns.workers)
    if ns.length >= 1:
        # the pool holds 2**length - 1 words for "all" and 2**(length - 1)
        # for "self-invariant"; length 17 is past the limit for both, so
        # the cap keeps the powers small
        length = min(ns.length, 17)
        words = (1 << length) - 1 if ns.selection == "all" else 1 << (length - 1)
        if 1 << words > MAX_CANDIDATES:
            raise _UsageError(
                f"--length {ns.length} gives more than {MAX_CANDIDATES} candidates"
            )
    report = census(
        ns.base,
        ns.length,
        ns.selection,
        workers=ns.workers,
        keep_sets=ns.list_path is not None,
    )
    if ns.list_path is not None:
        with open(ns.list_path, "w", encoding="utf-8") as handle:
            for name in report.noncorrelated_sets or []:
                handle.write(name + "\n")
        # the file carries the listing; keep the report itself lean
        report.noncorrelated_sets = None
    _render_census(report, ns)
    return 0


def _cmd_saturation(ns: argparse.Namespace) -> int:
    violation = saturation_violation(_parse_set(ns))
    if ns.structured:
        record: dict = {"saturated": violation is None}
        if violation is not None:
            middle, first, second = violation
            record["violation"] = {
                "middle": str(middle),
                "first": first,
                "second": second,
            }
        _emit(record)
    elif violation is None:
        print("saturated")
    else:
        middle, first, second = violation
        print(
            f"not saturated: interior {str(middle) or '(empty)'}, "
            f"trailing digits {first} and {second}"
        )
    return 0


def _cmd_decompose(ns: argparse.Namespace) -> int:
    invariant, factor = invariant_decomposition(_parse_set(ns))
    if ns.structured:
        _emit({"invariant_part": str(invariant), "factor": str(factor)})
    else:
        print(f"self-invariant part: {str(invariant) or '(empty)'}")
        print(f"periodic factor: {factor}")
    return 0


def _cmd_twist(ns: argparse.Namespace) -> int:
    pattern_set = _parse_set(ns)
    factor = PeriodicFactor.parse(ns.factor, ns.base)
    twisted = twist(pattern_set, factor)
    if ns.structured:
        _emit({"twisted": str(twisted)})
    else:
        print(str(twisted) or "(empty)")
    return 0


def _cmd_estimate(ns: argparse.Namespace) -> int:
    if ns.residue is None and ns.level is not None:
        raise _UsageError("--level sets the classes of --residue and needs it")
    pattern_set = _parse_set(ns)
    if ns.samples + max(ns.shift, 0) > MAX_PREFIX:
        raise _UsageError(f"samples + shift exceeds {MAX_PREFIX}")
    if ns.residue is None:
        estimate = empirical_correlation(pattern_set, ns.shift, ns.samples)
    else:
        estimate = empirical_restricted_correlation(
            pattern_set, ns.residue, ns.shift, ns.samples, ns.level
        )
    if ns.structured:
        _emit(estimate.to_record())
    else:
        where = f", class {estimate.residue}" if estimate.residue is not None else ""
        print(
            f"estimate {estimate.value:+.6f} "
            f"(shift {estimate.shift}, {estimate.samples} samples{where})"
        )
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    _check_workers(ns.workers)
    result = run_suite(ns.suite, workers=ns.workers)
    if ns.structured:
        _emit(result.to_record())
    else:
        for check in result.checks:
            mark = "ok  " if check.passed else "FAIL"
            print(f"{mark} {check.name}: {check.detail}")
        print(f"suite {result.suite}: {'passed' if result.passed else 'FAILED'}")
    return 0 if result.passed else 2


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.handler(ns)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
