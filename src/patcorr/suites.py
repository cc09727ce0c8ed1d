"""Named end-to-end verification suites, runnable from the command line.

Each suite bundles a batch of cross checks between independent routes
to the same quantities: decided verdicts against exhaustive counts,
closed forms against the exact recursion, canonical forms against
direct sequence evaluation.  Suites are deterministic; randomized ones
run from fixed seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classify import (
    census,
    check_theorem_c,
    is_saturated,
    random_hadamard_family,
    random_saturated_superset,
)
from .correlation import bootstrap
from .decider import decide
from .oracle import check_cancellation, saturated_closed_form, sequence_values
from .pattern_sets import (
    PatternSet,
    invariant_decomposition,
    kernel_quotient,
    periodic_factor,
    remove_leading_zeros,
    to_constant_length,
)
from .words import Word

SUITE_NAMES = ("smoke", "theorem-a", "theorem-c", "saturated-props", "kernel-props")

# The headline counts the theorem suites and the acceptance gate check:
# the binary length-4 census, and the saturation equivalence sweep over
# the self-invariant sets of length at most 5.
L4_CANDIDATES = 32768
L4_NONCORRELATED = 2272
THEOREM_C_CANDIDATES = 65536
THEOREM_C_NONCORRELATED_BY_LENGTH = {2: 2, 3: 4, 4: 16, 5: 256}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_record(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checks: list[CheckResult]

    def to_record(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [check.to_record() for check in self.checks],
        }


def run_suite(name: str, workers: int = 1) -> SuiteResult:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    runner = {
        "smoke": _smoke,
        "theorem-a": _theorem_a,
        "theorem-c": _theorem_c,
        "saturated-props": _saturated_props,
        "kernel-props": _kernel_props,
    }[name]
    checks = runner(workers)
    return SuiteResult(name, all(c.passed for c in checks), checks)


def _check(checks: list[CheckResult], name: str, passed: bool, detail: str) -> None:
    checks.append(CheckResult(name, passed, detail))


def _first_failures(failures: dict[str, str], defaults: dict[str, str]) -> list[CheckResult]:
    """One check per name of defaults, failed with its first failure when failures holds one."""
    return [
        CheckResult(name, name not in failures, failures.get(name, detail))
        for name, detail in defaults.items()
    ]


def _smoke(workers: int) -> list[CheckResult]:
    """Fast sanity pass over the main entry points."""
    checks: list[CheckResult] = []
    tm = PatternSet.parse("1", 2)
    value = bootstrap(tm).correlation(1)
    _check(checks, "single-digit correlation", value == Fraction(-1, 3), f"got {value}")
    decision = decide(tm)
    _check(
        checks,
        "single-digit verdict",
        (not decision.noncorrelated) and decision.witness_shift == 1,
        f"got {decision.verdict} at shift {decision.witness_shift}",
    )
    rs = PatternSet.parse("11", 2)
    table = bootstrap(rs)
    zeros = all(table.correlation(m) == 0 for m in range(1, 17))
    _check(checks, "double-digit correlations vanish", zeros, "shifts 1..16")
    decision = decide(rs)
    _check(checks, "double-digit verdict", decision.noncorrelated, decision.verdict)
    report = census(2, 2)
    _check(
        checks,
        "length-2 census",
        (report.candidates, report.noncorrelated) == (8, 4),
        f"got {report.candidates} candidates, {report.noncorrelated} noncorrelated",
    )
    saturated = is_saturated(PatternSet.parse("1,11", 2))
    _check(checks, "mixed-length saturation", saturated, "set 1,11")
    return checks


def _theorem_a(workers: int) -> list[CheckResult]:
    """The full binary length-4 census and its headline count."""
    checks: list[CheckResult] = []
    report = census(2, 4, "all", workers=workers, keep_sets=True)
    _check(
        checks,
        "candidate count",
        report.candidates == L4_CANDIDATES,
        f"got {report.candidates}",
    )
    _check(
        checks,
        "noncorrelated count",
        report.noncorrelated == L4_NONCORRELATED,
        f"got {report.noncorrelated}",
    )
    # Evidence only: a correlated invariant part is reported, not failed.
    verdicts: dict[PatternSet, bool] = {}
    counterexamples = []
    for name in report.noncorrelated_sets or ():
        invariant, _ = invariant_decomposition(PatternSet.parse(name, 2))
        if invariant not in verdicts:
            verdicts[invariant] = decide(invariant).noncorrelated
        if not verdicts[invariant]:
            counterexamples.append(name)
    total = len(report.noncorrelated_sets or ())
    detail = f"{total - len(counterexamples)} of {total} invariant parts noncorrelated"
    if counterexamples:
        detail += f"; first counterexample {counterexamples[0]}"
    _check(checks, "invariant parts stay noncorrelated", True, detail)
    return checks


def _theorem_c(workers: int) -> list[CheckResult]:
    """Saturation against decided verdicts on all self-invariant sets."""
    checks: list[CheckResult] = []
    report = check_theorem_c(5, workers=workers)
    _check(
        checks,
        "candidate count",
        report.candidates == THEOREM_C_CANDIDATES,
        f"got {report.candidates}",
    )
    _check(
        checks,
        "no mismatches",
        not report.mismatches,
        f"{len(report.mismatches)} mismatches",
    )
    _check(
        checks,
        "noncorrelated counts by length",
        report.noncorrelated_by_length == THEOREM_C_NONCORRELATED_BY_LENGTH,
        f"got {report.noncorrelated_by_length}",
    )
    return checks


def _saturated_props(workers: int) -> list[CheckResult]:
    """Random saturated sets: verdicts, cancellation sums, closed forms."""
    rng = random.Random(20260822)
    instances: list[PatternSet] = []
    for _ in range(60):
        instances.append(random_saturated_superset(rng.choice((2, 3, 4, 5)), rng))
    for _ in range(40):
        instances.append(random_hadamard_family(4, rng.choice((2, 3)), rng))
    failures: dict[str, str] = {}
    for index, candidate in enumerate(instances):
        if not decide(candidate).noncorrelated:
            failures.setdefault(
                "all instances noncorrelated", f"instance {index} decided correlated"
            )
        base = candidate.base
        reduced = remove_leading_zeros(candidate)
        length = reduced.length
        for u_digits in itertools.product(range(base), repeat=length - 2):
            for first in range(base):
                for second in range(first + 1, base):
                    total = check_cancellation(reduced, Word(base, u_digits), first, second)
                    if total != 0:
                        failures.setdefault(
                            "cancellation sums vanish",
                            f"instance {index} cancellation {total} at {u_digits}",
                        )
        table = bootstrap(reduced)
        for r in range(table.modulus):
            for m in range(1, 2 * base + 1):
                if table.restricted(r, m) != saturated_closed_form(reduced, r, m):
                    failures.setdefault(
                        "closed form matches recursion",
                        f"instance {index} closed form off at r={r} m={m}",
                    )
    return _first_failures(
        failures,
        {
            "all instances noncorrelated": "100 instances",
            "cancellation sums vanish": "all interiors",
            "closed form matches recursion": "shifts up to 2k",
        },
    )


def _kernel_props(workers: int) -> list[CheckResult]:
    """Kernel quotients, canonical forms, and decompositions on random sets."""
    rng = random.Random(17)
    span = 1 << 14
    failures: dict[str, str] = {}
    for index in range(100):
        candidate = _random_pattern_set(rng, max_length=4)
        base = candidate.base
        modulus = base**candidate.length
        alpha = rng.choice((1, 2))
        shift = rng.randrange(base**alpha)
        values = sequence_values(candidate, (base**alpha) * span + shift + 1)
        quotient = kernel_quotient(candidate, alpha, shift)
        left = values[(base**alpha) * np.arange(span) + shift].astype(np.int64)
        right = values[np.arange(span)].astype(np.int64)
        expected = np.array(
            [quotient(n) for n in range(quotient.period)], dtype=np.int64
        )
        if not np.array_equal(left * right, np.tile(expected, span // quotient.period + 1)[:span]):
            failures.setdefault(
                "kernel quotients periodic", f"instance {index} quotient breaks periodicity"
            )
        ratio = periodic_factor(candidate)
        ratio_values = np.array(ratio.values, dtype=np.int64)
        n = np.arange(1, span)
        if not np.array_equal(
            values[n].astype(np.int64),
            ratio_values[n % modulus] * values[n // base].astype(np.int64),
        ):
            failures.setdefault(
                "ratio recursion exact", f"instance {index} ratio recursion breaks"
            )
        reduced = remove_leading_zeros(candidate)
        constant = to_constant_length(candidate, candidate.length)
        if reduced != remove_leading_zeros(constant):
            failures.setdefault(
                "canonical forms agree", f"instance {index} canonical forms disagree"
            )
        for form in (reduced, constant):
            if not np.array_equal(sequence_values(form, span), values[:span]):
                failures.setdefault(
                    "canonical forms agree", f"instance {index} canonical form changes values"
                )
        invariant, factor = invariant_decomposition(candidate)
        inv_values = sequence_values(invariant, span)
        factor_values = np.array(
            [factor(n) for n in range(factor.period)], dtype=np.int64
        )
        repeats = np.tile(factor_values, span // factor.period + 1)[:span]
        if not np.array_equal(
            values[:span].astype(np.int64), repeats * inv_values.astype(np.int64)
        ):
            failures.setdefault(
                "decomposition identity", f"instance {index} decomposition identity breaks"
            )
        if any(w.digits[-1] == 0 for w in invariant.words):
            failures.setdefault(
                "decomposition identity", f"instance {index} invariant part not self-invariant"
            )
    return _first_failures(
        failures,
        {
            "kernel quotients periodic": "alpha in {1,2}",
            "ratio recursion exact": f"n < {span}",
            "canonical forms agree": "both routes",
            "decomposition identity": f"n < {span}",
        },
    )


def _random_pattern_set(rng: random.Random, max_length: int = 4) -> PatternSet:
    """A nonempty admissible binary set with mixed word lengths."""
    while True:
        count = rng.randint(1, 5)
        words = []
        for _ in range(count):
            size = rng.randint(1, max_length)
            digits = tuple(rng.randrange(2) for _ in range(size))
            if any(digits):
                words.append(Word(2, digits))
        if words:
            return PatternSet(2, tuple(words))
