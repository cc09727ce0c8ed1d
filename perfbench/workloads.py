"""The four workloads of the patcorr benchmark.

Each workload has three parts:

* ``make_inputs(rng, size)`` builds the seeded inputs (part of set-up);
* ``run_pass(inputs, record)`` is one timed pass over them; every call
  into patcorr goes through ``record.op``, which counts it as one
  operation, catches and counts its failure, and times it when it is a
  work item;
* ``check(inputs, outputs, checker)`` compares the pass outputs with an
  independent route, outside the timed phase.

All patcorr calls look the function up on the ``patcorr`` package at
call time, so the tracer can wrap them there.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "patcorr" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no patcorr sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import patcorr  # noqa: E402

from calibrate import SpeedSampler  # noqa: E402

L4_CANDIDATES = 32768
L4_NONCORRELATED = 2272
L4_EXPECTED_FILE = HERE / "l4_noncorrelated.txt"
THEOREM_C_CANDIDATES = 1 << 16
# the tolerance of the empirical-agreement acceptance criterion
EMPIRICAL_TOLERANCE = 0.02
EMPIRICAL_SAMPLES = 1 << 20


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Failed:
    """Stands in for the output of an operation that raised."""

    error: str


class PassRecord:
    """Operation accounting, work-item timings and machine speed of one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        # (seconds, first and end index of the speed samples taken meanwhile)
        self.items: list[tuple[float, int, int]] = []
        self.apart_s = 0.0
        self.sampler = SpeedSampler()

    def op(self, fn, *args, item=False, apart=False, parallel=False, **kwargs):
        """Run one operation; a raised exception becomes a Failed output.

        item marks a work item, whose latency the metrics report; apart
        keeps the operation's time out of the pass's wall time; parallel
        marks work done by worker processes, during which the speed
        sampler rests.  Times leave out the sampler's reference chunks.
        """
        self.attempted += 1
        sampler = self.sampler
        first, paused = len(sampler.chunk_s), sampler.paused_s
        start = perf_counter()
        try:
            if parallel:
                with sampler.suspended():
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the pass goes on
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{type(exc).__name__}: {exc}"
            result = Failed(type(exc).__name__)
        elapsed = perf_counter() - start - (sampler.paused_s - paused)
        if item:
            self.items.append((elapsed, first, len(sampler.chunk_s)))
        if apart:
            self.apart_s += elapsed
        return result


class Checker:
    """Tallies each named check: values compared, failures, and values skipped."""

    def __init__(self) -> None:
        self.checked: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.checked[name] = self.checked.get(name, 0) + 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def skip(self, name: str) -> None:
        """The output this check compares came from a failed operation."""
        self.skipped[name] = self.skipped.get(name, 0) + 1


def _stratified_sample(rng: random.Random, groups: dict, size: int) -> list:
    """Sample size items, each group in proportion to its share of the whole.

    Quotas are rounded by largest remainder, so every seed draws the same
    number from each group and only the members drawn change.
    """
    keys = sorted(groups)
    total = sum(len(groups[k]) for k in keys)
    exact = {k: size * len(groups[k]) / total for k in keys}
    quota = {k: int(exact[k]) for k in keys}
    by_remainder = sorted(keys, key=lambda k: (quota[k] - exact[k], keys.index(k)))
    for k in by_remainder[: size - sum(quota.values())]:
        quota[k] += 1
    chosen = []
    for k in keys:
        chosen.extend(rng.sample(groups[k], quota[k]))
    rng.shuffle(chosen)
    return chosen


def _check_witness(checker: Checker, pattern_set, decision) -> None:
    """A correlated verdict's witness value is nonzero and matches a fresh table."""
    if decision.noncorrelated:
        return
    value = decision.witness_value
    if decision.witness_shift is None or value is None:
        checker.expect("witness value is nonzero", False, f"{pattern_set}: no witness")
        return
    checker.expect("witness value is nonzero", value != 0, f"{pattern_set}")
    fresh = patcorr.bootstrap(pattern_set).correlation(decision.witness_shift)
    checker.expect(
        "witness value matches a fresh table",
        fresh == value,
        f"{pattern_set} at {decision.witness_shift}: {value} against {fresh}",
    )


# === census-l4 ===


def load_l4_expected() -> frozenset[int]:
    masks = frozenset(
        int(line)
        for line in L4_EXPECTED_FILE.read_text().splitlines()
        if line and not line.startswith("#")
    )
    if len(masks) != L4_NONCORRELATED:
        raise ValueError(f"{L4_EXPECTED_FILE.name} holds {len(masks)} sets, not {L4_NONCORRELATED}")
    return masks


class CensusL4:
    """Sampled binary length-4 candidates, plus the two small pool sweeps.

    A work item is one in-process decide call.
    """

    sizes = {"full": {"sample": 1000}, "tiny": {"sample": 40}}
    checks = (
        "verdict matches the census file",
        "witness value is nonzero",
        "witness value matches a fresh table",
        "length-3 census is 40 of 128",
        "length-4 theorem C sweep",
    )

    def make_inputs(self, rng: random.Random, size: dict) -> dict:
        expected = load_l4_expected()
        # even masks only: bit 0 would select the zero word
        groups = {
            True: sorted(expected),
            False: [m for m in range(0, 1 << 16, 2) if m not in expected],
        }
        masks = _stratified_sample(rng, groups, size["sample"])
        sets = [patcorr.PatternSet.from_mask(2, 4, m) for m in masks]
        return {"masks": masks, "sets": sets, "expected": expected}

    def run_pass(self, inputs: dict, record: PassRecord):
        decisions = [record.op(patcorr.decide, s, item=True) for s in inputs["sets"]]
        workers = worker_count()
        small = record.op(patcorr.census, 2, 3, workers=workers, parallel=True)
        theorem_c = record.op(patcorr.check_theorem_c, 4, workers=workers, parallel=True)
        return decisions, small, theorem_c

    def check(self, inputs: dict, outputs, checker: Checker) -> None:
        decisions, small, theorem_c = outputs
        expected = inputs["expected"]
        for mask, s, decision in zip(inputs["masks"], inputs["sets"], decisions):
            if isinstance(decision, Failed):
                checker.skip("verdict matches the census file")
                continue
            checker.expect(
                "verdict matches the census file",
                decision.noncorrelated == (mask in expected),
                f"mask {mask} decided {decision.verdict}",
            )
            _check_witness(checker, s, decision)
        if isinstance(small, Failed):
            checker.skip("length-3 census is 40 of 128")
        else:
            checker.expect(
                "length-3 census is 40 of 128",
                (small.candidates, small.noncorrelated) == (128, 40),
                f"{small.noncorrelated} of {small.candidates}",
            )
        if isinstance(theorem_c, Failed):
            checker.skip("length-4 theorem C sweep")
        else:
            checker.expect(
                "length-4 theorem C sweep",
                theorem_c.candidates == 256
                and theorem_c.noncorrelated_by_length == {2: 2, 3: 4, 4: 16}
                and not theorem_c.mismatches,
                f"{theorem_c.to_record()}",
            )


# === theorem-c-l5 ===


def theorem_c_pool() -> list[str]:
    """The 16 binary words 1 and 1u1 of length up to 5, in shortlex order."""
    words = ["1"]
    for mid in range(4):
        words += ["1" + "".join(u) + "1" for u in itertools.product("01", repeat=mid)]
    return words


def saturated_by_count(words: list[str]) -> bool:
    """Binary saturation of a self-invariant set, read off its word count.

    Over base 2 a self-invariant set of longest length L >= 2 is
    saturated exactly when it holds all 2**(L - 2) words 1u1 of length L.
    """
    longest = max((len(w) for w in words), default=1)
    return longest >= 2 and sum(len(w) == longest for w in words) == 1 << (longest - 2)


class TheoremCL5:
    """Sampled self-invariant sets of length <= 5: decide, then is_saturated.

    A work item is one decide call.
    """

    sizes = {"full": {"sample": 1500}, "tiny": {"sample": 40}}
    checks = (
        "verdict equals is_saturated",
        "is_saturated equals the word count",
        "witness value is nonzero",
        "witness value matches a fresh table",
    )

    def make_inputs(self, rng: random.Random, size: dict) -> dict:
        pool = theorem_c_pool()
        groups: dict[tuple[bool, int], list[int]] = {}
        for mask in range(THEOREM_C_CANDIDATES):
            words = [w for b, w in enumerate(pool) if (mask >> b) & 1]
            key = (saturated_by_count(words), max((len(w) for w in words), default=1))
            groups.setdefault(key, []).append(mask)
        masks = _stratified_sample(rng, groups, size["sample"])
        word_lists = [[w for b, w in enumerate(pool) if (m >> b) & 1] for m in masks]
        sets = [patcorr.PatternSet.of(2, words) for words in word_lists]
        return {"sets": sets, "words": word_lists}

    def run_pass(self, inputs: dict, record: PassRecord):
        out = []
        for s in inputs["sets"]:
            decision = record.op(patcorr.decide, s, item=True)
            # as in check_theorem_c: saturation is undefined below length 2
            # and those sets (the empty set and {1}) count as unsaturated
            saturated = record.op(patcorr.is_saturated, s) if s.length >= 2 else None
            out.append((decision, saturated))
        return out

    def check(self, inputs: dict, outputs, checker: Checker) -> None:
        for s, words, (decision, saturated) in zip(inputs["sets"], inputs["words"], outputs):
            if isinstance(saturated, Failed):
                checker.skip("is_saturated equals the word count")
            elif saturated is not None:
                checker.expect(
                    "is_saturated equals the word count",
                    saturated == saturated_by_count(words),
                    f"{s}: is_saturated gave {saturated}",
                )
            if isinstance(decision, Failed) or isinstance(saturated, Failed):
                checker.skip("verdict equals is_saturated")
                continue
            checker.expect(
                "verdict equals is_saturated",
                decision.noncorrelated == bool(saturated),
                f"{s}: {decision.verdict}, saturated {saturated}",
            )
            _check_witness(checker, s, decision)


# === closure-large ===


def value_grid(pattern_set, shifts: int) -> tuple[list, list]:
    """Restricted values and their closed forms for r < K and 1 <= m <= shifts."""
    table = patcorr.bootstrap(pattern_set)
    ms = range(1, shifts + 1)
    exact = [[table.restricted(r, m) for m in ms] for r in range(table.modulus)]
    closed = [
        [patcorr.saturated_closed_form(pattern_set, r, m) for m in ms]
        for r in range(table.modulus)
    ]
    return exact, closed


def binary_saturated(length: int):
    """The binary set of all words 1u1 of one length."""
    return patcorr.PatternSet.of(
        2, ["1" + "".join(u) + "1" for u in itertools.product("01", repeat=length - 2)]
    )


class ClosureLarge:
    """Single large noncorrelated decisions at K = 64.

    A work item is one decide call.  Each set's restricted values for
    r < K and 1 <= m <= 2k are also compared with the saturated closed
    form.
    """

    sizes = {
        "full": {"binary_length": 6, "hadamard_length": 3},
        "tiny": {"binary_length": 4, "hadamard_length": 2},
    }
    checks = (
        "verdict is noncorrelated",
        "binary set stores K*K - 2 elements",
        "restricted values equal the closed form",
    )

    def make_inputs(self, rng: random.Random, size: dict) -> dict:
        binary = binary_saturated(size["binary_length"])
        hadamard = patcorr.random_hadamard_family(4, size["hadamard_length"], rng)
        return {"sets": [binary, hadamard]}

    def run_pass(self, inputs: dict, record: PassRecord):
        out = []
        for s in inputs["sets"]:
            decision = record.op(patcorr.decide, s, item=True)
            grid = record.op(value_grid, s, 2 * s.base)
            out.append((decision, grid))
        return out

    def check(self, inputs: dict, outputs, checker: Checker) -> None:
        for index, (s, (decision, grid)) in enumerate(zip(inputs["sets"], outputs)):
            if isinstance(decision, Failed):
                checker.skip("verdict is noncorrelated")
            else:
                checker.expect("verdict is noncorrelated", decision.noncorrelated, f"{s}")
                if index == 0:
                    modulus = s.base**s.length
                    checker.expect(
                        "binary set stores K*K - 2 elements",
                        decision.elements_created == modulus * modulus - 2,
                        f"stored {decision.elements_created} at K = {modulus}",
                    )
            if isinstance(grid, Failed):
                checker.skip("restricted values equal the closed form")
                continue
            exact, closed = grid
            checker.expect(
                "restricted values equal the closed form",
                exact == closed,
                f"base {s.base} length {s.length}",
            )


# === correlation-sweep ===

# (set, base, shift): saturated sets, so the closed form checks any value
# these shifts produce; each shift has more than 496 digits in its base
DEEP_SHIFTS = (
    ("11", 2, 2**600 + 1),
    ("1001,1011,1101,1111", 2, 2**700 + 5),
    ("sylvester", 4, 4**650 + 3),
)


def random_set(rng: random.Random, base: int, length: int):
    """Random nonzero words of one length, each kept with probability 1/2."""
    words = []
    while not words:
        words = [
            "".join(map(str, digits))
            for digits in itertools.product(range(base), repeat=length)
            if any(digits) and rng.random() < 0.5
        ]
    return patcorr.PatternSet.of(base, words)


def random_saturated(rng: random.Random, kind: tuple[int, int]):
    base, length = kind
    if base == 2:
        return patcorr.random_saturated_superset(length, rng)
    return patcorr.random_hadamard_family(base, length, rng)


def closed_form_correlation(pattern_set, shift: int) -> Fraction:
    modulus = pattern_set.base**pattern_set.length
    return sum(
        patcorr.saturated_closed_form(pattern_set, r, shift) for r in range(modulus)
    ) / modulus


class CorrelationSweep:
    """Exact correlation sweeps, large shifts, and the oracle cross-routes.

    A work item is one exact correlation value.  The deep shifts run in
    every pass, timed apart from the wall time and the work items, so
    the later fix of their recursion limit, which does more work, shows
    as fewer failures and not as a slower sweep.
    """

    # (base, length) of the random and saturated sets, and the digit
    # counts of the large shifts: fixed, so that a seed changes which
    # sets and shifts are drawn and not how much work they take
    sizes = {
        "full": {
            "random": [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)],
            "saturated": [(2, 3), (2, 4), (2, 5), (4, 2)],
            "small": 32,
            "digits": [128, 256],
            "estimates": 4,
        },
        "tiny": {
            "random": [(2, 3), (3, 2)],
            "saturated": [(2, 3), (4, 2)],
            "small": 8,
            "digits": [24],
            "estimates": 2,
        },
    }
    checks = (
        "saturated values equal the closed form",
        "estimates agree within 0.02",
        "deep shifts equal the closed form",
    )

    def make_inputs(self, rng: random.Random, size: dict) -> dict:
        sets = [(random_set(rng, *kind), False) for kind in size["random"]]
        sets += [(random_saturated(rng, kind), True) for kind in size["saturated"]]
        jobs = []
        for s, saturated in sets:
            large = [rng.randrange(s.base ** (d - 1), s.base**d) for d in size["digits"]]
            jobs.append((s, saturated, list(range(1, size["small"] + 1)) + large))
        sylvester = patcorr.saturated_family_from_hadamard(patcorr.sylvester_hadamard(4), 2)
        deep = [
            (sylvester if text == "sylvester" else patcorr.PatternSet.parse(text, base), shift)
            for text, base, shift in DEEP_SHIFTS
        ]
        return {"jobs": jobs, "estimates": size["estimates"], "deep": deep}

    def run_pass(self, inputs: dict, record: PassRecord):
        out = []
        for s, saturated, shifts in inputs["jobs"]:
            table = record.op(patcorr.bootstrap, s)
            if isinstance(table, Failed):
                out.append((table, [], [], {}))
                continue
            values = [record.op(table.correlation, m, item=True) for m in shifts]
            estimates = [
                record.op(patcorr.empirical_correlation, s, m, EMPIRICAL_SAMPLES)
                for m in range(1, inputs["estimates"] + 1)
            ]
            closed = {}
            if saturated:
                closed = record.op(
                    lambda: {
                        (r, m): patcorr.saturated_closed_form(s, r, m)
                        for m in shifts
                        for r in range(table.modulus)
                    }
                )
            out.append((table, values, estimates, closed))
        deep = []
        for s, shift in inputs["deep"]:
            table = record.op(patcorr.bootstrap, s, apart=True)
            if not isinstance(table, Failed):
                table = record.op(table.correlation, shift, apart=True)
            deep.append(table)
        return out, deep

    def check(self, inputs: dict, outputs, checker: Checker) -> None:
        sweeps, deep = outputs
        for (s, saturated, shifts), (table, values, estimates, closed) in zip(
            inputs["jobs"], sweeps
        ):
            if isinstance(table, Failed):
                checker.skip("estimates agree within 0.02")
                continue
            for m, value in zip(shifts, values):
                if not saturated:
                    continue
                if isinstance(value, Failed) or isinstance(closed, Failed):
                    checker.skip("saturated values equal the closed form")
                    continue
                restricted = [table.restricted(r, m) for r in range(table.modulus)]
                expected = [closed[(r, m)] for r in range(table.modulus)]
                checker.expect(
                    "saturated values equal the closed form",
                    restricted == expected and value == sum(expected) / table.modulus,
                    f"{s} at shift {m}",
                )
            for m, estimate in enumerate(estimates, start=1):
                value = values[m - 1]
                if isinstance(estimate, Failed) or isinstance(value, Failed):
                    checker.skip("estimates agree within 0.02")
                    continue
                checker.expect(
                    "estimates agree within 0.02",
                    abs(estimate.value - float(value)) <= EMPIRICAL_TOLERANCE,
                    f"{s} at shift {m}: {estimate.value} against {value}",
                )
        for (s, shift), value in zip(inputs["deep"], deep):
            if isinstance(value, Failed):
                checker.skip("deep shifts equal the closed form")
                continue
            checker.expect(
                "deep shifts equal the closed form",
                value == closed_form_correlation(s, shift),
                f"{s} at a {len(str(shift))}-decimal-digit shift",
            )


WORKLOADS = {
    "census-l4": CensusL4(),
    "theorem-c-l5": TheoremCL5(),
    "closure-large": ClosureLarge(),
    "correlation-sweep": CorrelationSweep(),
}


def make_inputs(name: str, seed: int, profile: str) -> dict:
    workload = WORKLOADS[name]
    return workload.make_inputs(random.Random(seed), workload.sizes[profile])
