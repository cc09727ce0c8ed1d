"""Acceptance gate: one test per stated criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; without -s they still show up in captured output on failure.
The two family sweeps are the costliest parts (about 5 s and about 9 s
on one core) and are shared across criteria through fixtures.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from patcorr.classify import census, check_theorem_c
from patcorr.correlation import bootstrap
from patcorr.decider import decide
from patcorr.oracle import empirical_correlation
from patcorr.pattern_sets import PatternSet
from patcorr.suites import (
    L4_CANDIDATES,
    L4_NONCORRELATED,
    THEOREM_C_CANDIDATES,
    THEOREM_C_NONCORRELATED_BY_LENGTH,
    run_suite,
)
from patcorr.words import Word

F = Fraction

CENSUS_BUDGET_SECONDS = 600.0
EQUIVALENCE_BUDGET_SECONDS = 900.0
EMPIRICAL_TOLERANCE = 0.02


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def timed_census_length_four():
    started = time.perf_counter()
    report = census(2, 4, "all", workers=8)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def timed_equivalence_length_five():
    started = time.perf_counter()
    report = check_theorem_c(5, workers=8)
    return report, time.perf_counter() - started


def test_criterion_1_binary_census(timed_census_length_four):
    with criterion(1, "binary length-4 census"):
        report, elapsed = timed_census_length_four
        assert report.candidates == L4_CANDIDATES
        assert report.noncorrelated == L4_NONCORRELATED
        assert elapsed < CENSUS_BUDGET_SECONDS


def test_criterion_2_parity_of_ones_correlations():
    with criterion(2, "parity-of-ones correlations"):
        a = PatternSet.parse("1", 2)
        table = bootstrap(a)
        assert table.correlation(1) == F(-1, 3)
        for j in range(1, 9):
            assert table.correlation(2**j) == F(-1, 3)
        decision = decide(a)
        assert not decision.noncorrelated
        assert decision.witness_shift == 1
        assert decision.witness_value == F(-1, 3)


def test_criterion_3_pair_of_ones_noncorrelation():
    with criterion(3, "pair-of-ones noncorrelation"):
        a = PatternSet.parse("11", 2)
        assert decide(a).noncorrelated
        table = bootstrap(a)
        for m in range(1, 257):
            assert table.correlation(m) == 0


def test_criterion_4_saturation_equivalence(timed_equivalence_length_five):
    with criterion(4, "saturation equivalence sweep"):
        report, elapsed = timed_equivalence_length_five
        assert report.candidates == THEOREM_C_CANDIDATES
        assert report.mismatches == []
        assert report.noncorrelated_by_length == THEOREM_C_NONCORRELATED_BY_LENGTH
        assert elapsed < EQUIVALENCE_BUDGET_SECONDS


def test_criterion_5_saturated_family_properties():
    with criterion(5, "saturated family properties"):
        result = run_suite("saturated-props")
        assert result.passed, [c.detail for c in result.checks if not c.passed]
        assert len(result.checks) == 3


def test_criterion_6_empirical_agreement():
    with criterion(6, "empirical agreement"):
        rng = random.Random(40312)
        pool = [
            Word(2, digits)
            for length in range(1, 5)
            for digits in itertools.product(range(2), repeat=length)
            if any(digits)
        ]
        samples = 1 << 22
        for _ in range(50):
            chosen = [w for w in pool if rng.random() < 0.25]
            a = PatternSet(2, tuple(chosen))
            table = bootstrap(a)
            for m in range(1, 9):
                estimate = empirical_correlation(a, m, samples)
                exact = float(table.correlation(m))
                assert abs(estimate.value - exact) <= EMPIRICAL_TOLERANCE, (str(a), m)


def test_criterion_7_kernel_properties():
    with criterion(7, "kernel closure properties"):
        result = run_suite("kernel-props")
        assert result.passed, [c.detail for c in result.checks if not c.passed]
        assert len(result.checks) == 4


def test_criterion_8_witness_soundness(timed_census_length_four):
    with criterion(8, "witness soundness and storage bound"):
        report, _ = timed_census_length_four
        assert report.peak_stored <= 2 * 16 * 17
        small = census(2, 3, "all")
        assert small.peak_stored <= 2 * 8 * 9
        # re-derive every verdict of the small family from the exact
        # correlation values alone
        for mask in range(0, 1 << 7):
            a = PatternSet.from_mask(2, 3, mask << 1)
            decision = decide(a)
            table = bootstrap(a)
            modulus = table.modulus
            if decision.noncorrelated:
                for m in range(1, 2 * modulus + 1):
                    assert table.correlation(m) == 0, (str(a), m)
            else:
                for m in range(1, decision.witness_shift):
                    assert table.correlation(m) == 0, (str(a), m)
                value = table.correlation(decision.witness_shift)
                assert value == decision.witness_value != 0


def test_criterion_9_deterministic_reports():
    with criterion(9, "deterministic reports across workers"):
        records = [
            census(2, 3, "all", workers=w, keep_sets=True).to_record()
            for w in (1, 4, 8)
        ]
        assert records[0] == records[1] == records[2]
        records = [
            census(2, 4, "self-invariant", workers=w, keep_sets=True).to_record()
            for w in (1, 4, 8)
        ]
        assert records[0] == records[1] == records[2]
