"""Sign tables from the last-window rule against the count route.

periodic_factor, sequence_values, the canonical forms, twist, the
kernel quotients and the invariant decomposition all read their signs
off the ratio h.  These tests check each against evaluate, which counts
every occurrence of every word, and against the rewrites and
reconstruction they replaced.
"""

import random

import pytest

from patcorr.oracle import sequence_values
from patcorr.pattern_sets import (
    PatternSet,
    PeriodicFactor,
    evaluate,
    invariant_decomposition,
    is_self_invariant,
    kernel_quotient,
    periodic_factor,
    reconstruct_pattern_set,
    remove_leading_zeros,
    to_constant_length,
    twist,
)
from patcorr.words import Word

# bases 2-5, each with leading-zero words; at level = length and
# length + 1 the modulus reaches 1024
SETS = [
    ("01,110,0011", 2),
    ("1,0101,001100111", 2),
    ("02,1,2012", 3),
    ("002,12,20101", 3),
    ("03,3,120", 4),
    ("0031,2,13", 4),
    ("04,1,302", 5),
]
CASES = [
    (text, base, PatternSet.parse(text, base).length + extra)
    for text, base in SETS
    for extra in (0, 1)
]
CASE_IDS = [f"{text}/{base}@{level}" for text, base, level in CASES]
SET_IDS = [f"{text}/{base}" for text, base in SETS]


def _sample(stop, size, seed):
    """The first few n below stop plus a seeded sample of the rest."""
    rng = random.Random(seed)
    head = list(range(min(stop, 40)))
    return head + rng.sample(range(stop), min(stop, size))


def _toggled_to_constant_length(pattern_set, length):
    """The constant-length form by rewriting, one shortest word at a time.

    Each step replaces one shortest word v by the layer {d.v : d digit},
    which leaves the sequence unchanged.
    """
    base = pattern_set.base
    words = set(pattern_set.words)
    while True:
        short = sorted((w for w in words if len(w) < length), key=Word.sort_key)
        if not short:
            break
        v = short[0]
        toggle = {Word(base, (d,) + v.digits) for d in range(base)}
        toggle.add(v)
        words ^= toggle
    return PatternSet(base, tuple(words))


def _toggled_remove_leading_zeros(pattern_set):
    """The leading-zero-free form by rewriting, one shortest word at a time.

    A word 0.v counts exactly as the layer {d.v : d digit} plus v, so
    toggling that layer together with v removes 0.v and leaves the
    sequence unchanged.
    """
    base = pattern_set.base
    words = set(pattern_set.words)
    while True:
        flagged = sorted((w for w in words if w.digits[0] == 0), key=Word.sort_key)
        if not flagged:
            break
        tail = flagged[0].digits[1:]
        toggle = {Word(base, (d,) + tail) for d in range(base)}
        toggle.add(Word(base, tail))
        words ^= toggle
    return PatternSet(base, tuple(words))


def _peeled_decomposition(pattern_set):
    """The invariant decomposition by rewriting, with a counted factor.

    Words ending in 0 are peeled off the leading-zero-free form: v.0
    differs from the layer {v.d : d digit} plus v by a sign flip on one
    residue class.  The factor is a(n) b(n), counted with evaluate.
    """
    base = pattern_set.base
    words = set(_toggled_remove_leading_zeros(pattern_set).words)
    while True:
        flagged = sorted((w for w in words if w.digits[-1] == 0), key=Word.sort_key)
        if not flagged:
            break
        head = flagged[0].digits[:-1]
        toggle = {Word(base, head + (d,)) for d in range(base)}
        toggle.add(Word(base, head))
        words ^= toggle
    invariant = PatternSet(base, tuple(words))
    values = tuple(
        evaluate(pattern_set, n) * evaluate(invariant, n)
        for n in range(base ** (pattern_set.length - 1))
    )
    return invariant, PeriodicFactor(base, values)


@pytest.mark.parametrize("text, base, level", CASES, ids=CASE_IDS)
class TestAgainstCounts:
    def test_periodic_factor(self, text, base, level):
        a = PatternSet.parse(text, base)
        factor = periodic_factor(a, level)
        assert factor.period == base**level
        for n in _sample(4 * factor.period, 300, level):
            assert factor(n) == evaluate(a, n) * evaluate(a, n // base), n

    def test_sequence_values(self, text, base, level):
        # 2**18 values run past the first block of 256 or more columns
        # at every modulus here; the constant-length form is the same
        # sequence, built from a ratio of period base**level
        a = PatternSet.parse(text, base)
        values = sequence_values(to_constant_length(a, level), 1 << 18)
        for n in _sample(len(values), 300, level):
            assert values[n] == evaluate(a, n), n

    def test_to_constant_length(self, text, base, level):
        a = PatternSet.parse(text, base)
        constant = to_constant_length(a, level)
        assert constant == _toggled_to_constant_length(a, level)
        assert {len(w) for w in constant.words} <= {level}


@pytest.mark.parametrize("text, base", SETS, ids=SET_IDS)
class TestStructureAgainstCounts:
    def test_remove_leading_zeros(self, text, base):
        a = PatternSet.parse(text, base)
        reduced = remove_leading_zeros(a)
        assert reduced == _toggled_remove_leading_zeros(a)
        assert all(w.digits[0] != 0 for w in reduced.words)

    def test_invariant_decomposition(self, text, base):
        a = PatternSet.parse(text, base)
        invariant, factor = invariant_decomposition(a)
        assert (invariant, factor) == _peeled_decomposition(a)
        # the self-invariant part is a(base**(L - 1) * n)
        step = base ** (a.length - 1)
        for n in _sample(4 * base**a.length, 300, 1):
            assert evaluate(invariant, n) == evaluate(a, step * n), n

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3])
    def test_kernel_quotient(self, text, base, alpha):
        a = PatternSet.parse(text, base)
        width = base**alpha
        rng = random.Random(alpha)
        shifts = {0, width - 1, width // 2, rng.randrange(width), rng.randrange(width)}
        for shift in sorted(shifts):
            quotient = kernel_quotient(a, alpha, shift)
            assert quotient.period == base ** (a.length - 1)
            for n in _sample(3 * quotient.period, 200, shift):
                expected = evaluate(a, width * n + shift) * evaluate(a, n)
                assert quotient(n) == expected, (shift, n)

    def test_is_self_invariant(self, text, base):
        # a(base * n) / a(n) = h(base * n), which has period base**(L - 1) in n
        a = PatternSet.parse(text, base)
        invariant, _ = invariant_decomposition(a)
        for s in (a, invariant):
            counted = all(
                evaluate(s, base * n) == evaluate(s, n) for n in range(base**a.length)
            )
            assert is_self_invariant(s) == counted
        assert is_self_invariant(invariant)


@pytest.mark.parametrize("base", [2, 3, 4])
def test_remove_leading_zeros_with_and_without_leading_zeros(base):
    # a set whose words all begin with a nonzero digit is its own form
    # and comes back as it is; the others are read off the ratio
    rng = random.Random(base)
    kinds = set()
    for i in range(80):
        clean = i % 2 == 0
        words = set()
        for _ in range(rng.randint(1, 6)):
            digits = [rng.randrange(base) for _ in range(rng.randint(1, 4))]
            if clean or not any(digits):
                digits[0] = rng.randrange(1, base)
            words.add(Word(base, tuple(digits)))
        a = PatternSet(base, tuple(words))
        has_zero = any(w.digits[0] == 0 for w in a.words)
        kinds.add(has_zero)
        reduced = remove_leading_zeros(a)
        assert reduced == _toggled_remove_leading_zeros(a), str(a)
        if not has_zero:
            assert reduced is a
    assert kinds == {False, True}


def _factors(base, period):
    """Every factor of the given period that starts at +1."""
    for signs in range(1 << (period - 1)):
        rest = tuple(-1 if signs >> i & 1 else 1 for i in range(period - 1))
        yield PeriodicFactor(base, (1,) + rest)


@pytest.mark.parametrize(
    "text, base, periods",
    [("0110,1,101", 2, (8,)), ("02,1,21", 3, (1, 3))],
)
def test_twist_matches_reconstruction(text, base, periods):
    a = PatternSet.parse(text, base)
    length = a.length
    for period in periods:
        for p in _factors(base, period):
            expected = reconstruct_pattern_set(
                lambda n: evaluate(a, n) * p(n), length, base
            )
            assert twist(a, p) == expected, str(p)
