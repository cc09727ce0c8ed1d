"""Sign tables from the last-window rule against the count route.

periodic_factor, sequence_values, to_constant_length and twist all read
their signs off the ratio h.  These tests check each against evaluate,
which counts every occurrence of every word, and against the rewrites
and reconstruction they replaced.
"""

import random

import pytest

from patcorr.classify import twist
from patcorr.oracle import sequence_values
from patcorr.pattern_sets import (
    PatternSet,
    PeriodicFactor,
    evaluate,
    periodic_factor,
    reconstruct_pattern_set,
    to_constant_length,
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
        # at every modulus here
        a = PatternSet.parse(text, base)
        values = sequence_values(a, 1 << 18, level)
        for n in _sample(len(values), 300, level):
            assert values[n] == evaluate(a, n), n

    def test_to_constant_length(self, text, base, level):
        a = PatternSet.parse(text, base)
        constant = to_constant_length(a, level)
        assert constant == _toggled_to_constant_length(a, level)
        assert {len(w) for w in constant.words} <= {level}


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
