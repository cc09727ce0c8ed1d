import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from patcorr.classify import (
    random_hadamard_family,
    random_saturated_superset,
    saturated_family_from_hadamard,
    sylvester_hadamard,
)
from patcorr.correlation import CorrelationTable, bootstrap, correlation
from patcorr.oracle import saturated_closed_form
from patcorr.pattern_sets import PatternSet, evaluate


def ps(text, base=2):
    return PatternSet.parse(text, base)


F = Fraction


def _shift_one(table):
    return tuple(F(n, table.denominator) for n in table.numerators)


class TestBootstrap:
    def test_single_digit_entries(self):
        table = bootstrap(ps("1"))
        assert table.modulus == 2
        assert _shift_one(table) == (F(-1), F(1, 3))

    def test_double_digit_entries(self):
        table = bootstrap(ps("11"))
        assert table.modulus == 4
        assert _shift_one(table) == (F(1), F(0), F(-1), F(0))

    def test_wider_level_agrees(self):
        narrow = bootstrap(ps("1"))
        wide = bootstrap(ps("1"), level=3)
        for shift in range(0, 40):
            assert narrow.correlation(shift) == wide.correlation(shift)

    def test_level_below_length_rejected(self):
        with pytest.raises(ValueError):
            bootstrap(ps("101"), level=2)

    def test_entries_are_numerators_over_one_denominator(self):
        rng = random.Random(3)
        for base, length in ((2, 1), (2, 3), (3, 2), (4, 2)):
            for _ in range(4):
                table = bootstrap(_random_set(rng, base, length))
                hv = table.factor.values
                wrap = hv[-1] * hv[0]
                assert table.denominator == base ** (length - 1) * (base - wrap)
                assert len(table.numerators) == table.modulus
                for r in range(table.modulus):
                    assert table.restricted(r, 1) == F(table.numerators[r], table.denominator)


class TestKnownValues:
    def test_single_digit_correlations(self):
        # a(2n)a(2n+1) = -1 forces gamma(1) = -1/3 through the odd terms
        table = bootstrap(ps("1"))
        assert table.correlation(1) == F(-1, 3)
        for j in range(1, 9):
            assert table.correlation(2**j) == F(-1, 3)
        assert table.correlation(3) == F(1, 3)

    def test_single_digit_recurrences(self):
        table = bootstrap(ps("1"))
        for m in range(1, 65):
            assert table.correlation(2 * m) == table.correlation(m)
            assert table.correlation(2 * m + 1) == (
                -(table.correlation(m) + table.correlation(m + 1)) / 2
            )

    def test_double_digit_vanishes(self):
        table = bootstrap(ps("11"))
        for m in range(1, 65):
            assert table.correlation(m) == 0

    def test_shift_zero_is_one(self):
        for text in ("", "1", "11", "10,101"):
            table = bootstrap(ps(text))
            assert table.correlation(0) == 1
            for r in range(table.modulus):
                assert table.restricted(r, 0) == 1

    def test_empty_set_is_constant(self):
        table = bootstrap(ps(""))
        for m in range(10):
            assert table.correlation(m) == 1


class TestAgainstDirectAverages:
    # the exact values are limits of averages over n < 2^t; on a pattern set
    # of operating length l the restricted average over one full period block
    # n in [0, 2^t) with t >= l matches the limit whenever the recursion has
    # bottomed out, so compare against large partial sums instead: the
    # difference must shrink like 2^-t
    @pytest.mark.parametrize("text", ["1", "11", "10", "1,11", "101", "10,11"])
    def test_partial_sums_converge(self, text):
        a = ps(text)
        table = bootstrap(a)
        span = 1 << 14
        values = [evaluate(a, n) for n in range(span + 8)]
        for m in (1, 2, 3, 5, 8):
            partial = F(sum(values[n] * values[n + m] for n in range(span)), span)
            assert abs(partial - table.correlation(m)) <= F(64, span)

    def test_restricted_partial_sums(self):
        a = ps("10,11")
        table = bootstrap(a)
        K = table.modulus
        span = 1 << 14
        values = [evaluate(a, n) for n in range(K * span + K + 4)]
        for r in range(K):
            for m in (1, 2, 3):
                partial = F(
                    sum(values[K * n + r] * values[K * n + r + m] for n in range(span)),
                    span,
                )
                assert abs(partial - table.restricted(r, m)) <= F(64, span)


class TestModuleHelpers:
    def test_wrappers_match_table(self):
        a = ps("1,11")
        table = bootstrap(a)
        assert correlation(a, 5) == table.correlation(5)

    def test_residue_out_of_range(self):
        table = bootstrap(ps("11"))
        with pytest.raises(ValueError):
            table.restricted(4, 1)
        with pytest.raises(ValueError):
            table.restricted(-1, 1)

    def test_negative_shift_rejected(self):
        table = bootstrap(ps("11"))
        with pytest.raises(ValueError):
            table.restricted(0, -1)


@st.composite
def small_sets(draw):
    mask = draw(st.integers(min_value=0, max_value=(1 << 7) - 1))
    return PatternSet.from_mask(2, 3, mask << 1)


class TestProperties:
    @given(small_sets(), st.integers(min_value=0, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_one(self, a, m):
        table = bootstrap(a)
        value = table.correlation(m)
        assert -1 <= value <= 1

    @given(small_sets(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_class_average_identity(self, a, m):
        table = bootstrap(a)
        K = table.modulus
        assert table.correlation(m) == sum(table.restricted(r, m) for r in range(K)) / K

    @given(small_sets())
    @settings(max_examples=30, deadline=None)
    def test_level_invariance(self, a):
        low = bootstrap(a)
        high = bootstrap(a, level=a.length + 1)
        for m in range(0, 20):
            assert low.correlation(m) == high.correlation(m)


def _random_set(rng, base, length):
    """Random nonzero words of length at most `length`, at least one of that length."""
    while True:
        words = [
            "".join(map(str, digits))
            for size in range(1, length + 1)
            for digits in itertools.product(range(base), repeat=size)
            if any(digits) and rng.random() < 0.4
        ]
        if any(len(w) == length for w in words):
            return PatternSet.of(base, words)


def _depth_sorted_solve(table):
    """Reference: the shift-1 numerators and denominator, classes sorted by trailing top digits.

    Each class below the last, in order of its number of trailing
    base - 1 digits, takes the sign h(r) h(r + 1) times top, or times
    the average of its children's numerators, which are already solved;
    the last class is the fixed point.
    """
    base, level, modulus = table.base, table.level, table.modulus
    hv = table.factor.values

    def depth(r):
        for j in range(level):
            if r % base != base - 1:
                return j
            r //= base
        return level

    stride = modulus // base
    top = base ** (level - 1)
    scaled = [top] * modulus
    depths = [depth(r) for r in range(modulus - 1)]
    for r in sorted(range(modulus - 1), key=depths.__getitem__):
        sign = hv[r] * hv[(r + 1) % modulus]
        if depths[r] == 0:
            scaled[r] = sign * top
        else:
            total = sum(scaled[stride * d + r // base] for d in range(base))
            scaled[r] = sign * (total // base)
    wrap = hv[-1] * hv[0]
    tail = sum(scaled[stride * (d + 1) - 1] for d in range(base - 1))
    numerators = tuple(x * (base - wrap) for x in scaled[:-1]) + (wrap * tail,)
    return numerators, top * (base - wrap)


class TestLevelSolve:
    # bootstrap solves one trailing-top-digit level at a time; every
    # table must satisfy the one-step identity and equal the depth-sorted
    # solve, on random, empty and saturated sets, with both signs of wrap
    @pytest.mark.parametrize("base, top_level", [(2, 7), (3, 5), (4, 4)])
    def test_matches_identity_and_depth_sorted_solve(self, base, top_level):
        rng = random.Random(900 + base)
        saturated_wraps = set()
        for level in range(1, top_level + 1):
            # an odd base has no saturated sets
            saturated = [
                random_saturated_superset(length, rng)
                if base == 2
                else random_hadamard_family(base, length, rng)
                for length in (range(2, level + 1) if base != 3 else ())
                for _ in range(2)
            ]
            sets = [PatternSet.parse("", base), _random_set(rng, base, level)]
            sets += [_random_set(rng, base, rng.randint(1, level)) for _ in range(2)]
            for pattern_set in sets + saturated:
                table = bootstrap(pattern_set, level)
                K = table.modulus
                assert K == base**level
                hv = table.factor.values
                stride = K // base
                for r in range(K):
                    carry = (r % base + 1) // base
                    children = sum(
                        table.restricted(stride * d + r // base, carry) for d in range(base)
                    )
                    sign = hv[r] * hv[(r + 1) % K]
                    assert table.restricted(r, 1) == F(sign, base) * children, (
                        str(pattern_set),
                        level,
                        r,
                    )
                assert (table.numerators, table.denominator) == _depth_sorted_solve(table)
                if pattern_set in saturated:
                    saturated_wraps.add(hv[-1] * hv[0])
        assert saturated_wraps == (set() if base == 3 else {1, -1})


class _FractionRecursion:
    """Reference: the per-(class, shift) Fraction recursion over a shift-1 table.

    One digit at a time, class r at shift m averages the classes
    stride * d + r // base at shift m // base, bumped by the carry of
    r % base + m % base, and takes the sign h(r) h(r + m).
    """

    def __init__(self, table):
        self.table = table
        self.memo = {}

    def restricted(self, residue, shift):
        table = self.table
        if shift == 0:
            return F(1)
        if shift == 1:
            return F(table.numerators[residue], table.denominator)
        key = (residue, shift)
        if key not in self.memo:
            base, modulus = table.base, table.modulus
            hv = table.factor.values
            reduced, digit = divmod(shift, base)
            child_shift = reduced + (digit + residue % base) // base
            stride = modulus // base
            total = sum(
                self.restricted(stride * d + residue // base, child_shift)
                for d in range(base)
            )
            sign = hv[residue] * hv[(residue + shift) % modulus]
            self.memo[key] = F(sign, base) * total
        return self.memo[key]


class TestAgainstFractionRecursion:
    @pytest.mark.parametrize("base", [2, 3, 4])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_value_matches(self, base, length):
        rng = random.Random(100 * base + length)
        for _ in range(2):
            table = bootstrap(_random_set(rng, base, length))
            K = table.modulus
            reference = _FractionRecursion(table)
            deep = [rng.randrange(base**59, base**60) for _ in range(3)]
            for m in list(range(2 * K + 3)) + deep:
                expected = [reference.restricted(r, m) for r in range(K)]
                assert [table.restricted(r, m) for r in range(K)] == expected, m
                assert table.correlation(m) == sum(expected) / K, m

    @pytest.mark.parametrize("base", [2, 3, 4])
    def test_deep_shifts_first_on_a_wider_level(self, base):
        # deep shifts fill the fold and flip caches before any small
        # shift is asked, restricted and correlation calls share one
        # table, and the level lies above the set's length; the shifts
        # cover every residue mod K, 0 and K - 1 among them
        rng = random.Random(700 + base)
        for length in (1, 2):
            pattern_set = _random_set(rng, base, length)
            table = bootstrap(pattern_set, length + 1)
            K = table.modulus
            assert K == base ** (length + 1)
            reference = _FractionRecursion(table)
            deep = [K * rng.randrange(base**40, base**41) + r for r in (0, K - 1, 1, K // 2)]
            shifts = deep + list(range(2 * K + 3)) + [m + 1 for m in deep]
            for i, m in enumerate(shifts):
                expected = [reference.restricted(r, m) for r in range(K)]
                if i % 2:
                    assert table.correlation(m) == sum(expected) / K, m
                    assert [table.restricted(r, m) for r in range(K)] == expected, m
                else:
                    assert table.restricted(K - 1 - i % K, m) == expected[K - 1 - i % K], m
                    assert table.correlation(m) == sum(expected) / K, m


class TestDeepShifts:
    # far past the depth at which a recursion over digits would exhaust
    # the interpreter's stack; saturated sets, so the closed form checks
    # every class
    @pytest.mark.parametrize(
        "pattern_set, shift",
        [
            (ps("11"), 2**600 + 1),
            (ps("1001,1011,1101,1111"), 2**700 + 5),
            (saturated_family_from_hadamard(sylvester_hadamard(4), 2), 4**650 + 3),
            (ps("11"), 2**900 + 1),
        ],
    )
    def test_saturated_closed_form(self, pattern_set, shift):
        table = bootstrap(pattern_set)
        K = table.modulus
        expected = [saturated_closed_form(pattern_set, r, shift) for r in range(K)]
        assert [table.restricted(r, shift) for r in range(K)] == expected
        assert table.correlation(shift) == sum(expected) / K

    def test_single_digit_recurrences(self):
        # gamma(2m) = gamma(m) and gamma(2m + 1) = -(gamma(m) + gamma(m + 1)) / 2
        table = bootstrap(ps("1"))
        m = 2**899
        assert table.correlation(2 * m) == table.correlation(m) == F(-1, 3)
        assert table.correlation(2 * m + 1) == (
            -(table.correlation(m) + table.correlation(m + 1)) / 2
        )
        assert table.correlation(2 * m + 1) != 0

    def test_memo_keeps_only_asked_shifts(self):
        # the levels below a deep shift are dropped once it is built, so
        # the memo grows with the queries and not with their digit counts;
        # tuple vectors leave the memo out of garbage collection passes
        table = bootstrap(ps("1001,1011,1101,1111"))
        asked = list(range(2, 40)) + [2**700 + 5, 2**700 + 6, 3**300]
        for m in asked:
            table.correlation(m)
        table.restricted(5, 2**500 + 3)
        assert set(table._memo) == {0, 1, 2**500 + 3, *asked}
        assert all(type(values) is tuple for _, values in table._memo.values())
        # the flip positions are cached per shift mod K, so at most K of
        # them, whatever the shifts asked
        K = table.modulus
        assert 0 < len(table._flips) <= K
        assert set(table._flips) <= set(range(K))
        assert all(type(flips) is tuple for flips in table._flips.values())
        hv = table.factor.values
        for s, flips in table._flips.items():
            assert flips == tuple(r for r in range(K) if hv[r] != hv[(r + s) % K])

    def test_query_history_does_not_enter_equality(self):
        # the memo and the flip cache are caches, so two tables of one set
        # compare equal whatever each has been asked
        pattern_set = ps("1001,1011,1101,1111")
        fresh, used = bootstrap(pattern_set), bootstrap(pattern_set)
        for m in (2**300 + 7, 5, 3**200):
            used.correlation(m)
        used.restricted(3, 2**100 + 1)
        assert used._flips and not fresh._flips
        assert used == fresh
        assert repr(used) == repr(fresh)

    def test_caches_are_not_constructor_arguments(self):
        # a prefilled memo or flip cache would give wrong values, so
        # neither can be passed in; a table built from its fields starts
        # with the shifts 0 and 1 only
        table = bootstrap(ps("1001,1011,1101,1111"))
        args = (table.base, table.level, table.factor, table.numerators, table.denominator)
        for cache in ("_memo", "_flips"):
            with pytest.raises(TypeError):
                CorrelationTable(*args, **{cache: {}})
        rebuilt = CorrelationTable(*args)
        assert set(rebuilt._memo) == {0, 1} and not rebuilt._flips
        assert rebuilt == table
        assert rebuilt.correlation(2**80 + 5) == table.correlation(2**80 + 5)
