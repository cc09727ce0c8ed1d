from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patcorr.correlation import bootstrap
from patcorr.oracle import (
    check_cancellation,
    empirical_correlation,
    empirical_restricted_correlation,
    saturated_closed_form,
    sequence_values,
)
from patcorr.pattern_sets import PatternSet, evaluate, periodic_factor, to_constant_length
from patcorr.words import Word


def ps(text, base=2):
    return PatternSet.parse(text, base)


class TestSequenceValues:
    @pytest.mark.parametrize("text,base", [("1", 2), ("11", 2), ("10,101", 2), ("12", 3)])
    def test_matches_direct_evaluation(self, text, base):
        a = PatternSet.parse(text, base)
        values = sequence_values(a, 400)
        assert values.dtype == np.int8
        assert [int(v) for v in values] == [evaluate(a, n) for n in range(400)]

    def test_count_one(self):
        assert list(sequence_values(ps("1"), 1)) == [1]

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sequence_values(ps("1"), 0)

    def test_level_does_not_change_values(self):
        # the length-4 form of the set is the same sequence, built from a
        # ratio of period 16
        a = ps("1,11")
        wide = to_constant_length(a, 4)
        assert wide.length == 4
        assert np.array_equal(sequence_values(a, 256), sequence_values(wide, 256))

    @pytest.mark.parametrize(
        "text,base", [("1001,1011,1101,1111", 2), ("12,201", 3), ("3,130", 4), ("24,4", 5)]
    )
    def test_matches_ratio_recursion_at_every_count(self, text, base):
        # a(n) = h(n mod base**level) a(n floordiv base), one value at a
        # time; the counts end inside, at and past the first block of
        # base**level values and the first block of 256 or more columns
        a = PatternSet.parse(text, base)
        counts = {1, 2, base - 1, base, base + 1, 97, base**5, 4096, 4097, 49999}
        for level in (a.length, a.length + 1):
            ratio = periodic_factor(a, level).values
            expected = [1]
            for n in range(1, max(counts)):
                expected.append(ratio[n % len(ratio)] * expected[n // base])
            # the length-level form is the same sequence, built at that level
            form = to_constant_length(a, level)
            for count in counts:
                values = sequence_values(form, count)
                assert values.dtype == np.int8
                assert values.tolist() == expected[:count]


class TestEmpirical:
    def test_converges_to_exact(self):
        a = ps("1")
        est = empirical_correlation(a, 1, 1 << 16)
        assert abs(est.value - (-1 / 3)) < 1e-3

    def test_full_is_class_average_exactly(self):
        # the restricted scaling is chosen so this identity is exact, not
        # approximate: K * S_r / N averaged over r telescopes to S / N
        a = ps("10,11")
        K = 2 ** a.length
        samples = 4096  # multiple of K so every class gets samples / K terms
        for shift in (1, 2, 5):
            full = empirical_correlation(a, shift, samples)
            parts = [
                empirical_restricted_correlation(a, r, shift, samples).value
                for r in range(K)
            ]
            assert abs(full.value - sum(parts) / K) < 1e-12

    def test_restricted_tracks_exact_table(self):
        a = ps("11")
        table = bootstrap(a)
        for r in range(4):
            est = empirical_restricted_correlation(a, r, 1, 1 << 16)
            assert abs(est.value - float(table.restricted(r, 1))) < 5e-3

    @pytest.mark.parametrize("text,base", [("10,11", 2), ("12,201", 3)])
    def test_sums_equal_integer_dot_products(self, text, base):
        a = PatternSet.parse(text, base)
        K = base**a.length
        # not a multiple of K, so the classes differ in size, and long
        # enough that the differences are counted in several slices
        samples = 200_003
        for shift in (0, 1, 7, 40):
            v = sequence_values(a, samples + shift).astype(np.int64)
            full = int(v[:samples] @ v[shift : shift + samples])
            assert empirical_correlation(a, shift, samples).value == full / samples
            for r in range(K):
                left = v[r:samples:K]
                right = v[r + shift : samples + shift : K][: len(left)]
                assert empirical_restricted_correlation(a, r, shift, samples).value == (
                    K * int(left @ right) / samples
                )

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_prefix_average_matches_exact_in_bases_two_to_four(self, data):
        # words of length at most 4, leading zeros allowed; the largest
        # error over 1,165 seeded cases of this family was 7.8e-5
        base = data.draw(st.sampled_from((2, 3, 4)))
        length = data.draw(st.integers(min_value=1, max_value=4))
        words = [
            Word(base, digits)
            for digits in data.draw(
                st.lists(
                    st.lists(st.integers(0, base - 1), min_size=1, max_size=length),
                    min_size=1,
                    max_size=6,
                )
            )
            if any(digits)
        ]
        a = PatternSet(base, tuple(words))
        shift = data.draw(st.integers(min_value=1, max_value=8))
        exact = float(bootstrap(a).correlation(shift))
        assert abs(empirical_correlation(a, shift, 1 << 20).value - exact) < 1e-3

    def test_shift_zero_is_one(self):
        assert empirical_correlation(ps("11"), 0, 1000).value == 1.0

    def test_records(self):
        est = empirical_restricted_correlation(ps("11"), 2, 1, 4096)
        record = est.to_record()
        assert record["shift"] == 1
        assert record["residue"] == 2
        assert record["samples"] == 4096

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            empirical_correlation(ps("1"), -1, 100)
        with pytest.raises(ValueError):
            empirical_restricted_correlation(ps("1"), 2, 1, 100)


class TestCancellation:
    def test_saturated_sum_vanishes(self):
        assert check_cancellation(ps("11"), Word(2, ()), 0, 1) == 0

    def test_violating_sum_is_frozen(self):
        # the pair-of-ones-with-gap set fails saturation at interior 0
        assert check_cancellation(ps("111"), Word.parse("0", 2), 0, 1) == 2

    def test_base_three_value(self):
        assert check_cancellation(PatternSet.parse("12", 3), Word(3, ()), 0, 2) == 1

    def test_rejects_digit_out_of_range(self):
        with pytest.raises(ValueError):
            check_cancellation(ps("11"), Word(2, ()), 0, 2)

    def test_rejects_mixed_base(self):
        with pytest.raises(ValueError):
            check_cancellation(ps("11"), Word(3, ()), 0, 1)


class TestClosedForm:
    def test_matches_table_for_pair_set(self):
        a = ps("11")
        table = bootstrap(a)
        for r in range(4):
            for m in range(1, 9):
                assert saturated_closed_form(a, r, m) == table.restricted(r, m)

    def test_matches_table_for_length_four_layer(self):
        a = ps("1001,1011,1101,1111")
        table = bootstrap(a)
        for r in range(16):
            for m in range(1, 9):
                assert saturated_closed_form(a, r, m) == table.restricted(r, m)

    def test_reduces_to_canonical_form_first(self):
        # a leading-zero variant of the pair set is accepted
        a = ps("011,111")  # leading-zero form of the single pair word
        for r in range(4):
            assert saturated_closed_form(a, r, 1) == saturated_closed_form(ps("11"), r, 1)

    def test_rejects_unsaturated(self):
        with pytest.raises(ValueError):
            saturated_closed_form(ps("111"), 0, 1)

    def test_rejects_residue_outside_modulus(self):
        # the modulus is that of the leading-zero-free form, 2**2 here;
        # the second round of calls finds the set in the cache
        for _ in range(2):
            for text in ("11", "011,111"):
                assert saturated_closed_form(ps(text), 3, 1) == 0
                for r in (-1, 4):
                    with pytest.raises(ValueError):
                        saturated_closed_form(ps(text), r, 1)

    def test_rejects_shift_zero(self):
        with pytest.raises(ValueError):
            saturated_closed_form(ps("11"), 0, 0)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_any_shift(self, m):
        a = ps("11")
        table = bootstrap(a)
        for r in range(4):
            assert saturated_closed_form(a, r, m) == table.restricted(r, m)
