import pytest
from hypothesis import given, settings, strategies as st

from patcorr.pattern_sets import (
    PatternSet,
    PeriodicFactor,
    ReconstructionError,
    evaluate,
    invariant_decomposition,
    is_self_invariant,
    kernel_quotient,
    periodic_factor,
    reconstruct_pattern_set,
    remove_leading_zeros,
    to_constant_length,
)
from patcorr.words import Word


def ps(text, base=2):
    return PatternSet.parse(text, base)


binary_masks = st.integers(min_value=0, max_value=(1 << 16) - 1)


def from_mask_any(mask):
    # bit v selects the word with value v over lengths <= 4; bit 0 unused
    words = [Word(2, tuple(map(int, format(v, "b")))) for v in range(1, 16) if mask >> v & 1]
    # value collisions (1 vs 01) are impossible here: leading digit is always 1
    extra = [
        Word.parse(text, 2)
        for bit, text in enumerate(["01", "001", "0001", "0101", "011"], start=11)
        if mask >> bit & 1
    ]
    return PatternSet.of(2, words + extra)


class TestPatternSet:
    def test_sorted_and_deduplicated(self):
        a = PatternSet.of(2, [Word.parse("11", 2), Word.parse("1", 2), Word.parse("11", 2)])
        assert str(a) == "1,11"

    def test_rejects_zero_words(self):
        with pytest.raises(ValueError):
            ps("00")
        with pytest.raises(ValueError):
            PatternSet.of(2, [Word(2, ())])

    def test_rejects_mixed_base(self):
        with pytest.raises(ValueError):
            PatternSet.of(2, [Word.parse("2", 3)])

    def test_parse_empty(self):
        assert ps("").size == 0
        assert ps("").length == 1

    def test_mask_roundtrip(self):
        # masks address the constant-length family: bit v is the length-3
        # word spelling v, zero-padded
        a = PatternSet.from_mask(2, 3, 0b10110010)
        assert str(a) == "001,100,101,111"
        assert Word.parse("001", 2) in a
        assert Word.parse("010", 2) not in a and Word.parse("1", 2) not in a

    def test_mask_rejects_zero_bit(self):
        with pytest.raises(ValueError):
            PatternSet.from_mask(2, 2, 0b1)

    def test_xor(self):
        assert str(ps("1,11") ^ ps("11,101")) == "1,101"
        assert (ps("1") ^ ps("1")).size == 0
        with pytest.raises(ValueError):
            ps("1") ^ ps("1", 3)


class TestEvaluate:
    def test_single_digit_is_parity_of_digit_sum(self):
        a = ps("1")
        values = [evaluate(a, n) for n in range(8)]
        assert values == [1, -1, -1, 1, -1, 1, 1, -1]

    def test_pair_counts_adjacent_ones(self):
        a = ps("11")
        assert evaluate(a, 3) == -1  # 11
        assert evaluate(a, 7) == 1  # 111 has two overlapping pairs
        assert evaluate(a, 0) == 1

    def test_leading_zero_word_sees_padding(self):
        a = ps("01")
        assert evaluate(a, 1) == -1  # padded 01
        assert evaluate(a, 2) == -1  # 010 read with one pad zero contains 01 once

    def test_base_ten(self):
        a = PatternSet.parse("9", 10)
        assert evaluate(a, 99) == 1
        assert evaluate(a, 9) == -1


class TestCanonicalForms:
    def test_leading_zeros_removed(self):
        b = remove_leading_zeros(ps("01,001"))
        assert str(b) == "101"

    def test_already_clean_is_identity(self):
        a = ps("1,11")
        assert remove_leading_zeros(a) == a

    def test_constant_length(self):
        c = to_constant_length(ps("1,11"), 2)
        assert {len(u.digits) for u in c.words} == {2}

    def test_constant_length_needs_room(self):
        with pytest.raises(ValueError):
            to_constant_length(ps("101"), 2)

    @given(binary_masks)
    @settings(max_examples=60, deadline=None)
    def test_forms_preserve_sequence(self, mask):
        a = from_mask_any(mask)
        b = remove_leading_zeros(a)
        c = to_constant_length(a, max(a.length, 2))
        for n in range(200):
            expected = evaluate(a, n)
            assert evaluate(b, n) == expected
            assert evaluate(c, n) == expected

    @given(binary_masks)
    @settings(max_examples=40, deadline=None)
    def test_forms_are_canonical_routes(self, mask):
        # the two normal forms reduce to the same leading-zero-free set
        a = from_mask_any(mask)
        level = max(a.length, 2)
        assert remove_leading_zeros(a) == remove_leading_zeros(to_constant_length(a, level))

    def test_uniqueness_on_small_family(self):
        # distinct leading-zero-free sets over words of length <= 3 give
        # distinct sign sequences, so the normal form is a complete invariant
        pool = [Word.parse(t, 2) for t in ("1", "10", "11", "100", "101", "110", "111")]
        seen = {}
        for mask in range(1 << len(pool)):
            a = PatternSet.of(2, [u for i, u in enumerate(pool) if mask >> i & 1])
            key = tuple(evaluate(a, n) for n in range(128))
            assert key not in seen, (str(a), seen.get(key))
            seen[key] = str(a)


class TestSelfInvariance:
    def test_known_cases(self):
        assert is_self_invariant(ps("1"))
        assert is_self_invariant(ps("11"))
        assert not is_self_invariant(ps("10"))
        assert is_self_invariant(ps(""))

    def test_matches_definition(self):
        for mask in range(0, 1 << 7, 3):
            a = PatternSet.from_mask(2, 3, mask << 1)
            claimed = is_self_invariant(a)
            holds = all(evaluate(a, 2 * n) == evaluate(a, n) for n in range(256))
            assert claimed == holds, str(a)


class TestDecomposition:
    def test_pure_trailing_zero(self):
        invariant, factor = invariant_decomposition(ps("10"))
        assert str(invariant) == "1,11"
        assert str(factor) == "+-"

    def test_invariant_input_gets_trivial_factor(self):
        invariant, factor = invariant_decomposition(ps("1,11"))
        assert str(invariant) == "1,11"
        assert set(factor.values) == {1}

    @given(binary_masks)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, mask):
        a = from_mask_any(mask)
        invariant, factor = invariant_decomposition(a)
        assert is_self_invariant(invariant)
        for n in range(300):
            assert evaluate(a, n) == factor(n) * evaluate(invariant, n)

    def test_factor_period_divides_power(self):
        a = from_mask_any(0b1010_1100_1010)
        _, factor = invariant_decomposition(a)
        assert (2 ** (a.length - 1)) % factor.period == 0


class TestKernelTools:
    def test_periodic_factor_is_ratio(self):
        a = ps("10,11")
        factor = periodic_factor(a)
        for n in range(500):
            assert factor(n) == evaluate(a, n) * evaluate(a, n // 2)

    def test_ratio_drives_recursion(self):
        a = ps("101,11")
        factor = periodic_factor(a)
        for n in range(1, 600):
            assert evaluate(a, n) == factor(n) * evaluate(a, n // 2)

    def test_quotient_periodicity(self):
        a = ps("110")
        for alpha in (0, 1, 2):
            for shift in range(2**alpha):
                q = kernel_quotient(a, alpha, shift)
                for n in range(400):
                    assert evaluate(a, (2**alpha) * n + shift) == q(n) * evaluate(a, n)

    def test_quotient_shift_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_quotient(ps("110"), 1, 5)


class TestPeriodicFactor:
    def test_parse_and_str(self):
        f = PeriodicFactor.parse("+-", 2)
        assert f.values == (1, -1)
        assert str(f) == "+-"
        assert f(0) == 1 and f(1) == -1 and f(2) == 1

    @pytest.mark.parametrize("values", [(0,), (2,), (1, -1, 0, 1), (-1, 2, 1)])
    def test_rejects_values_other_than_signs(self, values):
        bad = next(v for v in values if v not in (-1, 1))
        with pytest.raises(ValueError, match=f"got {bad}$"):
            PeriodicFactor(2, values)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            PeriodicFactor.parse("+0", 2)
        with pytest.raises(ValueError):
            PeriodicFactor.parse("", 2)


class TestReconstruction:
    def test_roundtrip(self):
        # reconstruction recovers the constant-length form of the source
        a = ps("1,101")
        rebuilt = reconstruct_pattern_set(lambda n: evaluate(a, n), 3, 2)
        assert rebuilt == to_constant_length(a, 3)
        for n in range(300):
            assert evaluate(rebuilt, n) == evaluate(a, n)

    def test_rejects_wrong_start(self):
        with pytest.raises(ReconstructionError):
            reconstruct_pattern_set(lambda n: -1 if n == 0 else 1, 2, 2)

    def test_detects_impostor(self):
        # a sequence that no length-2 pattern set produces
        with pytest.raises(ReconstructionError):
            reconstruct_pattern_set(lambda n: -1 if n == 5 else 1, 2, 2)
