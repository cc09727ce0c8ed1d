import pytest
from hypothesis import given, strategies as st

from patcorr.words import (
    Word,
    count_in_integer,
    count_set,
    expand,
    padded_digits,
    value_of,
)


def w(text, base=2):
    return Word.parse(text, base)


class TestWord:
    def test_parse_roundtrip(self):
        assert str(w("0110")) == "0110"
        assert w("907", 10).digits == (9, 0, 7)

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            Word.parse("12", 2)
        with pytest.raises(ValueError):
            Word.parse("1x", 10)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            Word.parse("0", 1)
        with pytest.raises(ValueError):
            Word.parse("0", 11)

    def test_is_zero(self):
        assert w("000").is_zero
        assert not w("010").is_zero
        assert Word(2, ()).is_zero

    def test_sort_key_is_shortlex(self):
        words = [w("10"), w("1"), w("0"), w("01")]
        ordered = sorted(words, key=lambda u: u.sort_key())
        assert [str(u) for u in ordered] == ["0", "1", "01", "10"]


class TestExpand:
    def test_zero_is_empty(self):
        assert expand(0, 2).digits == ()

    def test_known_values(self):
        assert expand(6, 2).digits == (1, 1, 0)
        assert expand(6, 3).digits == (2, 0)
        assert str(expand(100, 10)) == "100"

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=2, max_value=10))
    def test_value_roundtrip(self, n, base):
        assert value_of(expand(n, base)) == n

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=10))
    def test_no_leading_zero(self, n, base):
        assert expand(n, base).digits[0] != 0


class TestCounting:
    def test_overlapping(self):
        # 7 spells 111 and 10 spells 1010; windows overlap
        assert count_in_integer(w("11"), 7) == 2
        assert count_in_integer(w("010"), 10) == 2

    def test_needle_longer_than_haystack(self):
        # 1 spells 1, shorter than the needle; the padding adds no match
        assert count_in_integer(w("10"), 1) == 0
        assert count_in_integer(w("101"), 1) == 0

    def test_empty_needle_rejected(self):
        with pytest.raises(ValueError):
            count_in_integer(Word(2, ()), 2)

    def test_padding_in_integer(self):
        # 2 reads as 010 once padded for a length-2 word
        assert padded_digits(2, 2, 1) == (0, 1, 0)
        assert count_in_integer(Word.parse("01", 2), 2) == 1
        assert count_in_integer(Word.parse("10", 2), 2) == 1

    def test_zero_integer(self):
        # (0)_k is the empty word; the pad alone is one digit too short
        # to hold the needle, so zero always counts as zero occurrences
        assert count_in_integer(Word.parse("1", 2), 0) == 0
        assert count_in_integer(Word.parse("00", 2), 0) == 0

    def test_count_set_sums(self):
        patterns = (Word.parse("1", 2), Word.parse("11", 2))
        # 7 = 111: three 1s, two 11s
        assert count_set(patterns, 7) == 5

    @given(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=2, max_value=5),
    )
    def test_prefix_digit_additivity(self, n, base):
        # occurrences of dv, summed over the leading digit d, retile the
        # occurrences of v (v not all zero, so v never matches inside the pad)
        word = Word(base, (1, 0, 1))
        total = sum(
            count_in_integer(Word(base, (d,) + word.digits), n) for d in range(base)
        )
        assert total == count_in_integer(word, n)
