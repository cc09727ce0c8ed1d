"""Digit words over a fixed base and occurrence counting in integers.

The expansion of an integer n >= 0 is written most significant digit
first, with the convention that 0 expands to the empty word.  Counting a
word v inside an integer always happens in the expansion left padded
with len(v) - 1 zeros, so occurrences straddling the leading digit are
picked up.  This padding convention is what makes the counts additive
along digit chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# Digits render as single characters in the textual formats, so the
# supported bases stop at ten.
MAX_BASE = 10


def check_base(base: int) -> None:
    """Reject bases outside the supported range [2, 10]."""
    if not isinstance(base, int) or isinstance(base, bool):
        raise ValueError(f"base must be an integer, got {base!r}")
    if not 2 <= base <= MAX_BASE:
        raise ValueError(f"base must be in [2, {MAX_BASE}], got {base}")


@dataclass(frozen=True)
class Word:
    """An immutable string of digits in a fixed base.

    Words compare and hash by value, so they can sit in sets and serve
    as dictionary keys.  The empty word is allowed here; pattern sets
    reject it separately.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        check_base(self.base)
        digits = tuple(self.digits)
        object.__setattr__(self, "digits", digits)
        for d in digits:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"digit {d!r} is not an integer")
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")

    @classmethod
    def parse(cls, text: str, base: int) -> "Word":
        """Build a word from a digit string such as ``"0101"``."""
        check_base(base)
        digits = []
        for ch in text:
            if not ch.isdigit():
                raise ValueError(f"invalid digit {ch!r} in word {text!r}")
            digits.append(int(ch))
        return cls(base, tuple(digits))

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Shortlex position: by length first, then lexicographic."""
        return (len(self.digits), self.digits)

    @property
    def is_zero(self) -> bool:
        """True for words made of zeros only, the empty word included."""
        return all(d == 0 for d in self.digits)


def expand(n: int, base: int) -> Word:
    """Base expansion of n, most significant digit first.

    expand(0, base) is the empty word.
    """
    check_base(base)
    if n < 0:
        raise ValueError(f"cannot expand negative integer {n}")
    digits: list[int] = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    digits.reverse()
    return Word(base, tuple(digits))


def value_of(word: Word) -> int:
    """The integer whose expansion the word spells; leading zeros drop out."""
    n = 0
    for d in word.digits:
        n = n * word.base + d
    return n


def padded_digits(n: int, base: int, pad: int) -> tuple[int, ...]:
    """Digits of n with `pad` zeros stuck on the left."""
    return (0,) * pad + expand(n, base).digits


def count_in_integer(needle: Word, n: int) -> int:
    """Occurrences of needle in the padded expansion of n.

    The expansion of n is padded on the left with len(needle) - 1 zeros
    before counting, so count_in_integer(v, 0) is 0 for every v.
    """
    if len(needle) == 0:
        raise ValueError("cannot count occurrences of the empty word")
    if n < 0:
        raise ValueError(f"cannot count inside negative integer {n}")
    nd = needle.digits
    span = len(nd)
    hd = padded_digits(n, needle.base, span - 1)
    return sum(1 for j in range(len(hd) - span + 1) if hd[j : j + span] == nd)


def count_set(patterns: Iterable[Word], n: int) -> int:
    """Total padded occurrence count of a collection of words in n."""
    return sum(count_in_integer(w, n) for w in patterns)
