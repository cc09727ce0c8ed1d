"""Admissible pattern sets and the kernel structure of their sign sequences.

A pattern set A over base k is a finite set of digit words, none of
which is a block of zeros.  It defines the sign sequence

    a(n) = (-1) ** c(n)

where c(n) totals the padded occurrence counts of the members of A in n.

Sign tables come from the last-window rule.  Appending a digit to n
adds exactly the occurrences that end at that digit, so the ratio
h(n) = a(n) / a(n floordiv base) is -1 exactly when an odd number of
members w satisfy n = value(w) mod base**len(w).  The ratio therefore
depends only on the last digits of n, and a(n) follows from it one
digit at a time.

Every structure tool reads this ratio.  The leading-zero-free form,
the constant-length form and the twist are each the one set of their
shape with the required ratio.  Appending the digits of s to n multiplies
a by the ratio at each step, so a kernel quotient
a(base**alpha * n + s) / a(n) is a product of ratio values.  Only
evaluate and reconstruct_pattern_set count words; they are the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Union

from .words import Word, check_base, count_set, value_of


class ReconstructionError(ValueError):
    """The probed sequence is not pattern counting at the requested length."""


def _sorted_words(items: Iterable[Word]) -> tuple[Word, ...]:
    return tuple(sorted(set(items), key=Word.sort_key))


@dataclass(frozen=True)
class PatternSet:
    """A finite admissible set of digit words over one base.

    Admissible means no member is empty or a block of zeros.  Words are
    stored sorted in shortlex order, so equal sets compare equal and the
    textual form is canonical.
    """

    base: int
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        check_base(self.base)
        words = _sorted_words(self.words)
        object.__setattr__(self, "words", words)
        for w in words:
            if w.base != self.base:
                raise ValueError(f"word {w} has base {w.base}, set has base {self.base}")
            if w.is_zero:
                raise ValueError(f"word {str(w)!r} is a block of zeros and is not admissible")

    @classmethod
    def of(cls, base: int, items: Iterable[Union[Word, str]]) -> "PatternSet":
        """Build a set from words or digit strings."""
        words = [w if isinstance(w, Word) else Word.parse(w, base) for w in items]
        return cls(base, tuple(words))

    @classmethod
    def parse(cls, text: str, base: int) -> "PatternSet":
        """Parse the comma-separated textual form; the empty string is the empty set."""
        text = text.strip()
        if not text:
            return cls(base, ())
        return cls.of(base, [part.strip() for part in text.split(",")])

    @classmethod
    def from_mask(cls, base: int, length: int, mask: int) -> "PatternSet":
        """Constant-length set from a bitmask indexed by word value.

        Bit v of the mask selects the length `length` word whose value
        is v.  Bit 0 would select the zero block, so it must be clear.
        """
        check_base(base)
        if length < 1:
            raise ValueError("length must be at least 1")
        total = base**length
        if not 0 <= mask < (1 << total):
            raise ValueError("mask out of range for this length")
        if mask & 1:
            raise ValueError("bit 0 selects the zero block, which is not admissible")
        table = _constant_length_words(base, length)
        words = [table[v] for v in range(1, total) if (mask >> v) & 1]
        return cls(base, tuple(words))

    @cached_property
    def length(self) -> int:
        """Length of the longest word; 1 for the empty set."""
        return max((len(w) for w in self.words), default=1)

    @property
    def size(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __xor__(self, other: "PatternSet") -> "PatternSet":
        """Symmetric difference; the sequences multiply pointwise."""
        if self.base != other.base:
            raise ValueError("cannot combine sets over different bases")
        return PatternSet(self.base, tuple(set(self.words) ^ set(other.words)))

    def __str__(self) -> str:
        return ",".join(str(w) for w in self.words)


@dataclass(frozen=True)
class PeriodicFactor:
    """A periodic sign sequence, stored as one full period of +-1 values."""

    base: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        check_base(self.base)
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("a periodic factor needs at least one value")
        if not {-1, 1}.issuperset(values):
            bad = next(v for v in values if v not in (-1, 1))
            raise ValueError(f"periodic factor values must be +-1, got {bad!r}")

    @property
    def period(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> int:
        return self.values[n % len(self.values)]

    @classmethod
    def parse(cls, text: str, base: int) -> "PeriodicFactor":
        """Parse a sign string such as "+-" into one period."""
        values = []
        for ch in text:
            if ch == "+":
                values.append(1)
            elif ch == "-":
                values.append(-1)
            else:
                raise ValueError(f"invalid sign {ch!r} in factor {text!r}")
        return cls(base, tuple(values))

    def __str__(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.values)


# === the sign sequence ===


def evaluate(pattern_set: PatternSet, n: int) -> int:
    """a(n): the parity sign of the total occurrence count at n."""
    return -1 if count_set(pattern_set.words, n) & 1 else 1


@lru_cache(maxsize=None)
def _constant_length_words(base: int, length: int) -> tuple[Word, ...]:
    """All words of one length, indexed by value."""
    out = []
    for v in range(base**length):
        digits = []
        x = v
        for _ in range(length):
            x, d = divmod(x, base)
            digits.append(d)
        digits.reverse()
        out.append(Word(base, tuple(digits)))
    return tuple(out)


# === canonical forms ===


def remove_leading_zeros(pattern_set: PatternSet) -> PatternSet:
    """The unique leading-zero-free set with the same sign sequence.

    For an n of l digits, the ratios of a leading-zero-free set at n and
    at n mod base**(l - 1) differ by exactly the member spelling n, if
    any.  So the expansion of n is a member when the two values differ.
    A set without leading zeros is its own form.
    """
    if all(w.digits[0] for w in pattern_set.words):
        return pattern_set
    base = pattern_set.base
    ratio = periodic_factor(pattern_set).values
    words = []
    for length in range(1, pattern_set.length + 1):
        table = _constant_length_words(base, length)
        low = base ** (length - 1)
        words.extend(
            table[n] for n in range(low, low * base) if ratio[n] != ratio[n % low]
        )
    return PatternSet(base, tuple(words))


def to_constant_length(pattern_set: PatternSet, length: int) -> PatternSet:
    """The unique equivalent set whose words all have the given length.

    By the last-window rule, a set of words of one length L has the
    ratio h(n) = -1 exactly when the last L digits of n spell a member.
    So the result holds the length-L words v with h(v) = -1, where h is
    the ratio at operating length L.  Leading zeros are allowed in the
    result; the zero block never appears because h(0) = +1.
    """
    ratio = periodic_factor(pattern_set, length).values
    mask = sum(1 << v for v, sign in enumerate(ratio) if sign < 0)
    return PatternSet.from_mask(pattern_set.base, length, mask)


def twist(pattern_set: PatternSet, factor: PeriodicFactor) -> PatternSet:
    """The pattern set generating the sequence multiplied by a periodic sign.

    The factor must start at +1 and its period must divide
    base ** (length - 1).  The product a(n) p(n) then has the ratio
    h(n) p(n) p(n floordiv base), which has period base**length, so by
    the last-window rule the product is generated by the words v of
    that length at which this ratio is -1.
    """
    base = pattern_set.base
    if factor.base != base:
        raise ValueError("factor base does not match the set")
    if factor(0) != 1:
        raise ValueError("the factor must start at +1")
    length = pattern_set.length
    span = base ** (length - 1)
    if span % factor.period != 0:
        raise ValueError(
            f"factor period {factor.period} must divide {span} at length {length}"
        )
    ratio = periodic_factor(pattern_set).values
    mask = sum(
        1 << v for v, sign in enumerate(ratio) if sign * factor(v) * factor(v // base) < 0
    )
    return PatternSet.from_mask(base, length, mask)


def is_self_invariant(pattern_set: PatternSet) -> bool:
    """Whether a(base * n) = a(n) for all n.

    a(base * n) = h(base * n) a(n), so this holds exactly when the ratio
    is +1 on every multiple of the base.
    """
    ratio = periodic_factor(pattern_set).values
    return all(sign > 0 for sign in ratio[:: pattern_set.base])


def invariant_decomposition(pattern_set: PatternSet) -> tuple[PatternSet, PeriodicFactor]:
    """Split a(n) = p(n) * b(n) with b self-invariant and p periodic.

    At length L the self-invariant part is b(n) = a(base**(L - 1) * n),
    so p = kernel_quotient(a, L - 1, 0) and b is the twist of a by p.
    No other p of that period with p(0) = +1 leaves b self-invariant.
    """
    factor = kernel_quotient(pattern_set, pattern_set.length - 1, 0)
    return remove_leading_zeros(twist(pattern_set, factor)), factor


# === kernel structure ===


def _operating_level(pattern_set: PatternSet, level: Union[int, None]) -> int:
    if level is None:
        return pattern_set.length
    if level < pattern_set.length:
        raise ValueError(
            f"operating length {level} is below the longest word length {pattern_set.length}"
        )
    return level


def periodic_factor(pattern_set: PatternSet, level: Union[int, None] = None) -> PeriodicFactor:
    """The ratio h(n) = a(n) / a(n floordiv base), which has period base**level.

    The sequence then satisfies a(n) = h(n mod base**level) * a(n floordiv base)
    for every n, which is the one-step recursion everything else builds on.
    By the last-window rule, each member w flips h on the residues
    n = value(w) mod base**len(w).  h(0) = +1 because no admissible word
    has value 0.
    """
    lvl = _operating_level(pattern_set, level)
    base = pattern_set.base
    modulus = base**lvl
    values = [1] * modulus
    for w in pattern_set.words:
        for n in range(value_of(w), modulus, base ** len(w)):
            values[n] = -values[n]
    return PeriodicFactor(base, tuple(values))


def kernel_quotient(pattern_set: PatternSet, alpha: int, shift: int) -> PeriodicFactor:
    """The quotient a(base**alpha * n + shift) / a(n) as a periodic factor.

    Appending the alpha digits of shift to n one at a time, the first i
    spell top = shift floordiv base**(alpha - i), so the quotient is the
    product of h(base**i * n + top) over i = 1..alpha.  It has period
    base ** (length - 1) in n for any alpha >= 0 and
    0 <= shift < base**alpha.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    base = pattern_set.base
    if not 0 <= shift < base**alpha:
        raise ValueError(f"shift must lie in [0, {base**alpha}), got {shift}")
    ratio = periodic_factor(pattern_set).values
    modulus = len(ratio)
    values = [1] * (modulus // base)
    for i in range(1, alpha + 1):
        top = shift // base ** (alpha - i)
        step = base**i
        for n in range(len(values)):
            values[n] *= ratio[(step * n + top) % modulus]
    return PeriodicFactor(base, tuple(values))


def reconstruct_pattern_set(
    sequence: Callable[[int], int], length: int, base: int
) -> PatternSet:
    """Recover the constant-length pattern set generating a sign sequence.

    A word of the given length belongs to the result exactly when the
    sequence flips between the word's value and the value of the word
    with its last digit dropped.  The reconstruction is then checked
    against the sequence on [0, base**(length + 2)); a mismatch means no
    pattern set of this length generates the sequence.
    """
    check_base(base)
    if length < 1:
        raise ValueError("length must be at least 1")
    if sequence(0) != 1:
        raise ReconstructionError("a pattern sign sequence starts with +1 at n = 0")
    table = _constant_length_words(base, length)
    words = []
    for v in range(1, base**length):
        if sequence(v) not in (-1, 1):
            raise ReconstructionError(f"sequence value at {v} is not a sign")
        if sequence(v) == -sequence(v // base):
            words.append(table[v])
    candidate = PatternSet(base, tuple(words))
    for n in range(base ** (length + 2)):
        if evaluate(candidate, n) != sequence(n):
            raise ReconstructionError(
                f"sequence is not pattern counting at length {length}: "
                f"first mismatch at n = {n}"
            )
    return candidate
