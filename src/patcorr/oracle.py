"""Empirical estimators and closed-form cross checks for correlations.

Everything here approaches the same quantities as the exact machinery
from the opposite side: finite averages of actual sequence values, and
the closed form available for saturated sets.  A sum of +-1 products is
the number of terms less twice the number of terms whose two signs
differ, counted on int8 values, so the averages are exact up to the
final division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .pattern_sets import (
    PatternSet,
    _operating_level,
    evaluate,
    periodic_factor,
    remove_leading_zeros,
)
from .words import Word, value_of


@dataclass(frozen=True)
class Estimate:
    """A finite-average estimate of a correlation."""

    value: float
    samples: int
    shift: int
    residue: Optional[int] = None

    def to_record(self) -> dict:
        return {
            "value": self.value,
            "samples": self.samples,
            "shift": self.shift,
            "residue": self.residue,
        }


def sequence_values(pattern_set: PatternSet, count: int) -> np.ndarray:
    """The first `count` sequence values as an int8 array.

    Unrolling a(base * n + d) = a(n) h(base * n + d) k times gives, for
    the width W = base**k, a(W q + r) = a(q) g(q mod P, r) with
    P = base**(length - 1), length the longest word length, and
    g(s, r) = a(W s + r) a(s).  With W = base,
    g is the ratio table h, and a(n) = h(n) a(n floordiv base) gives the
    first P * base values one digit level at a time.  Unrolling those
    gives the first P * W values for a width of at least 256, hence its
    g, and the rest follow in rows of that width.
    """
    if count < 1:
        raise ValueError("need at least one sequence value")
    base = pattern_set.base
    ratio = np.array(periodic_factor(pattern_set).values, dtype=np.int8)
    signs = np.ones(1, dtype=np.int8)
    while len(signs) < len(ratio):
        signs = ratio[: len(signs) * base] * np.repeat(signs, base)
    period = len(ratio) // base
    width = base
    while width < 256:
        width *= base
    head = _unrolled(signs, ratio.reshape(period, base), min(count, period * width))
    if count <= len(head):
        return head
    return _unrolled(head, head.reshape(period, width) * head[:period, None], count)


def _unrolled(first: np.ndarray, table: np.ndarray, count: int) -> np.ndarray:
    """a(0), ..., a(count - 1) from a(W q + r) = a(q) table[q mod P, r].

    Values go in blocks of P rows of W, and row q of a block is a(q)
    times row q mod P of the table, so a block is one int8 product.
    Blocks [b, W b) read only values before block b, and first holds
    block 0.
    """
    period, width = table.shape
    blocks = -(-count // (period * width))
    out = np.empty((blocks, period, width), dtype=np.int8)
    flat = out.reshape(-1)
    out[0] = first.reshape(period, width)
    filled = 1
    while filled < blocks:
        hi = min(blocks, filled * width)
        out[filled:hi] = flat[filled * period : hi * period].reshape(-1, period, 1) * table
        filled = hi
    return flat[:count]


def empirical_correlation(pattern_set: PatternSet, shift: int, samples: int) -> Estimate:
    """Average of a(n) a(n + shift) over n < samples."""
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if samples < 1:
        raise ValueError("need at least one sample")
    values = sequence_values(pattern_set, samples + shift)
    total = _product_sum(values[:samples], values[shift : shift + samples])
    return Estimate(total / samples, samples, shift)


def empirical_restricted_correlation(
    pattern_set: PatternSet,
    residue: int,
    shift: int,
    samples: int,
    level: Union[int, None] = None,
) -> Estimate:
    """Restricted estimate over one class, scaled like the exact values.

    The sum runs over n < samples with n = residue mod base**level and
    is scaled by base**level / samples, so averaging the estimates over
    all classes reproduces the plain estimator exactly.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if samples < 1:
        raise ValueError("need at least one sample")
    lvl = _operating_level(pattern_set, level)
    modulus = pattern_set.base**lvl
    if not 0 <= residue < modulus:
        raise ValueError(f"residue must lie in [0, {modulus}), got {residue}")
    values = sequence_values(pattern_set, samples + shift)
    left = values[residue:samples:modulus]
    right = values[residue + shift : samples + shift : modulus][: len(left)]
    total = _product_sum(left, right)
    return Estimate(modulus * total / samples, samples, shift, residue)


def _product_sum(left: np.ndarray, right: np.ndarray) -> int:
    """The sum of left * right over two +-1 arrays of one length.

    Each term is 1 less 2 where the signs differ.  The differences are
    counted in slices, so the comparison stays in cache and allocates
    no fresh pages.
    """
    differ = 0
    for start in range(0, len(left), 1 << 16):
        stop = start + (1 << 16)
        differ += int(np.count_nonzero(left[start:stop] != right[start:stop]))
    return len(left) - 2 * differ


def check_cancellation(pattern_set: PatternSet, middle: Word, first: int, second: int) -> int:
    """Sum over leading digits i of a([i middle first]) a([i middle second]).

    For a saturated set and distinct trailing digits the sum vanishes;
    the returned integer lets callers check that directly.
    """
    base = pattern_set.base
    if middle.base != base:
        raise ValueError("middle word base does not match the set")
    for d in (first, second):
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
    total = 0
    for i in range(base):
        left = value_of(Word(base, (i,) + middle.digits + (first,)))
        right = value_of(Word(base, (i,) + middle.digits + (second,)))
        total += evaluate(pattern_set, left) * evaluate(pattern_set, right)
    return total


@lru_cache(maxsize=64)
def _saturated_reduced(pattern_set: PatternSet) -> tuple[int, tuple[int, ...]]:
    """A saturated set's modulus K and signs a(n) for n < K + base, checked once.

    The signs are counted with evaluate, independently of the ratio.
    """
    from .classify import is_saturated

    reduced = remove_leading_zeros(pattern_set)
    if not is_saturated(reduced):
        raise ValueError("the closed form needs a saturated set")
    modulus = reduced.base**reduced.length
    signs = tuple(evaluate(reduced, n) for n in range(modulus + reduced.base))
    return modulus, signs


def saturated_closed_form(pattern_set: PatternSet, residue: int, shift: int) -> Fraction:
    """Restricted correlation of a saturated set, in closed form.

    At shift m >= 1 the restricted value on class r is a(r) a(r + m)
    when the least digit of r plus m stays below the base, and 0
    otherwise.  The operating length is the longest word length of the
    leading-zero-free form.
    """
    modulus, signs = _saturated_reduced(pattern_set)
    base = pattern_set.base
    if not 0 <= residue < modulus:
        raise ValueError(f"residue must lie in [0, {modulus}), got {residue}")
    if shift < 1:
        raise ValueError("the closed form covers shifts >= 1 only")
    if residue % base + shift < base:
        return Fraction(signs[residue] * signs[residue + shift])
    return Fraction(0)
