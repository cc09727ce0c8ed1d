"""Empirical estimators and closed-form cross checks for correlations.

Everything here approaches the same quantities as the exact machinery
from the opposite side: finite averages of actual sequence values, and
the closed form available for saturated sets.  Sums of +-1 products are
accumulated in 64-bit integers, so the averages are exact up to the
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


def sequence_values(
    pattern_set: PatternSet, count: int, level: Union[int, None] = None
) -> np.ndarray:
    """The first `count` sequence values as an int8 array.

    Values are generated along digit chains: each block [m, base * m)
    reads its signs off the already filled prefix through the periodic
    ratio, so the whole prefix costs one table of size base**level plus
    vectorized passes.
    """
    if count < 1:
        raise ValueError("need at least one sequence value")
    lvl = _operating_level(pattern_set, level)
    base = pattern_set.base
    modulus = base**lvl
    ratio = np.array(periodic_factor(pattern_set, lvl).values, dtype=np.int8)
    out = np.empty(count, dtype=np.int8)
    out[0] = 1
    filled = 1
    while filled < count:
        hi = min(count, filled * base)
        idx = np.arange(filled, hi)
        out[filled:hi] = out[idx // base] * ratio[idx % modulus]
        filled = hi
    return out


def empirical_correlation(
    pattern_set: PatternSet, shift: int, samples: int, level: Union[int, None] = None
) -> Estimate:
    """Average of a(n) a(n + shift) over n < samples."""
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if samples < 1:
        raise ValueError("need at least one sample")
    values = sequence_values(pattern_set, samples + shift, level)
    left = values[:samples].astype(np.int64)
    right = values[shift : shift + samples].astype(np.int64)
    total = int(left @ right)
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
    values = sequence_values(pattern_set, samples + shift, lvl)
    left = values[residue:samples:modulus].astype(np.int64)
    right = values[residue + shift : samples + shift : modulus][: len(left)].astype(
        np.int64
    )
    total = int(left @ right)
    return Estimate(modulus * total / samples, samples, shift, residue)


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
def _saturated_reduced(pattern_set: PatternSet) -> PatternSet:
    """The leading-zero-free form of a saturated set, validated once per set."""
    from .classify import is_saturated

    reduced = remove_leading_zeros(pattern_set)
    if not is_saturated(reduced):
        raise ValueError("the closed form needs a saturated set")
    return reduced


def saturated_closed_form(pattern_set: PatternSet, residue: int, shift: int) -> Fraction:
    """Restricted correlation of a saturated set, in closed form.

    At shift m >= 1 the restricted value on class r is a(r) a(r + m)
    when the least digit of r plus m stays below the base, and 0
    otherwise.  The operating length is the longest word length of the
    leading-zero-free form.
    """
    reduced = _saturated_reduced(pattern_set)
    base = reduced.base
    modulus = base**reduced.length
    if not 0 <= residue < modulus:
        raise ValueError(f"residue must lie in [0, {modulus}), got {residue}")
    if shift < 1:
        raise ValueError("the closed form covers shifts >= 1 only")
    if residue % base + shift < base:
        return Fraction(evaluate(reduced, residue) * evaluate(reduced, residue + shift))
    return Fraction(0)
