"""Exact shifted correlations of pattern sign sequences.

Every value here is an exact rational.  The average of a(n) a(n + m)
over a residue class r mod base**level converges, and the limits obey a
one-step recursion along the digit kernel of the sequence: splitting
off the least significant digit maps the class r at shift m to the
classes feeding r at shift m floordiv base, possibly bumped by a carry.
Shift 1 values form a triangular system once classes are ordered by the
number of trailing (base - 1) digits in the class index, solved one
such count at a time and closed by a single fixed point at the
all-(base - 1) class.  The full correlation at shift m is the plain
average of the class-restricted values.

All restricted values carry the conventional scaling by base**level, so
the restricted value at shift 0 is exactly 1 on every class.

The arithmetic runs on integers.  The shift-1 values share the common
denominator D = base**(level - 1) * (base - wrap), where wrap = +-1 is
the sign of the fixed point, and all values at one shift share
D * base**e for some e.  A table builds shift m from the shifts
m floordiv base and m floordiv base + 1, one digit level at a time from
the bottom: no value recurses, and the Fraction returned is the only one
made.  It keeps the numerator vector of each shift asked for, and drops
the levels in between once the level above them is built.  A level's
shifts are at most two consecutive ones, sharing at most two children,
so each child is summed over its base blocks once per level.  The sign
h(r) h(r + m) depends on m only mod base**level, so the table keeps, for
each such residue met, the classes whose sign is -1, and negates just
those entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import compress
from operator import add, mul, ne
from typing import Union

from .pattern_sets import PatternSet, PeriodicFactor, periodic_factor, _operating_level

ONE = Fraction(1)


@dataclass
class CorrelationTable:
    """Shift-1 restricted correlations of one set at one operating length.

    numerators[r] / denominator is the exact limit of base**level times
    the average of a(n) a(n + 1) over n = r mod base**level.  General
    shifts reduce to these one digit at a time through a memo keyed by
    shift alone: the entry (e, V) of a shift gives the restricted value
    on class r as V[r] / (denominator * base**e).  V is a tuple of ints, which the
    garbage collector stops tracking, so a large memo adds nothing to
    its collections.  The flip positions of each shift mod base**level,
    the classes r with h(r) != h(r + shift), are kept the same way, so
    there are at most base**level of them.  Neither cache is a
    constructor argument or enters equality or repr: two tables of one
    set compare equal whatever each has been asked.
    """

    base: int
    level: int
    factor: PeriodicFactor
    numerators: tuple[int, ...]
    denominator: int
    _memo: dict[int, tuple[int, tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _flips: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._memo[0] = (0, (self.denominator,) * self.modulus)
        self._memo[1] = (0, self.numerators)

    @property
    def modulus(self) -> int:
        return self.base**self.level

    def restricted(self, residue: int, shift: int) -> Fraction:
        """The restricted correlation on one class at one shift."""
        modulus = self.modulus
        if not 0 <= residue < modulus:
            raise ValueError(f"residue must lie in [0, {modulus}), got {residue}")
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        if shift == 0:
            return ONE
        e, values = self._values(shift)
        return Fraction(values[residue], self.denominator * self.base**e)

    def correlation(self, shift: int) -> Fraction:
        """The full correlation at one shift: the average over all classes."""
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        if shift == 0:
            return ONE
        e, values = self._values(shift)
        return Fraction(sum(values), self.denominator * self.base**e * self.modulus)

    def _values(self, shift: int) -> tuple[int, tuple[int, ...]]:
        """The memo entry of one shift, built from the levels below it.

        One digit down, shift m needs m floordiv base, and also the next
        shift when a carry can occur, that is when m has a nonzero least
        digit.  So each digit level needs at most two consecutive shifts,
        all below m once m >= 2, and these share at most two children.
        Levels are collected down to the first one whose shifts the memo
        holds, then built upwards, each from the one below it; each level
        folds every child once, into a dict dropped when the level is
        built.  Only the asked shift enters the memo: an ascending sweep
        finds every shift's children there, and a deep shift holds two
        levels at a time instead of all of them.
        """
        memo = self._memo
        found = memo.get(shift)
        if found is not None:
            return found
        base = self.base
        levels = [{shift}]
        while True:
            below = set()
            for m in levels[-1]:
                reduced, digit = divmod(m, base)
                below.add(reduced)
                if digit:
                    below.add(reduced + 1)
            # not below.difference(memo), which walks the whole memo
            below = {m for m in below if m not in memo}
            if not below:
                break
            levels.append(below)
        built: dict[int, tuple[int, tuple[int, ...]]] = {}
        for level in reversed(levels):
            folds: dict[int, tuple[int, list[int]]] = {}
            built = {m: self._step(m, built, folds) for m in level}
        memo[shift] = built[shift]
        return built[shift]

    def _step(
        self,
        shift: int,
        built: dict[int, tuple[int, tuple[int, ...]]],
        folds: dict[int, tuple[int, list[int]]],
    ) -> tuple[int, tuple[int, ...]]:
        """The entry of one shift >= 2 from the entries one digit down.

        Class r = base * head + d sits over the classes stride * j + head,
        taken at shift m floordiv base, or at the next shift when
        d + (m mod base) reaches the base.  Its value is the sign
        h(r) h(r + m) times the sum of theirs, divided by the base.  The
        sum over j is the child's fold, its base blocks added entrywise,
        made once per level in folds from built, the level just below,
        or else from the memo; when the two children carry different
        powers of the base, the lower one is scaled up.  The signs are
        read as the flip positions of m mod base**level, and only those
        entries are negated.
        """
        base = self.base
        modulus = self.modulus
        stride = modulus // base
        reduced, digit = divmod(shift, base)
        wanted = (reduced, reduced + 1) if digit else (reduced,)
        children = []
        for m in wanted:
            fold = folds.get(m)
            if fold is None:
                ce, values = built[m] if m in built else self._memo[m]
                totals = values[:stride]
                for j in range(1, base):
                    totals = list(map(add, totals, values[j * stride : (j + 1) * stride]))
                fold = folds[m] = ce, totals
            children.append(fold)
        e = max(ce for ce, _ in children)
        sums = [
            totals if ce == e else [base ** (e - ce) * t for t in totals]
            for ce, totals in children
        ]
        gathered = [0] * modulus
        for d in range(base):
            gathered[d::base] = sums[d >= base - digit]
        for r in self._flip_positions(shift % modulus):
            gathered[r] = -gathered[r]
        return e + 1, tuple(gathered)

    def _flip_positions(self, s: int) -> tuple[int, ...]:
        """The classes r with h(r) != h((r + s) mod base**level), cached by s."""
        found = self._flips.get(s)
        if found is None:
            hv = self.factor.values
            rotated = hv[s:] + hv[:s]
            found = tuple(compress(range(self.modulus), map(ne, hv, rotated)))
            self._flips[s] = found
        return found


@lru_cache(maxsize=None)
def _solve_order(base: int, level: int) -> tuple[tuple[int, slice], ...]:
    """The classes ending in 1 .. level - 1 top digits, in solve order, with their children.

    The classes ending in exactly j top digits come before those ending
    in j + 1.  The children of class r are the slice of every stride-th
    class from r floordiv base.
    """
    modulus = base**level
    stride = modulus // base
    order = []
    for j in range(1, level):
        block = base**j
        # the classes with digit d - 1 < base - 1 above j top digits
        for d in range(1, base):
            for r in range(d * block - 1, modulus, base * block):
                order.append((r, slice(r // base, None, stride)))
    return tuple(order)


def bootstrap(pattern_set: PatternSet, level: Union[int, None] = None) -> CorrelationTable:
    """Solve for all shift-1 restricted correlations of one pattern set.

    Class r takes the sign h(r) h(r + 1) times the average of the
    classes stride * d + r floordiv base at shift 0, or at shift 1 when
    r ends in the top digit base - 1.  So a class that does not end in
    the top digit has its sign as its value, and a class ending in
    exactly j top digits averages classes ending in exactly j - 1: the
    solve runs one trailing-top-digit level at a time, from j = 1 up,
    in the order _solve_order keeps for each base and level.  A class
    ending in j < level top digits has a value with denominator
    base**j, so the solve runs on numerators over base**(level - 1).
    The all-top-digits class wraps around the modulus and is solved as a
    one-variable fixed point, whose sign wrap adds the factor base - wrap.
    wrap is the last class's sign, so every numerator carries that
    factor from the start.
    """
    lvl = _operating_level(pattern_set, level)
    base = pattern_set.base
    modulus = base**lvl
    h = periodic_factor(pattern_set, lvl)
    hv = h.values
    stride = modulus // base
    signs = list(map(mul, hv, hv[1:] + hv[:1]))
    wrap = signs[-1]
    denominator = base ** (lvl - 1) * (base - wrap)
    numerators = list(map(denominator.__mul__, signs))
    for r, children in _solve_order(base, lvl):
        # exact: the children's values have denominators base**(j - 1)
        numerators[r] = signs[r] * (sum(numerators[children]) // base)
    # The all-top-digits class appears among its own children; its
    # remaining children all have one fewer trailing top digit and are
    # already solved, leaving a linear equation in one unknown.
    tail = sum(numerators[stride - 1 : -1 : stride])
    numerators[-1] = wrap * tail // (base - wrap)
    return CorrelationTable(base, lvl, h, tuple(numerators), denominator)


def correlation(pattern_set: PatternSet, shift: int) -> Fraction:
    """Convenience wrapper: bootstrap, then evaluate one full correlation.

    A full correlation belongs to the sequence, whatever the operating
    length, so the table is built at the set's own length.  Callers
    sweeping many shifts should hold on to a bootstrap table instead, so
    the memo is shared across the sweep.
    """
    return bootstrap(pattern_set).correlation(shift)
