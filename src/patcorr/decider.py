"""Deciding whether every shifted correlation of a sign sequence vanishes.

The decision procedure closes a finite-dimensional space of coefficient
vectors indexed by residue classes mod K = base**level, plus one extra
class for the positive multiples of K.  A vector stored under class q
stands for a linear form in the restricted correlations of the sequence
taken along arguments in that class; its two coefficient blocks hold
the form's weights at shift offsets 0 and 1.  Consuming one input digit
rewrites a form on class q into a single child form shared by all the
classes that feed q, with signs supplied by the sequence ratio and a
carry moving weight between the two offset blocks.

The seeds encode the correlations at shifts 1 .. K.  Whenever a child
lands on the class of 0 alone, the form is evaluated there; a nonzero
value equals K times a full correlation at the shift spelled by the
digits consumed so far, so the sequence is correlated and a witness
comes out.  If instead the space closes with every such evaluation
zero, all correlations vanish: the closure then spans a shift-invariant
space of forms that vanish at 0, and such a space must be trivial.

Exact arithmetic throughout: vectors hold integers and each element
carries an exact rational scale, while the span tests run on primitive
integer rows.  A closure step adds each coefficient once into one of two
integer sums, and a form's value at 0 is one integer dot product
against the shift-1 numerators over their common denominator, so a
step makes Fractions only for the child's scale and for that value.

A step on class q sends its child to the base classes stride * d +
q // base, stride = K / base (the positive-multiples class K standing
in for 0), which all lie in one carry group t % stride.  Every class
starts from the same seed, so the classes of a group receive the same
vectors in the same order and hold the same span.  The closure
therefore keeps one row space per group, K / base of them, and tests
each child vector once for all base classes it reaches.

The span tests are the bulk of a noncorrelated decision, whose groups
fill up to 2K rows.  A group therefore keeps its first DENSE_ROWS rows
in Python lists, which is all a correlated decision usually needs, and
then moves them to an int64 array that reduces a vector against every
row in one matrix-vector product.  Each array operation is bounded in
advance and runs on Python ints when the bound fails, so the stored
rows and every answer are the same as with lists alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence, Union

import numpy as np

from .correlation import CorrelationTable, bootstrap
from .pattern_sets import PatternSet


class InternalConsistencyError(RuntimeError):
    """A value recomputed along an independent route failed to match."""


@dataclass(frozen=True)
class BasisElement:
    """One stored form: class index, integer coefficients, scale, digit trail.

    coeffs is the flattened pair of blocks (offset 0, then offset 1),
    each of length K, so its total width is 2K.  provenance lists the
    digits consumed so far, least significant first.
    """

    residue: int
    coeffs: tuple[int, ...]
    scale: Fraction
    provenance: tuple[int, ...]


@dataclass(frozen=True)
class Decision:
    """Outcome of the closure, with the work done to reach it.

    For a correlated sequence the witness shift is the smallest shift
    with a nonzero correlation whenever that minimum does not exceed
    K * K; witness_value is the exact correlation there.  The counters
    record stored elements (seeds included) and dequeued expansions.
    """

    noncorrelated: bool
    witness_shift: Optional[int]
    witness_value: Optional[Fraction]
    elements_created: int
    expansions: int

    @property
    def verdict(self) -> str:
        return "noncorrelated" if self.noncorrelated else "correlated"

    def to_record(self) -> dict:
        record: dict = {
            "verdict": self.verdict,
            "elements_created": self.elements_created,
            "expansions": self.expansions,
        }
        if not self.noncorrelated:
            record["witness_shift"] = self.witness_shift
            value = self.witness_value
            record["witness_value"] = f"{value.numerator}/{value.denominator}"
        return record


class ResidueBasis:
    """Per-class integer row spaces kept in reduced echelon form.

    A class is any index in [0, classes]; decide uses index g for the
    carry group g of its residue classes.  Rows are primitive (content
    1, positive pivot) and each row is zero at every other row's pivot
    column, so membership in the span is a single reduction pass and the
    stored shape is canonical.

    A class starts out as a list of (pivot, row) pairs in pivot order
    and is reduced one row at a time.  Once it holds DENSE_ROWS rows it
    moves to a _DenseRows array, which reduces a vector against all of
    its rows in one product.  Both keep the same rows and give the same
    answers; stored_rows lists a class either way.
    """

    def __init__(self, classes: int, width: int):
        if classes < 1 or width < 1:
            raise ValueError("need at least one class and a positive width")
        self._width = width
        # classes + 1 slots, so that callers may number their classes
        # from 0 or from 1
        self._rows: list[Union[list[tuple[int, list[int]]], _DenseRows]] = [
            [] for _ in range(classes + 1)
        ]

    @property
    def width(self) -> int:
        return self._width

    def rows_in(self, residue: int) -> int:
        return len(self._rows[residue])

    @property
    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._rows)

    def stored_rows(self, residue: int) -> list[tuple[int, tuple[int, ...]]]:
        """The (pivot column, row) pairs of one class, in pivot order."""
        rows = self._rows[residue]
        if isinstance(rows, _DenseRows):
            return rows.listed()
        return [(pivot, tuple(row)) for pivot, row in rows]

    def _reduce(self, rows: list[tuple[int, list[int]]], vector: Sequence[int]) -> list[int]:
        v = list(vector)
        for pivot, row in rows:
            c = v[pivot]
            if c:
                p = row[pivot]
                v = [p * a - c * b for a, b in zip(v, row)]
        return v

    def _check_width(self, vector: Sequence[int]) -> None:
        if len(vector) != self._width:
            raise ValueError(f"vector width {len(vector)} does not match {self._width}")

    def contains(self, residue: int, vector: Sequence[int]) -> bool:
        """Whether the vector already lies in the span stored for a class."""
        self._check_width(vector)
        rows = self._rows[residue]
        if isinstance(rows, _DenseRows):
            return not rows.reduce(vector).any()
        return not any(self._reduce(rows, vector))

    def insert(self, residue: int, vector: Sequence[int]) -> bool:
        """Reduce against the class rows; store if independent.

        Returns True when the vector enlarged the span.
        """
        self._check_width(vector)
        rows = self._rows[residue]
        if isinstance(rows, _DenseRows):
            return rows.insert(vector)
        v = self._reduce(rows, vector)
        for j, x in enumerate(v):
            if x:
                break
        else:
            return False
        _make_primitive(v, j)
        # keep older rows zero at the new pivot
        for pos, (pivot, row) in enumerate(rows):
            c = row[j]
            if c:
                p = v[j]
                merged = [p * a - c * b for a, b in zip(row, v)]
                _make_primitive(merged, pivot)
                rows[pos] = (pivot, merged)
        rows.append((j, v))
        rows.sort(key=lambda item: item[0])
        if len(rows) == DENSE_ROWS:
            self._rows[residue] = _DenseRows(rows, self._width)
        return True


def _make_primitive(v: list[int], pivot: int) -> None:
    g = gcd(*v)
    if v[pivot] < 0:
        g = -g
    if g not in (0, 1):
        v[:] = [x // g for x in v]


# A class moves from lists to the array kernel once it holds this many
# rows.  Correlated decisions stop while their classes are small, and
# there the list code is faster than the fixed cost of numpy calls.
DENSE_ROWS = 8
# Every int64 operation of the array kernel is first bounded below this
# in absolute value; int64 itself ends at 2**63.
_INT64_SAFE = float(1 << 62)


class _DenseRows:
    """The rows of one grown class, reduced against all of them at once.

    rows[:count] holds the primitive rows in the order they arrived, and
    pivots[i] is row i's pivot column.  With lcm the least common
    multiple of the pivot values p_i and scales[i] = lcm // p_i,

        lcm * v - (scales * v[pivots]) @ rows

    is a positive multiple of what the sequential reduction leaves: the
    rows are zero at each other's pivots, so row i clears pivot column
    i of v and no other.  The arrays hold int64 while row_max, each
    row's largest |entry|, bounds every result below 2**62.  An
    operation that fails its bound moves the class to Python ints
    (dtype=object), so the arithmetic stays exact; the class goes back
    to int64 at the first new row after which its rows and lcm fit.
    """

    def __init__(self, listed: list[tuple[int, list[int]]], width: int):
        count = len(listed)
        spare = [[0] * width] * count
        self.count = count
        self.rows = np.array([row for _, row in listed] + spare, dtype=object)
        self.pivots = np.array([pivot for pivot, _ in listed] + [0] * count, dtype=np.int64)
        self.row_max = np.zeros(2 * count)
        self._rescale()

    def __len__(self) -> int:
        return self.count

    @property
    def exact(self) -> bool:
        """Whether the class has moved to Python ints."""
        return self.rows.dtype == object

    def _widen(self) -> None:
        self.rows = self.rows.astype(object)
        self.scales = self.scales.astype(object)

    def _rescale(self) -> None:
        """Recompute lcm and scales; go back to int64 once the rows fit."""
        n = self.count
        pivot_values = self.rows[np.arange(n), self.pivots[:n]].tolist()
        self.lcm = lcm(*pivot_values)
        if self.lcm >= _INT64_SAFE:
            if not self.exact:
                self.rows = self.rows.astype(object)
        elif self.exact:
            top = np.abs(self.rows[:n]).max(axis=1)
            if top.max() < _INT64_SAFE:
                self.rows = self.rows.astype(np.int64)
                self.row_max[:n] = top.astype(np.float64)
        dtype = object if self.exact else np.int64
        self.scales = np.array([self.lcm // p for p in pivot_values], dtype=dtype)

    def _as_array(self, vector: Sequence[int]) -> np.ndarray:
        if not self.exact:
            try:
                return np.array(vector, dtype=np.int64)
            except OverflowError:
                self._widen()
        return np.array(vector, dtype=object)

    def reduce(self, vector: Sequence[int]) -> np.ndarray:
        """A positive multiple of the vector reduced against every row."""
        n = self.count
        v = self._as_array(vector)
        c = v[self.pivots[:n]]
        if not c.any():
            return v
        if not self.exact:
            head = self.lcm * max(int(v.max()), -int(v.min()))
            if head < _INT64_SAFE:
                weights = self.scales[:n] * c
                if head + np.abs(weights) @ self.row_max[:n] < _INT64_SAFE:
                    return self.lcm * v - weights @ self.rows[:n]
            self._widen()
            v, c = v.astype(object), c.astype(object)
        return self.lcm * v - (self.scales[:n] * c) @ self.rows[:n]

    def insert(self, vector: Sequence[int]) -> bool:
        v = self.reduce(vector)
        nonzero = np.flatnonzero(v)
        if not nonzero.size:
            return False
        j = int(nonzero[0])
        g = np.gcd.reduce(v)
        v //= -g if v[j] < 0 else g
        v = self._clear_column(v, j)
        self._append(v, j)
        return True

    def _clear_column(self, v: np.ndarray, j: int) -> np.ndarray:
        """Make the older rows zero at v's pivot j and primitive again.

        Returns v, as Python ints if the class had to move to them.
        """
        n = self.count
        column = self.rows[:n, j]
        hit = np.flatnonzero(column)
        if not hit.size:
            return v
        c = column[hit]
        if not self.exact:
            top = float(np.abs(v).max())
            bound = float(v[j]) * self.row_max[hit] + np.abs(c) * top
            if bound.max() >= _INT64_SAFE:
                self._widen()
                v, c = v.astype(object), c.astype(object)
        # pivots stay positive: v[j] > 0 and v is zero at the old pivots
        merged = v[j] * self.rows[hit] - c[:, None] * v
        merged //= np.gcd.reduce(merged, axis=1)[:, None]
        self.rows[hit] = merged
        if not self.exact:
            self.row_max[hit] = np.abs(merged).max(axis=1)
        return v

    def _append(self, v: np.ndarray, j: int) -> None:
        n = self.count
        if n == len(self.pivots):
            self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
            self.pivots = np.concatenate([self.pivots, np.zeros_like(self.pivots)])
            self.row_max = np.concatenate([self.row_max, np.zeros_like(self.row_max)])
        self.rows[n] = v
        self.pivots[n] = j
        if not self.exact:
            self.row_max[n] = np.abs(v).max()
        self.count = n + 1
        self._rescale()

    def listed(self) -> list[tuple[int, tuple[int, ...]]]:
        n = self.count
        order = np.argsort(self.pivots[:n])
        return [(int(self.pivots[i]), tuple(self.rows[i].tolist())) for i in order]


def witness_from_provenance(digits: Sequence[int], base: int) -> int:
    """The shift spelled by consumed digits, least significant first."""
    value = 0
    for d in reversed(digits):
        value = value * base + d
    return value


def evaluate_at_zero(
    coeffs: Sequence[int], scale: Fraction, table: CorrelationTable
) -> Fraction:
    """Value of a form on the class holding 0 alone.

    Restricted values at shift offset 0 are all exactly 1, so the first
    block contributes its plain sum; the second block pairs with the
    shift-1 table, whose numerators share one denominator.
    """
    modulus = table.modulus
    denominator = table.denominator
    total = sum(coeffs[:modulus]) * denominator + sum(
        map(mul, coeffs[modulus:], table.numerators)
    )
    return scale * Fraction(total, denominator)


def expand_element(
    element: BasisElement, table: CorrelationTable
) -> tuple[list[BasisElement], Optional[Fraction]]:
    """One closure step: consume the least digit of the element's class.

    Returns the child elements for the nonzero target classes, in
    ascending class order, together with the form's value on the class
    of 0 when that class was reached (only classes below the base reach
    it).  All children share one coefficient vector; when the zero class
    is reached the same vector also continues on the positive-multiples
    class, because the residue class splits into the point 0 and the
    positive multiples.
    """
    base = table.base
    modulus = table.modulus
    stride = modulus // base
    hv = table.factor.values
    q = element.residue
    digit = q % base
    w = element.coeffs
    # Coefficient r of offset block o, signed by h(r) h(r + q + o), goes
    # to offset block carry = (digit + o + r % base) floordiv base of the
    # child, at every class stride * d + r floordiv base.  So it is added
    # once, into the low or the high sum by its carry, and each sum is
    # repeated base times to make its block.
    low_columns: list[list[int]] = []
    high_columns: list[list[int]] = []
    for offset in (0, 1):
        block = w[offset * modulus : (offset + 1) * modulus]
        if not any(block):
            continue
        s = (q + offset) % modulus
        rotated = hv[s:] + hv[:s]
        signed = [c if a == b else -c for c, a, b in zip(block, hv, rotated)]
        split = base - digit - offset
        for j in range(base):
            (low_columns if j < split else high_columns).append(signed[j::base])
    low = list(map(sum, zip(*low_columns))) if low_columns else [0] * stride
    high = list(map(sum, zip(*high_columns))) if high_columns else [0] * stride
    g = gcd(*low, *high) or 1
    if g > 1:
        low = [x // g for x in low]
        high = [x // g for x in high]
    scale = Fraction(element.scale.numerator * g, element.scale.denominator * base)
    child = low * base + high * base
    provenance = element.provenance + (digit,)
    head = q // base
    targets = [stride * d + head for d in range(base)]
    point_value: Optional[Fraction] = None
    if targets[0] == 0:
        point_value = evaluate_at_zero(child, scale, table)
        # the zero part of the class splits off; what remains of the
        # class is exactly the positive multiples of the modulus
        targets = targets[1:] + [modulus]
    coeffs = tuple(child)
    children = [
        BasisElement(target, coeffs, scale, provenance) for target in targets
    ]
    return children, point_value


def decide(pattern_set: PatternSet, level: Union[int, None] = None) -> Decision:
    """Decide whether every shifted correlation of the sequence vanishes.

    Runs the closure breadth first so that witnesses surface in order of
    their digit count.  Every correlated verdict is cross-checked: the
    evaluated form value must equal K times the independently computed
    exact correlation at the witness shift, and the reported witness is
    refined to the smallest shift with a nonzero correlation (capped at
    K * K sweeps).
    """
    table = bootstrap(pattern_set, level)
    base = table.base
    modulus = table.modulus
    stride = modulus // base
    # the classes t of a carry group t % stride hold the same rows, so
    # one row space per group answers for all of them
    basis = ResidueBasis(stride, 2 * modulus)
    seed = (1,) * modulus + (0,) * modulus
    for group in range(stride):
        basis.insert(group, seed)
    one = Fraction(1)
    queue = deque(BasisElement(t, seed, one, ()) for t in range(1, modulus + 1))
    created = modulus
    expansions = 0
    while queue:
        element = queue.popleft()
        expansions += 1
        children, point_value = expand_element(element, table)
        if point_value is not None and point_value != 0:
            provenance = element.provenance + (element.residue % base,)
            return _correlated_decision(
                table, provenance, point_value, created, expansions
            )
        if basis.insert(children[0].residue % stride, children[0].coeffs):
            queue.extend(children)
            created += len(children)
    if created != base * basis.total_rows:
        raise InternalConsistencyError(
            f"stored {created} elements for {basis.total_rows} group rows"
        )
    capacity = 2 * modulus * modulus
    if created > capacity:
        raise InternalConsistencyError(
            f"stored {created} elements, above the capacity bound {capacity}"
        )
    return Decision(True, None, None, created, expansions)


def _correlated_decision(
    table: CorrelationTable,
    provenance: tuple[int, ...],
    point_value: Fraction,
    created: int,
    expansions: int,
) -> Decision:
    base = table.base
    modulus = table.modulus
    shift = witness_from_provenance(provenance, base)
    expected = modulus * table.correlation(shift)
    if point_value != expected:
        raise InternalConsistencyError(
            f"form value {point_value} at shift {shift} disagrees with "
            f"{modulus} times the exact correlation {table.correlation(shift)}"
        )
    cap = min(shift, modulus * modulus)
    for m in range(1, cap + 1):
        value = table.correlation(m)
        if value != 0:
            return Decision(False, m, value, created, expansions)
    return Decision(False, shift, table.correlation(shift), created, expansions)
