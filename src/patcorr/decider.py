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

A step on class q sends its child to the base classes stride * d +
q // base, stride = K / base (the positive-multiples class K standing
in for 0), which all lie in one carry group t % stride.  Every class
starts from the same seed, so the classes of a group receive the same
vectors in the same order and hold the same span.  The closure
therefore keeps one row space per group, K / base of them, and tests
each child vector once for all base classes it reaches.

The child's blocks are each one sum of width stride repeated base
times, and the seed's blocks are constant, so every vector of the
closure is tiled with period stride in both blocks.  The closure runs
on the first period of each block, 2K / base numbers instead of 2K: a
step is one product of that vector with the class's signs, folded by
carry into the low and high halves, and the span tests reduce vectors
base times shorter.  Tiling keeps pivots, primitive rows and
membership, so the stored rows are exactly the full-width ones cut to
their first periods.

Exact arithmetic throughout: vectors hold integers, and an element's
scale is an integer numerator over base**(digits consumed), while the
span tests run on primitive integer rows.  A form's value at 0 is one
integer dot product against the shift-1 numerators over their common
denominator, so a Fraction is made only for a nonzero value, that is
for a witness.

The span tests are the bulk of a noncorrelated decision, whose groups
fill up to 2K / base rows.  A group therefore keeps its first DENSE_ROWS
rows in Python lists, which is all a correlated decision usually needs,
and then moves them to an int64 array that reduces a vector against
every row in one matrix-vector product.  Each array operation, and
each step's product, is bounded in advance and runs on Python ints when
the bound fails, so the stored rows and every answer are the same as
with lists alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence, Union

import numpy as np

from .correlation import CorrelationTable, bootstrap
from .pattern_sets import PatternSet, PeriodicFactor


class InternalConsistencyError(RuntimeError):
    """A value recomputed along an independent route failed to match."""


@dataclass(frozen=True)
class BasisElement:
    """One stored form: class index, integer coefficients, scale, digit trail.

    The form has two coefficient blocks of length K (offset 0, then
    offset 1), each tiled with period stride = K / base.  coeffs holds
    the first period of each, so its width is 2K / base.  The form is
    scale / base**len(provenance) times the blocks; provenance lists the
    digits consumed so far, least significant first.
    """

    residue: int
    coeffs: tuple[int, ...]
    scale: int
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
    row's largest |entry|, bounds every result below 2**62; a reduction
    checks one bound, gain times the vector's largest |entry|, with gain
    fixed at each new row.  An operation that fails its bound moves the
    class to Python ints (dtype=object), so the arithmetic stays exact;
    the class goes back to int64 at the first new row after which its
    rows and lcm fit.
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
        if not self.exact:
            # for a vector with entries at most top in absolute value,
            # every partial sum of reduce stays below top * gain
            self.gain = self.lcm + float(self.scales @ self.row_max[:n])

    def reduce(self, vector: Sequence[int]) -> np.ndarray:
        """A positive multiple of the vector reduced against every row."""
        n = self.count
        # compared as a quotient, so that no entry is ever made a float
        if not self.exact and max(max(vector), -min(vector)) >= _INT64_SAFE / self.gain:
            self._widen()
        v = np.array(vector, dtype=self.rows.dtype)
        c = v[self.pivots[:n]]
        if not c.any():
            return v
        return self.lcm * v - (self.scales[:n] * c) @ self.rows[:n]

    def insert(self, vector: Sequence[int]) -> bool:
        v = self.reduce(vector)
        nonzero = v.nonzero()[0]
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
        hit = column.nonzero()[0]
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


_ZERO = Fraction(0)


def evaluate_at_zero(
    coeffs: Sequence[int], scale: int, depth: int, table: CorrelationTable
) -> Fraction:
    """Value of a compressed form on the class holding 0 alone.

    The form is scale / base**depth times the coefficients.  Restricted
    values at shift offset 0 are all exactly 1, so the low half counts
    base times its plain sum.  The high half, repeated base times, pairs
    with the shift-1 numerators, which share one denominator: entry a
    meets the sum of the numerators on the classes a mod K / base.  A
    Fraction is made only for a nonzero value.
    """
    base = table.base
    stride = table.modulus // base
    denominator = table.denominator
    total = base * denominator * sum(coeffs[:stride]) + sum(
        map(mul, coeffs[stride:] * base, table.numerators)
    )
    if not total:
        return _ZERO
    return Fraction(scale * total, denominator * base**depth)


@lru_cache(maxsize=None)
def _step_index(base: int, modulus: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the compressed closure step, in its (2 * base, stride) layout.

    Entry [o * base + j, i] stands for entry r = i * base + j of offset
    block o.  gather holds o * stride + r % stride, where a compressed
    vector keeps that entry; classes holds r, and shifted[s] holds
    (r + s + o) mod K for every s in [0, K).
    """
    stride = modulus // base
    r = np.arange(modulus).reshape(stride, base).T
    classes = np.concatenate([r, r])
    offsets = np.repeat([0, 1], base)[:, None]
    gather = offsets * stride + classes % stride
    shifted = (classes + offsets + np.arange(modulus)[:, None, None]) % modulus
    return gather, classes, shifted


@lru_cache(maxsize=None)
def _carries(base: int, digit: int) -> np.ndarray:
    """The 0/1 matrix taking layout row o * base + j to the half of its carry.

    The row goes to the high half exactly when digit + o + j reaches the
    base.
    """
    columns = np.arange(2 * base)
    carry = digit + columns // base + columns % base >= base
    return np.stack([~carry, carry]).astype(np.int64)


@lru_cache(maxsize=8)
def _step_signs(factor: PeriodicFactor) -> np.ndarray:
    """h(r) h(r + s + o) in the step layout for each s in [0, K), as int8.

    Slice s serves the class q = s mod K; a sequence's slices take
    2 K**2 bytes.
    """
    h = np.array(factor.values, dtype=np.int8)
    _, classes, shifted = _step_index(factor.base, factor.period)
    return h[classes] * h[shifted]


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
    q = element.residue
    digit = q % base
    # Entry r of offset block o, signed by h(r) h(r + q + o), goes to
    # entry r floordiv base of the child's low or high half, by its carry
    # (digit + o + r % base) floordiv base.  Each child entry sums 2 *
    # base entries of the element, which bounds the int64 step.
    w = element.coeffs
    top = max(max(w), -min(w))
    u = np.array(w, dtype=np.int64 if 2 * base * top < _INT64_SAFE else object)
    gather = _step_index(base, modulus)[0]
    signs = _step_signs(table.factor)[q % modulus]
    child = (_carries(base, digit) @ (u[gather] * signs)).ravel().tolist()
    g = gcd(*child) or 1
    if g > 1:
        child = [x // g for x in child]
    coeffs = tuple(child)
    scale = element.scale * g
    provenance = element.provenance + (digit,)
    head = q // base
    targets = [stride * d + head for d in range(base)]
    point_value: Optional[Fraction] = None
    if head == 0:
        point_value = evaluate_at_zero(coeffs, scale, len(provenance), table)
        # the zero part of the class splits off; what remains of the
        # class is exactly the positive multiples of the modulus
        targets = targets[1:] + [modulus]
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
    basis = ResidueBasis(stride, 2 * stride)
    seed = (1,) * stride + (0,) * stride
    for group in range(stride):
        basis.insert(group, seed)
    queue = deque(BasisElement(t, seed, 1, ()) for t in range(1, modulus + 1))
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
