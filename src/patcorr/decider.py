"""Deciding whether every shifted correlation of a sign sequence vanishes.

The decision procedure closes a finite-dimensional space of coefficient
vectors indexed by residue classes mod K = base**length, plus one extra
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
each child vector once for all base classes it reaches.  The seed is
primitive, so each group stores it as its first row with no span test.

The child's blocks are each one sum of width stride repeated base
times, and the seed's blocks are constant, so every vector of the
closure is tiled with period stride in both blocks.  The closure runs
on the first period of each block, 2K / base numbers instead of 2K: a
step is one product of that vector with the class's signs, folded by
carry into the low and high halves, and the span tests reduce vectors
base times shorter.  Tiling keeps pivots, primitive rows and
membership, so the stored rows are exactly the full-width ones cut to
their first periods.

The closure runs breadth first and takes one layer at a time.  The
layer's vectors are the rows of one int64 block, and one step builds
every child: a gather into the step layout, a product with each
element's int8 signs, read off the sequence ratio one chunk of elements
at a time, the carry fold by digit, and one gcd per row.  Only the
children of classes below the base reach the class of 0.  Their values
there, read off the step's rows, come first, and the first nonzero one
in queue order stops the closure; only the children before it are
span-tested, so the counters are those of a closure that takes one
element at a time.  The layer's children are then span-tested in one
call, each against its group in layer order, and the accepted ones, in
layer order, make the next layer.

decide_many runs the closures of many sets of one base and K in
lockstep, and decide is its closure on a batch of one.  Each set's queue
starts with the seed on class 1, whose value at 0 decides most sets.
That child's source entries are the signs h(r) h(r + 1), so it is read
off the ratio in Python ints, and a set that stops there makes no numpy
call and builds no layer.  The others share each layer, set by set, so
that every set keeps its own queue order, and one basis, whose class
k * stride + g is carry group g of the batch's set k: each layer takes
one step call and one span-test call for all of them.  A set stops at
its own first nonzero value, after span-testing only its elements
before it, and leaves the batch when it stops or closes.  A batch holds
batch_size sets, so the tables and rows of one batch at most are alive
at a time.

Exact arithmetic throughout: vectors hold integers, and an element's
scale is an integer numerator over base**(digits consumed), while the
span tests run on primitive integer rows.  A form's value at 0 is its
scale times one integer dot product against the shift-1 numerators,
over their common denominator times base**(digits consumed), and the
witness check compares it with the table's correlation by integer
cross-multiplication.  So a correlated verdict makes one Fraction, the
witness value the table returns, and one more for each shift the
refinement sweeps below the first witness; a noncorrelated one makes
none.

The span tests are the bulk of a noncorrelated decision, whose groups
fill up to 2K / base rows.  Each layer is tested in one call, which
takes the groups in chunks of bounded size and settles one new pivot in
every group of a chunk at each step, so the number of passes is the
largest number of new rows in one group, not their sum.  A group keeps
its rows in canonical reduced echelon form but stores and computes only
on its free columns, those that are no row's pivot, so a full group
costs nothing.  Every int64 operation is bounded first; a group whose
bound fails runs the same steps again on Python ints, from its rows as
they were, and a step's product runs on Python ints past its bound too,
so the stored rows and every answer are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, log2
from operator import add, mul
from typing import Optional, Sequence, Union

import numpy as np

from .correlation import CorrelationTable, bootstrap
from .pattern_sets import PatternSet


class InternalConsistencyError(RuntimeError):
    """A value recomputed along an independent route failed to match."""


@dataclass(frozen=True)
class Decision:
    """Outcome of the closure, with the work done to reach it.

    For a correlated sequence the witness shift is the smallest shift
    with a nonzero correlation, and witness_value is the exact
    correlation there.  The counters record stored elements (seeds
    included) and dequeued expansions.
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


# A block of vectors: a 2-D array, or a sequence of integer sequences.
Vectors = Union[np.ndarray, Sequence[Sequence[int]]]

# Every int64 operation of the span tests and of a closure step is first
# bounded below this in absolute value; int64 itself ends at 2**63.
_INT64_SAFE = float(1 << 62)
# a span test divides out the row contents once an entry may reach this,
# and bounds each merge apart once one may reach _SMALL: below it, no
# merge of two rows can pass _INT64_SAFE
_CONTENT_LIMIT = float(1 << 20)
_SMALL = float(1 << 30)
# a closure step takes at most this many entries of its (rows, 2 * base,
# stride) layout at once, which bounds its temporary arrays
_STEP_ENTRIES = 1 << 12
# a span test takes its classes in chunks of about this many array entries
_SPAN_ENTRIES = 1 << 15
# the row arrays double their rows up to this many bytes, then take them
# all: numpy gives a larger array huge pages that fill only when written
_GROWN_BYTES = 1 << 22
# a batch of closures holds at most this many row entries, counting each
# set's as full: it bounds a batch's tables and rows
_BATCH_ENTRIES = 1 << 19


class ResidueBasis:
    """Per-class integer row spaces kept in reduced echelon form.

    A class is any index in [0, classes); decide uses index g for the
    carry group g of its residue classes.  Rows are primitive (content
    1, positive pivot) and each row is zero at every other row's pivot
    column, so membership in the span is a single reduction pass and the
    stored shape is canonical.

    Each class orders its columns so that the last F, its region, hold
    all its free columns, those that are no row's pivot.  F is the most
    free columns of a class, rounded up to a multiple of 8, so it is the
    width while a class is empty and shrinks only once every class holds
    a row.  A row is stored as its pivot column, its pivot value and its
    entries in the region, where it holds its pivot value at its own
    pivot and 0 at the others; stored_rows rebuilds the full rows.

    insert_layer tests a layer of vectors, each bound for one class: a
    vector is accepted exactly when it lies outside the span of its
    class's rows and of the earlier vectors bound for that class, as if
    they were inserted one at a time.  It lays a chunk of classes out as
    one (classes, rows, F) array of the stored rows over the vectors
    reduced against them, and each step settles one new pivot in every
    class of the chunk that still has an independent vector.  A class
    whose int64 bound fails runs the same code again on Python ints.
    """

    def __init__(self, classes: int, width: int):
        if classes < 1 or width < 1:
            raise ValueError("need at least one class and a positive width")
        self._width = width
        # Row i of class c has pivot column _pivots[c, i] and pivot value
        # _values[c, i], -1 and 1 past its rows, and its region entries
        # are _rows[i, c, :_free]; the three grow with the most rows of a
        # class.  A wide class holds an entry past the int64 bound, and
        # then the rows are Python ints.
        planes = min(width, 8)
        self._counts = np.zeros(classes, dtype=np.int64)
        self._columns = np.arange(width)[None, :].repeat(classes, axis=0)
        self._pivots = np.full((classes, planes), -1)
        self._values = np.ones((classes, planes), dtype=np.int64)
        self._rows = np.zeros((planes, classes, width), dtype=np.int64)
        self._free = width
        self._wide = np.zeros(classes, dtype=bool)
        # the most rows of a class
        self._used = 0

    @property
    def width(self) -> int:
        return self._width

    def stored_rows(self, residue: int) -> list[tuple[int, tuple[int, ...]]]:
        """The (pivot column, row) pairs of one class, in pivot order."""
        (slots,) = np.nonzero(self._pivots[residue] >= 0)
        pivots, width = self._pivots[residue, slots], self._width
        rows = np.zeros((len(slots), width), dtype=self._rows.dtype)
        rows[np.arange(len(slots)), pivots] = self._values[residue, slots]
        free = self._free
        rows[:, self._columns[residue, width - free :]] = self._rows[slots, residue, :free]
        return [(int(pivots[i]), tuple(rows[i].tolist())) for i in np.argsort(pivots)]

    def _block(self, vectors: Vectors) -> np.ndarray:
        """The vectors as a 2-D array, as _int64_if makes them."""
        if isinstance(vectors, np.ndarray):
            if vectors.ndim != 2 or vectors.shape[1] != self._width:
                raise ValueError(f"vectors of width {self._width} expected, got {vectors.shape}")
        elif {len(v) for v in vectors} - {self._width}:
            raise ValueError(f"vectors of width {self._width} expected")
        else:
            vectors = np.array([[int(x) for x in v] for v in vectors], dtype=object)
            vectors = vectors.reshape(-1, self._width)
        return _int64_if(vectors, 1)

    def seed(self, residues: Sequence[int], row: Sequence[int]) -> None:
        """Store a primitive row, pivot positive, as the first row of each empty class given.

        Each class then holds what inserting the row would store.
        """
        row = [int(x) for x in row]
        if len(row) != self._width:
            raise ValueError(f"seed width {len(row)} does not match {self._width}")
        residues = np.asarray(residues, dtype=np.int64)
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None or row[pivot] < 0 or gcd(*row) != 1 or self._counts[residues].any():
            raise ValueError("a seed must be primitive with a positive pivot, its classes empty")
        self._used = max(self._used, 1)
        if max(map(abs, row)) >= _INT64_SAFE:
            self._wide[residues] = True
            if self._rows.dtype != object:
                self._rows, self._values = self._rows.astype(object), self._values.astype(object)
        self._values[residues, 0] = row[pivot]
        self._rows[0, residues] = np.array(row, dtype=self._rows.dtype)[self._columns[residues]]
        self._pivots[residues, 0] = pivot
        self._counts[residues] = 1

    def rows_of(self, residues: np.ndarray) -> np.ndarray:
        """The number of rows of each class given."""
        return self._counts[residues]

    def insert(self, residue: int, vector: Sequence[int]) -> bool:
        """Insert a vector into a class if it lies outside the span; whether it did."""
        return bool(self.insert_layer([residue], [vector])[0])

    def insert_layer(self, groups: Sequence[int], vectors: Vectors) -> np.ndarray:
        """Test vectors[i] against class groups[i], and store each vector that is independent.

        Returns, for each vector, whether it enlarged the span of its
        class's rows and of the vectors before it bound for that class.
        """
        vectors = self._block(vectors)
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (len(vectors),):
            raise ValueError("need one class for each vector")
        order = np.argsort(groups, kind="stable")
        ordered = groups[order]
        sizes = np.bincount(ordered, minlength=len(self._counts))
        # each vector's place among those bound for its class
        slots = np.arange(len(order)) - np.searchsorted(ordered, ordered)
        # a full class rejects every vector without a test
        tested = (sizes > 0) & (self._counts < self._width)
        exact = tested & self._wide
        if vectors.dtype == object:
            exact[ordered[(np.abs(vectors[order]) >= _INT64_SAFE).any(axis=1)]] = True
            exact &= tested
        accepted, (fast,) = np.zeros(len(order), dtype=bool), np.nonzero(tested & ~exact)
        layer = ordered, slots, order, vectors, accepted
        tall = self._used
        # a chunk's arrays are (classes, tall + deep + 1, 2 + F) and (classes, deep, tall)
        deep = int(sizes.max())
        size = max(1, _SPAN_ENTRIES // ((tall + deep + 1) * (2 + self._free) + deep * tall))
        for lo in range(0, len(fast), size):
            chunk = fast[lo : lo + size]
            failed = self._settle(chunk, False, tall, layer)
            if failed.any():
                exact[chunk[failed]] = True
        if exact.any():
            self._settle(np.nonzero(exact)[0], True, tall, layer)
        self._compact()
        return accepted[np.argsort(order)]

    def _reduced(
        self, chunk, where: np.ndarray, slots: np.ndarray, vectors, picks, exact: bool, tall: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The chunk's rows over its vectors reduced against them, and the classes whose bound failed.

        Vector vectors[picks[i]] is bound for class chunk[where[i]], as
        its slots[i]-th.  The (classes, rows, 2 + F) layout holds the
        first tall rows, the vectors, each a 0, its region entries and a
        0, and a unit row, zero but for a last 1.  A reduced vector is
        lcm * V - (V at the pivots * lcm / pivot values) @ rows, lcm that
        of the pivot values; with the gain lcm + sum (lcm / p_i) *
        max|row_i|, no partial sum passes max|V| * gain.
        """
        free = self._free
        deep = int(np.bincount(where).max())
        dtype = object if exact else np.int64
        work = np.zeros((len(chunk), tall + deep + 1, 2 + free), dtype=dtype)
        work[:, :tall, 0] = self._values[chunk, :tall]
        work[:, :tall, 1:-1] = self._rows[:tall, chunk, :free].swapaxes(0, 1)
        work[:, -1, -1] = 1
        # the vectors at the pivots, and at the region in place of their reductions
        spread, fresh = np.zeros((len(chunk), deep, tall), dtype=dtype), work[:, tall:-1, 1:-1]
        spread[where, slots] = vectors[picks[:, None], self._pivots[chunk, :tall][where]]
        region = self._columns[chunk, self._width - free :]
        fresh[where, slots] = vectors[picks[:, None], region[where]]
        values, stored = work[:, :tall, 0], work[:, :tall, 1:-1]
        multiple = np.lcm.reduce(values, axis=1, initial=1)
        scales = multiple[:, None] // values
        failed = np.zeros(len(chunk), dtype=bool)
        # the gain is at most lcm * (1 + rows * top), top the largest
        # |entry| of the rows and the vectors, and a wrapped lcm is never a
        # positive common multiple below the bound
        top = 0.0 if exact else float(max(abs(spread).max(initial=0), abs(work).max()))
        if top and (multiple.max() * top * (1 + tall * top) >= _INT64_SAFE or (
            tall * log2(top) >= 62 and (multiple.min() <= 0 or (multiple[:, None] % values).any())
        )):
            failed = (multiple <= 0) | (multiple >= _INT64_SAFE) | (multiple[:, None] % values).any(1)
            tops = np.abs(stored).max(axis=2, initial=0).astype(float)
            peaks = np.abs(work[:, tall:-1]).max((1, 2))
            peaks = np.maximum(peaks, np.abs(spread).max((1, 2), initial=0))
            failed |= peaks * (multiple + (scales * tops).sum(axis=1)) >= _INT64_SAFE
        fresh *= multiple[:, None, None]
        spread *= scales[:, None, :]
        fresh -= np.matmul(spread, stored)
        return work, failed

    def _settle(self, chunk, exact: bool, tall: int, layer: tuple) -> np.ndarray:
        """Span-test the vectors of a chunk of classes, one new pivot in every class a step.

        Sets accepted[i] for each accepted vector order[i] of the layer
        and stores the chunk's rows.  Returns which classes failed an
        int64 bound, whose rows and flags await the exact run.
        """
        ordered, slots, order, vectors, accepted = layer
        at = np.full(len(self._counts), -1)
        at[chunk] = np.arange(len(chunk))
        where, slot, taken = at[ordered], slots, slice(None)
        if where.min() < 0:
            (taken,) = np.nonzero(where >= 0)
            where, slot = where[taken], slots[taken]
        work, failed = self._reduced(chunk, where, slot, vectors, order[taken], exact, tall)
        classes, height = np.arange(len(chunk)), np.arange(work.shape[1])
        deep = work.shape[1] - 1 - tall
        candidates = work[:, tall:]
        # the vectors not yet picked, of classes whose bound held, and the
        # unit row, which a class takes once it has no vector left: its
        # step then changes nothing.  A class picks one vector a step.
        open_ = np.ones((len(chunk), deep + 1), dtype=bool)
        open_[failed, :deep] = False
        # each vector's pivot, as a column of work, once it is picked
        pivots = np.zeros(open_.shape, dtype=np.int64)
        most = 0.0 if exact else float(np.abs(work).max())
        if most >= _CONTENT_LIMIT:
            _divide_content(work)
            most = float(np.abs(work).max())
        for _ in range(deep):
            nonzero = candidates.any(axis=2)
            nonzero &= open_
            first = nonzero.argmax(axis=1)
            if first.min() == deep:
                break
            open_[classes, first] = False
            open_[:, deep] = True
            row = candidates[classes, first]
            column = (row != 0).argmax(axis=1)
            pivots[classes, first] = column
            value = row[classes, column]
            # each other row times a = value / g, less the picked row times
            # b = c / g, clears its entry c at the column
            hit = work[classes[:, None], height, column[:, None]]
            hit[classes, tall + first] = 0
            common = np.gcd(hit, value[:, None])
            a, b = value[:, None] // common, hit // common
            if not exact:
                if most >= _SMALL:
                    # no longer small enough for every merge: bound each
                    # row, in float so that the bound cannot wrap
                    tops = np.abs(work).max(axis=2).astype(float)
                    bound = np.abs(a) * tops + np.abs(b) * tops[classes, tall + first][:, None]
                    over = (bound >= _INT64_SAFE).any(axis=1)
                    failed |= over
                    open_[over, :deep], pivots[over] = False, 0
                    a[over], b[over] = 1, 0
                # a merged entry is at most |a| * most + |b| * most, and
                # |a|, |b| <= most
                if most < _CONTENT_LIMIT**0.5:
                    most *= 2 * most
                else:
                    most *= float(np.abs(a).max() + np.abs(b).max())
            work *= a[:, :, None]
            work -= b[:, :, None] * row[:, None, :]
            if exact:
                _divide_content(work)
            elif most >= _CONTENT_LIMIT:
                most = float(np.abs(work).max())
                if most >= _CONTENT_LIMIT:
                    _divide_content(work)
                    most = float(np.abs(work).max())
        # a class whose bound failed has no picks
        chosen = pivots[:, :deep] > 0
        accepted[taken] = chosen[where, slot]
        owner, place = np.nonzero(chosen)
        picked = tall + place
        # the picked vectors take their pivot values
        work[owner, picked, 0] = work[owner, picked, pivots[owner, place]]
        work *= np.sign(work[:, :, :1])
        _divide_content(work)
        # their rows follow the stored ones, in slot order
        counts = self._counts[chunk]
        slots = counts[owner] + np.cumsum(chosen, axis=1)[owner, place] - 1
        region, free = self._columns[chunk, self._width - self._free :], self._free
        self._grow(int(slots.max(initial=-1)) + 1)
        kept = ~failed if failed.any() else slice(None)
        if exact:
            self._wide[chunk[kept]] = np.abs(work[kept]).max(axis=(1, 2)) >= _INT64_SAFE
            if self._wide.any() and self._rows.dtype != object:
                self._rows, self._values = self._rows.astype(object), self._values.astype(object)
        self._values[chunk[kept], :tall] = work[kept, :tall, 0]
        self._rows[:tall, chunk[kept], :free] = work[kept, :tall, 1:-1].swapaxes(0, 1)
        self._values[chunk[owner], slots] = work[owner, picked, 0]
        self._rows[slots, chunk[owner], :free] = work[owner, picked, 1:-1]
        self._pivots[chunk[owner], slots] = region[owner, pivots[owner, place] - 1]
        self._counts[chunk] = counts + chosen.sum(axis=1)
        return failed

    def _grow(self, used: int) -> None:
        """Let a class hold used rows; the row arrays at least double their rows when they grow."""
        self._used, have = max(self._used, used), len(self._rows)
        if self._used > have:
            planes = max(self._used, 2 * have)
            if 2 * planes > self._width or planes * self._rows[0].nbytes >= _GROWN_BYTES:
                planes = self._width
            rows, pivots, values = self._rows, self._pivots, self._values
            self._rows = np.zeros((planes,) + rows.shape[1:], dtype=rows.dtype)
            self._pivots = np.full((len(pivots), planes), -1, dtype=np.int64)
            self._values = np.ones((len(values), planes), dtype=values.dtype)
            self._rows[:have], self._pivots[:, :have], self._values[:, :have] = rows, pivots, values

    def _compact(self) -> None:
        """Drop the region's pivot columns past rounding, in place, a few rows at a time."""
        width, counts, have = self._width, self._counts, self._free
        # the class with the fewest rows has the most free columns, all while it is empty
        free = min(_rounded(width - int(counts.min())), have)
        if free < have:
            classes = np.arange(len(counts))[:, None]
            # the region's pivot columns go first, so that its last free ones
            # hold every free column; a slot past the rows marks column W
            region = self._columns[:, width - have :]
            marked = np.zeros((len(counts), width + 1), dtype=bool)
            marked[classes, self._pivots] = True
            order = np.argsort(~marked[classes, region], axis=1, kind="stable")
            self._columns[:, width - have :] = region[classes, order]
            keep = order[None, :, have - free :]
            for lo in range(0, self._used, 16):
                block = self._rows[lo : lo + 16, :, :have]
                self._rows[lo : lo + 16, :, :free] = np.take_along_axis(block, keep, 2)
            self._free = free
        if self._rows.dtype == object and not self._wide.any():
            self._rows[:, :, self._free :] = 0
            self._rows, self._values = self._rows.astype(np.int64), self._values.astype(np.int64)


def _rounded(size: int) -> int:
    """Size rounded up to a multiple of 8, so that the region shrinks only now and then."""
    return -(-size // 8) * 8


def _divide_content(block: np.ndarray) -> np.ndarray:
    """Divide each row of a block by the gcd of its entries, in place; the gcds, 1 for zero rows."""
    contents = np.maximum(np.gcd.reduce(block, axis=-1, keepdims=True), 1)
    block //= contents
    return contents[..., 0]


def _int64_if(block: np.ndarray, factor: int) -> np.ndarray:
    """The block as int64 if factor times its largest |entry| fits the bound, else as Python ints.

    The top is taken from the extremes, since np.abs wraps at -2**63.
    """
    top = max(int(block.max()), -int(block.min())) if block.size else 0
    dtype = np.int64 if factor * max(top, 1) < _INT64_SAFE else object
    return block.astype(dtype, copy=False)


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
    """Value of a compressed form on the class holding 0 alone, as a Fraction.

    The form is scale / base**depth times the coefficients.  Restricted
    values at shift offset 0 are all exactly 1, so the low half counts
    base times its plain sum.  The high half, repeated base times, pairs
    with the shift-1 numerators, which share one denominator: entry a
    meets the sum of the numerators on the classes a mod K / base.  The
    closure settles on the integers of _total_at_zero and makes no
    Fraction here; this is the reference the tests and the tracer use.
    """
    total = _total_at_zero(coeffs, table)
    if not total:
        return _ZERO
    return Fraction(scale * total, table.denominator * table.base**depth)


def _total_at_zero(coeffs: Sequence[int], table: CorrelationTable) -> int:
    """The numerator of evaluate_at_zero before its scale: zero exactly when the value is."""
    base = table.base
    stride = table.modulus // base
    return base * table.denominator * sum(coeffs[:stride]) + sum(
        map(mul, coeffs[stride:] * base, table.numerators)
    )


@lru_cache(maxsize=None)
def _step_index(base: int, modulus: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the compressed closure step, in its (2 * base, stride) layout.

    Entry [o * base + j, i] stands for entry r = i * base + j of offset
    block o.  gather holds o * stride + r % stride, where a compressed
    vector keeps that entry, classes holds r and ahead holds r + o.
    """
    stride = modulus // base
    r = np.arange(modulus).reshape(stride, base).T
    classes = np.concatenate([r, r])
    offsets = np.repeat([0, 1], base)[:, None]
    gather = offsets * stride + classes % stride
    return gather, classes, classes + offsets


@lru_cache(maxsize=None)
def _carries(base: int) -> np.ndarray:
    """For each digit, the 0/1 matrix taking layout row o * base + j to the half of its carry.

    The row goes to the high half exactly when digit + o + j reaches the
    base.
    """
    columns = np.arange(2 * base)
    carry = np.arange(base)[:, None] + columns // base + columns % base >= base
    return np.stack([~carry, carry], axis=1).astype(np.int64)


def _ratios(tables: Sequence[CorrelationTable]) -> np.ndarray:
    """The tables' sequence ratios over two periods, one int8 row per table.

    Two periods, so that a closure step's r + o + q needs no reduction.
    """
    return np.array([table.factor.values * 2 for table in tables], dtype=np.int8)


def expand_element(
    residues: np.ndarray,
    sets: np.ndarray,
    vectors: np.ndarray,
    source: np.ndarray,
    ratios: np.ndarray,
    base: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One closure step for each element of a layer: consume the least digit of its class.

    Element i belongs to set sets[i], whose ratio h is the row
    ratios[sets[i]] (from _ratios), sits on class residues[i], in
    1 .. K, and its coefficients are the row source[i] of vectors.
    Returns the rows of the elements' children's shared vectors, each
    made primitive, and the content each was divided by, which
    multiplies the element's scale.  Entry r of offset block o, signed
    by h(r) h(r + q + o), goes to entry r floordiv base of the child's
    low or high half, by its carry (digit + o + r % base) floordiv
    base.  Each child entry sums 2 * base entries of the element, which
    bounds the int64 step; past the bound the step runs on Python ints.
    The elements go a bounded chunk at a time, so the step's temporary
    arrays stay small.
    """
    modulus = ratios.shape[1] // 2
    gather, classes, ahead = _step_index(base, modulus)
    own, ratio = ratios[:, classes], ratios.ravel()
    size = max(1, _STEP_ENTRIES // (2 * modulus))
    children = np.empty((len(residues), vectors.shape[1]), dtype=np.int64)
    for lo in range(0, len(residues), size):
        q = residues[lo : lo + size]
        owner = sets[lo : lo + size]
        block = _int64_if(vectors[source[lo : lo + size]], 2 * base)
        # h(r + o + q) is entry r + o + q of the owner's row of ratios
        ahead_q = (owner * (2 * modulus) + q % modulus)[:, None, None] + ahead
        signs = own.take(owner, 0) * ratio.take(ahead_q)
        chunk = _carries(base)[q % base] @ (block[:, gather] * signs)
        if chunk.dtype != children.dtype:
            children = children.astype(object)
        children[lo : lo + size] = chunk.reshape(len(q), -1)
    return children, _divide_content(children)


def decide(pattern_set: PatternSet) -> Decision:
    """Decide whether every shifted correlation of the sequence vanishes.

    Runs the closure at K = base**length, breadth first, so that
    witnesses surface in order of their digit count.  Every correlated
    verdict is cross-checked: the evaluated form value must equal K times
    the independently computed exact correlation at the witness shift,
    and the reported witness is the smallest shift with a nonzero
    correlation (_correlated_decision proves it).  It runs the closure
    of decide_many on a batch of one.
    """
    return _closure([bootstrap(pattern_set)])[0]


def batch_size(base: int, modulus: int) -> int:
    """How many closures of one (base, K) run in lockstep: the budget over one set's most row entries."""
    stride = modulus // base
    return max(1, _BATCH_ENTRIES // (stride * (2 * stride) ** 2))


def decide_many(pattern_sets: Sequence[PatternSet]) -> list[Decision]:
    """decide for each set, in input order; the sets of one (base, K) run in lockstep batches.

    The batches hold batch_size(base, K) sets each, so the tables and
    rows of at most one batch are alive at a time.
    """
    keyed: dict[tuple[int, int], list[int]] = {}
    for i, pattern_set in enumerate(pattern_sets):
        base = pattern_set.base
        keyed.setdefault((base, base**pattern_set.length), []).append(i)
    decisions: list = [None] * len(pattern_sets)
    for (base, modulus), members in keyed.items():
        size = batch_size(base, modulus)
        for lo in range(0, len(members), size):
            batch = members[lo : lo + size]
            tables = [bootstrap(pattern_sets[i]) for i in batch]
            for i, decision in zip(batch, _closure(tables)):
                decisions[i] = decision
    return decisions


def _closure(tables: Sequence[CorrelationTable]) -> list[Decision]:
    """The closures of tables of one (base, K), run in lockstep; their decisions in order.

    Each set's queue starts with the seed on class 1, whose child meets
    the class of 0: most sets stop there.  That child comes straight from
    the set's ratio in Python ints (_first_step), so a set that stops
    there makes no numpy call.  The others run their layers together.
    """
    modulus = tables[0].modulus
    decisions: list = []
    for table in tables:
        decision = None
        total = _total_at_zero(_first_step(table), table)
        if total:
            # the first child is primitive, so its scale is 1, and it
            # has consumed one digit
            denominator = table.denominator * table.base
            decision = _correlated_decision(table, (1,), total, denominator, modulus, 1)
        decisions.append(decision)
    going = [k for k, decision in enumerate(decisions) if decision is None]
    if going:
        for k, decision in zip(going, _layers([tables[k] for k in going])):
            decisions[k] = decision
    return decisions


def _first_step(table: CorrelationTable) -> list[int]:
    """The coefficients of the seed's child on class 1, read off the ratio h.

    The seed is 1 on the low block and 0 on the high one, and class 1
    consumes the digit 1, so entry r of the step's source is the sign
    s(r) = h(r) h(r + 1), and only r ending in the digit base - 1
    carries: low entry i of the child is the sum of s(i * base + j) over
    j < base - 1, one map(add) pass per digit j after the first, and
    high entry i is s(i * base + base - 1).  Each high entry is one
    sign, so the child is primitive: the content that expand_element
    would divide out is 1.
    """
    h, base = table.factor.values, table.base
    signs = list(map(mul, h, h[1:] + h[:1]))
    low = signs[::base]
    for j in range(1, base - 1):
        low = list(map(add, low, signs[j::base]))
    return low + signs[base - 1 :: base]


def _layers(tables: Sequence[CorrelationTable]) -> list[Decision]:
    """The breadth-first closures of tables of one (base, K), in lockstep; their decisions in order.

    A layer holds the elements of every set still open, set by set, each
    set's in its own queue order, and set k's carry group g is class
    k * stride + g of one shared basis.  A set leaves the batch at its
    first nonzero value at 0, or when its closure closes.
    """
    base = tables[0].base
    modulus = tables[0].modulus
    stride = modulus // base
    count = len(tables)
    ratios = _ratios(tables)
    decisions: list = [None] * count
    # the classes t of a carry group t % stride hold the same rows, so
    # one row space per group answers for all of them.  Each set tests
    # the child of its seed on class 1, so every group takes the seed,
    # which is primitive, as its first row.
    seed = np.array([(1,) * stride + (0,) * stride])
    basis = ResidueBasis(count * stride, 2 * stride)
    basis.seed(np.arange(count * stride), seed[0])
    # the layer in queue order: each element's set and class, its vector
    # as a row of vectors (the base elements of one child share it), and
    # the place of the element it came from among the tested ones of the
    # layer before.  trail keeps the tested elements' classes, contents
    # and parents of the finished layers, from which a witness takes its
    # digits and scale.
    sets, residues = np.divmod(np.arange(count * modulus), modulus)
    residues += 1
    vectors = seed
    source = np.zeros(len(residues), dtype=np.int64)
    parents = None
    trail = []
    created = np.full(count, modulus)
    expansions = np.zeros(count, dtype=np.int64)
    while residues.size:
        heads = residues // base
        children, contents = expand_element(residues, sets, vectors, source, ratios, base)
        # only the few children of classes below the base meet the class
        # of 0, and the first nonzero value of a set among them stops its
        # closure: stops maps the set to its stop's place, the child's
        # content and its coefficients' total at 0
        stops: dict[int, tuple] = {}
        near = (heads == 0).nonzero()[0]
        if not trail:
            # each set's seed on class 1 is zero at 0, or it would not be here
            near = near[residues[near] > 1]
        for stop, k, content, coeffs in zip(
            near.tolist(), sets[near].tolist(), contents[near].tolist(), children[near].tolist()
        ):
            if k not in stops:
                total = _total_at_zero(coeffs, tables[k])
                if total:
                    stops[k] = stop, content, total
        # a set span-tests only its elements before its stop, and none
        # when it stops on its first
        tested = slice(None)
        if stops:
            limit = np.full(count, len(residues))
            limit[list(stops)] = [stop[0] for stop in stops.values()]
            (tested,) = (np.arange(len(residues)) < limit[sets]).nonzero()
        owners = sets[tested]
        if owners.size:
            children, contents, heads = children[tested], contents[tested], heads[tested]
            accepted = basis.insert_layer(owners * stride + heads % stride, children)
            (kept,) = accepted.nonzero()
            created += base * np.bincount(owners[kept], minlength=count)
        starts = sets.searchsorted(list(stops)).tolist() if stops else ()
        for (k, (stop, scale, total)), start in zip(stops.items(), starts):
            digits = [int(residues[stop]) % base]
            position, up = stop, parents
            for layer_residues, layer_contents, layer_parents in reversed(trail):
                position = int(up[position])
                digits.append(int(layer_residues[position]) % base)
                scale *= int(layer_contents[position])
                up = layer_parents
            provenance = tuple(reversed(digits))
            denominator = tables[k].denominator * base ** len(provenance)
            done = int(expansions[k]) + stop - start + 1
            decisions[k] = _correlated_decision(
                tables[k], provenance, scale * total, denominator, int(created[k]), done
            )
        if not owners.size:
            # every set of the layer stopped on its first element
            break
        expansions += np.bincount(sets, minlength=count)
        trail.append((residues[tested], contents, None if parents is None else parents[tested]))
        # a set tested or stopped in the layer that has no child to go on
        # with has stopped or closed
        ended = np.zeros(count, dtype=bool)
        ended[owners] = True
        ended[owners[kept]] = False
        if stops:
            ended[list(stops)] = True
            kept = kept[~ended[owners[kept]]]
        heads = heads[kept]
        # the classes stride * d + head, class K standing in for 0
        residues = (heads[:, None] + stride * (np.arange(base) + (heads == 0)[:, None])).ravel()
        sets = owners[kept].repeat(base)
        vectors = children[kept]
        del children
        source = np.arange(len(kept)).repeat(base)
        parents = kept[source]
        (left,) = ended.nonzero()
        if left.size:
            classes = (left[:, None] * stride + np.arange(stride)).ravel()
            held = basis.rows_of(classes).reshape(len(left), stride).sum(axis=1)
            for k, rows in zip(left.tolist(), held.tolist()):
                if decisions[k] is None:
                    decisions[k] = _noncorrelated_decision(
                        base, modulus, int(created[k]), int(expansions[k]), rows
                    )
    return decisions


def _noncorrelated_decision(
    base: int, modulus: int, created: int, expansions: int, rows: int
) -> Decision:
    if created != base * rows:
        raise InternalConsistencyError(f"stored {created} elements for {rows} group rows")
    # K / base groups of at most 2K / base rows, each row base elements
    capacity = 2 * modulus * (modulus // base)
    if created > capacity:
        raise InternalConsistencyError(
            f"stored {created} elements, above the capacity bound {capacity}"
        )
    return Decision(True, None, None, created, expansions)


def _correlated_decision(
    table: CorrelationTable,
    provenance: tuple[int, ...],
    numerator: int,
    denominator: int,
    created: int,
    expansions: int,
) -> Decision:
    """The decision at a first nonzero value at 0, its witness the smallest shift.

    The form's value at 0 is numerator / denominator, in integers: its
    scale times its _total_at_zero, over the table's denominator times
    base**len(provenance).  It must equal K times the exact correlation
    at the shift w the provenance spells, which the table computes on
    its own route; that correlation is the witness value, and the only
    Fraction the check makes.  The smallest shift with a nonzero
    correlation lies in [base**(D - 1), w], D = len(provenance):

    - w has D digits, the top one nonzero: only the children of classes
      1 <= q < base are evaluated, and q is their last digit.  Class K
      carries the digit 0, and its child never lands on the class of 0.
    - Without span tests, a shift m of D' digits is evaluated at depth
      D', the digits consumed: the seed on class m mod K (K for 0)
      consumes the digits of m, each child on the class of what is left.
    - Span tests lose no depth.  A child rejected on class q at depth d
      combines vectors its carry group accepted at depth <= d, the seed
      among them, and each is an element on class q too.  Values at 0
      are linear, so a continuation that makes the child a witness
      makes one of them a witness, at no greater depth; by induction on
      its length, the closure stops by depth D'.
    """
    base = table.base
    modulus = table.modulus
    shift = witness_from_provenance(provenance, base)
    value = table.correlation(shift)
    if numerator * value.denominator != modulus * value.numerator * denominator:
        raise InternalConsistencyError(
            f"form value {Fraction(numerator, denominator)} at shift {shift} disagrees with "
            f"{modulus} times the exact correlation {value}"
        )
    for m in range(base ** (len(provenance) - 1), shift):
        found = table.correlation(m)
        if found != 0:
            return Decision(False, m, found, created, expansions)
    return Decision(False, shift, value, created, expansions)
