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
at a time, the carry fold by digit, and one gcd per row.
Only the children of classes below the base reach the class of 0.
Their values there come first, and the first nonzero one in queue order
stops the closure; only the children before it are span-tested, so the
counters are those of a closure that takes one element at a time.  The
children bound for one group are then tested as one block, in layer
order, and the accepted ones, in layer order, make the next layer.

Exact arithmetic throughout: vectors hold integers, and an element's
scale is an integer numerator over base**(digits consumed), while the
span tests run on primitive integer rows.  A form's value at 0 is one
integer dot product against the shift-1 numerators over their common
denominator, so a Fraction is made only for a nonzero value, that is
for a witness.

The span tests are the bulk of a noncorrelated decision, whose groups
fill up to 2K / base rows.  A group therefore keeps its first DENSE_ROWS
rows as lists of Python ints, which is all a correlated decision usually
needs, and takes a block one vector at a time there.  Then it moves to
an int64 array, which reduces the whole block against every row in one
matrix product and runs one ordered elimination over the stored rows
and what is left of the block: each accepted row's pivot column is
cleared from every other row, the stored ones included.  Every array
operation is bounded before it changes a row; when a bound fails, the
group goes back to its lists for the next vector and returns to the
array after a later accepted row, once its entries fit again.  A step's
product is bounded too and runs on Python ints when the bound fails, so
the stored rows and every answer are the same as with lists alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
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


# A block of vectors: a 2-D array, or a sequence of integer sequences.
Vectors = Union[np.ndarray, Sequence[Sequence[int]]]


class ResidueBasis:
    """Per-class integer row spaces kept in reduced echelon form.

    A class is any index in [0, classes]; decide uses index g for the
    carry group g of its residue classes.  Rows are primitive (content
    1, positive pivot) and each row is zero at every other row's pivot
    column, so membership in the span is a single reduction pass and the
    stored shape is canonical.

    insert_block tests a block of vectors against one class in order and
    stores each one that enlarges the span: a vector is accepted exactly
    when it lies outside the span of the class rows and of the block's
    earlier vectors, as if they were inserted one at a time.  A class
    keeps its rows as (pivot, row) pairs of Python ints in pivot order
    and takes a block one vector at a time.  Once it holds DENSE_ROWS
    rows and every entry, the pivots' lcm and the reduction gain fit the
    int64 bound, it moves to a _DenseRows array, which takes the rest of
    a block in one elimination, or in several where a bound stops one
    early.  An array operation that fails its bound before it settles a
    vector moves the class back to the lists, which take that vector;
    the class returns to the array after the next vector the lists
    accept, once it fits again.  Both keep the same rows and give the
    same answers, and stored_rows lists a class either way.
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
            rows = rows.listed()
        return [(pivot, tuple(row)) for pivot, row in rows]

    def _reduce(self, rows: list[tuple[int, list[int]]], vector: Sequence[int]) -> list[int]:
        v = list(vector)
        for pivot, row in rows:
            c = v[pivot]
            if c:
                p = row[pivot]
                v = [p * a - c * b for a, b in zip(v, row)]
        return v

    def _check_width(self, vectors: Vectors) -> None:
        if isinstance(vectors, np.ndarray):
            widths = {vectors.shape[-1] if vectors.ndim == 2 else -1}
        else:
            widths = {len(v) for v in vectors}
        if widths - {self._width}:
            raise ValueError(f"vector widths {sorted(widths)} do not match {self._width}")

    def _to_lists(self, residue: int) -> list[tuple[int, list[int]]]:
        """Move a class whose int64 bound failed to Python-int lists."""
        rows = self._rows[residue] = self._rows[residue].listed()
        return rows

    def contains(self, residue: int, vector: Sequence[int]) -> bool:
        """Whether the vector already lies in the span stored for a class."""
        self._check_width([vector])
        rows = self._rows[residue]
        if isinstance(rows, _DenseRows):
            try:
                return not rows.reduce(_as_block([vector])).any()
            except OverflowError:
                rows = self._to_lists(residue)
        return not any(self._reduce(rows, vector))

    def seed(self, residues: Sequence[int], row: Sequence[int]) -> None:
        """Store a primitive row, pivot positive, as the first row of each empty class given.

        Each class then holds what inserting the row would store.
        """
        self._check_width([row])
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None or row[pivot] < 0 or gcd(*row) != 1 or any(map(self.rows_in, residues)):
            raise ValueError("a seed must be primitive with a positive pivot, its classes empty")
        for residue in residues:
            self._rows[residue] = [(pivot, list(row))]

    def insert(self, residue: int, vector: Sequence[int]) -> bool:
        """Reduce against the class rows; store if independent.

        Returns True when the vector enlarged the span.
        """
        return self.insert_block(residue, [vector])[0]

    def insert_block(self, residue: int, vectors: Vectors) -> list[bool]:
        """Test vectors in order against one class and store each that is independent.

        Returns, for each vector, whether it enlarged the span of the
        class rows and the vectors before it.
        """
        self._check_width(vectors)
        accepted: list[bool] = []
        listed = None
        while len(accepted) < len(vectors):
            done = len(accepted)
            rows = self._rows[residue]
            if isinstance(rows, _DenseRows):
                try:
                    accepted += rows.insert_block(_as_block(vectors[done:]))
                    continue
                except OverflowError:
                    rows = self._to_lists(residue)
            if listed is None:
                listed = vectors.tolist() if isinstance(vectors, np.ndarray) else vectors
            accepted.append(self._insert_listed(residue, rows, listed[done]))
        return accepted

    def _insert_listed(
        self, residue: int, rows: list[tuple[int, list[int]]], vector: Sequence[int]
    ) -> bool:
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
        if len(rows) >= DENSE_ROWS:
            try:
                self._rows[residue] = _DenseRows(rows)
            except OverflowError:
                pass
        return True


def _make_primitive(v: list[int], pivot: int) -> None:
    g = gcd(*v)
    if v[pivot] < 0:
        g = -g
    if g not in (0, 1):
        v[:] = [x // g for x in v]


# A class moves from lists to the array kernel once it holds this many
# rows and they fit the int64 bound.  Correlated decisions stop while
# their classes are small, and there the list code is faster than the
# fixed cost of numpy calls.
DENSE_ROWS = 8
# Every int64 operation of the array kernel is first bounded below this
# in absolute value; int64 itself ends at 2**63.
_INT64_SAFE = float(1 << 62)
# the elimination of a block divides out row contents once an entry
# reaches this
_CONTENT_LIMIT = float(1 << 20)
# a closure step takes at most this many entries of its (rows, 2 * base,
# stride) layout at once, which bounds its temporary arrays
_STEP_ENTRIES = 1 << 12


def _as_block(vectors: Vectors) -> np.ndarray:
    """The vectors as an int64 block; OverflowError if an entry passes the bound."""
    if isinstance(vectors, np.ndarray):
        if vectors.dtype != np.int64:
            raise OverflowError("a block of Python ints")
        return vectors
    if max(abs(x) for v in vectors for x in v) >= _INT64_SAFE:
        raise OverflowError("entries past the int64 bound")
    return np.array(vectors, dtype=np.int64)


def _int64_if(block: np.ndarray, factor: int) -> np.ndarray:
    """The block as int64 if factor times its largest |entry| fits the bound, else as Python ints."""
    top = int(np.abs(block).max()) if block.size else 0
    dtype = np.int64 if factor * max(top, 1) < _INT64_SAFE else object
    return block.astype(dtype, copy=False)


def _eliminate(work: np.ndarray, start: int) -> tuple[list[int], list[int], int]:
    """Ordered fraction-free Gauss-Jordan elimination of an int64 stack, in place.

    The rows before start are stored rows, and the rows from start on
    are zero at the stored rows' pivot columns.  Row i >= start is picked
    when it is independent of the rows before it, and its pivot column,
    its first nonzero one, is then cleared from every other row of the
    stack, the stored rows included.  Returns the picked rows, their
    pivot columns and the number of rows settled from start on, all of
    them unless a merge would pass 2**62.  Then it stops before the row
    whose merges fail, and the rows from there on are left unfinished;
    when that row is the first, nothing is settled and it raises
    OverflowError.  The picked rows have positive pivots and every row
    is zero at the others' pivot columns, but may share a factor; the
    other settled rows are zero.
    """
    _divide_content(work[start:])
    # the largest |entry| of each row, 0 for a zero row, and a bound on
    # them all
    tops = np.abs(work).max(axis=1).astype(np.float64)
    top = float(tops.max())
    picked: list[int] = []
    columns: list[int] = []
    i = start
    while True:
        rest = tops[i:].nonzero()[0]
        if not rest.size:
            return picked, columns, len(work) - start
        i += int(rest[0])
        row = work[i]
        j = int(row.nonzero()[0][0])
        p = int(row[j])
        if p < 0:
            row *= -1
            p = -p
        column = work[:, j].copy()
        column[i] = 0
        hit = column.nonzero()[0]
        if hit.size:
            # each hit row, times a = p / g, takes out row times b = c / g,
            # where p is the pivot value, c the row's entry at the pivot
            # column and g = gcd(p, c)
            c = column[hit]
            g = np.gcd(c, p)
            a, b = p // g, c // g
            # the bound over the whole stack is the cheaper one; a merge
            # fails only when the bound over its own rows fails too
            if (p + top) * top >= _INT64_SAFE and (
                (a * tops[hit] + np.abs(b) * tops[i]).max() >= _INT64_SAFE
            ):
                if i == start:
                    raise OverflowError("merge past the int64 bound")
                return picked, columns, i - start
            merged = work[hit]
            merged *= a[:, None]
            merged -= b[:, None] * row
            big = np.abs(merged).max(axis=1)
            most = float(big.max())
            # dividing out the contents costs more than the merge, so it
            # waits until the entries grow
            if most >= _CONTENT_LIMIT:
                _divide_content(merged)
                big = np.abs(merged).max(axis=1)
                most = float(big.max())
            work[hit] = merged
            tops[hit] = big
            top = max(top, most)
        picked.append(i)
        columns.append(j)
        i += 1


def _divide_content(block: np.ndarray) -> np.ndarray:
    """Divide each row of a block by the gcd of its entries, in place; the gcds, 1 for zero rows."""
    contents = np.gcd.reduce(block, axis=1)
    contents[contents == 0] = 1
    block //= contents[:, None]
    return contents


class _DenseRows:
    """The rows of one grown class as int64, reduced against all of them at once.

    rows holds the primitive rows, and pivots[i] is row i's pivot column.
    With lcm the least common multiple of the pivot values p_i and
    scales[i] = lcm // p_i,

        lcm * V - (V[:, pivots] * scales) @ rows

    is, row by row, a positive multiple of what the sequential reduction
    leaves of a block V: the rows are zero at each other's pivots, so
    row i clears pivot column i and no other.  insert_block stacks those
    residues under the rows and eliminates them in block order
    (_eliminate), which picks exactly the vectors a one-at-a-time
    insertion would accept and clears each new pivot column from the
    older rows as well.  A stored row with pivot j is nonzero at a new
    pivot column j' only when j' > j, and the row it takes out is zero
    before j', so it keeps its pivot and the sign of its pivot value.

    Every operation is bounded below 2**62 before any row changes: a
    reduction checks the gain times the block's largest |entry|, the
    elimination checks each of its merges, and _commit checks the new
    lcm and the new gain.  An elimination that would pass the bound
    stops early: the rows it settled are added, and the rest of the
    block starts again from its vectors, reduced against every row.  A
    bound that fails before anything is settled raises OverflowError
    with the rows untouched, and ResidueBasis runs the next vector on
    its Python-int lists instead.
    """

    def __init__(self, listed: list[tuple[int, list[int]]]):
        if max(max(max(row), -min(row)) for _, row in listed) >= _INT64_SAFE:
            raise OverflowError("rows past the int64 bound")
        rows = np.array([row for _, row in listed], dtype=np.int64)
        self._commit(rows, [pivot for pivot, _ in listed])

    def __len__(self) -> int:
        return len(self.rows)

    def _commit(self, rows: np.ndarray, pivots: list[int]) -> None:
        """Replace the rows, once their pivots' lcm and their reduction gain fit the bound.

        The gain is lcm + sum(scales * max|row_i|): for a vector with
        entries at most top in absolute value, every partial sum of a
        reduction stays below top * gain.
        """
        pivot_values = rows[np.arange(len(pivots)), pivots].tolist()
        multiple = lcm(*pivot_values)
        if multiple >= _INT64_SAFE:
            raise OverflowError("pivot lcm past the int64 bound")
        scales = np.array([multiple // p for p in pivot_values], dtype=np.int64)
        gain = multiple + float(scales @ np.abs(rows).max(axis=1).astype(np.float64))
        # past this gain every reduction would fail its bound, so the
        # class stays on its lists
        if gain >= _INT64_SAFE:
            raise OverflowError("reduction gain past the int64 bound")
        self.rows, self.pivots = rows, np.array(pivots)
        self.lcm, self.scales, self.gain = multiple, scales, gain

    def reduce(self, block: np.ndarray) -> np.ndarray:
        """A positive multiple of each row of the block reduced against every row."""
        # compared as a quotient, so that no entry is ever made a float
        if np.abs(block).max() >= _INT64_SAFE / self.gain:
            raise OverflowError("reduction past the int64 bound")
        return self.lcm * block - (block[:, self.pivots] * self.scales) @ self.rows

    def insert_block(self, block: np.ndarray) -> list[bool]:
        """Store, in order, each row of the block that enlarges the span.

        Returns whether each of the first rows was stored: all of them,
        unless a bound fails after some were settled.  A bound that
        fails before any row is settled raises OverflowError.
        """
        accepted: list[bool] = []
        while len(accepted) < len(block):
            n = len(self.rows)
            try:
                stack = np.concatenate([self.rows, self.reduce(block[len(accepted):])])
                picked, columns, settled = _eliminate(stack, n)
                if picked:
                    # the stored rows that took a new row out, and the new rows
                    changed = self.rows[:, columns].any(axis=1).nonzero()[0].tolist() + picked
                    merged = stack[changed]
                    _divide_content(merged)
                    stack[changed] = merged
                    self._commit(stack[list(range(n)) + picked], self.pivots.tolist() + columns)
            except OverflowError:
                if accepted:
                    return accepted
                raise
            settled_rows = [False] * settled
            for i in picked:
                settled_rows[i - n] = True
            accepted += settled_rows
        return accepted

    def listed(self) -> list[tuple[int, list[int]]]:
        """The (pivot, row) pairs in pivot order, as Python ints."""
        order = np.argsort(self.pivots)
        return [(int(self.pivots[i]), self.rows[i].tolist()) for i in order]


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
def _carries(base: int) -> np.ndarray:
    """For each digit, the 0/1 matrix taking layout row o * base + j to the half of its carry.

    The row goes to the high half exactly when digit + o + j reaches the
    base.
    """
    columns = np.arange(2 * base)
    carry = np.arange(base)[:, None] + columns // base + columns % base >= base
    return np.stack([~carry, carry], axis=1).astype(np.int64)


def expand_element(
    residues: np.ndarray, vectors: np.ndarray, source: np.ndarray, table: CorrelationTable
) -> tuple[np.ndarray, np.ndarray]:
    """One closure step for each element of a layer: consume the least digit of its class.

    Element i sits on class residues[i], in 1 .. K, and its coefficients
    are the row source[i] of vectors.  Returns the rows of the elements'
    children's shared vectors, each made primitive, and the content each
    was divided by, which multiplies the element's scale.  Entry r of
    offset block o, signed by h(r) h(r + q + o), goes to entry r
    floordiv base of the child's low or high half, by its carry (digit +
    o + r % base) floordiv base.  The signs are read off the sequence
    ratio for each chunk, as int8.  Each child entry sums 2 * base
    entries of the element, which bounds the int64 step; past the bound
    the step runs on Python ints.  The elements go a bounded chunk at a
    time, so the step's temporary arrays stay small.
    """
    base = table.base
    modulus = table.modulus
    gather, classes, shifted = _step_index(base, modulus)
    h = np.array(table.factor.values, dtype=np.int8)
    own = h[classes]
    size = max(1, _STEP_ENTRIES // (2 * modulus))
    children = np.empty((len(residues), vectors.shape[1]), dtype=np.int64)
    for lo in range(0, len(residues), size):
        q = residues[lo : lo + size]
        block = _int64_if(vectors[source[lo : lo + size]], 2 * base)
        signs = own * h[shifted[q % modulus]]
        chunk = _carries(base)[q % base] @ (block[:, gather] * signs)
        if chunk.dtype != children.dtype:
            children = children.astype(object)
        children[lo : lo + size] = chunk.reshape(len(q), -1)
    return children, _divide_content(children)


def _test_groups(basis: ResidueBasis, children: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Span-test a layer's children, one block per group; which were accepted, in layer order."""
    order = np.argsort(groups, kind="stable")
    ordered = groups[order]
    cuts = (np.flatnonzero(np.diff(ordered)) + 1).tolist()
    accepted = np.zeros(len(order), dtype=bool)
    for lo, hi in zip([0] + cuts, cuts + [len(order)]):
        rows = order[lo:hi]
        accepted[rows] = basis.insert_block(int(ordered[lo]), children[rows])
    return accepted


def decide(pattern_set: PatternSet, level: Union[int, None] = None) -> Decision:
    """Decide whether every shifted correlation of the sequence vanishes.

    Runs the closure breadth first, one layer at a time, so that
    witnesses surface in order of their digit count.  Every correlated
    verdict is cross-checked: the evaluated form value must equal K times
    the independently computed exact correlation at the witness shift,
    and the reported witness is refined to the smallest shift with a
    nonzero correlation (capped at K * K sweeps).
    """
    table = bootstrap(pattern_set, level)
    base = table.base
    modulus = table.modulus
    stride = modulus // base
    seed = (1,) * stride + (0,) * stride
    # the classes t of a carry group t % stride hold the same rows, so
    # one row space per group answers for all of them.  It is made
    # before the first span test, with the seed, which is primitive, as
    # every group's first row: a closure that stops on its first step
    # tests nothing.
    basis = None
    # the layer in queue order: each element's class, its vector as a row
    # of vectors (the base elements of one child share it), and the
    # position of the element it came from.  trail keeps the classes,
    # contents and parents of the finished layers, from which a witness
    # takes its digits and scale.
    residues = np.arange(1, modulus + 1)
    vectors = np.array([seed], dtype=np.int64)
    source = np.zeros(modulus, dtype=np.int64)
    parents = None
    trail = []
    created = modulus
    expansions = 0
    while residues.size:
        heads = residues // base
        # only the few children of classes below the base meet the class
        # of 0, and the first nonzero value among them stops the closure
        stop = None
        near = (heads == 0).nonzero()[0]
        if near.size:
            met, met_contents = expand_element(residues[near], vectors, source[near], table)
            for found, coeffs in enumerate(met.tolist()):
                if _total_at_zero(coeffs, table):
                    stop = int(near[found])
                    break
        end = residues.size if stop is None else stop
        if end:
            if basis is None:
                basis = ResidueBasis(stride, 2 * stride)
                basis.seed(range(stride), seed)
            children, contents = expand_element(residues[:end], vectors, source[:end], table)
            accepted = _test_groups(basis, children, heads[:end] % stride)
            created += base * int(np.count_nonzero(accepted))
        if stop is not None:
            expansions += stop + 1
            scale = int(met_contents[found])
            digits = [int(residues[stop]) % base]
            position, up = stop, parents
            for layer_residues, layer_contents, layer_parents in reversed(trail):
                position = int(up[position])
                digits.append(int(layer_residues[position]) % base)
                scale *= int(layer_contents[position])
                up = layer_parents
            provenance = tuple(reversed(digits))
            value = evaluate_at_zero(coeffs, scale, len(provenance), table)
            return _correlated_decision(table, provenance, value, created, expansions)
        expansions += residues.size
        trail.append((residues, contents, parents))
        kept = np.flatnonzero(accepted)
        heads = heads[kept]
        # the classes stride * d + head, class K standing in for 0
        residues = (heads[:, None] + stride * (np.arange(base) + (heads == 0)[:, None])).ravel()
        vectors = children[kept]
        del children
        source = np.repeat(np.arange(len(kept)), base)
        parents = kept[source]
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
    value = table.correlation(shift)
    if point_value != modulus * value:
        raise InternalConsistencyError(
            f"form value {point_value} at shift {shift} disagrees with "
            f"{modulus} times the exact correlation {value}"
        )
    # the witness's own correlation is nonzero, so only smaller shifts
    # can refine it
    for m in range(1, min(shift - 1, modulus * modulus) + 1):
        found = table.correlation(m)
        if found != 0:
            return Decision(False, m, found, created, expansions)
    return Decision(False, shift, value, created, expansions)
