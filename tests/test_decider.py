import json
import random
from collections import defaultdict, deque
from itertools import product
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patcorr import decider
from patcorr.classify import (
    random_hadamard_family,
    saturated_family_from_hadamard,
    sylvester_hadamard,
)
from patcorr.correlation import bootstrap
from patcorr.decider import (
    Decision,
    InternalConsistencyError,
    ResidueBasis,
    decide,
    evaluate_at_zero,
    expand_element,
    witness_from_provenance,
)
from patcorr.pattern_sets import PatternSet


def ps(text, base=2):
    return PatternSet.parse(text, base)


F = Fraction


@dataclass(frozen=True)
class BasisElement:
    """One queued form of the per-element closure: class, coefficients, scale, digit trail.

    The form is scale / base**len(provenance) times the coefficients,
    and provenance lists the digits consumed so far, least significant
    first.
    """

    residue: int
    coeffs: tuple
    scale: int
    provenance: tuple


def _expand_one(element, table):
    """The closure step of one element: expand_element on a layer of that element alone.

    Returns what the element's children share: their target classes in
    ascending order, their coefficient vector, scale and provenance,
    then the form's value on the class of 0 when that class was reached
    (only classes below the base reach it).  There the same vector also
    continues on the positive-multiples class K.
    """
    base, modulus = table.base, table.modulus
    stride = modulus // base
    q = element.residue
    children, contents = expand_element(
        np.array([q]),
        np.array([0]),
        np.array([element.coeffs], dtype=object),
        np.array([0]),
        decider._ratios([table]),
        base,
    )
    coeffs = tuple(int(x) for x in children[0])
    scale = element.scale * int(contents[0])
    provenance = element.provenance + (q % base,)
    head = q // base
    targets = [stride * d + head for d in range(base)]
    point = None
    if head == 0:
        point = evaluate_at_zero(coeffs, scale, len(provenance), table)
        targets = targets[1:] + [modulus]
    return targets, coeffs, scale, provenance, point


class TestWitnessEncoding:
    def test_digits_are_little_endian(self):
        assert witness_from_provenance((1,), 2) == 1
        assert witness_from_provenance((0, 1), 2) == 2
        assert witness_from_provenance((1, 1, 0, 1), 2) == 11
        assert witness_from_provenance((2, 1), 3) == 5


def _in_span(vectors, target):
    # independent oracle: rational Gaussian elimination
    rows = [[F(x) for x in v] for v in vectors]
    reduced = []
    for row in rows:
        for pivot_col, pivot_row in reduced:
            if row[pivot_col] != 0:
                f = row[pivot_col] / pivot_row[pivot_col]
                row = [a - f * b for a, b in zip(row, pivot_row)]
        lead = next((i for i, a in enumerate(row) if a != 0), None)
        if lead is not None:
            reduced.append((lead, row))
    row = [F(x) for x in target]
    for pivot_col, pivot_row in reduced:
        if row[pivot_col] != 0:
            f = row[pivot_col] / pivot_row[pivot_col]
            row = [a - f * b for a, b in zip(row, pivot_row)]
    return all(a == 0 for a in row)


def _canonical_rows(vectors):
    # independent oracle: rational reduced echelon form, each row scaled
    # to a primitive integer row with a positive pivot
    reduced = []
    for v in vectors:
        row = [F(x) for x in v]
        for pivot_col, pivot_row in reduced:
            if row[pivot_col] != 0:
                f = row[pivot_col]
                row = [a - f * b for a, b in zip(row, pivot_row)]
        lead = next((i for i, a in enumerate(row) if a != 0), None)
        if lead is None:
            continue
        row = [a / row[lead] for a in row]
        reduced = [
            (c, [a - r[lead] * b for a, b in zip(r, row)]) for c, r in reduced
        ]
        reduced.append((lead, row))
    out = []
    for pivot_col, row in sorted(reduced):
        scale = lcm(*(a.denominator for a in row))
        ints = [int(a * scale) for a in row]
        content = 0
        for x in ints:
            content = gcd(content, x)
        out.append((pivot_col, tuple(x // content for x in ints)))
    return out


def _sparse(rng, width, top=3):
    # a third of the entries nonzero, so pivots vary and the reduced rows
    # stay small
    return [rng.randint(-top, top) if rng.random() < 0.35 else 0 for _ in range(width)]


def _spiked(rng, width, spike, after=20):
    # small sparse vectors until a class has grown past the switch on
    # int64; after that, with a nonzero spike, a third of them get one
    # entry of about that size
    made = 0

    def make():
        nonlocal made
        made += 1
        vec = _sparse(rng, width)
        if spike and made > after and rng.random() < 0.3:
            vec[rng.randrange(width)] = rng.choice((-1, 1)) * (spike + rng.randint(0, 99))
        return tuple(vec)

    return make


def _holds(basis, cls, vec):
    # whether the vector lies in the span of a class's stored rows, by the
    # rational oracle
    return _in_span([row for _, row in basis.stored_rows(cls)], vec)


def _check_against_rational(basis, rng, classes, inserts, make):
    stored = {c: [] for c in range(classes)}
    for _ in range(inserts):
        cls = rng.randrange(classes)
        if stored[cls] and rng.random() < 0.3:
            # an element of the span, so that grown classes meet
            # rejections too
            picks = rng.sample(stored[cls], min(3, len(stored[cls])))
            coefs = [rng.randint(-4, 4) for _ in picks]
            vec = tuple(sum(k * x for k, x in zip(coefs, col)) for col in zip(*picks))
        else:
            vec = make()
        fresh = not _in_span(stored[cls], vec)
        assert _holds(basis, cls, vec) != fresh, (cls, vec, stored[cls])
        grew = basis.insert(cls, vec)
        assert grew == fresh
        if grew:
            stored[cls].append(vec)
        assert basis.rows_of(np.arange(classes)).tolist() == [len(stored[c]) for c in range(classes)]
    for cls in range(classes):
        assert basis.stored_rows(cls) == _canonical_rows(stored[cls])
    return stored


# enough rows that a class grows well past its first few
GROWN = 8


def _count_exact_runs(monkeypatch):
    """Record the classes of every span test that runs on Python ints after an int64 bound failed."""
    moved = []
    settle = ResidueBasis._settle

    def counted(basis, chunk, exact, *layer):
        if exact:
            moved.extend(int(c) for c in chunk)
        return settle(basis, chunk, exact, *layer)

    monkeypatch.setattr(ResidueBasis, "_settle", counted)
    return moved


class TestResidueBasis:
    def test_against_rational_elimination(self, monkeypatch):
        # count the span tests that run on Python ints
        moved = _count_exact_runs(monkeypatch)
        rng = random.Random(5)
        classes, width = 4, 6
        for _ in range(40):
            basis = ResidueBasis(classes, width)
            _check_against_rational(
                basis, rng, classes, 25,
                lambda: tuple(rng.randint(-3, 3) for _ in range(width)),
            )
        # grown classes.  Small entries keep them on int64.  Entries near
        # 2**31 and 2**61 fit int64, but their products overflow its
        # bounds; entries near 2**70 do not fit at all.  The last three
        # run some tests on Python ints.  Both keep canonical rows.
        classes, width = 2, 18
        for spike in (0, 1 << 31, 1 << 61, 1 << 70):
            moved.clear()
            for _ in range(2):
                basis = ResidueBasis(classes, width)
                stored = _check_against_rational(
                    basis, rng, classes, 70, _spiked(rng, width, spike)
                )
                assert any(len(rows) > GROWN for rows in stored.values())
            assert bool(moved) == (spike > 0)

    def test_blocks_match_one_at_a_time(self, monkeypatch):
        # blocks of 1 to 12 vectors against one vector at a time, in a
        # grown class.  Small entries keep the blocks on int64.  Entries
        # near 2**31 and 2**61 fit int64, but once rows of that size are
        # stored, reductions pass their bound; entries near 2**70 do not
        # fit at all.  The last three run some blocks on Python ints.
        moved = _count_exact_runs(monkeypatch)
        rng = random.Random(43)
        width = 19
        for spike in (0, 1 << 31, 1 << 61, 1 << 70):
            moved.clear()
            make = _spiked(rng, width, spike, after=10)
            blocked, single = ResidueBasis(1, width), ResidueBasis(1, width)
            stored = []
            for _ in range(12):
                vectors = [make() for _ in range(rng.randint(1, 12))]
                if stored and rng.random() < 0.3:
                    # an element of the span among them
                    picks = rng.sample(stored, min(3, len(stored)))
                    coefs = [rng.randint(-4, 4) for _ in picks]
                    vectors.insert(
                        rng.randrange(len(vectors)),
                        tuple(sum(k * x for k, x in zip(coefs, col)) for col in zip(*picks)),
                    )
                top = max(abs(x) for v in vectors for x in v)
                block = np.array(vectors, dtype=np.int64 if top < 1 << 62 else object)
                grew = blocked.insert_layer([0] * len(block), block).tolist()
                blocked_moves = len(moved)
                assert grew == [single.insert(0, v) for v in vectors]
                # only the moves of the blocked basis count
                del moved[blocked_moves:]
                stored.extend(v for v, g in zip(vectors, grew) if g)
                assert blocked.stored_rows(0) == single.stored_rows(0)
            assert len(stored) > GROWN
            assert blocked.stored_rows(0) == _canonical_rows(stored)
            assert bool(moved) == (spike > 0)

    def test_class_returns_to_int64_after_transient_overflow(self, monkeypatch):
        # in this base-4 family some eliminations fail an int64 bound
        # before they settle a layer: the group runs that layer again on
        # Python ints, keeps int64 rows after it, and ends with the rows
        # of the rational reduced echelon form
        moved = _count_exact_runs(monkeypatch)
        made = []
        tested = []
        accepted = defaultdict(list)

        class Recorded(ResidueBasis):
            def __init__(self, classes, width):
                super().__init__(classes, width)
                made.append(self)

            def insert_layer(self, groups, vectors):
                grew = super().insert_layer(groups, vectors)
                tested.extend(groups)
                for group, v, g in zip(groups.tolist(), vectors, grew):
                    if g:
                        accepted[group].append(tuple(int(x) for x in v))
                return grew

        monkeypatch.setattr(decider, "ResidueBasis", Recorded)
        decision = decide(random_hadamard_family(4, 3, random.Random(416)))
        assert decision.noncorrelated
        (basis,) = made
        assert len(moved) > 1
        # every child is tested once, on int64 or on Python ints; the seed
        # row is stored in each group without a test
        assert len(tested) == decision.expansions
        seed = (1,) * 16 + (0,) * 16
        assert not basis._wide.any() and basis._rows.dtype == np.int64
        for group in set(moved):
            assert basis.stored_rows(group) == _canonical_rows([seed] + accepted[group])

    def test_products_past_int64_stay_exact(self, monkeypatch):
        # every entry fits int64, but reducing the last vector sums
        # products near 2**62 into entries far beyond it
        width = GROWN + 4
        x, y = width - 2, width - 1
        rows = []
        for i in range(GROWN + 1):
            row = [0] * width
            row[i], row[x], row[y] = 1, 1 << 31, 1
            rows.append(tuple(row))
        basis = ResidueBasis(1, width)
        for row in rows:
            assert basis.insert(0, row)
        vec = tuple((1 << 31) + 1 if i < GROWN else 0 for i in range(width))
        assert not _holds(basis, 0, vec)
        assert basis.insert(0, vec)
        assert basis.stored_rows(0) == _canonical_rows(rows + [vec])
        # here the reduced vector is -2**64 at x, which int64 would wrap
        # to 0
        basis = ResidueBasis(1, width)
        for i in range(GROWN):
            row = [0] * width
            row[i], row[x] = 1, 1 << 32
            assert basis.insert(0, tuple(row))
        vec = (1 << 32,) + (0,) * (width - 1)
        assert not _holds(basis, 0, vec)
        assert basis.insert(0, vec)
        # here the first vector of a block reduces within the bound, but
        # its pivot column meets a stored row near 2**41, and clearing it
        # there would pass 2**62: the class runs the block again on
        # Python ints, from its rows as they were, and keeps int64 rows
        moved = _count_exact_runs(monkeypatch)
        rows = [tuple(int(j == i) for j in range(width)) for i in range(GROWN)]
        rows[-1] = rows[-1][:GROWN] + (1 << 41, 0, 0, 0)
        block = [
            (0,) * GROWN + ((1 << 20) + 1, 1 << 20, 0, 0),
            (0,) * (width - 1) + (1,),
            (1, 1) + (0,) * (width - 2),
        ]
        blocked, single = ResidueBasis(1, width), ResidueBasis(1, width)
        for row in rows:
            assert blocked.insert(0, row) and single.insert(0, row)
        assert moved == []
        grew = blocked.insert_layer([0] * 3, np.array(block, dtype=np.int64)).tolist()
        assert moved == [0]
        assert blocked._rows.dtype == np.int64
        assert grew == [single.insert(0, v) for v in block] == [True, True, False]
        assert blocked.stored_rows(0) == single.stored_rows(0) == _canonical_rows(rows + block)
        # here every entry fits 2**41, but clearing the second pivot
        # multiplies entries near 2**40 by 2**40: a bound on each row's
        # merge taken in int64 would wrap below 2**62 and pass
        moved.clear()
        block = [(1 << 40, 1, 0), (3, 1 << 40, 1)]
        basis = ResidueBasis(1, 3)
        assert basis.insert_layer([0, 0], block).tolist() == [True, True]
        assert moved == [0]
        assert basis.stored_rows(0) == _canonical_rows(block)
        assert not _holds(basis, 0, (3, 0, 1))
        assert not _in_span(block, (3, 0, 1))

    def test_pivot_lcm_past_int64_stays_exact(self, monkeypatch):
        # small rows whose pivots are distinct primes: their least common
        # multiple fits int64 for the first rows, and passes 2**63 with
        # the ninth row
        primes = [101, 103, 107, 109, 113, 127, 131, 137, 1000003, 1000033]
        width = len(primes) + 1
        rows = []
        for i, p in enumerate(primes):
            row = [0] * width
            row[i], row[-1] = p, 1
            rows.append(tuple(row))
        basis = ResidueBasis(1, width)
        for row in rows:
            assert basis.insert(0, row)
        inside = tuple(sum(row[i] for row in rows[:4]) for i in range(width))
        assert _holds(basis, 0, inside)
        assert not basis.insert(0, inside)
        fresh = (1,) * width
        assert not _holds(basis, 0, fresh)
        assert basis.insert(0, fresh)
        assert basis.stored_rows(0) == _canonical_rows(rows + [fresh])
        # here the merges that clear a new pivot column multiply the
        # older pivots, and entries pass the bound: the class takes that
        # row on Python ints, from its rows as they were
        rows = [
            (83, 0, 0, 0, 0, 0, 0, 0, 0, 0, -32, 0),
            (0, 137, 0, 0, 0, 0, 0, 0, 0, -32, 0, 0),
            (0, 0, 149, 0, 0, 0, 0, 0, 0, -125, 0, 2),
            (0, 0, 0, 281, 0, 0, 0, 0, 0, -47, -211, 0),
            (0, 0, 0, 0, 131, 0, 0, 0, 0, 20, -112, -109),
            (0, 0, 0, 0, 0, 233, 0, 0, 0, -18, 0, -16),
            (0, 0, 0, 0, 0, 0, 151, 0, 0, 44, -99, 0),
            (0, 0, 0, 0, 0, 0, 0, 41, 0, -6, 0, -8),
            (0, 0, 0, 0, 0, 0, 0, 0, 29, 0, -13, -3),
            (0, 0, -2, 0, 0, 0, 0, 1, 0, 4, 0, 0),
        ]
        moved = _count_exact_runs(monkeypatch)
        basis = ResidueBasis(1, len(rows[0]))
        for count, row in enumerate(rows, 1):
            assert basis.insert(0, row)
            assert basis.stored_rows(0) == _canonical_rows(rows[:count])
            # the ninth and tenth rows fail a bound and run on Python ints
            assert moved == [0] * max(0, count - 8)
        # the rows fit int64 again, and the next row takes them there
        assert basis._rows.dtype == np.int64
        last = (0, 0, 0, 0, 0, 5, 0, 4, 0, 0, -3, 0)
        assert basis.insert(0, last)
        assert moved == [0, 0]
        assert basis.stored_rows(0) == _canonical_rows(rows + [last])

    def test_layers_match_one_at_a_time(self, monkeypatch):
        # random layers over several classes, from empty to full, some
        # with spikes that pass the int64 bound in their class only: the
        # same flags and rows as one insert at a time, and as the
        # rational oracle
        moved = _count_exact_runs(monkeypatch)
        rng = random.Random(61)
        classes, width = 6, 7
        layered, single = ResidueBasis(classes, width), ResidueBasis(classes, width)
        stored = {c: [] for c in range(classes)}
        spiky = {2, 4}
        for _ in range(30):
            groups, vectors = [], []
            for _ in range(rng.randint(1, 14)):
                c = rng.randrange(classes)
                vec = _sparse(rng, width)
                if c in spiky and rng.random() < 0.3:
                    # one or two spikes: two near 2**40 in one vector make
                    # merges whose products pass 2**63
                    shift = rng.choice((40, 61, 70))
                    for j in rng.sample(range(width), rng.randint(1, 2)):
                        vec[j] = rng.choice((-1, 1)) << shift
                elif stored[c] and rng.random() < 0.3:
                    picks = rng.sample(stored[c], min(3, len(stored[c])))
                    vec = [sum(rng.randint(-4, 4) * x for x in col) for col in zip(*picks)]
                groups.append(c)
                vectors.append(tuple(vec))
            for c, v in zip(groups, vectors):
                assert _holds(layered, c, v) == _in_span(stored[c], v)
            grew = layered.insert_layer(groups, vectors)
            assert grew.tolist() == [single.insert(c, v) for c, v in zip(groups, vectors)]
            for c, v, g in zip(groups, vectors, grew):
                if g:
                    stored[c].append(v)
            assert layered.rows_of(np.arange(classes)).tolist() == [len(stored[c]) for c in range(classes)]
            for c in range(classes):
                assert layered.stored_rows(c) == single.stored_rows(c)
                assert layered.stored_rows(c) == _canonical_rows(stored[c])
        assert max(map(len, stored.values())) == width
        assert set(moved) & spiky and not set(moved) - spiky
        assert layered.insert_layer([], np.zeros((0, width), dtype=np.int64)).size == 0
        with pytest.raises(ValueError):
            layered.insert_layer([0, 1], [(0,) * width])

    def test_row_arrays_grow_with_the_largest_class(self):
        # the row arrays hold 8 rows until a class needs a ninth, then
        # double; past 4 MB they take every row at once
        for stride, grown in ((16, 16), (128, 256)):
            width = 2 * stride
            basis = ResidueBasis(stride, width)
            seed = (1,) * stride + (0,) * stride
            basis.seed(range(stride), seed)
            assert basis._rows.shape == (8, stride, width)
            units = [tuple(int(j == i) for j in range(width)) for i in range(1, 9)]
            assert basis.insert_layer([3] * 7, units[:7]).tolist() == [True] * 7
            assert len(basis._rows) == 8
            assert basis.insert(3, units[7])
            assert basis._rows.shape == (grown, stride, width)
            assert basis._pivots.shape == basis._values.shape == (stride, grown)
            assert basis.stored_rows(3) == _canonical_rows([seed] + units)
            assert basis.stored_rows(4) == _canonical_rows([seed])

    def test_seed_stores_what_insert_would(self):
        rng = random.Random(23)
        seed = (1, 1, 1, 0, 0, 0)
        # class 3 stays empty
        seeded = ResidueBasis(4, 6)
        seeded.seed(range(3), seed)
        inserted = ResidueBasis(4, 6)
        for t in range(3):
            assert inserted.insert(t, seed)
        assert seeded.rows_of(3) == 0
        for _ in range(40):
            t = rng.randrange(3)
            v = tuple(rng.randint(-3, 3) for _ in range(6))
            assert seeded.insert(t, v) == inserted.insert(t, v)
        for t in range(4):
            assert seeded.stored_rows(t) == inserted.stored_rows(t)
        basis = ResidueBasis(2, 3)
        for row in ((2, 0, 4), (-1, 1, 0), (0, 0, 0), (1, 0)):
            with pytest.raises(ValueError):
                basis.seed(range(2), row)
        basis.insert(1, (0, 1, 0))
        with pytest.raises(ValueError):
            basis.seed(range(2), (1, 0, 0))
        assert basis.rows_of(np.arange(2)).tolist() == [0, 1]

    def test_entries_past_the_bound_run_on_python_ints(self, monkeypatch):
        # an entry between 2**62 and 2**63 fits int64 but not the bound:
        # given as a list of Python ints or as an object array, its class
        # runs on Python ints, the other on int64, and both get the
        # rational oracle's answers
        moved = _count_exact_runs(monkeypatch)
        rows = [(1, 0, 2, 0, 1), (0, 1, -1, 3, 0)]
        big = (1 << 62) + 5
        fresh = (big, 1, 0, 0, 2)
        inside = tuple(x + y for x, y in zip(fresh, rows[0]))
        groups = [0, 1, 1, 0]
        vectors = [(0, 0, 1, 1, 1), fresh, inside, (1, 0, 3, 1, 2)]
        stored = {0: rows[:1], 1: rows}
        flags = []
        for c, v in zip(groups, vectors):
            flags.append(not _in_span(stored[c], v))
            stored[c] = stored[c] + [v] * flags[-1]
        assert flags == [True, True, False, False]
        for given in (vectors, np.array(vectors, dtype=object)):
            moved.clear()
            basis = ResidueBasis(2, 5)
            basis.insert(0, rows[0])
            assert basis.insert_layer([1, 1], rows).tolist() == [True, True]
            assert basis.insert_layer(groups, given).tolist() == flags
            assert moved == [1]
            for c in (0, 1):
                assert basis.stored_rows(c) == _canonical_rows(stored[c])
        # a layer of the closure step is int64 and passes as it is
        table = bootstrap(ps("1,101,111"))
        children, _ = expand_element(
            np.arange(1, 9), np.zeros(8, dtype=np.int64), np.array([(1,) * 4 + (0,) * 4]),
            np.zeros(8, dtype=np.int64), decider._ratios([table]), 2,
        )
        assert children.dtype == np.int64
        assert ResidueBasis(4, 8)._block(children) is children

    def test_int64_minimum_is_stored_as_its_list_form(self):
        # |-2**63| does not fit int64, so the array runs on Python ints
        # and stores the row the list gives, with a positive pivot
        stored = []
        for given in ([[-(2**63), 1]], np.array([[-(2**63), 1]])):
            basis = ResidueBasis(1, 2)
            assert basis.insert_layer([0], given).tolist() == [True]
            stored.append(basis.stored_rows(0))
        assert stored == [[(0, (2**63, -1))]] * 2

    @pytest.mark.parametrize("first", ["seed", "insert"])
    def test_region_shrinks_once_every_class_has_a_row(self, first):
        # the region keeps every column while a class is empty, so that
        # class's first row may have entries at the others' pivots; it
        # shrinks on the first layer after that class takes a row
        rng = random.Random(29)
        classes, width = 3, 17
        basis = ResidueBasis(classes, width)
        stored = {c: [] for c in range(classes)}

        def layer(groups, vectors):
            expected = []
            for c, v in zip(groups, vectors):
                expected.append(not _in_span(stored[c], v))
                stored[c] += [v] * expected[-1]
            assert basis.insert_layer(groups, vectors).tolist() == expected
            for c in range(classes):
                assert basis.stored_rows(c) == _canonical_rows(stored[c])

        while min(len(stored[0]), len(stored[1])) <= GROWN:
            groups = [rng.randrange(2) for _ in range(rng.randint(1, 6))]
            layer(groups, [tuple(_sparse(rng, width)) for _ in groups])
            assert basis._free == width
        dense = tuple(range(1, width + 1))
        if first == "seed":
            basis.seed([2], dense)
            stored[2].append(dense)
            assert basis._free == width
            groups = [0, 1]
        else:
            groups = [2, 0, 1]
        layer(groups, [dense if c == 2 else tuple(_sparse(rng, width)) for c in groups])
        assert basis._free < width
        while len(stored[2]) <= GROWN:
            layer([2], [tuple(_sparse(rng, width))])
        assert basis._free == 8

    def test_zero_vector_always_contained(self):
        basis = ResidueBasis(2, 4)
        assert not basis.insert(0, (0, 0, 0, 0))
        assert basis.stored_rows(0) == []

    def test_scaling_does_not_enlarge(self):
        basis = ResidueBasis(1, 3)
        assert basis.insert(0, (2, 4, 6))
        assert not basis.insert(0, (1, 2, 3))
        assert not basis.insert(0, (-3, -6, -9))
        assert basis.stored_rows(0) == [(0, (1, 2, 3))]
        assert basis.insert(0, (1, 2, 4))

    def test_rank_is_capped_by_width(self):
        rng = random.Random(11)
        basis = ResidueBasis(1, 4)
        for _ in range(200):
            basis.insert(0, tuple(rng.randint(-9, 9) for _ in range(4)))
        assert basis.rows_of(0) == 4

    def test_rejects_wrong_width(self):
        # an empty class and a whole layer are never truncated or padded
        basis = ResidueBasis(1, 3)
        with pytest.raises(ValueError):
            basis.insert(0, (1, 2))
        for size in (2, 4):
            with pytest.raises(ValueError):
                basis.insert_layer([0], np.zeros((1, size), dtype=np.int64))
        assert basis.rows_of(0) == 0

    def test_contains_rejects_wrong_width(self):
        # the span test of a class with a row and of a grown one would
        # otherwise truncate the vector to the class's width
        basis = ResidueBasis(1, 4)
        basis.insert(0, (1, 0, 0, 0))
        for vec in ((1, 0, 0, 0, 5), (1, 0, 0)):
            with pytest.raises(ValueError):
                basis.insert(0, vec)
        width = GROWN + 3
        basis = ResidueBasis(1, width)
        for i in range(GROWN + 1):
            assert basis.insert(0, tuple(int(j == i) for j in range(width)))
        assert basis.rows_of(0) > GROWN
        for size in (width - 1, width + 1):
            with pytest.raises(ValueError):
                basis.insert(0, (1,) + (0,) * (size - 1))
            with pytest.raises(ValueError):
                basis.insert_layer([0], np.zeros((1, size), dtype=np.int64))
        assert basis.rows_of(0) == GROWN + 1

    def test_rows_stay_canonical(self):
        # same span reached along different insertion orders gives the
        # same stored rows, in a small class and in a grown one
        vecs = [(1, 2, 0, 4), (0, 3, 1, -2), (2, 1, 1, 2)]
        a = ResidueBasis(1, 4)
        b = ResidueBasis(1, 4)
        for v in vecs:
            a.insert(0, v)
        for v in reversed(vecs):
            b.insert(0, v)
        assert a.stored_rows(0) == b.stored_rows(0)
        assert a.stored_rows(0) == _canonical_rows(vecs)
        rng = random.Random(17)
        width = 14
        vecs = [tuple(_sparse(rng, width)) for _ in range(GROWN + 4)]
        orders = [vecs, vecs[::-1], rng.sample(vecs, len(vecs))]
        listings = []
        for order in orders:
            basis = ResidueBasis(1, width)
            for v in order:
                basis.insert(0, v)
            listings.append(basis.stored_rows(0))
        assert len(listings[0]) > GROWN
        assert listings[0] == listings[1] == listings[2] == _canonical_rows(vecs)


def _expand_by_digit(element, table):
    """Reference: the closure step at full width, one add per coefficient and class.

    Takes an element whose coeffs hold both offset blocks in full, 2K
    entries.  Returns what _expand_one returns: the target classes,
    the children's coeffs, scale and provenance, and the point value,
    but with the scale as a Fraction and the point value evaluated with
    Fraction arithmetic on the entries.
    """
    base, modulus = table.base, table.modulus
    stride = modulus // base
    hv = table.factor.values
    q = element.residue
    digit = q % base
    child = [0] * (2 * modulus)
    for offset in (0, 1):
        for r in range(modulus):
            c = element.coeffs[offset * modulus + r]
            if hv[r] * hv[(r + q + offset) % modulus] < 0:
                c = -c
            carry = (digit + offset + r % base) // base
            for d in range(base):
                child[carry * modulus + r // base + d * stride] += c
    scale = F(element.scale, base ** (len(element.provenance) + 1))
    g = 0
    for x in child:
        g = gcd(g, x)
    if g > 1:
        child = [x // g for x in child]
        scale *= g
    targets = [stride * d + q // base for d in range(base)]
    point = None
    if targets[0] == 0:
        point = F(sum(child[:modulus])) + sum(
            F(c * n, table.denominator) for c, n in zip(child[modulus:], table.numerators)
        )
        point *= scale
        targets = targets[1:] + [modulus]
    provenance = element.provenance + (digit,)
    return targets, tuple(child), scale, provenance, point


def _tile(coeffs, base):
    """The full-width blocks of a compressed vector: each half repeated base times."""
    stride = len(coeffs) // 2
    return tuple(coeffs[:stride]) * base + tuple(coeffs[stride:]) * base


def _is_tiled(coeffs, base):
    modulus = len(coeffs) // 2
    stride = modulus // base
    return coeffs == _tile(coeffs[:stride] + coeffs[modulus : modulus + stride], base)


def _full_row(pivot, row, base):
    """A stored compressed row and its pivot, at full width."""
    stride = len(row) // 2
    if pivot >= stride:
        pivot += (base - 1) * stride
    return pivot, _tile(row, base)


def _random_tables(rng):
    for base, length in ((2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2)):
        for _ in range(4):
            mask = rng.randrange(1 << (base**length - 1)) << 1
            yield bootstrap(PatternSet.from_mask(base, length, mask))


def _compressed(rng, width):
    """Random compressed coefficients; some share a factor, some pass int64."""
    coeffs = tuple(rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(width))
    pick = rng.random()
    if pick < 0.2:
        coeffs = tuple(6 * c for c in coeffs)
    elif pick < 0.3:
        # 2 * base * 2**61 reaches the int64 step's bound, 2**70 int64 itself
        coeffs = tuple(c * (1 << rng.choice((61, 70))) + 1 for c in coeffs)
    return coeffs


class TestExpansion:
    def test_oracle_maps_tiled_inputs_to_tiled_children(self):
        # the closure stays in the tiled vectors, so compressed
        # coordinates lose nothing
        rng = random.Random(29)
        for table in _random_tables(rng):
            base, K = table.base, table.modulus
            for _ in range(10):
                coeffs = _tile(_compressed(rng, 2 * K // base), base)
                element = BasisElement(rng.randint(1, K), coeffs, 1, ())
                assert _is_tiled(coeffs, base)
                _, child, _, _, _ = _expand_by_digit(element, table)
                assert _is_tiled(child, base)

    def test_matches_per_digit_loop(self):
        rng = random.Random(23)
        for table in _random_tables(rng):
            base, K = table.base, table.modulus
            for _ in range(25):
                coeffs = _compressed(rng, 2 * K // base)
                residue = rng.randint(1, K)
                scale = rng.randint(1, 50)
                element = BasisElement(residue, coeffs, scale, (1, 0))
                targets, child, child_scale, provenance, point = _expand_one(
                    element, table
                )
                full = BasisElement(residue, _tile(coeffs, base), scale, (1, 0))
                assert (
                    targets,
                    _tile(child, base),
                    F(child_scale, base ** len(provenance)),
                    provenance,
                    point,
                ) == _expand_by_digit(full, table)

    def test_layer_matches_its_elements(self):
        # a layer in one step gives each row the child of its element,
        # on int64 and, once one row passes the bound, on Python ints
        rng = random.Random(37)
        for table in _random_tables(rng):
            base, K = table.base, table.modulus
            rows = [_compressed(rng, 2 * K // base) for _ in range(40)]
            residues = [rng.randint(1, K) for _ in rows]
            small = [i for i, row in enumerate(rows) if max(map(abs, row)) < 1 << 40]
            for picks in (small, range(len(rows))):
                block = np.array([rows[i] for i in picks], dtype=object)
                children, contents = expand_element(
                    np.array([residues[i] for i in picks]),
                    np.zeros(len(picks), dtype=np.int64),
                    block,
                    np.arange(len(picks)),
                    decider._ratios([table]),
                    base,
                )
                assert len(children) == len(contents) == len(picks)
                for i, child, content in zip(picks, children, contents):
                    _, coeffs, scale, _, _ = _expand_one(
                        BasisElement(residues[i], rows[i], 1, ()), table
                    )
                    assert tuple(int(x) for x in child) == coeffs
                    assert int(content) == scale

    def test_chunks_switch_to_python_ints(self, monkeypatch):
        # a layer steps a few rows at a time, and the base elements of one
        # child share its vector; a chunk with a row past the int64 bound
        # turns the layer's children into Python ints
        monkeypatch.setattr(decider, "_STEP_ENTRIES", 1)
        table = bootstrap(ps("1,101"))
        base, K = table.base, table.modulus
        rows = [(1, -2, 0, 3, 0, 1, 1, 0), (1 << 61, 0, 1, 0, 0, 0, 1, 1), (2, 2, 0, 0, 1, 0, 0, 0)]
        residues = [1, 6, 8, 3, 4]
        source = [0, 1, 2, 0, 2]
        for dtype, picks in ((np.int64, [0, 2]), (object, [0, 1, 2])):
            vectors = np.array([rows[i] for i in picks], dtype=dtype)
            chosen = [i for i in range(len(source)) if source[i] in picks]
            children, contents = expand_element(
                np.array([residues[i] for i in chosen]),
                np.zeros(len(chosen), dtype=np.int64),
                vectors,
                np.array([picks.index(source[i]) for i in chosen]),
                decider._ratios([table]),
                base,
            )
            assert children.dtype == (np.int64 if 1 not in picks else object)
            for i, child, content in zip(chosen, children, contents):
                _, coeffs, scale, _, _ = _expand_one(
                    BasisElement(residues[i], rows[source[i]], 1, ()), table
                )
                assert tuple(int(x) for x in child) == coeffs
                assert int(content) == scale

    def test_step_index_stays_linear_in_k(self):
        # the cached index arrays hold O(K) entries, not one row per shift
        assert sum(a.nbytes for a in decider._step_index(2, 1024)) < 1 << 20

    def test_single_digit_first_step(self):
        # the shift-1 seed for the parity-of-ones set: one shared child
        # vector lands on the remaining plain class and the
        # positive-multiples class, and the zero class yields the point
        # value, twice the correlation at shift 1
        table = bootstrap(ps("1"))
        seed = BasisElement(residue=1, coeffs=(1, 0), scale=1, provenance=())
        targets, coeffs, scale, provenance, point = _expand_one(seed, table)
        assert point == F(-2, 3)
        assert targets == [1, 2]
        assert coeffs == (-1, -1)
        assert F(scale, 2 ** len(provenance)) == F(1, 2)
        assert provenance == (1,)

    def test_even_class_has_no_point_value(self):
        # class 4 = K: digit 0 is consumed, halves land on classes 2 and K
        table = bootstrap(ps("11"))
        seed = BasisElement(residue=4, coeffs=(1, 1, 0, 0), scale=1, provenance=())
        targets, _, _, provenance, point = _expand_one(seed, table)
        assert point is None
        assert targets == [2, 4]
        assert provenance == (0,)

    def test_point_values_match_exact_correlations(self):
        # every point value produced anywhere in the closure equals the
        # modulus times the correlation at the shift spelled by the digit
        # trail: two independent routes to the same rational
        for text in ("11", "10,11", "1,101"):
            a = ps(text)
            table = bootstrap(a)
            K = table.modulus
            stride = K // 2
            seen = 0
            frontier = deque(
                BasisElement(t, (1,) * stride + (0,) * stride, 1, ())
                for t in range(1, K + 1)
            )
            while frontier and seen < 120:
                element = frontier.popleft()
                targets, coeffs, scale, provenance, point = _expand_one(element, table)
                if point is not None:
                    shift = witness_from_provenance(provenance, 2)
                    assert point == K * table.correlation(shift), (text, shift)
                    seen += 1
                frontier.extend(BasisElement(t, coeffs, scale, provenance) for t in targets)

    def test_evaluate_at_zero(self):
        table = bootstrap(ps("1"))
        # the low half counts constants, the high half weights the entry
        # table, and the scale is over base**depth
        assert evaluate_at_zero((1, 0), 1, 0, table) == 2
        assert evaluate_at_zero((0, 1), 1, 0, table) == F(-1) + F(1, 3)
        assert evaluate_at_zero((-1, 0), 1, 2, table) == F(-1, 2)

    def test_evaluate_at_zero_matches_full_width(self):
        rng = random.Random(31)
        for table in _random_tables(rng):
            base, K = table.base, table.modulus
            for _ in range(10):
                coeffs = _compressed(rng, 2 * K // base)
                scale, depth = rng.randint(1, 50), rng.randint(0, 3)
                full = _tile(coeffs, base)
                expected = F(sum(full[:K])) + sum(
                    F(c * n, table.denominator) for c, n in zip(full[K:], table.numerators)
                )
                value = evaluate_at_zero(coeffs, scale, depth, table)
                assert value == F(scale, base**depth) * expected


class TestDecide:
    def test_single_digit_is_correlated(self):
        decision = decide(ps("1"))
        assert not decision.noncorrelated
        assert decision.witness_shift == 1
        assert decision.witness_value == F(-1, 3)
        assert decision.elements_created == 2
        assert decision.expansions == 1

    def test_double_digit_is_noncorrelated(self):
        decision = decide(ps("11"))
        assert decision.noncorrelated
        assert decision.witness_shift is None
        assert decision.witness_value is None
        assert decision.elements_created == 14
        assert decision.expansions == 14

    def test_empty_set_is_correlated_at_one(self):
        decision = decide(ps(""))
        assert not decision.noncorrelated
        assert decision.witness_shift == 1
        assert decision.witness_value == 1

    def test_trailing_zero_twist_is_noncorrelated(self):
        assert decide(ps("10")).noncorrelated

    def test_witness_is_minimal(self):
        # whenever a witness is reported, every smaller positive shift has
        # vanishing correlation
        for mask in range(1, 1 << 7, 5):
            a = PatternSet.from_mask(2, 3, mask << 1)
            decision = decide(a)
            if decision.noncorrelated:
                continue
            table = bootstrap(a)
            for m in range(1, decision.witness_shift):
                assert table.correlation(m) == 0, (str(a), m)
            assert table.correlation(decision.witness_shift) == decision.witness_value

    def test_noncorrelated_verdict_is_sound(self):
        # exact sweep well past the modulus
        for text in ("11", "10", "101,111", "1,101,111"):
            a = ps(text)
            decision = decide(a)
            assert decision.noncorrelated
            table = bootstrap(a)
            K = table.modulus
            for m in range(1, 3 * K + 1):
                assert table.correlation(m) == 0, (text, m)

    def test_verdict_string(self):
        assert decide(ps("1")).verdict == "correlated"
        assert decide(ps("11")).verdict == "noncorrelated"

    def test_record_shapes(self):
        record = decide(ps("1")).to_record()
        assert record == {
            "verdict": "correlated",
            "witness_shift": 1,
            "witness_value": "-1/3",
            "elements_created": 2,
            "expansions": 1,
        }
        record = decide(ps("11")).to_record()
        assert record == {
            "verdict": "noncorrelated",
            "elements_created": 14,
            "expansions": 14,
        }

    def test_level_invariance(self):
        # the verdict and the witness belong to the sequence: the
        # per-class closure run at a modulus above base**length finds
        # the same ones as decide
        for a in [*_binary_up_to_three(), *_base_three_two_digit()]:
            decision = decide(a)
            for level in (a.length, a.length + 1, a.length + 2):
                wide, _ = _decide_per_class(a, level)
                assert wide.noncorrelated == decision.noncorrelated, (str(a), level)
                assert wide.witness_shift == decision.witness_shift, (str(a), level)
                assert wide.witness_value == decision.witness_value, (str(a), level)

    @given(st.integers(min_value=0, max_value=(1 << 15) - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_exact_sweep(self, mask):
        a = PatternSet.from_mask(2, 4, mask << 1)
        decision = decide(a)
        table = bootstrap(a)
        K = table.modulus
        swept = [m for m in range(1, 2 * K + 1) if table.correlation(m) != 0]
        if decision.noncorrelated:
            assert swept == []
        else:
            if swept:
                assert decision.witness_shift == swept[0]
            assert table.correlation(decision.witness_shift) == decision.witness_value


    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_exact_sweep_in_bases_two_to_four(self, data):
        base, length = data.draw(
            st.sampled_from(((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)))
        )
        mask = data.draw(st.integers(min_value=0, max_value=(1 << (base**length - 1)) - 1))
        a = PatternSet.from_mask(base, length, mask << 1)
        decision = decide(a)
        table = bootstrap(a)
        K = table.modulus
        swept = [m for m in range(1, 2 * K + 1) if table.correlation(m) != 0]
        assert decision.noncorrelated == (decision.witness_shift is None)
        if decision.noncorrelated:
            assert swept == []
            return
        # the witness is the smallest shift with a nonzero correlation
        if swept:
            assert decision.witness_shift == swept[0]
        else:
            assert decision.witness_shift > 2 * K
        assert decision.witness_value == table.correlation(decision.witness_shift) != 0


class TestLargerClosures:
    # counters of closures whose classes pass the switch to the array
    # kernel, as the sequential list kernel produced them

    @pytest.mark.parametrize("length, expansions", [(3, 62), (4, 254), (5, 1022)])
    def test_binary_saturated_counters(self, length, expansions):
        # all words 1u1 of the length
        decision = decide(saturated_family_from_hadamard(sylvester_hadamard(2), length))
        K = 2**length
        assert decision.noncorrelated
        assert decision.elements_created == K * K - 2
        assert decision.expansions == expansions

    @pytest.mark.parametrize(
        "length, calls, accepted", [(4, 254, 119), (5, 1022, 495), (6, 4094, 2015)]
    )
    def test_span_tests_per_decision(self, length, calls, accepted, monkeypatch):
        # one span test per expansion, and one accepted row per base
        # children past the K seeded elements; the seeds are stored
        # without a test.  decide tests
        # each layer's children in one call, so these count layer rows.
        results = []
        insert_layer = ResidueBasis.insert_layer

        def counted_layer(basis, groups, vectors):
            grew = insert_layer(basis, groups, vectors)
            results.extend(grew.tolist())
            return grew

        monkeypatch.setattr(ResidueBasis, "insert_layer", counted_layer)
        decision = decide(saturated_family_from_hadamard(sylvester_hadamard(2), length))
        assert decision.noncorrelated
        assert len(results) == calls == decision.expansions
        assert sum(results) == accepted == (decision.elements_created - 2**length) // 2

    def test_base_four_hadamard_family_records(self):
        matrix = sylvester_hadamard(4)
        assert decide(saturated_family_from_hadamard(matrix, 2)).to_record() == {
            "verdict": "noncorrelated",
            "elements_created": 124,
            "expansions": 124,
        }
        assert decide(saturated_family_from_hadamard(matrix, 3)).to_record() == {
            "verdict": "noncorrelated",
            "elements_created": 2044,
            "expansions": 2044,
        }

    def test_base_three_record(self):
        # an odd base has no saturated sets, and all 255 base-3 sets of
        # two-digit words are correlated; this one has the largest closure
        assert decide(ps("01,11,12,20,21,22", 3)).to_record() == {
            "verdict": "correlated",
            "elements_created": 12,
            "expansions": 2,
            "witness_shift": 2,
            "witness_value": "7/27",
        }


class TestCapacity:
    def test_storage_stays_bounded(self):
        for mask in range(0, 1 << 7, 3):
            a = PatternSet.from_mask(2, 3, mask << 1)
            decision = decide(a)
            K = 2 ** a.length
            assert decision.elements_created <= 2 * K * (K + 1)

    def test_group_rows_account_for_every_element(self, monkeypatch):
        # each stored group row stands for one element in each of the
        # base classes of its group; a count that disagrees is an error
        monkeypatch.setattr(
            ResidueBasis, "rows_of", lambda basis, residues: np.ones(len(residues), dtype=int)
        )
        with pytest.raises(InternalConsistencyError):
            decide(ps("11"))


class TestWitnessCrossCheck:
    @pytest.mark.parametrize(
        "text, base, shift, value, expansions",
        [
            # witnesses on the first step, read off the ratio
            pytest.param("1", 2, 1, F(-1, 3), 1, id="1-1-1"),
            pytest.param("12", 3, 1, F(5, 9), 1, id="12-1-1-base3"),
            pytest.param("13", 4, 1, F(2, 3), 1, id="13-1-1-base4"),
            # a length-4 set whose witness comes in the second layer
            pytest.param("0010,0101,1001,1011", 2, 2, F(1, 16), 19, id="0010,0101,1001,1011-2-19"),
        ],
    )
    def test_wrong_correlation_is_caught(self, text, base, shift, value, expansions, monkeypatch):
        # the form value at 0 must equal K times the correlation the
        # table computes; a table that doubles it fails the check
        decision = decide(ps(text, base))
        assert (decision.witness_shift, decision.witness_value) == (shift, value)
        assert decision.expansions == expansions
        correlation = decider.CorrelationTable.correlation

        def doubled(table, m):
            return 2 * correlation(table, m)

        monkeypatch.setattr(decider.CorrelationTable, "correlation", doubled)
        with pytest.raises(InternalConsistencyError):
            decide(ps(text, base))


def _decide_per_class(pattern_set, level=None):
    """Reference: the full-width closure with one row space for every residue class.

    Runs on _expand_by_digit at K = base**level, level the length by
    default.  Returns the decision and the basis, whose class t in 1..K
    must hold the rows that decide keeps for the carry group
    t % (K / base), tiled back to full width; its class 0 stays empty.
    """
    table = bootstrap(pattern_set, level)
    base, modulus = table.base, table.modulus
    basis = ResidueBasis(modulus + 1, 2 * modulus)
    queue = deque()
    seed = (1,) * modulus + (0,) * modulus
    # classes 1..K are distinct, so one call inserts as K single inserts would
    assert basis.insert_layer(range(1, modulus + 1), [seed] * modulus).all()
    queue.extend(BasisElement(t, seed, 1, ()) for t in range(1, modulus + 1))
    created = modulus
    expansions = 0
    while queue:
        element = queue.popleft()
        expansions += 1
        targets, coeffs, scale, provenance, point = _expand_by_digit(element, table)
        if point is not None and point != 0:
            decision = decider._correlated_decision(
                table, provenance, point, created, expansions
            )
            return decision, basis
        accepted = basis.insert_layer(targets, [coeffs] * len(targets))
        for residue in np.asarray(targets)[accepted].tolist():
            numerator = scale * base ** len(provenance)
            queue.append(BasisElement(residue, coeffs, int(numerator), provenance))
            created += 1
    return Decision(True, None, None, created, expansions), basis


def _binary_up_to_three():
    for length in (1, 2, 3):
        for mask in range(1 << (2**length - 1)):
            yield PatternSet.from_mask(2, length, mask << 1)


def _binary_four_sample():
    rng = random.Random(41)
    for _ in range(300):
        yield PatternSet.from_mask(2, 4, rng.randrange(1 << 15) << 1)


def _base_three_two_digit():
    for mask in range(1, 1 << 8):
        yield PatternSet.from_mask(3, 2, mask << 1)


def _base_four_hadamard():
    for length in (2, 3):
        yield saturated_family_from_hadamard(sylvester_hadamard(4), length)
        yield random_hadamard_family(4, length, random.Random(length))


def _binary_saturated_five():
    yield saturated_family_from_hadamard(sylvester_hadamard(2), 5)


class TestMinimalWitness:
    @pytest.mark.parametrize(
        "family", [_binary_up_to_three, _base_three_two_digit, _binary_four_sample],
        ids=lambda family: family.__name__.strip("_"),
    )
    def test_witness_is_minimal_with_no_cap(self, family):
        # every shift below the witness has a vanishing correlation
        for a in family():
            decision = decide(a)
            if decision.noncorrelated:
                continue
            table = bootstrap(a)
            for m in range(1, decision.witness_shift):
                assert table.correlation(m) == 0, (str(a), m)
            assert table.correlation(decision.witness_shift) == decision.witness_value != 0

    def test_refinement_asks_no_shift_of_fewer_digits(self, monkeypatch):
        # the first witness has the fewest digits of any, so the
        # refinement asks only the shifts with its digit count below it
        asked = []
        correlation = decider.CorrelationTable.correlation

        def spied(table, m):
            asked.append(m)
            return correlation(table, m)

        monkeypatch.setattr(decider.CorrelationTable, "correlation", spied)
        deep = 0
        for a in [*_binary_four_sample(), *_base_three_two_digit()]:
            asked.clear()
            decision = decide(a)
            if decision.noncorrelated:
                continue
            digits = len(np.base_repr(decision.witness_shift, a.base))
            assert asked and min(asked) >= a.base ** (digits - 1), (str(a), asked)
            deep += digits > 1
        assert deep > 10


class TestGroupedClosure:
    @pytest.mark.parametrize(
        "family",
        [
            _binary_up_to_three,
            _binary_four_sample,
            _base_three_two_digit,
            _base_four_hadamard,
            _binary_saturated_five,
        ],
        ids=lambda family: family.__name__.strip("_"),
    )
    def test_matches_per_class_closure(self, family, monkeypatch):
        grouped = []

        class Recorded(ResidueBasis):
            def __init__(self, classes, width):
                super().__init__(classes, width)
                grouped.append(self)

        monkeypatch.setattr(decider, "ResidueBasis", Recorded)
        for a in family():
            grouped.clear()
            record = json.dumps(decide(a).to_record())
            expected, per_class = _decide_per_class(a)
            assert record == json.dumps(expected.to_record()), str(a)
            modulus = per_class.width // 2
            if not grouped:
                # the closure stopped on its first step, before it seeded
                # its groups for a span test
                assert expected.expansions == 1
                assert per_class.rows_of(np.arange(modulus + 1)).sum() == modulus
                continue
            (basis,) = grouped
            stride = modulus // a.base
            assert basis.width == 2 * stride
            # each class holds its group's rows, tiled back to full
            # width, so a group's classes agree
            for t in range(1, modulus + 1):
                rows = [_full_row(*row, a.base) for row in basis.stored_rows(t % stride)]
                assert per_class.stored_rows(t) == rows, (str(a), t)
            total = per_class.rows_of(np.arange(modulus + 1)).sum()
            assert total == a.base * basis.rows_of(np.arange(stride)).sum()


def _decide_per_element(pattern_set):
    """Reference: the closure one element at a time, with one span test per child.

    A queue of elements, one _expand_one step and one
    ResidueBasis.insert for each.  Returns the decision, the basis, and
    the elements the last expansion's layer had created before it.
    """
    table = bootstrap(pattern_set)
    base, modulus = table.base, table.modulus
    stride = modulus // base
    basis = ResidueBasis(stride, 2 * stride)
    seed = (1,) * stride + (0,) * stride
    for group in range(stride):
        basis.insert(group, seed)
    queue = deque(BasisElement(t, seed, 1, ()) for t in range(1, modulus + 1))
    created = modulus
    expansions = 0
    depth = created_in_layer = 0
    while queue:
        element = queue.popleft()
        expansions += 1
        if len(element.provenance) > depth:
            depth, created_in_layer = len(element.provenance), 0
        targets, coeffs, scale, provenance, point = _expand_one(element, table)
        if point is not None and point != 0:
            decision = decider._correlated_decision(
                table, provenance, point, created, expansions
            )
            return decision, basis, created_in_layer
        if basis.insert(targets[0] % stride, coeffs):
            queue.extend(BasisElement(t, coeffs, scale, provenance) for t in targets)
            created += len(targets)
            created_in_layer += len(targets)
    return Decision(True, None, None, created, expansions), basis, created_in_layer


@pytest.fixture
def layered(monkeypatch):
    """Compare decide with the per-element loop: the same record and the same rows.

    Returns a check that decides a set both ways, asserts the same
    record JSON and the same rows in every group, and returns the
    per-element decision, the elements its last layer created before it
    stopped, and the groups whose span tests decide ran on Python ints.
    """
    made = []

    class Recorded(ResidueBasis):
        def __init__(self, classes, width):
            super().__init__(classes, width)
            made.append(self)

    monkeypatch.setattr(decider, "ResidueBasis", Recorded)
    moved = _count_exact_runs(monkeypatch)

    def check(pattern_set):
        made.clear()
        moved.clear()
        record = json.dumps(decide(pattern_set).to_record())
        moves = list(moved)
        expected, per_element, created_in_layer = _decide_per_element(pattern_set)
        assert record == json.dumps(expected.to_record()), str(pattern_set)
        stride = per_element.width // 2
        if not made:
            # stopped on the first step, before the groups were seeded
            assert expected.expansions == 1
            assert per_element.rows_of(np.arange(stride)).sum() == stride
            return expected, created_in_layer, moves
        (basis,) = made
        for group in range(stride):
            assert basis.stored_rows(group) == per_element.stored_rows(group), (
                str(pattern_set),
                group,
            )
        return expected, created_in_layer, moves

    return check


class TestLayeredClosure:
    @pytest.mark.parametrize(
        "family",
        [
            _binary_up_to_three,
            _binary_four_sample,
            _base_three_two_digit,
            _base_four_hadamard,
            _binary_saturated_five,
        ],
        ids=lambda family: family.__name__.strip("_"),
    )
    def test_matches_per_element_loop(self, family, layered):
        for a in family():
            layered(a)

    def test_groups_on_python_ints_match(self, layered):
        # merges past the int64 bound send groups of this family to
        # Python ints, in the layer tests as in the per-element loop
        decision, _, moves = layered(random_hadamard_family(4, 3, random.Random(416)))
        assert decision.noncorrelated
        assert moves

    def test_binary_length_seven(self, layered):
        # K = 128: 64 groups of rows of width 128
        decision, _, _ = layered(saturated_family_from_hadamard(sylvester_hadamard(2), 7))
        assert decision.noncorrelated
        assert decision.elements_created == 128 * 128 - 2

    def test_stop_after_accepted_children_of_its_layer(self, layered):
        # correlated sets whose first nonzero value at 0 comes after the
        # first layer, behind children that layer has already accepted:
        # created and expansions count only what came before the stop
        rng = random.Random(401)
        stopped_late = 0
        for _ in range(300):
            a = PatternSet.from_mask(2, 4, rng.randrange(1 << 15) << 1)
            decision, created_in_layer, _ = layered(a)
            if not decision.noncorrelated and decision.expansions > 16:
                stopped_late += created_in_layer > 0
        assert stopped_late >= 30


def _census_three():
    # every candidate of census(2, 3)
    for mask in range(1 << 7):
        yield PatternSet.from_mask(2, 3, mask << 1)


def _theorem_c_four_pool():
    # every candidate of check_theorem_c(4): K runs from 2 to 16
    pool = ["1"] + ["1" + "".join(u) + "1" for mid in range(3) for u in product("01", repeat=mid)]
    for mask in range(1 << len(pool)):
        yield ps(",".join(w for b, w in enumerate(pool) if mask >> b & 1))


def _binary_five_sample():
    rng = random.Random(517)
    for _ in range(60):
        yield PatternSet.from_mask(2, 5, rng.randrange(1 << 31) << 1)
    yield saturated_family_from_hadamard(sylvester_hadamard(2), 5)


def _base_four_three():
    rng = random.Random(43)
    yield saturated_family_from_hadamard(sylvester_hadamard(4), 3)
    yield random_hadamard_family(4, 3, random.Random(3))
    for _ in range(6):
        yield PatternSet.from_mask(4, 3, rng.randrange(1 << 63) << 1)


@pytest.fixture
def batched(monkeypatch):
    """Decide sets with decide_many, recording the rows each set's groups held at the end of its batch.

    Returns a function that takes the batches, lists of sets, and
    returns each set's decision and, for a set whose closure ran
    layers, the rows of its groups, keyed by the set's position in the
    concatenated batches.
    """
    made = []

    class Recorded(ResidueBasis):
        def __init__(self, classes, width):
            super().__init__(classes, width)
            made.append(self)

    monkeypatch.setattr(decider, "ResidueBasis", Recorded)
    layers, tables_of = decider._layers, {}

    def recorded(tables):
        decisions = layers(tables)
        basis = made[-1]
        stride = basis.width // 2
        for k, table in enumerate(tables):
            classes = range(k * stride, (k + 1) * stride)
            rows = [basis.stored_rows(c) for c in classes]
            tables_of[id(table)] = (table, rows)
        return decisions

    monkeypatch.setattr(decider, "_layers", recorded)
    made_tables = []
    monkeypatch.setattr(
        decider, "bootstrap", lambda s: made_tables.append(bootstrap(s)) or made_tables[-1]
    )

    def run(batches):
        decisions, rows = [], []
        for batch in batches:
            made_tables.clear()
            tables_of.clear()
            decisions.extend(decider.decide_many(batch))
            # decide_many bootstraps each (base, K) group in input order
            keyed = {}
            for s in batch:
                keyed.setdefault((s.base, s.base**s.length), []).append(s)
            order = [s for group in keyed.values() for s in group]
            found = {id(s): tables_of.get(id(t), (None, None))[1] for s, t in zip(order, made_tables)}
            rows.extend(found[id(s)] for s in batch)
        return decisions, rows

    return run


class TestBatchedClosure:
    @pytest.mark.parametrize(
        "family",
        [_census_three, _theorem_c_four_pool, _binary_five_sample, _base_three_two_digit, _base_four_three],
        ids=lambda family: family.__name__.strip("_"),
    )
    def test_batches_match_per_element_loop(self, family, batched):
        sets = list(family())
        expected = []
        for a in sets:
            decision, basis, _ = _decide_per_element(a)
            stride = basis.width // 2
            rows = [basis.stored_rows(g) for g in range(stride)]
            expected.append((json.dumps(decision.to_record()), rows))
        shuffled = list(range(len(sets)))
        random.Random(7).shuffle(shuffled)
        runs = [[sets[lo : lo + size] for lo in range(0, len(sets), size)] for size in (1, 2, 7)]
        runs += [[sets], [[sets[i] for i in shuffled]]]
        for run, batches in enumerate(runs):
            decisions, rows = batched(batches)
            order = shuffled if run == len(runs) - 1 else range(len(sets))
            for i, decision, held in zip(order, decisions, rows):
                record, oracle_rows = expected[i]
                assert json.dumps(decision.to_record()) == record, (run, str(sets[i]))
                if held is None:
                    # stopped on its first step, before its groups took a row
                    assert decision.expansions == 1
                else:
                    assert held == oracle_rows, (run, str(sets[i]))

    def test_python_int_groups_stay_in_their_set(self, batched, monkeypatch):
        # merges past the int64 bound send this family's groups to Python
        # ints; in a batch with K = 64 base-4 sets whose groups stay on
        # int64 when decided alone, only its own classes run exact
        moved = _count_exact_runs(monkeypatch)
        wide = random_hadamard_family(4, 3, random.Random(416))
        others = list(_base_four_three())
        del others[1]
        for a in others:
            decide(a)
        assert not moved
        batch = others[:2] + [wide] + others[2:]
        layered = []
        layers = decider._layers
        monkeypatch.setattr(
            decider, "_layers", lambda tables, *rest: layered.append(tables) or layers(tables, *rest)
        )
        decisions, _ = batched([batch])
        exact = set(moved)
        for a, decision in zip(batch, decisions):
            assert decision.to_record() == _decide_per_element(a)[0].to_record(), str(a)
        (tables,) = layered
        (k,) = [k for k, t in enumerate(tables) if t.factor == bootstrap(wide).factor]
        stride = 16
        assert exact and {c // stride for c in exact} == {k}

    def test_layer_of_several_sets(self):
        # one step of a layer that mixes sets signs each element by its own set
        rng = random.Random(47)
        sets = [PatternSet.from_mask(2, 3, rng.randrange(1 << 7) << 1) for _ in range(5)]
        tables = [bootstrap(a) for a in sets]
        K = 8
        rows = [_compressed(rng, 8) for _ in range(30)]
        owners = sorted(rng.randrange(len(sets)) for _ in rows)
        residues = [rng.randint(1, K) for _ in rows]
        children, contents = expand_element(
            np.array(residues),
            np.array(owners),
            np.array(rows, dtype=object),
            np.arange(len(rows)),
            decider._ratios(tables),
            2,
        )
        for i, child, content in zip(range(len(rows)), children, contents):
            _, coeffs, scale, _, _ = _expand_one(BasisElement(residues[i], rows[i], 1, ()), tables[owners[i]])
            assert tuple(int(x) for x in child) == coeffs
            assert int(content) == scale

    def test_decide_many_keeps_input_order(self):
        sets = [ps("1,101,111"), ps("1", 3), ps("11"), ps("0010,0101,1001,1011"), ps("")]
        assert decider.decide_many(sets) == [decide(a) for a in sets]
        assert decider.decide_many([]) == []


def _first_step_sets():
    # sets of bases 2, 3 and 4 at levels from their length up to length + 2
    rng = random.Random(61)
    counts = {(2, 1): 1, (2, 2): 3, (2, 3): 8, (2, 4): 8, (3, 1): 2, (3, 2): 8, (4, 1): 3, (4, 2): 6}
    for (base, length), count in counts.items():
        for _ in range(count):
            a = PatternSet.from_mask(base, length, rng.randrange(1, 1 << (base**length - 1)) << 1)
            for level in range(a.length, a.length + 3):
                yield a, level


class TestFirstStep:
    def test_matches_the_step_on_the_seed(self):
        # the child of the seed on class 1, read off the ratio, is the
        # one the closure step makes, whose content is 1; its value at 0
        # is K times the correlation at shift 1
        seen = set()
        for a, level in _first_step_sets():
            table = bootstrap(a, level)
            base, K = table.base, table.modulus
            stride = K // base
            children, contents = expand_element(
                np.array([1]),
                np.array([0]),
                np.array([(1,) * stride + (0,) * stride]),
                np.array([0]),
                decider._ratios([table]),
                base,
            )
            coeffs = decider._first_step(table)
            assert coeffs == children[0].tolist() and contents.tolist() == [1], (str(a), level)
            assert evaluate_at_zero(coeffs, 1, 1, table) == K * table.correlation(1)
            seen.add((base, level - a.length))
        assert seen == {(b, extra) for b in (2, 3, 4) for extra in range(3)}

    def test_sets_settled_there_make_no_numpy_step(self, monkeypatch):
        sets = [ps("1"), ps("12", 3), ps("13", 4)]
        sets += [PatternSet.from_mask(2, 4, mask << 1) for mask in range(1, 60)]
        expected = [decide(a) for a in sets]
        settled = [(a, d) for a, d in zip(sets, expected) if d.expansions == 1]
        assert len(settled) > 40

        def refused(*args, **kwargs):
            raise AssertionError("a numpy step for a set settled at its first step")

        for name in ("expand_element", "_ratios", "ResidueBasis"):
            monkeypatch.setattr(decider, name, refused)
        assert decide(ps("1")) == expected[0]
        assert decider.decide_many([a for a, _ in settled]) == [d for _, d in settled]
