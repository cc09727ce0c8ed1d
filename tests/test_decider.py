import json
import random
from collections import deque
from fractions import Fraction
from math import gcd, lcm

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
    DENSE_ROWS,
    BasisElement,
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


def _spiked(rng, width, spike):
    # small sparse vectors until a class has grown past the switch on
    # int64; after that, with a nonzero spike, a third of them get one
    # entry of about that size
    made = 0

    def make():
        nonlocal made
        made += 1
        vec = _sparse(rng, width)
        if spike and made > 20 and rng.random() < 0.3:
            vec[rng.randrange(width)] = rng.choice((-1, 1)) * (spike + rng.randint(0, 99))
        return tuple(vec)

    return make


def _check_against_rational(basis, rng, classes, inserts, make):
    stored = {c: [] for c in range(classes + 1)}
    inserted = 0
    for _ in range(inserts):
        cls = rng.randrange(classes + 1)
        if stored[cls] and rng.random() < 0.3:
            # an element of the span, so that grown classes meet
            # rejections too
            picks = rng.sample(stored[cls], min(3, len(stored[cls])))
            coefs = [rng.randint(-4, 4) for _ in picks]
            vec = tuple(sum(k * x for k, x in zip(coefs, col)) for col in zip(*picks))
        else:
            vec = make()
        fresh_claimed = not basis.contains(cls, vec)
        fresh_actual = not _in_span(stored[cls], vec)
        assert fresh_claimed == fresh_actual, (cls, vec, stored[cls])
        grew = basis.insert(cls, vec)
        assert grew == fresh_claimed
        if grew:
            stored[cls].append(vec)
            inserted += 1
        assert basis.rows_in(cls) == len(stored[cls])
    assert basis.total_rows == inserted
    for cls in range(classes + 1):
        assert basis.stored_rows(cls) == _canonical_rows(stored[cls])
    return stored


class TestResidueBasis:
    def test_against_rational_elimination(self, monkeypatch):
        # count the moves of a grown class from int64 to Python ints
        widened = []
        widen = decider._DenseRows._widen
        monkeypatch.setattr(
            decider._DenseRows, "_widen", lambda rows: widened.append(1) or widen(rows)
        )
        rng = random.Random(5)
        classes, width = 3, 6
        for _ in range(40):
            basis = ResidueBasis(classes, width)
            _check_against_rational(
                basis, rng, classes, 25,
                lambda: tuple(rng.randint(-3, 3) for _ in range(width)),
            )
        # classes past the switch to the array kernel.  Small entries keep
        # it on int64.  Entries near 2**31 and 2**61 fit int64, but their
        # products overflow its bounds; entries near 2**70 do not fit at
        # all.  The last three move to Python ints.
        classes, width = 1, 18
        for spike in (0, 1 << 31, 1 << 61, 1 << 70):
            widened.clear()
            for _ in range(2):
                basis = ResidueBasis(classes, width)
                stored = _check_against_rational(
                    basis, rng, classes, 70, _spiked(rng, width, spike)
                )
                assert any(len(rows) > DENSE_ROWS for rows in stored.values())
            assert bool(widened) == (spike > 0)

    def test_products_past_int64_stay_exact(self):
        # every entry fits int64, but reducing the last vector sums
        # products near 2**62 into entries far beyond it
        width = DENSE_ROWS + 4
        x, y = width - 2, width - 1
        rows = []
        for i in range(DENSE_ROWS + 1):
            row = [0] * width
            row[i], row[x], row[y] = 1, 1 << 31, 1
            rows.append(tuple(row))
        basis = ResidueBasis(1, width)
        for row in rows:
            assert basis.insert(0, row)
        vec = tuple((1 << 31) + 1 if i < DENSE_ROWS else 0 for i in range(width))
        assert not basis.contains(0, vec)
        assert basis.insert(0, vec)
        assert basis.stored_rows(0) == _canonical_rows(rows + [vec])

    def test_pivot_lcm_past_int64_stays_exact(self):
        # small rows whose pivots are distinct primes: their least common
        # multiple fits int64 when the class switches to the array, and
        # passes 2**63 with the ninth row
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
        assert basis.contains(0, inside)
        assert not basis.insert(0, inside)
        fresh = (1,) * width
        assert not basis.contains(0, fresh)
        assert basis.insert(0, fresh)
        assert basis.stored_rows(0) == _canonical_rows(rows + [fresh])

    def test_zero_vector_always_contained(self):
        basis = ResidueBasis(2, 4)
        assert basis.contains(0, (0, 0, 0, 0))
        assert not basis.insert(0, (0, 0, 0, 0))

    def test_scaling_does_not_enlarge(self):
        basis = ResidueBasis(1, 3)
        assert basis.insert(0, (2, 4, 6))
        assert basis.contains(0, (1, 2, 3))
        assert basis.contains(0, (-3, -6, -9))
        assert not basis.contains(0, (1, 2, 4))

    def test_rank_is_capped_by_width(self):
        rng = random.Random(11)
        basis = ResidueBasis(1, 4)
        for _ in range(200):
            basis.insert(0, tuple(rng.randint(-9, 9) for _ in range(4)))
        assert basis.rows_in(0) == 4

    def test_rejects_wrong_width(self):
        basis = ResidueBasis(1, 3)
        with pytest.raises(ValueError):
            basis.insert(0, (1, 2))

    def test_contains_rejects_wrong_width(self):
        # a list class would otherwise truncate the vector to its width
        basis = ResidueBasis(1, 4)
        basis.insert(0, (1, 0, 0, 0))
        for vec in ((1, 0, 0, 0, 5), (1, 0, 0)):
            with pytest.raises(ValueError):
                basis.contains(0, vec)
        width = DENSE_ROWS + 3
        basis = ResidueBasis(1, width)
        for i in range(DENSE_ROWS + 1):
            assert basis.insert(0, tuple(int(j == i) for j in range(width)))
        assert basis.rows_in(0) > DENSE_ROWS
        for size in (width - 1, width + 1):
            with pytest.raises(ValueError):
                basis.contains(0, (1,) + (0,) * (size - 1))

    def test_rows_stay_canonical(self):
        # same span reached along different insertion orders gives the
        # same stored rows, on lists and past the switch to the array
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
        vecs = [tuple(_sparse(rng, width)) for _ in range(DENSE_ROWS + 4)]
        orders = [vecs, vecs[::-1], rng.sample(vecs, len(vecs))]
        listings = []
        for order in orders:
            basis = ResidueBasis(1, width)
            for v in order:
                basis.insert(0, v)
            listings.append(basis.stored_rows(0))
        assert len(listings[0]) > DENSE_ROWS
        assert listings[0] == listings[1] == listings[2] == _canonical_rows(vecs)


def _expand_by_digit(element, table):
    """Reference: the closure step at full width, one add per coefficient and class.

    Takes an element whose coeffs hold both offset blocks in full, 2K
    entries.  Returns the children as (residue, coeffs, scale,
    provenance), with the scale as a Fraction, and the point value,
    evaluated with Fraction arithmetic on the entries.
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
            c * e for c, e in zip(child[modulus:], table.entries)
        )
        point *= scale
        targets = targets[1:] + [modulus]
    provenance = element.provenance + (digit,)
    return [(t, tuple(child), scale, provenance) for t in targets], point


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
                children, _ = _expand_by_digit(element, table)
                for _, child, _, _ in children:
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
                children, point = expand_element(element, table)
                full = BasisElement(residue, _tile(coeffs, base), scale, (1, 0))
                expected, expected_point = _expand_by_digit(full, table)
                assert [
                    (
                        c.residue,
                        _tile(c.coeffs, base),
                        F(c.scale, base ** len(c.provenance)),
                        c.provenance,
                    )
                    for c in children
                ] == expected
                assert point == expected_point

    def test_single_digit_first_step(self):
        # the shift-1 seed for the parity-of-ones set: one shared child
        # vector lands on the remaining plain class and the
        # positive-multiples class, and the zero class yields the point
        # value, twice the correlation at shift 1
        table = bootstrap(ps("1"))
        seed = BasisElement(residue=1, coeffs=(1, 0), scale=1, provenance=())
        children, point = expand_element(seed, table)
        assert point == F(-2, 3)
        assert [c.residue for c in children] == [1, 2]
        for child in children:
            assert child.coeffs == (-1, -1)
            assert F(child.scale, 2 ** len(child.provenance)) == F(1, 2)
            assert child.provenance == (1,)

    def test_even_class_has_no_point_value(self):
        # class 4 = K: digit 0 is consumed, halves land on classes 2 and K
        table = bootstrap(ps("11"))
        seed = BasisElement(residue=4, coeffs=(1, 1, 0, 0), scale=1, provenance=())
        children, point = expand_element(seed, table)
        assert point is None
        assert [c.residue for c in children] == [2, 4]
        assert children[0].provenance == (0,)

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
                children, point = expand_element(element, table)
                if point is not None:
                    shift = witness_from_provenance(children[0].provenance, 2)
                    assert point == K * table.correlation(shift), (text, shift)
                    seen += 1
                frontier.extend(children)

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
                expected = F(sum(full[:K])) + sum(c * e for c, e in zip(full[K:], table.entries))
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
        for text in ("1", "11", "10", "1,11"):
            a = ps(text)
            narrow = decide(a)
            wide = decide(a, level=a.length + 1)
            assert narrow.noncorrelated == wide.noncorrelated
            if not narrow.noncorrelated:
                assert narrow.witness_shift == wide.witness_shift
                assert narrow.witness_value == wide.witness_value

    def test_level_below_length_rejected(self):
        with pytest.raises(ValueError):
            decide(ps("101"), level=2)

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
        monkeypatch.setattr(ResidueBasis, "total_rows", property(lambda basis: 1))
        with pytest.raises(InternalConsistencyError):
            decide(ps("11"))


def _decide_per_class(pattern_set):
    """Reference: the full-width closure with one row space for every residue class.

    Runs on _expand_by_digit.  Returns the decision and the basis, whose
    class t in 1..K must hold the rows that decide keeps for the carry
    group t % (K / base), tiled back to full width.
    """
    table = bootstrap(pattern_set)
    base, modulus = table.base, table.modulus
    basis = ResidueBasis(modulus, 2 * modulus)
    queue = deque()
    seed = (1,) * modulus + (0,) * modulus
    created = 0
    for t in range(1, modulus + 1):
        basis.insert(t, seed)
        queue.append(BasisElement(t, seed, 1, ()))
        created += 1
    expansions = 0
    while queue:
        element = queue.popleft()
        expansions += 1
        children, point = _expand_by_digit(element, table)
        if point is not None and point != 0:
            provenance = element.provenance + (element.residue % base,)
            decision = decider._correlated_decision(
                table, provenance, point, created, expansions
            )
            return decision, basis
        for residue, coeffs, scale, provenance in children:
            if basis.insert(residue, coeffs):
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
            (basis,) = grouped
            modulus = per_class.width // 2
            stride = modulus // a.base
            assert basis.width == 2 * stride
            # each class holds its group's rows, tiled back to full
            # width, so a group's classes agree
            for t in range(1, modulus + 1):
                rows = [_full_row(*row, a.base) for row in basis.stored_rows(t % stride)]
                assert per_class.stored_rows(t) == rows, (str(a), t)
            assert per_class.total_rows == a.base * basis.total_rows
