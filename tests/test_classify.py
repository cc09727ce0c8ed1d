import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patcorr.classify import (
    HadamardMatrix,
    census,
    check_theorem_c,
    is_saturated,
    random_hadamard_family,
    random_saturated_superset,
    saturated_family_from_hadamard,
    saturation_violation,
    sylvester_hadamard,
)
from patcorr.correlation import bootstrap
from patcorr.decider import decide
from patcorr.pattern_sets import PatternSet, PeriodicFactor, to_constant_length, twist
from patcorr.words import Word


def ps(text, base=2):
    return PatternSet.parse(text, base)


class TestSaturation:
    def test_pair_set_is_saturated(self):
        assert is_saturated(ps("11"))
        assert is_saturated(ps("1,11"))

    def test_full_layers_are_saturated(self):
        assert is_saturated(ps("101,111"))
        assert is_saturated(ps("1001,1011,1101,1111"))

    def test_triple_is_not(self):
        assert saturation_violation(ps("111")) == (Word.parse("0", 2), 0, 1)

    def test_leading_zero_form_is_reduced_first(self):
        # 011,111 reduces to the pair set
        assert is_saturated(ps("011,111"))

    def test_odd_base_never_saturated(self):
        assert saturation_violation(PatternSet.parse("12", 3)) == (Word(3, ()), 0, 1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            saturation_violation(ps("1"))

    def test_trailing_zero_rejected(self):
        with pytest.raises(ValueError):
            saturation_violation(ps("10"))

    def test_agrees_with_verdict_on_self_invariant_sets(self):
        # spot check of the equivalence on mixed-length candidates
        for text in ("11", "1,11", "101,111", "11,111", "1,111", "111"):
            a = ps(text)
            assert is_saturated(a) == decide(a).noncorrelated, text


class TestHadamard:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16])
    def test_sylvester_is_hadamard(self, order):
        m = sylvester_hadamard(order)
        assert m.dimension == order
        assert m.is_normalized
        arr = np.array(m.entries)
        assert np.array_equal(arr.T @ arr, order * np.eye(order, dtype=int))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sylvester_hadamard(3)
        with pytest.raises(ValueError):
            sylvester_hadamard(0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HadamardMatrix(((1, 1),))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            HadamardMatrix(((1, 0), (1, 1)))

    def test_rejects_dependent_columns(self):
        with pytest.raises(ValueError):
            HadamardMatrix(((1, 1), (1, 1)))

    def test_non_normalized_is_a_matrix_but_no_family(self):
        flipped = HadamardMatrix(((-1, -1), (1, -1)))
        assert not flipped.is_normalized
        with pytest.raises(ValueError):
            saturated_family_from_hadamard(flipped, 2)

    def test_family_from_doubling_matrix(self):
        assert saturated_family_from_hadamard(sylvester_hadamard(2), 2) == ps("11")
        assert saturated_family_from_hadamard(sylvester_hadamard(2), 3) == ps("101,111")

    def test_base_four_family(self):
        a = saturated_family_from_hadamard(sylvester_hadamard(4), 2)
        assert str(a) == "11,13,22,23,31,32"
        assert is_saturated(a)
        assert decide(a).noncorrelated


class TestGenerators:
    def test_superset_generator_is_saturated(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_saturated_superset(rng.randint(2, 5), rng)
            assert is_saturated(a)

    def test_hadamard_generator_is_saturated(self):
        rng = random.Random(9)
        for _ in range(10):
            a = random_hadamard_family(4, rng.randint(2, 3), rng)
            assert is_saturated(a)

    def test_generators_reject_short_lengths(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_saturated_superset(1, rng)
        with pytest.raises(ValueError):
            random_hadamard_family(4, 1, rng)
        with pytest.raises(ValueError):
            random_hadamard_family(3, 2, rng)


class TestCensus:
    def test_length_one(self):
        report = census(2, 1)
        assert (report.candidates, report.noncorrelated) == (2, 0)
        assert report.by_exact_length == {}

    def test_length_two(self):
        report = census(2, 2)
        assert (report.candidates, report.noncorrelated) == (8, 4)
        assert report.by_exact_length == {2: 4}

    def test_length_three(self):
        report = census(2, 3)
        assert (report.candidates, report.noncorrelated) == (128, 40)
        assert report.by_exact_length == {2: 4, 3: 36}

    def test_self_invariant_families(self):
        report = census(2, 2, "self-invariant")
        assert (report.candidates, report.noncorrelated) == (4, 2)
        assert report.by_exact_length == {2: 2}
        report = census(2, 3, "self-invariant", keep_sets=True)
        assert (report.candidates, report.noncorrelated) == (16, 6)
        assert report.by_exact_length == {2: 2, 3: 4}
        assert report.noncorrelated_sets == [
            "11",
            "1,11",
            "101,111",
            "1,101,111",
            "11,101,111",
            "1,11,101,111",
        ]

    def test_self_invariant_length_four(self):
        report = census(2, 4, "self-invariant")
        assert (report.candidates, report.noncorrelated) == (256, 22)
        assert report.by_exact_length == {2: 2, 3: 4, 4: 16}

    def test_worker_counts_agree(self):
        # at length 1 there are 2 candidates, so 8 workers get 2 chunks;
        # 3 workers deal the 128 length-3 masks to 3 chunks unevenly
        for length, workers in ((3, 4), (3, 3), (1, 8)):
            lone = census(2, length, "all", workers=1, keep_sets=True)
            multi = census(2, length, "all", workers=workers, keep_sets=True)
            assert lone.to_record() == multi.to_record()

    def test_record_drops_timing(self):
        report = census(2, 2)
        assert report.timing is not None
        assert "timing" not in report.to_record()

    def test_rejects_other_bases(self):
        with pytest.raises(ValueError):
            census(3, 2)

    def test_rejects_unknown_selection(self):
        with pytest.raises(ValueError):
            census(2, 2, "everything")


class TestEquivalenceSweep:
    def test_tiny_sweep(self):
        report = check_theorem_c(1)
        assert report.candidates == 2
        assert report.noncorrelated_by_length == {}
        assert report.mismatches == []

    def test_length_three_sweep(self):
        report = check_theorem_c(3)
        assert report.candidates == 16
        assert report.noncorrelated_by_length == {2: 2, 3: 4}
        assert report.mismatches == []

    def test_length_four_sweep(self):
        report = check_theorem_c(4)
        assert report.candidates == 256
        assert report.noncorrelated_by_length == {2: 2, 3: 4, 4: 16}
        assert report.mismatches == []

    def test_worker_counts_agree(self):
        # 3 workers deal the 256 masks to 3 chunks unevenly
        lone = check_theorem_c(4, workers=1).to_record()
        for workers in (2, 3, 4):
            assert check_theorem_c(4, workers=workers).to_record() == lone

    def test_record_is_structured(self):
        record = check_theorem_c(2).to_record()
        assert record == {
            "max_length": 2,
            "candidates": 4,
            "noncorrelated_by_length": {"2": 2},
            "mismatches": [],
            "peak_stored": record["peak_stored"],
        }


SPAWNED_SWEEPS = """
import json
import multiprocessing

from patcorr.classify import census, check_theorem_c

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    print(json.dumps({
        "method": multiprocessing.get_start_method(),
        "census": census(2, 3, keep_sets=True, workers=2).to_record(),
        "theorem_c": check_theorem_c(3, workers=2).to_record(),
    }))
"""


def _fresh_interpreter(code):
    """Run code in a new interpreter that finds patcorr in src/; its standard output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def test_import_does_not_load_multiprocessing():
    # only a sweep with more than one worker makes a pool and imports it
    loaded = _fresh_interpreter("import sys, patcorr; print(*sorted(sys.modules))").split()
    assert "patcorr" in loaded
    assert not {"multiprocessing", "socket", "selectors"} & set(loaded)


def test_sweeps_run_under_spawn():
    spawned = json.loads(_fresh_interpreter(SPAWNED_SWEEPS))
    assert spawned["method"] == "spawn"
    assert spawned["census"] == census(2, 3, keep_sets=True).to_record()
    assert spawned["theorem_c"] == check_theorem_c(3).to_record()


class TestTwist:
    def test_pair_set_twist(self):
        twisted = twist(ps("11"), PeriodicFactor.parse("+-", 2))
        assert twisted == ps("01,10,11")

    def test_twist_twice_is_constant_length_form(self):
        factor = PeriodicFactor.parse("+-", 2)
        for text in ("11", "10", "1,11"):
            a = ps(text)
            double = twist(twist(a, factor), factor)
            assert double == to_constant_length(a, a.length)

    def test_correlations_transform_pointwise(self):
        factor = PeriodicFactor.parse("+-", 2)
        a = ps("11")
        twisted = twist(a, factor)
        plain = bootstrap(a)
        turned = bootstrap(twisted)
        for r in range(4):
            for m in range(1, 9):
                assert turned.restricted(r, m) == factor(r) * factor(r + m) * plain.restricted(r, m)

    def test_twisting_preserves_verdict_on_pair_set(self):
        twisted = twist(ps("11"), PeriodicFactor.parse("+-", 2))
        assert decide(twisted).noncorrelated

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            twist(ps("11"), PeriodicFactor.parse("-+", 2))
        with pytest.raises(ValueError):
            twist(ps("11"), PeriodicFactor.parse("+-+-", 2))
        with pytest.raises(ValueError):
            twist(ps("11"), PeriodicFactor(3, (1, -1)))
