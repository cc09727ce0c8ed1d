import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patcorr.cli import (
    MAX_CANDIDATES,
    MAX_PREFIX,
    MAX_SHIFT_BITS,
    MAX_SWEEP,
    MAX_WORKERS,
    run,
)
from patcorr.correlation import correlation
from patcorr.pattern_sets import PatternSet, evaluate


def structured(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


class TestDecideCommand:
    def test_correlated(self, capsys):
        code, record = structured(capsys, ["decide", "-s", "1", "--structured"])
        assert code == 0
        assert record["verdict"] == "correlated"
        assert record["witness_shift"] == 1
        assert record["witness_value"] == "-1/3"

    def test_noncorrelated(self, capsys):
        code, record = structured(capsys, ["decide", "-s", "11", "--structured"])
        assert code == 0
        assert record == {
            "verdict": "noncorrelated",
            "elements_created": 14,
            "expansions": 14,
        }

    def test_human_output(self, capsys):
        assert run(["decide", "-s", "11"]) == 0
        assert "noncorrelated" in capsys.readouterr().out

    def test_empty_set(self, capsys):
        code, record = structured(capsys, ["decide", "-s", "", "--structured"])
        assert code == 0
        assert record["witness_shift"] == 1
        assert record["witness_value"] == "1/1"


class TestCorrelationCommand:
    def test_sweep(self, capsys):
        code, record = structured(
            capsys, ["correlation", "-s", "1", "--max-shift", "4", "--structured"]
        )
        assert code == 0
        assert record["values"] == {"1": "-1/3", "2": "-1/3", "3": "1/3", "4": "-1/3"}

    def test_single_restricted(self, capsys):
        code, record = structured(
            capsys,
            ["correlation", "-s", "11", "--shift", "1", "--residue", "2", "--structured"],
        )
        assert code == 0
        assert record["values"] == {"1": "-1/1"}
        assert record["residue"] == 2

    def test_requires_exactly_one_mode(self, capsys):
        assert run(["correlation", "-s", "1"]) == 1
        assert run(["correlation", "-s", "1", "--shift", "1", "--max-shift", "2"]) == 1

    def test_level_only_with_residue(self, capsys):
        # the full correlation is the same at every level, so --level
        # alone is refused, with the message estimate gives
        assert run(["correlation", "-s", "1", "--shift", "5", "--level", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--level sets the classes of --residue and needs it" in captured.err

    def test_deep_shift(self, capsys):
        shift = 2**900 + 1
        code, record = structured(
            capsys, ["correlation", "-s", "1", "--shift", str(shift), "--structured"]
        )
        assert code == 0
        value = correlation(PatternSet.parse("1", 2), shift)
        assert record["values"] == {str(shift): f"{value.numerator}/{value.denominator}"}

    def test_shift_bits_limit(self, capsys):
        shift = 1 << MAX_SHIFT_BITS
        assert run(["correlation", "-s", "1", "--shift", str(shift)]) == 1
        assert f"more than {MAX_SHIFT_BITS}" in capsys.readouterr().err
        assert run(["correlation", "-s", "1", "--shift", str(shift - 1)]) == 0

    def test_sweep_limit(self, capsys):
        assert run(["correlation", "-s", "1", "--max-shift", str(MAX_SWEEP + 1)]) == 1
        assert f"exceeds {MAX_SWEEP}" in capsys.readouterr().err
        # the sweep covers shifts 1..MAX, so a smaller MAX would answer nothing
        for bad in ("0", "-3"):
            assert run(["correlation", "-s", "1", "--max-shift", bad, "--structured"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "is below 1" in captured.err


class TestCensusCommand:
    def test_structured_report(self, capsys):
        code, record = structured(capsys, ["census", "--length", "2", "--structured"])
        assert code == 0
        assert record["candidates"] == 8
        assert record["noncorrelated"] == 4
        assert record["by_exact_length"] == {"2": 4}
        assert "timing" not in record

    def test_list_file(self, capsys, tmp_path):
        target = tmp_path / "sets.txt"
        code = run(
            ["census", "--length", "3", "--selection", "self-invariant", "--list", str(target)]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines == [
            "11",
            "1,11",
            "101,111",
            "1,101,111",
            "11,101,111",
            "1,11,101,111",
        ]

    def test_bad_base(self, capsys):
        assert run(["census", "--length", "2", "--base", "3"]) == 1

    def test_length_limit(self, capsys):
        # length 5 has 2**31 candidates; refused before the pool is built
        assert run(["census", "--length", "5"]) == 1
        assert f"more than {MAX_CANDIDATES} candidates" in capsys.readouterr().err


class TestSaturationCommand:
    def test_saturated(self, capsys):
        code, record = structured(capsys, ["saturation", "-s", "11", "--structured"])
        assert code == 0
        assert record == {"saturated": True}

    def test_violation_reported(self, capsys):
        code, record = structured(capsys, ["saturation", "-s", "111", "--structured"])
        assert code == 0
        assert record["saturated"] is False
        assert record["violation"] == {"middle": "0", "first": 0, "second": 1}

    def test_undefined_is_usage_error(self, capsys):
        assert run(["saturation", "-s", "1"]) == 1


class TestDecomposeCommand:
    def test_structured(self, capsys):
        code, record = structured(capsys, ["decompose", "-s", "10", "--structured"])
        assert code == 0
        assert record == {"invariant_part": "1,11", "factor": "+-"}


class TestTwistCommand:
    def test_twist(self, capsys):
        code, record = structured(
            capsys, ["twist", "-s", "11", "--factor", "+-", "--structured"]
        )
        assert code == 0
        assert record == {"twisted": "01,10,11"}

    def test_bad_factor_is_usage_error(self, capsys):
        assert run(["twist", "-s", "11", "--factor", "-+"]) == 1
        assert run(["twist", "-s", "11", "--factor", "+x"]) == 1


class TestEstimateCommand:
    def test_full_estimate(self, capsys):
        code, record = structured(
            capsys,
            ["estimate", "-s", "1", "--shift", "1", "--samples", "65536", "--structured"],
        )
        assert code == 0
        assert record["samples"] == 65536
        assert abs(record["value"] + 1 / 3) < 1e-2

    def test_restricted_estimate(self, capsys):
        code, record = structured(
            capsys,
            [
                "estimate", "-s", "11", "--shift", "1", "--residue", "0",
                "--samples", "65536", "--structured",
            ],
        )
        assert code == 0
        assert record["residue"] == 0
        assert abs(record["value"] - 1) < 1e-2

    def test_level_only_with_residue(self, capsys):
        # the plain estimate is the same at every level, so --level alone is refused
        assert run(["estimate", "-s", "1", "--shift", "1", "--level", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--residue" in captured.err

    def test_prefix_limit(self, capsys):
        # refused before any allocation, so this runs in no time
        argv = ["estimate", "-s", "1", "--shift", "1", "--samples", str(MAX_PREFIX)]
        assert run(argv) == 1
        assert f"exceeds {MAX_PREFIX}" in capsys.readouterr().err


class TestVerifyCommand:
    def test_smoke_suite(self, capsys):
        code, record = structured(capsys, ["verify", "--suite", "smoke", "--structured"])
        assert code == 0
        assert record["passed"] is True

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "--suite", "bogus"]) == 1


class TestParsing:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_workers_limit(self, capsys):
        # refused before any process starts
        for argv in (["census", "--length", "2"], ["verify", "--suite", "smoke"]):
            assert run(argv + ["--workers", str(MAX_WORKERS + 1)]) == 1
            assert f"exceeds {MAX_WORKERS}" in capsys.readouterr().err
            for bad in ("0", "-1"):
                assert run(argv + ["--workers", bad]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "is below 1" in captured.err

    def test_bad_set_text(self, capsys):
        assert run(["decide", "-s", "12"]) == 1
        assert run(["decide", "-s", "00"]) == 1

    def test_bad_level(self, capsys):
        argv = ["correlation", "-s", "101", "--shift", "1", "--level", "1", "--residue", "0"]
        assert run(argv) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "-s", "11"],
            ["saturation", "-s", "11"],
            ["decompose", "-s", "10"],
            ["twist", "-s", "11", "--factor", "+-"],
        ],
        ids=["decide", "saturation", "decompose", "twist"],
    )
    def test_level_only_where_it_is_used(self, capsys, argv):
        # these commands answer for the sequence alone, so --level is unknown
        assert run(argv + ["--level", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--level" in captured.err

    def test_large_level_rejected_before_work(self, capsys):
        argv = ["correlation", "-s", "1", "--shift", "1", "--level", "22", "--residue", "0"]
        assert run(argv) == 1
        assert "exceeds 256" in capsys.readouterr().err

    def test_long_word_rejected_before_work(self, capsys):
        assert run(["decide", "-s", "1" + "0" * 5000 + "1"]) == 1
        assert "exceeds 256" in capsys.readouterr().err

    def test_largest_modulus_accepted(self, capsys):
        argv = ["correlation", "-s", "1", "--shift", "1", "--level", "8", "--residue", "0"]
        code, record = structured(capsys, argv + ["--structured"])
        assert code == 0
        assert record["level"] == 8
        # n = 0 mod 256 ends in the digit 0, so n + 1 has one more 1:
        # every term a(n) a(n + 1) of the class, so their average, is -1
        parity = PatternSet.parse("1", 2)
        terms = {evaluate(parity, n) * evaluate(parity, n + 1) for n in range(0, 1 << 14, 256)}
        assert terms == {-1}
        assert record["values"] == {"1": "-1/1"}


# every input the command line refuses: (id, argv, a piece of the error
# line); {tmp} stands for a fresh directory
BAD_INPUTS = [
    ("unknown-command", ["frobnicate"], "invalid choice"),
    ("missing-set", ["decide", "--structured"], "required: -s/--set"),
    ("not-an-int", ["census", "--length", "x"], "invalid int value"),
    ("unknown-suite", ["verify", "--suite", "bogus"], "invalid choice"),
    ("negative-shift", ["correlation", "-s", "1", "--shift", "-1"], "shift must be nonnegative"),
    (
        "negative-restricted-shift",
        ["correlation", "-s", "1", "--shift", "-1", "--residue", "0", "--structured"],
        "shift must be nonnegative",
    ),
    (
        "residue-out-of-range",
        ["correlation", "-s", "11", "--shift", "1", "--residue", "4"],
        "residue must lie in [0, 4)",
    ),
    ("census-base", ["census", "--length", "2", "-k", "3"], "base 2 only"),
    ("modulus-cap", ["decide", "-s", "1000000001"], "exceeds 256"),
    (
        "shift-bits-cap",
        ["correlation", "-s", "1", "--shift", str(1 << MAX_SHIFT_BITS)],
        f"more than {MAX_SHIFT_BITS}",
    ),
    (
        "sweep-cap",
        ["correlation", "-s", "1", "--max-shift", str(MAX_SWEEP + 1)],
        f"exceeds {MAX_SWEEP}",
    ),
    (
        "workers-cap",
        ["verify", "--suite", "smoke", "--workers", str(MAX_WORKERS + 1)],
        f"exceeds {MAX_WORKERS}",
    ),
    ("family-cap", ["census", "--length", "5"], f"more than {MAX_CANDIDATES} candidates"),
    (
        "prefix-cap",
        ["estimate", "-s", "1", "--shift", "1", "--samples", str(MAX_PREFIX)],
        f"exceeds {MAX_PREFIX}",
    ),
    ("list-to-directory", ["census", "--length", "2", "--list", "{tmp}"], "Is a directory"),
    (
        "list-to-missing-directory",
        ["census", "--length", "2", "--list", "{tmp}/missing/sets.txt", "--structured"],
        "No such file or directory",
    ),
]


def _one_error_line(err: str, piece: str) -> None:
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ") and piece in line


class TestBadInputs:
    @pytest.mark.parametrize(
        "argv, piece", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
    )
    def test_exit_1_with_one_error_line(self, capsys, tmp_path, argv, piece):
        assert run([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_error_line(captured.err, piece)

    def test_refused_census_writes_no_list(self, capsys, tmp_path):
        target = tmp_path / "sets.txt"
        assert run(["census", "--length", "2", "-k", "3", "--list", str(target)]) == 1
        _one_error_line(capsys.readouterr().err, "base 2 only")
        assert not target.exists()

    def test_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", "patcorr", "census", "--length", "2", "--list", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        _one_error_line(done.stderr, "Is a directory")
