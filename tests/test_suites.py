import pytest

from patcorr import suites
from patcorr.pattern_sets import PeriodicFactor, kernel_quotient
from patcorr.suites import SUITE_NAMES, run_suite


class TestRunSuite:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_names_are_stable(self):
        assert SUITE_NAMES == (
            "smoke",
            "theorem-a",
            "theorem-c",
            "saturated-props",
            "kernel-props",
        )

    def test_smoke_passes(self):
        result = run_suite("smoke")
        assert result.passed
        assert result.suite == "smoke"
        assert all(check.passed for check in result.checks)
        names = [check.name for check in result.checks]
        assert "single-digit correlation" in names
        assert "length-2 census" in names

    def test_kernel_props_pass(self):
        result = run_suite("kernel-props")
        assert result.passed
        assert len(result.checks) == 4

    def test_record_shape(self):
        record = run_suite("smoke").to_record()
        assert record["suite"] == "smoke"
        assert record["passed"] is True
        assert all(set(c) == {"name", "passed", "detail"} for c in record["checks"])


def _details(result):
    return {check.name: (check.passed, check.detail) for check in result.checks}


class TestOneReportPerFailure:
    def test_broken_cancellation_fails_only_its_check(self, monkeypatch):
        monkeypatch.setattr(suites, "check_cancellation", lambda *args: 1)
        details = _details(run_suite("saturated-props"))
        passed, detail = details.pop("cancellation sums vanish")
        assert not passed and detail.startswith("instance 0 cancellation 1 at ")
        assert details == {
            "all instances noncorrelated": (True, "100 instances"),
            "closed form matches recursion": (True, "shifts up to 2k"),
        }

    def test_broken_quotient_fails_only_its_check(self, monkeypatch):
        def negated(*args):
            quotient = kernel_quotient(*args)
            return PeriodicFactor(quotient.base, tuple(-v for v in quotient.values))

        monkeypatch.setattr(suites, "kernel_quotient", negated)
        details = _details(run_suite("kernel-props"))
        assert details == {
            "kernel quotients periodic": (False, "instance 0 quotient breaks periodicity"),
            "ratio recursion exact": (True, "n < 16384"),
            "canonical forms agree": (True, "both routes"),
            "decomposition identity": (True, "n < 16384"),
        }
