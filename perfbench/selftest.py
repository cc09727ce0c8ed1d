"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny profile, untraced and traced, and fails
unless each run prints, as its last line, a JSON result whose metrics
are exactly the ones BENCHMARK.json declares for that mode, each with
its declared unit; unless every output check of the workload was
reached; and unless the outputs are correct.  It also checks that
run.py and tracer.py declare the same metrics as BENCHMARK.json, and
that a wrong verdict makes a check fail.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import run
import workloads
from tracer import LAYER_METRICS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(section: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_tiny(workload: str, trace: int) -> tuple[int, list[str]]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, profile="tiny")
    return code, out.getvalue().splitlines()


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    problems = []
    code, lines = run_tiny(workload, trace)
    result = json.loads(lines[-1])
    where = f"{workload} --trace {trace}"
    if code != 0 or result["correct"] is not True:
        problems.append(f"{where}: exit {code}, correct {result['correct']}: {lines[:-1]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: printed metrics {printed}, declared {expected}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']}")
    for name in workloads.WORKLOADS[workload].checks:
        if not any(line.startswith(f"check {name}: ") for line in lines):
            problems.append(f"{where}: check {name!r} was not reported")
        elif any(line.startswith(f"check {name}: 0 compared, 0 skipped") for line in lines):
            problems.append(f"{where}: check {name!r} was never reached")
    return problems


def check_wrong_verdict_is_caught() -> list[str]:
    workload = workloads.WORKLOADS["census-l4"]
    inputs = workloads.make_inputs("census-l4", 7, "tiny")
    decisions, small, theorem_c = workload.run_pass(inputs, workloads.PassRecord())
    first = decisions[0]
    decisions[0] = dataclasses.replace(first, noncorrelated=not first.noncorrelated)
    checker = workloads.Checker()
    workload.check(inputs, (decisions, small, theorem_c), checker)
    if not checker.failures:
        return ["a flipped census-l4 verdict passed every check"]
    return []


def main() -> int:
    end_to_end = declared("end_to_end")
    per_layer = declared("per_layer")
    problems = []
    if end_to_end != dict(run.END_TO_END):
        problems.append(f"run.py end-to-end metrics differ from BENCHMARK.json: {run.END_TO_END}")
    if per_layer != dict(LAYER_METRICS):
        problems.append("tracer.py per-layer metrics differ from BENCHMARK.json")
    spec = json.loads(BENCHMARK.read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in workloads.WORKLOADS:
        problems += check_run(workload, 0, end_to_end)
        problems += check_run(workload, 1, per_layer)
    problems += check_wrong_verdict_is_caught()
    for problem in problems:
        print(problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
