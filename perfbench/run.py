"""Benchmark runner for patcorr.

    python3 perfbench/run.py --workload census-l4 --seed 1 --seconds 25 --trace 0

Set-up builds the workload's seeded inputs.  The timed phase runs
passes over those same inputs until --seconds is used up, at least two
of them.  Pass times are medians over passes; an item's latency is its
fastest pass.  Every time is
reported in nominal seconds, corrected for the machine's speed during
the pass (see calibrate.py); the summary lines above the JSON also give
the raw times.  After the timed phase the first pass's outputs are
checked, and every later pass must repeat them.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics.  With --trace 1 the passes alternate between
untraced and traced, and the JSON holds the per-layer metrics of the
traced passes and the tracing overhead.  The exit code is 1 when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = {"full": 5, "tiny": 2}
MIN_PASSES = 2

# (name, unit) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int, profile: str) -> tuple[float, list[str]]:
    """Median corrected time, over fresh interpreters, to import patcorr and build the inputs."""
    corrected, raw = [], []
    for _ in range(SETUP_PROBES[profile]):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), profile],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, slowdown = map(float, done.stdout.split()[-2:])
        corrected.append(elapsed / slowdown)
        raw.append(f"{elapsed:.3f}")
    return statistics.median(corrected), raw


def timed_pass(workload, inputs: dict, traced: bool) -> dict:
    record = workloads.PassRecord()
    sampler = record.sampler
    tracer = Tracer(lambda: sampler.paused_s) if traced else None
    with sampler:
        start = perf_counter()
        if tracer is None:
            outputs = workload.run_pass(inputs, record)
        else:
            with tracer:
                outputs = workload.run_pass(inputs, record)
        duration = perf_counter() - start
    slowdown = sampler.slowdown()
    raw_wall = duration - sampler.paused_s - record.apart_s
    layers = None
    if tracer is not None:
        layers = tracer.report()
        for name, unit in LAYER_METRICS:
            if unit == "s":
                layers[name] /= slowdown
    return {
        "duration": duration,
        "raw_wall": raw_wall,
        "wall": raw_wall / slowdown,
        "slowdown": slowdown,
        "items": [t / sampler.slowdown(lo, hi) for t, lo, hi in record.items],
        "record": record,
        "outputs": outputs,
        "layers": layers,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    workload = workloads.WORKLOADS[name]
    setup_s, setup_raw = (None, []) if trace else setup_seconds(name, seed, profile)
    inputs = workloads.make_inputs(name, seed, profile)

    checker = workloads.Checker()
    passes: list[dict] = []
    first_outputs = None
    started = perf_counter()
    while True:
        done = timed_pass(workload, inputs, traced=trace and len(passes) % 2 == 1)
        # later passes are compared and dropped, so memory stays one pass deep
        outputs = done.pop("outputs")
        if first_outputs is None:
            first_outputs = outputs
        else:
            checker.expect("passes repeat the first", outputs == first_outputs)
        del outputs
        passes.append(done)
        spent = perf_counter() - started
        typical = statistics.median(p["duration"] for p in passes)
        if len(passes) >= MIN_PASSES and spent + typical > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check(inputs, first_outputs, checker)

    plain = [p for p in passes if p["layers"] is None]
    traced = [p for p in passes if p["layers"] is not None]
    attempted = sum(p["record"].attempted for p in passes)
    failed = sum(p["record"].failed for p in passes)
    # an item's latency is its fastest pass, which drops the interference
    # that hits one run of one item
    items = [min(times) for times in zip(*(p["items"] for p in plain))]
    wall_s = statistics.median(p["wall"] for p in plain)
    if trace:
        metrics = {
            key: statistics.median(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        metrics["trace.overhead"] = statistics.median(p["wall"] for p in traced) / wall_s
        units = LAYER_METRICS
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "items_per_s": statistics.median(len(p["items"]) / sum(p["items"]) for p in plain),
            "item_p50_ms": 1000 * statistics.median(items),
            "item_p99_ms": 1000 * percentile(items, 99),
            "peak_rss_mb": peak_rss_mb,
            "ops_ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END
    first_error = next(
        (p["record"].first_error for p in passes if p["record"].first_error), None
    )
    return {
        "workload": name,
        "passes": passes,
        "setup_raw": setup_raw,
        "item_samples": len(items),
        "first_error": first_error,
        "checker": checker,
        "checks": workload.checks + ("passes repeat the first",),
        "result": {
            "correct": not checker.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
        },
    }


def summary_lines(run: dict) -> list[str]:
    passes = run["passes"]
    checker = run["checker"]
    lines = [
        f"workload {run['workload']}: {len(passes)} passes of "
        f"{len(passes[0]['items'])} work items; "
        f"item percentiles over {run['item_samples']} items, "
        f"each at its fastest of {len([p for p in passes if not p['layers']])} untraced passes",
        "pass wall, raw s (slowdown), traced marked *: "
        + " ".join(
            f"{p['raw_wall']:.3f}({p['slowdown']:.2f}){'*' if p['layers'] else ''}"
            for p in passes
        ),
        "raw seconds timed apart from wall_s, each pass: "
        + " ".join(f"{p['record'].apart_s:.3f}" for p in passes),
        f"operations: {run['result']['failed']} failed of {run['result']['attempted']}"
        + (f"; first failure: {run['first_error']}" if run["first_error"] else ""),
    ]
    if run["setup_raw"]:
        lines.append("set-up, raw s: " + " ".join(run["setup_raw"]))
    for name in run["checks"]:
        lines.append(
            f"check {name}: {checker.checked.get(name, 0)} compared, "
            f"{checker.skipped.get(name, 0)} skipped after a failed operation"
        )
    lines += [f"CHECK FAILED {failure}" for failure in checker.failures[:10]]
    return lines


def main(argv: list[str] | None = None, profile: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), profile)
    for line in summary_lines(run):
        print(line)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
