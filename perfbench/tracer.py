"""Per-layer spans and counts for the traced run, kept in memory.

Each wrapper replaces a public patcorr name where its caller looks it
up: the benchmark calls through the ``patcorr`` package, ``decide``
reaches ``bootstrap`` through ``patcorr.decider``, ``bootstrap`` reaches
``periodic_factor`` through ``patcorr.correlation``, and so on.  A
span's self time is its duration minus the time of the spans it
encloses.  Work done in forked census workers stays in those workers,
so the pool sweeps show as whole spans of the parent.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import patcorr

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("decider.decide.calls", "count"),
    ("decider.decide.self_s", "s"),
    ("decider.correlated_s", "s"),
    ("decider.noncorrelated_s", "s"),
    ("decider.elements_created", "count"),
    ("decider.expansions", "count"),
    ("decider.basis_insert.calls", "count"),
    ("decider.basis_insert.self_s", "s"),
    ("decider.basis_insert.accepted", "count"),
    ("decider.basis_insert.accept_ratio", "ratio"),
    ("decider.expand_element.calls", "count"),
    ("decider.expand_element.self_s", "s"),
    ("decider.evaluate_at_zero.calls", "count"),
    ("decider.evaluate_at_zero.self_s", "s"),
    ("decider.witness_refine.calls", "count"),
    ("decider.witness_refine.self_s", "s"),
    ("correlation.bootstrap.calls", "count"),
    ("correlation.bootstrap.self_s", "s"),
    ("correlation.table_correlation.calls", "count"),
    ("correlation.table_correlation.self_s", "s"),
    ("correlation.restricted.calls", "count"),
    ("classify.census.self_s", "s"),
    ("classify.check_theorem_c.self_s", "s"),
    ("classify.is_saturated.calls", "count"),
    ("classify.is_saturated.self_s", "s"),
    ("pattern_sets.periodic_factor.calls", "count"),
    ("pattern_sets.periodic_factor.self_s", "s"),
    ("pattern_sets.remove_leading_zeros.calls", "count"),
    ("pattern_sets.remove_leading_zeros.self_s", "s"),
    ("words.count_set.calls", "count"),
    ("words.count_set.self_s", "s"),
    ("oracle.sequence_values.calls", "count"),
    ("oracle.sequence_values.self_s", "s"),
    ("oracle.empirical_correlation.calls", "count"),
    ("oracle.empirical_correlation.self_s", "s"),
    ("oracle.saturated_closed_form.calls", "count"),
    ("oracle.saturated_closed_form.self_s", "s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """Wraps patcorr's public names while installed and sums what they did.

    paused() gives the seconds the speed sampler has spent so far, which
    the spans leave out of their times.
    """

    def __init__(self, paused) -> None:
        self.paused = paused
        self.values: defaultdict[str, float] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._decide_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, fn, name: str, on_exit=None):
        values, stack, paused = self.values, self._stack, self.paused
        calls, self_s = name + ".calls", name + ".self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            paused_before = paused()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (paused() - paused_before)
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                values[calls] += 1
                values[self_s] += elapsed - frame[0]
            if on_exit is not None:
                on_exit(result, elapsed)
            return result

        return wrapper

    def count(self, fn, name: str):
        """Count calls without a span: for the deep recursion of restricted."""
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _decide(self, fn):
        def decided(decision, elapsed):
            self.values["decider.elements_created"] += decision.elements_created
            self.values["decider.expansions"] += decision.expansions
            self.values[f"decider.{decision.verdict}_s"] += elapsed

        inner = self.span(fn, "decider.decide", decided)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._decide_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._decide_depth -= 1

        return wrapper

    def _insert(self, fn):
        def inserted(accepted, elapsed):
            self.values["decider.basis_insert.accepted"] += bool(accepted)

        return self.span(fn, "decider.basis_insert", inserted)

    def _table_correlation(self, fn):
        """Correlations asked for under decide are its witness refinement."""
        inside = self.span(fn, "decider.witness_refine")
        outside = self.span(fn, "correlation.table_correlation")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return (inside if self._decide_depth else outside)(*args, **kwargs)

        return wrapper

    def _patches(self) -> list[tuple[object, str, object]]:
        # the package exports a function named correlation, which hides
        # the submodule of that name, so modules come from the import system
        decider, correlation, classify, oracle, pattern_sets = (
            importlib.import_module(f"patcorr.{name}")
            for name in ("decider", "correlation", "classify", "oracle", "pattern_sets")
        )
        table = correlation.CorrelationTable
        # (owner, attribute, metric prefix or wrapper factory)
        plan = [
            (patcorr, "decide", self._decide),
            (decider.ResidueBasis, "insert", self._insert),
            (decider, "expand_element", "decider.expand_element"),
            (decider, "evaluate_at_zero", "decider.evaluate_at_zero"),
            (patcorr, "bootstrap", "correlation.bootstrap"),
            (decider, "bootstrap", "correlation.bootstrap"),
            (table, "correlation", self._table_correlation),
            (table, "restricted", lambda fn: self.count(fn, "correlation.restricted.calls")),
            (patcorr, "census", "classify.census"),
            (patcorr, "check_theorem_c", "classify.check_theorem_c"),
            (patcorr, "is_saturated", "classify.is_saturated"),
            # saturated_closed_form imports is_saturated from classify per call
            (classify, "is_saturated", "classify.is_saturated"),
            (correlation, "periodic_factor", "pattern_sets.periodic_factor"),
            (oracle, "periodic_factor", "pattern_sets.periodic_factor"),
            (classify, "remove_leading_zeros", "pattern_sets.remove_leading_zeros"),
            (oracle, "remove_leading_zeros", "pattern_sets.remove_leading_zeros"),
            (pattern_sets, "count_set", "words.count_set"),
            (patcorr, "sequence_values", "oracle.sequence_values"),
            (oracle, "sequence_values", "oracle.sequence_values"),
            (patcorr, "empirical_correlation", "oracle.empirical_correlation"),
            (patcorr, "saturated_closed_form", "oracle.saturated_closed_form"),
        ]
        patches = []
        for owner, attribute, how in plan:
            fn = getattr(owner, attribute)
            wrapper = self.span(fn, how) if isinstance(how, str) else how(fn)
            patches.append((owner, attribute, wrapper))
        return patches

    def __enter__(self) -> "Tracer":
        for owner, attribute, wrapper in self._patches():
            self._saved.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def report(self) -> dict[str, float]:
        """Every per-layer metric but the overhead, which needs an untraced pass."""
        out = {name: self.values[name] for name, _ in LAYER_METRICS if name != "trace.overhead"}
        calls = out["decider.basis_insert.calls"]
        out["decider.basis_insert.accept_ratio"] = (
            out["decider.basis_insert.accepted"] / calls if calls else 0.0
        )
        return out
