"""Exact correlation analysis for digit-pattern sign sequences.

A pattern set assigns to every nonnegative integer the parity of how
often its listed digit words occur in the base-k expansion.  This
package computes shifted correlations of the resulting +/-1 sequences
as exact rationals, decides whether every shifted correlation vanishes
(with a concrete witness shift when one does not), and sweeps whole
candidate families to count the noncorrelated ones.
"""

from .classify import (
    CensusReport,
    EquivalenceReport,
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
from .correlation import CorrelationTable, bootstrap, correlation
from .decider import Decision, InternalConsistencyError, decide
from .oracle import (
    Estimate,
    check_cancellation,
    empirical_correlation,
    empirical_restricted_correlation,
    saturated_closed_form,
    sequence_values,
)
from .pattern_sets import (
    PatternSet,
    PeriodicFactor,
    ReconstructionError,
    evaluate,
    invariant_decomposition,
    is_self_invariant,
    kernel_quotient,
    periodic_factor,
    reconstruct_pattern_set,
    remove_leading_zeros,
    to_constant_length,
    twist,
)
from .suites import SUITE_NAMES, SuiteResult, run_suite
from .words import Word

__version__ = "0.1.0"

__all__ = [
    "CensusReport",
    "CorrelationTable",
    "Decision",
    "EquivalenceReport",
    "Estimate",
    "HadamardMatrix",
    "InternalConsistencyError",
    "PatternSet",
    "PeriodicFactor",
    "ReconstructionError",
    "SUITE_NAMES",
    "SuiteResult",
    "Word",
    "bootstrap",
    "census",
    "check_cancellation",
    "check_theorem_c",
    "correlation",
    "decide",
    "empirical_correlation",
    "empirical_restricted_correlation",
    "evaluate",
    "invariant_decomposition",
    "is_saturated",
    "is_self_invariant",
    "kernel_quotient",
    "periodic_factor",
    "random_hadamard_family",
    "random_saturated_superset",
    "reconstruct_pattern_set",
    "remove_leading_zeros",
    "run_suite",
    "saturated_closed_form",
    "saturated_family_from_hadamard",
    "saturation_violation",
    "sequence_values",
    "sylvester_hadamard",
    "to_constant_length",
    "twist",
]
