"""Classification tools: censuses and the saturation test.

The census sweeps every candidate pattern set in a family through the
decision procedure and tallies the noncorrelated ones.  Saturation is
the combinatorial property behind them: windows of fixed interior agree
in exactly half of the leading digits for every pair of trailing
digits, which is the same as a family of normalized Hadamard matrices.
Both take a set's leading-zero-free form, which remove_leading_zeros
reads off the ratio.
"""

from __future__ import annotations

import itertools
from collections import Counter
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .decider import Decision, batch_size, decide_many
from .pattern_sets import PatternSet, remove_leading_zeros
from .words import Word, check_base

SELECTIONS = ("all", "self-invariant")


# === saturation ===


def saturation_violation(
    pattern_set: PatternSet,
) -> Optional[tuple[Word, int, int]]:
    """First witness against saturation, or None when saturated.

    The set is brought to its leading-zero-free form first; that form
    must have no word ending in 0 and a longest word of length at least
    2, otherwise saturation is not defined and a ValueError comes back.
    Only words of the full length take part: a violation is an interior
    word u plus two distinct trailing digits whose full-length windows
    i.u.j agree for a number of leading digits i other than half the
    base.
    """
    reduced = remove_leading_zeros(pattern_set)
    base = reduced.base
    length = reduced.length
    if length < 2:
        raise ValueError("saturation is defined from length 2 on")
    if any(w.digits[-1] == 0 for w in reduced.words):
        raise ValueError("saturation needs a self-invariant set")
    members = {w.digits for w in reduced.words if len(w) == length}
    half, odd = divmod(base, 2)
    for u in itertools.product(range(base), repeat=length - 2):
        for first in range(base):
            for second in range(first + 1, base):
                hits = sum(
                    1
                    for i in range(base)
                    if ((i,) + u + (first,) in members)
                    != ((i,) + u + (second,) in members)
                )
                if odd or hits != half:
                    return (Word(base, u), first, second)
    return None


def is_saturated(pattern_set: PatternSet) -> bool:
    """Whether every interior window family is a normalized Hadamard matrix."""
    return saturation_violation(pattern_set) is None


# === Hadamard matrices and saturated families ===


@dataclass(frozen=True)
class HadamardMatrix:
    """A square +-1 matrix with pairwise orthogonal columns."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n < 1:
            raise ValueError("a Hadamard matrix needs at least one row")
        for row in rows:
            if len(row) != n:
                raise ValueError("a Hadamard matrix must be square")
            for x in row:
                if x not in (-1, 1):
                    raise ValueError("entries must be +-1")
        for a in range(n):
            for b in range(a + 1, n):
                if sum(rows[i][a] * rows[i][b] for i in range(n)) != 0:
                    raise ValueError(f"columns {a} and {b} are not orthogonal")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def is_normalized(self) -> bool:
        """First row and first column all +1."""
        n = self.dimension
        return all(self.entries[0][j] == 1 for j in range(n)) and all(
            self.entries[i][0] == 1 for i in range(n)
        )


def sylvester_hadamard(order: int) -> HadamardMatrix:
    """The doubling construction; order must be a power of two."""
    if order < 1 or order & (order - 1):
        raise ValueError(f"order must be a power of two, got {order}")
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [
            row + [-x for x in row] for row in rows
        ]
    return HadamardMatrix(tuple(tuple(row) for row in rows))


def saturated_family_from_hadamard(matrix: HadamardMatrix, length: int) -> PatternSet:
    """The constant-length saturated set with one matrix at every interior.

    The matrix dimension becomes the base; entry (i, j) = -1 puts the
    word i.u.j into the set for every interior u.  The matrix must be
    normalized, otherwise the set would pick up leading zeros or
    trailing zeros.
    """
    base = matrix.dimension
    check_base(base)
    if length < 2:
        raise ValueError("saturated families start at length 2")
    if not matrix.is_normalized:
        raise ValueError("the matrix must be normalized")
    words = [
        Word(base, (i,) + u + (j,))
        for u in itertools.product(range(base), repeat=length - 2)
        for i in range(base)
        for j in range(base)
        if matrix.entries[i][j] < 0
    ]
    return PatternSet(base, tuple(words))


def random_saturated_superset(length: int, rng: random.Random) -> PatternSet:
    """Random binary saturated set: the full interior layer plus extras.

    Over base 2 saturation says exactly that every word 1.u.1 of the
    full length is present; any additional shorter words that begin and
    end in 1 keep the set self-invariant and leading-zero free, hence
    saturated.
    """
    if length < 2:
        raise ValueError("saturated sets start at length 2")
    words = [
        Word(2, (1,) + u + (1,))
        for u in itertools.product(range(2), repeat=length - 2)
    ]
    for w in _census_pool(2, length - 1, "self-invariant"):
        if rng.random() < 0.5:
            words.append(w)
    return PatternSet(2, tuple(words))


def random_hadamard_family(base: int, length: int, rng: random.Random) -> PatternSet:
    """Random saturated set from independent permuted doubling matrices.

    Each interior word u gets its own matrix: rows and columns of the
    doubling matrix are shuffled while row 0 and column 0 stay put, so
    every matrix stays a normalized Hadamard matrix.
    """
    check_base(base)
    if base & (base - 1):
        raise ValueError(f"base must be a power of two, got {base}")
    if length < 2:
        raise ValueError("saturated families start at length 2")
    seed = sylvester_hadamard(base).entries
    words = []
    for u in itertools.product(range(base), repeat=length - 2):
        row_order = [0] + rng.sample(range(1, base), base - 1)
        col_order = [0] + rng.sample(range(1, base), base - 1)
        for i in range(base):
            for j in range(base):
                if seed[row_order[i]][col_order[j]] < 0:
                    words.append(Word(base, (i,) + u + (j,)))
    return PatternSet(base, tuple(words))


# === censuses ===


@dataclass
class CensusReport:
    """Aggregate outcome of sweeping one candidate family.

    by_exact_length tallies the noncorrelated sets by the longest word
    length of their leading-zero-free form.  timing holds the count of
    each verdict and decide_seconds, the wall-clock time spent in
    decide_many summed over the workers: the candidates are decided in
    batches, so no candidate has a time of its own.  It is deliberately
    left out of the structured record so that reports are bit-identical
    whatever the worker count or machine speed.
    """

    base: int
    length: int
    selection: str
    candidates: int
    noncorrelated: int
    by_exact_length: dict[int, int]
    peak_stored: int
    total_created: int
    total_expansions: int
    noncorrelated_sets: Optional[list[str]] = None
    timing: Optional[dict[str, float]] = field(default=None, compare=False)

    def to_record(self) -> dict:
        record: dict = {
            "base": self.base,
            "length": self.length,
            "selection": self.selection,
            "candidates": self.candidates,
            "noncorrelated": self.noncorrelated,
            "by_exact_length": {str(k): v for k, v in sorted(self.by_exact_length.items())},
            "peak_stored": self.peak_stored,
            "total_created": self.total_created,
            "total_expansions": self.total_expansions,
        }
        if self.noncorrelated_sets is not None:
            record["noncorrelated_sets"] = list(self.noncorrelated_sets)
        return record


def _census_pool(base: int, length: int, selection: str) -> list[Word]:
    """The word pool whose subsets form the candidate family."""
    if selection == "all":
        return [
            Word(base, digits)
            for digits in itertools.product(range(base), repeat=length)
            if any(digits)
        ]
    pool = [Word(base, (1,))] if length >= 1 else []
    for mid in range(length - 1):
        pool.extend(
            Word(base, (1,) + u + (1,))
            for u in itertools.product(range(base), repeat=mid)
        )
    return sorted(pool, key=Word.sort_key)


def _subset(pool: Sequence[Word], mask: int) -> list[Word]:
    return [w for b, w in enumerate(pool) if (mask >> b) & 1]


def _sweep_chunk(args: tuple) -> tuple[list, float]:
    """visit(candidate, decision) for the chunk's masks, and the seconds spent deciding."""
    visit, pool_args, start, step = args
    base, length = pool_args[:2]
    pool = _census_pool(*pool_args)
    masks = range(start, 1 << len(pool), step)
    # one batch of candidates at a time, sized for the widest of them
    size = batch_size(base, base**length)
    outcomes: list = []
    seconds = 0.0
    for lo in range(0, len(masks), size):
        batch = masks[lo : lo + size]
        candidates = [PatternSet(base, tuple(_subset(pool, mask))) for mask in batch]
        started = time.perf_counter()
        decisions = decide_many(candidates)
        seconds += time.perf_counter() - started
        outcomes.extend(map(visit, candidates, decisions))
    return outcomes, seconds


def _sweep(
    visit: Callable[[PatternSet, Decision], tuple], pool_args: tuple, workers: int
) -> tuple[list, float]:
    """visit(candidate, decision) for every subset of a census pool, in mask order; decide seconds.

    The masks are dealt out to one chunk per worker, chunk i taking
    masks i, i + chunks, and so on, so that the costly noncorrelated
    sets, which gather in the high masks, spread over all of them.  A
    chunk decides its candidates in batches with decide_many.  One
    worker runs the chunk in this process; more workers share a process
    pool from the platform's default start method.  visit must be a
    module-level function, so that it pickles.  The results are put back
    in mask order, so a merge over them gives the same report for any
    worker count; the seconds are the chunks' decide time, summed.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    total = 1 << len(_census_pool(*pool_args))
    pieces = min(total, workers)
    chunks = [(visit, pool_args, i, pieces) for i in range(pieces)]
    if workers == 1:
        results = map(_sweep_chunk, chunks)
    else:
        # imported here, so that a caller who never makes a pool does not
        # load multiprocessing and its socket machinery
        import multiprocessing

        with multiprocessing.Pool(pieces) as processes:
            results = processes.map(_sweep_chunk, chunks)
    outcomes: list = [None] * total
    seconds = 0.0
    for start, (chunk, spent) in enumerate(results):
        outcomes[start::pieces] = chunk
        seconds += spent
    return outcomes, seconds


def _census_visit(candidate: PatternSet, decision: Decision) -> tuple:
    """Exact length (None when correlated), created, expansions."""
    exact = remove_leading_zeros(candidate).length if decision.noncorrelated else None
    return exact, decision.elements_created, decision.expansions


def census(
    base: int,
    length: int,
    selection: str = "all",
    workers: int = 1,
    keep_sets: bool = False,
) -> CensusReport:
    """Sweep a candidate family through the decision procedure.

    selection "all" takes every subset of the nonzero words of the
    given length; "self-invariant" takes every subset of the words of
    length up to the given one that begin and end in 1.  Only base 2 is
    supported: larger bases make even modest lengths astronomically
    wide, and the family doubles with every word of the pool, so the
    command line stops at 2**16 candidates (length 4 for "all", 5 for
    "self-invariant").  Workers come from the platform's default
    multiprocessing start method.  The merge over chunks is
    deterministic, so reports are bit-identical for any worker count.
    """
    if base != 2:
        raise ValueError("the census supports base 2 only")
    if length < 1:
        raise ValueError("length must be at least 1")
    if selection not in SELECTIONS:
        raise ValueError(f"selection must be one of {SELECTIONS}, got {selection!r}")
    outcomes, seconds = _sweep(_census_visit, (base, length, selection), workers)
    by_exact_length: dict[int, int] = {}
    masks: list[int] = []
    for mask, (exact, _, _) in enumerate(outcomes):
        if exact is not None:
            by_exact_length[exact] = by_exact_length.get(exact, 0) + 1
            masks.append(mask)
    names = None
    if keep_sets:
        pool = _census_pool(base, length, selection)
        names = [str(PatternSet(base, tuple(_subset(pool, mask)))) for mask in masks]
    return CensusReport(
        base=base,
        length=length,
        selection=selection,
        candidates=len(outcomes),
        noncorrelated=len(masks),
        by_exact_length=dict(sorted(by_exact_length.items())),
        peak_stored=max(created for _, created, _ in outcomes),
        total_created=sum(created for _, created, _ in outcomes),
        total_expansions=sum(expansions for _, _, expansions in outcomes),
        noncorrelated_sets=names,
        timing={
            "correlated": len(outcomes) - len(masks),
            "noncorrelated": len(masks),
            "decide_seconds": seconds,
        },
    )


# === the equivalence sweep ===


@dataclass
class EquivalenceReport:
    """Outcome of checking saturation against the decision procedure.

    Covers every self-invariant candidate up to the given length.  The
    two length-below-2 candidates (the empty set and {1}) carry no
    saturation notion; for them the sweep expects a correlated verdict,
    which keeps the equivalence exact across the whole family.
    """

    max_length: int
    candidates: int
    noncorrelated_by_length: dict[int, int]
    mismatches: list[str]
    peak_stored: int

    def to_record(self) -> dict:
        return {
            "max_length": self.max_length,
            "candidates": self.candidates,
            "noncorrelated_by_length": {
                str(k): v for k, v in sorted(self.noncorrelated_by_length.items())
            },
            "mismatches": list(self.mismatches),
            "peak_stored": self.peak_stored,
        }


def _equivalence_visit(candidate: PatternSet, decision: Decision) -> tuple:
    """Length (None when correlated), mismatch name or None, created."""
    # saturation is undefined below length 2; those sets must decide correlated
    saturated = candidate.size > 0 and candidate.length >= 2 and is_saturated(candidate)
    mismatch = str(candidate) if decision.noncorrelated != saturated else None
    length = candidate.length if decision.noncorrelated else None
    return length, mismatch, decision.elements_created


def check_theorem_c(max_length: int, workers: int = 1) -> EquivalenceReport:
    """Compare saturation with the decided verdict on every candidate.

    Sweeps all subsets of the binary words of length at most max_length
    that begin and end in 1, through the same chunked engine as the
    census: workers come from the platform's default start method, and
    the command line stops at max_length 5 (2**16 candidates).  Every
    mismatch would be a counterexample to the equivalence between
    saturation and noncorrelation on self-invariant sets, so the
    mismatch list is expected empty.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    outcomes, _ = _sweep(_equivalence_visit, (2, max_length, "self-invariant"), workers)
    by_length = Counter(length for length, _, _ in outcomes if length is not None)
    return EquivalenceReport(
        max_length=max_length,
        candidates=len(outcomes),
        noncorrelated_by_length=dict(sorted(by_length.items())),
        mismatches=[mismatch for _, mismatch, _ in outcomes if mismatch is not None],
        peak_stored=max(created for _, _, created in outcomes),
    )
