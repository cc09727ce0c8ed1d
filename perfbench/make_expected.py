"""Write the expected answers of the census-l4 workload.

Runs the full binary length-4 census once, checks the paper's count of
2272 noncorrelated sets among 32768 candidates, and writes each
noncorrelated set as the mask that ``PatternSet.from_mask(2, 4, mask)``
takes (bit v selects the length-4 word of value v).

    python3 perfbench/make_expected.py

takes about a minute on two cores.  The file it writes is committed;
run.py only reads it.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import patcorr  # noqa: E402

from workloads import L4_CANDIDATES, L4_EXPECTED_FILE, L4_NONCORRELATED, worker_count  # noqa: E402


def mask_of(name: str) -> int:
    """The from_mask mask of a set written as comma-separated 4-digit words."""
    mask = 0
    for word in name.split(","):
        if len(word) != 4 or set(word) - {"0", "1"}:
            raise ValueError(f"not a binary length-4 word: {word!r}")
        mask |= 1 << int(word, 2)
    return mask


def main() -> int:
    report = patcorr.census(2, 4, workers=worker_count(), keep_sets=True)
    if report.candidates != L4_CANDIDATES or report.noncorrelated != L4_NONCORRELATED:
        print(
            f"census gave {report.noncorrelated} of {report.candidates}, "
            f"expected {L4_NONCORRELATED} of {L4_CANDIDATES}",
            file=sys.stderr,
        )
        return 1
    masks = sorted(mask_of(name) for name in report.noncorrelated_sets)
    lines = [
        "# noncorrelated binary length-4 pattern sets, as PatternSet.from_mask(2, 4, mask) masks",
        f"# written by make_expected.py from census(2, 4, keep_sets=True): {len(masks)} of {report.candidates}",
    ]
    lines += [str(mask) for mask in masks]
    L4_EXPECTED_FILE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(masks)} masks to {L4_EXPECTED_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
