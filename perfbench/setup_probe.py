"""Time one set-up of a workload: import patcorr, then build the inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <profile>

prints the seconds taken, without the speed sampler's chunks, and the
machine's slowdown meanwhile.  run.py starts it several times in fresh
interpreters and reports the median of the corrected times as setup_s.
"""

import sys
import time

from calibrate import SpeedSampler

with SpeedSampler() as sampler:
    start = time.perf_counter()
    import workloads  # noqa: E402  (imports patcorr, which is part of what is timed)

    workloads.make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    elapsed = time.perf_counter() - start - sampler.paused_s
print(elapsed, sampler.slowdown())
