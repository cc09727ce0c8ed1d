"""The traced benchmark finds every package name it wraps.

perfbench/tracer.py looks its names up by attribute, such as
ResidueBasis.insert; a name the package drops fails here, in the test
run, and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patches = tracer.Tracer(lambda: 0.0)._patches()
    assert patches and all(callable(wrapper) for _, _, wrapper in patches)
