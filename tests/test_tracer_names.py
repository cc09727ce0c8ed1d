"""The benchmark finds every package name it wraps or calls.

perfbench/tracer.py looks its names up by attribute, such as
ResidueBasis.insert, and perfbench/workloads.py calls patcorr.<name>;
a name the package drops fails here, in the test run, and not only in
a benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import patcorr

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def test_tracer_finds_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patches = tracer.Tracer(lambda: 0.0)._patches()
    assert patches and all(callable(wrapper) for _, _, wrapper in patches)


def _package_reads(tree):
    """Each dotted name read off the patcorr package, such as ("PatternSet", "of")."""
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "patcorr":
            reads.add(tuple(reversed(chain)))
    return reads


def test_workloads_find_every_package_name():
    reads = _package_reads(ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS)))
    assert ("decide",) in reads
    missing = []
    for chain in sorted(reads):
        owner = patcorr
        for attribute in chain:
            owner = getattr(owner, attribute, None)
        if owner is None:
            missing.append(".".join(chain))
    assert missing == []
