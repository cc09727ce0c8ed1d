"""README's Quick start runs as shown.

Each shell example goes through cli.main, and every output line the
README shows must appear in its output, in order; lines the README
leaves out, such as the census timing line, are not compared.  The
library snippet runs as it stands.
"""

import shlex
import sys
from pathlib import Path

import pytest

from patcorr import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start():
    """The shell examples, as (command, shown output lines), and the library snippet."""
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    shell = section.split("```sh\n", 1)[1].split("```", 1)[0]
    library = section.split("```python\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in shell.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples, library


EXAMPLES, LIBRARY = _quick_start()


def test_quick_start_has_the_four_examples():
    assert [shlex.split(command)[:2] for command, _ in EXAMPLES] == [
        ["patcorr", "decide"],
        ["patcorr", "decide"],
        ["patcorr", "correlation"],
        ["patcorr", "census"],
    ]
    assert all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_shell_example(command, shown, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", shlex.split(command))
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 0
    printed = iter(line.rstrip() for line in capsys.readouterr().out.splitlines())
    for line in shown:
        # consumes the output up to the line, so the shown lines keep their order
        assert line.rstrip() in printed, f"{command}: {line!r} missing or out of order"


def test_library_snippet():
    exec(compile(LIBRARY, str(README), "exec"), {})
