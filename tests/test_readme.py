"""The README's examples run as written.

The Quick tour block is executed, and the two values its comments state
are checked. Every ``staralg ...`` line of the command-line block is run
through ``cli.main`` and must exit 0.
"""

import contextlib
import io
import math
import pathlib
import re
import shlex

import pytest

from staralg import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str, fence: str) -> str:
    """The body of the first ``fence`` block after the line ``heading``."""
    rest = README.split(f"\n{heading}\n", 1)[1]
    m = re.search(rf"^```{fence}\n(.*?)^```$", rest, re.S | re.M)
    return m.group(1)


def test_the_quick_tour_runs_and_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block_after("## Quick tour", "python"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "(-5.0, 10.0)"
    assert float(lines[1]) == math.exp(math.sqrt(5))
    assert lines[2].startswith("True ")
    assert lines[3] == "True"


COMMANDS = [
    shlex.split(line, comments=True)
    for line in _block_after("## Command line", "sh").splitlines()
    if line.startswith("staralg ")
]


def test_the_command_line_block_has_its_five_lines():
    assert len(COMMANDS) == 5


@pytest.mark.parametrize("argv", COMMANDS, ids=[a[1] for a in COMMANDS])
def test_every_command_line_example_exits_0(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv[1:])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue()
