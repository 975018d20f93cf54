"""``cli.main`` reads an argv that starts with a subcommand's name with that
subcommand's parser alone; every other argv goes through the whole parser.

Both ways must give what the whole parser gives: the same namespace, or the
same exit code, stdout and stderr.
"""

import argparse
import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staralg import cli
from staralg.cli import build_parser, main
from test_settings import OPTIONS, RETIRED_FLAGS

CASES = json.loads((pathlib.Path(__file__).parent / "golden" / "cases.json").read_text())
COMMANDS = sorted(OPTIONS)

# argv that only the whole parser answers, or that come close to it
EDGE_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["eval", "-h"],
    ["eval", "--help"],
    ["eval", "--he"],
    ["spam"],
    ["ev", "(1,2)"],
    ["eval"],
    ["--", "eval", "(1,2)"],
    ["eval", "--", "(1,2)"],
    ["eval", "(1,2)", "--"],
    ["eval", "(1,2)", "--", "extra"],
    ["eval", "--json=1", "(1,2)"],
    ["grid", "z", "--rad", "3"],
    ["eval", "(1,2)", "extra"],
    ["eval", "(1,2)", "-h", "extra"],
    ["eval", "(1,2)", "-x"],
    ["eval", "-1"],
    ["--json", "eval", "(1,2)"],
    ["axioms", "--s", "1"],
    ["axioms", "--suite", "norm", "--carrier", "grid", "--trials", "4"],
    ["eval", "(1,2)", "--mode", "sideways"],
    ["eval", "(1,2)", "--tol", "nan"],
    ["invert", "(0.6,0.1)", "--max-t", "9"],
    ["quotient", "z", "--at=(0,0)"],
    ["eval", "(1e300,0)/(1e308,1e308)"],
]

# every option name with its shortest prefixes, some ambiguous in one
# subcommand and not in another
_OPTION_TOKENS = sorted(
    {name[:n] for names in OPTIONS.values() for name in names for n in (3, 4, len(name))}
    | {"-h", "--help", "--he", "--json=1", "--at=(0,0)"}
)
_VALUES = ["1", "0.5", "-1", "-1e3", "nan", "exp", "cube", "direct", "pullback",
           "(1,2)", "z", "norm", "field", "grid", "scalar"]
_JUNK = ["--", "spam", "-x", "--x=1", "", "-", "a b", "ev"]
_TOKEN = st.sampled_from(COMMANDS + _OPTION_TOKENS + _VALUES + _JUNK)
_ARGV = st.one_of(
    st.lists(_TOKEN, max_size=7),
    st.builds(lambda c, rest: [c, *rest], st.sampled_from(COMMANDS), st.lists(_TOKEN, max_size=7)),
)


def _outcome(parse, argv):
    """The namespace with its keys in order, or the exit code, stdout and
    stderr of the parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as e:
        return "exit", e.code, out.getvalue(), err.getvalue()
    return "args", list(vars(args).items()), out.getvalue(), err.getvalue()


def _agree(argv):
    assert _outcome(cli._parse, argv) == _outcome(build_parser().parse_args, argv)


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    # help and usage text wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize(
    "argv",
    [c["argv"] for c in CASES] + RETIRED_FLAGS + EDGE_ARGV,
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_one_parse_gives_what_the_whole_parser_gives(argv):
    _agree(argv)


@settings(max_examples=400, deadline=None)
@given(_ARGV)
def test_one_parse_agrees_on_any_argv(argv):
    _agree(argv)


@pytest.fixture
def parsed_by(monkeypatch):
    """The prog of each parser that parses, in order."""
    progs = []
    known = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        progs.append(self.prog)
        return known(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return progs


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_a_well_formed_argv_is_parsed_once_by_its_subcommand(parsed_by):
    assert _quiet_main(["eval", "(1,2)", "--json"]) == 0
    assert parsed_by == ["staralg eval"]


def test_a_leftover_argument_goes_to_the_whole_parser(parsed_by):
    assert _quiet_main(["eval", "(1,2)", "extra"]) == 2
    assert parsed_by == ["staralg eval", "staralg", "staralg eval"]


@pytest.mark.parametrize("argv", [[], ["-h"], ["spam"], ["--json", "eval", "(1,2)"]], ids=repr)
def test_an_argv_without_a_leading_subcommand_goes_to_the_whole_parser(argv, parsed_by):
    _quiet_main(argv)
    assert parsed_by[0] == "staralg"
