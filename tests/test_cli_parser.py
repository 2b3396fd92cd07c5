"""The parser that ``cli.main`` builds for a call, against the parser with
every subcommand.

A call that names its command after only the global options gets a parser
with just that subcommand.  Its help texts, usage errors, exit codes and
parsed namespaces must be those of the full parser.  The golden help texts
under ``tests/data/help/`` were written by the full parser at 80 columns
on Python 3.11, before the one-subcommand parser existed.
"""

from __future__ import annotations

import argparse
import contextlib
from pathlib import Path

import pytest

import harmory.cli as cli
from harmory.cli import main

HELP = Path(__file__).parent / "data" / "help"


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    """argparse wraps usage and help at the terminal width."""
    monkeypatch.setenv("COLUMNS", "80")


def subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's subparser in the parser with every subcommand."""
    action, = (action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return action.choices


def test_a_golden_help_text_for_each_command():
    assert sorted(path.stem for path in HELP.iterdir()) == sorted(["harmory", *cli.COMMANDS])
    assert tuple(subparsers()) == cli.COMMANDS


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_matches_the_golden_text(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out.encode(), err) == ((HELP / f"{command or 'harmory'}.txt").read_bytes(), "")


# A bad value for each argparse type; a choice flag gets "nope".
BAD_VALUES = {cli.finite_float: "nan", cli.non_negative_int: "-1", cli.kernel_size: "3",
              int: "x"}


def bad_value_argvs():
    """For each command, its positionals and one typed or choice flag with a
    bad value, once as two tokens and once as ``--flag=value``."""
    for name, parser in subparsers().items():
        positionals = [action.dest for action in parser._actions
                       if not action.option_strings and action.nargs is None]
        for action in parser._actions:
            if action.option_strings and (action.choices or action.type):
                flag = action.option_strings[-1]
                value = "nope" if action.choices else BAD_VALUES[action.type]
                yield [name, *positionals, flag, value]
                yield [name, *positionals, f"{flag}={value}"]


ARGVS = [
    ["query", "g.nt", "C:maj", "--bogus"],
    ["--out", "bld", "build", "corpus"],
    ["--out-dir=query", "query", "g.nt", "C:maj"],
    ["--q", "sim", "a.chart", "b.chart"],
    ["build", "c", "--theta-m", "0.9"],
    ["query", "-h"],
    ["frobnicate"],
    ["--quiet", "frobnicate"],
    [],
    ["--quiet"],
    ["--out-dir"],
    ["--out-dir", "query"],
    ["-h"],
    ["--quiet", "--out-dir", "o", "--quiet", "segment", "p.chart", "--kernel-size", "4"],
    ["--out-dir", "--quiet", "query", "g.nt", "C:maj"],
    ["--quiet", "--", "query", "g.nt", "C:maj"],
    ["query"],
    ["query", "g.nt"],
    ["query", "g.nt", "C:maj", "--quiet"],
    ["query", "g.nt", "C:maj", "--ke", "C:min", "-k", "3"],
    ["query", "g.nt", "C:maj", "-k"],
    ["query", "g.nt", "C:maj", "extra"],
    ["query", "g.nt", "C:maj", "--bogus", "-h"],
    ["sim", "a", "b", "--measure", "lharp", "--n-min", "3", "--tau", "0.5"],
    ["sim", "a", "b", "--scale", "0"],
    ["encode", "p.chart", "--grid=beat"],
    ["bench", "--synthetic"],
    ["eval-covers", "c", "k.csv", "--format", "table", "--workers", "2"],
    *bad_value_argvs(),
]


def parsed(capsys, parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it prints."""
    try:
        result = vars(parse(argv))
    except SystemExit as exit_:
        result = exit_.code
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_parse_args_matches_the_full_parser(capsys, argv):
    expected = parsed(capsys, cli.build_parser().parse_args, argv)
    assert parsed(capsys, cli.parse_args, argv) == expected
    if isinstance(expected[0], int):  # main returns the exit code and prints the same
        assert (main(argv), *capsys.readouterr()) == expected


@pytest.mark.parametrize("argv, built", [
    (["query", "g.nt", "C:maj"], [("query",)]),
    (["--quiet", "--out-dir", "o", "sim", "a", "b"], [("sim",)]),
    (["--out-dir=o", "encode", "p"], [("encode",)]),
    (["query", "-h"], [("query",)]),
    (["query", "g.nt", "C:maj", "--bogus"], [("query",), cli.COMMANDS]),
    (["--q", "sim", "a", "b"], [cli.COMMANDS]),
    (["-h"], [cli.COMMANDS]),
    ([], [cli.COMMANDS]),
    (["frobnicate"], [cli.COMMANDS]),
])
def test_a_call_builds_only_the_parser_of_its_command(monkeypatch, capsys, argv, built):
    calls = []
    build = cli.build_parser

    def recording(commands=cli.COMMANDS):
        calls.append(tuple(commands))
        return build(commands)

    monkeypatch.setattr(cli, "build_parser", recording)
    with contextlib.suppress(SystemExit):
        cli.parse_args(argv)
    assert calls == built
