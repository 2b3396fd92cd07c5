"""How ``cli.main`` parses a call, against the parser with every subcommand.

A well-formed argv is read from ``cli._DECLARATIONS`` without an argparse
parser; every other argv goes to the parser with every subcommand.  Help
texts, usage errors, exit codes and parsed namespaces must be those of the
full parser.  The golden help texts under ``tests/data/help/`` were
written by the full parser at 80 columns on Python 3.11, before any other
way of parsing existed.
"""

from __future__ import annotations

import argparse
import contextlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
BAD_VALUES = {cli.finite_float: "nan", int: "x"}


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
    ["sim", "--measure", "tpsd", "a", "--band", "3", "b"],
    ["query", "--key", "C:min", "-k", "3", "g.nt", "C:maj"],
    ["bench", "--synthetic", "c"],
    ["bench", "c", "d"],
    ["query", "g.nt", "C:maj", "-k", "3", "-k=4", "--key", "D:maj", "--key=E:min"],
    ["--out-dir", "a", "--quiet", "--out-dir=b", "segment", "p", "--min-len=2", "--min-len", "3"],
    ["--out-dir=", "segment", "p"],
    ["--quiet=", "segment", "p"],
    ["segment", "p", "--kernel-size=8"],
    ["query", "g.nt", "C:maj", "-k5"],
    ["query", "g.nt", "C:maj", "-k=5"],
    ["query", "g.nt", "-1"],
    ["sim", "a", "b", "--band=-1"],
    ["sim", "a", "b", "--band", "-1"],
    ["bench", "--measures=--"],
    ["bench", "--synthetic=1"],
    ["query", "g", "p", "--key", "--"],
    ["query", "g", "p", "--key=--help"],
    ["encode", "p", "--out-dir", "x"],
    ["--out-dir", "query", "query", "g.nt", "C:maj"],
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


@pytest.mark.parametrize("argv, command", [
    (["query", "g.nt", "C:maj"], "query"),
    (["--quiet", "--out-dir", "o", "sim", "a", "b"], "sim"),
    (["--out-dir=o", "encode", "p"], "encode"),
    (["query", "-h"], None),
    (["query", "g.nt", "C:maj", "--bogus"], None),
    (["--q", "sim", "a", "b"], None),
    (["-h"], None),
    ([], None),
    (["frobnicate"], None),
])
def test_only_help_and_usage_errors_build_an_argparse_parser(monkeypatch, capsys, argv,
                                                              command):
    """A well-formed call constructs no argparse parser at all; help and
    errors build the full one, once."""
    built, constructed, parsed_args = [], [], None
    build, init = cli.build_parser, argparse.ArgumentParser.__init__

    def recording_build():
        built.append(build())
        return built[-1]

    def recording_init(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", recording_build)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    with contextlib.suppress(SystemExit):
        parsed_args = cli.parse_args(argv)
    if command is None:
        assert len(built) == 1
        action, = (action for action in built[0]._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert tuple(action.choices) == cli.COMMANDS
    else:
        assert (built, constructed) == ([], [])
        assert parsed_args.command == command


# The argv shapes that perfbench/run.py issues, one per command and measure.
PERFBENCH_ARGVS = [
    ["--quiet", "--out-dir", "w/build0-0", "build", "w/pop0", "--workers", "2",
     "--min-len", "4", "--min-gap", "4"],
    ["query", "w/build0-0/memory.nt", "C:maj G:maj A:min F:maj"],
    ["query", "w/build0-0/memory.nt", "Bb:min Eb:7 Ab:maj", "--key", "Bb:min"],
    *(["eval-covers", f"w/{measure}0", f"w/{measure}0/cliques.csv", "--measure", measure,
       "--workers", "1"] for measure in ("dtw", "tpsd", "lharp")),
    *(["sim", "w/all/p1.chart", "w/transposed/p2.chart", "--measure", measure]
      for measure in ("dtw", "tpsd", "lharp")),
    ["--quiet", "--out-dir", "w/seg0", "segment", "w/long/m0.jams.json"],
    ["encode", "w/long/m0.jams.json", "--grid", "beat"],
]


@pytest.mark.parametrize("argv", PERFBENCH_ARGVS, ids=" ".join)
def test_the_fast_path_parses_each_benchmarked_call(argv):
    fast = cli._parse_well_formed(argv)
    assert fast is not None
    assert vars(fast) == vars(cli.build_parser().parse_args(argv))


# Values for any flag, about half of them good for every typed flag, and
# bad ones: out of range, not numbers, starting with "-", and empty.
VALUES = st.sampled_from(["4", "4", "2", "8", "C:maj", "4", "2", "8",
                          "0.5", "-1", "3", "nan", "x", "", "-", "--", "-h"])
POSITIONALS = st.sampled_from(["a", "g.nt", "C:maj G:maj", "query", "", "a", "-1", "-"])
# A junk token in about one argv of four.
JUNK = st.sampled_from([[]] * 39 + [[token] for token in [
    "-h", "--help", "--", "-k5", "-k=5", "--bogus", "--ke", "--qu", "--quiet=1",
    "--measures=--", "--out", "--out-dir=", "frobnicate"]])


def flags(parser: argparse.ArgumentParser, max_size: int):
    """Up to ``max_size`` declared flags of ``parser``, each with a drawn
    value, as one or two tokens each."""
    actions = [action for action in parser._actions
               if action.option_strings and action.dest != "help"]
    if not actions:
        return st.just([])

    @st.composite
    def flag(draw):
        action = draw(st.sampled_from(actions))
        name = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            return [name]
        value = draw(st.sampled_from(sorted(action.choices)) | VALUES
                     if action.choices else VALUES)
        return draw(st.sampled_from([[name, value], [f"{name}={value}"]]))

    return st.lists(flag(), max_size=max_size)


@st.composite
def argvs(draw):
    """Global flags, a command, and that command's flags mixed with about
    the right number of positionals, each part sometimes junk."""
    command = draw(st.sampled_from(cli.COMMANDS))
    parser = subparsers()[command]
    positionals = [action for action in parser._actions if not action.option_strings]
    global_part = draw(flags(cli.build_parser(), 3))
    parts = draw(flags(parser, 4))
    n = len(positionals)
    count = draw(st.sampled_from([n, n, n, max(0, n - 1), n + 1]))
    parts += [[draw(POSITIONALS)] for _ in range(count)]
    parts += [draw(JUNK)]
    argv = [token for part in global_part for token in part] + [command]
    return argv + [token for part in draw(st.permutations(parts)) for token in part]


@given(argvs())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_fast_path_declines_or_parses_as_argparse(argv):
    fast = cli._parse_well_formed(argv)
    if fast is not None:
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}, which the fast path parsed")
        assert vars(fast) == vars(expected)


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_a_recorded_flag_has_the_dest_that_argparse_gives_it(command):
    """Each declared argument, global or of a command, has one name and only
    the options that the fast path reads; the fast path gives it the dest,
    type, choices, default and requiredness of the action that argparse
    builds from the same entry."""
    _, _, arguments = cli._DECLARATIONS[command]
    flags, positionals, defaults = cli._declared(arguments)
    assert len(flags) + len(positionals) == len(defaults) == len(arguments)
    recorded = iter(positionals)
    parser = argparse.ArgumentParser()
    for name, options in arguments:
        assert options.keys() <= {"type", "choices", "default", "help", "action", "nargs"}
        assert options.get("action") in (None, "store_true")
        assert options.get("nargs") in (None, "?")
        action = parser.add_argument(name, **options)
        if action.option_strings:
            assert action.option_strings == [name]
            dest, kind, choices = flags[name]
        else:
            dest, kind, choices, required = next(recorded)
            assert required == (action.nargs is None)
        assert (dest, kind, choices, defaults[dest]) == (
            action.dest, None if action.nargs == 0 else action.type or str, action.choices,
            action.default)
