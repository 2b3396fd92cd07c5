"""Command-line interface.

Exit codes: 0 on success, 2 on usage or input errors, 1 on unexpected
internal errors.  All file outputs are written atomically and are
byte-identical for identical inputs and flags (timings in ``bench``
reports excepted).  Output formats are documented in docs/formats.md.

Every flag is declared once, in ``build_parser``.  A well-formed command
line is parsed from those declarations without building an argparse
parser; any other, help and usage errors included, goes to the argparse
parser with every subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import tempfile
from pathlib import Path

from harmory.evaluation import (
    CliqueSet,
    benchmark_measures,
    evaluate_covers,
    synthetic_corpus,
)
from harmory.harte import parse_chord, render_chord, bass_pitch_class, pitch_class_set
from harmory.memory import (
    EmptyCorpusError,
    PatternQuery,
    build_memory,
    chord_sequence,
    export_json,
    export_ntriples,
    graph_stats,
    import_ntriples,
    query_similar,
)
from harmory.segmentation import (
    SegmentationParams,
    boundaries_to_csv,
    novelty_to_csv,
    segment_timeline,
    ssm_to_pgm,
)
from harmory.similarity import _STEPS, MEASURES, corpus_similarity_matrix, matrix_to_csv
from harmory.timeline import (
    SchemaError,
    Timeline,
    encode_tps,
    estimate_key,
    load_chart,
    load_jams,
)
from harmory.tps import Key, chord_distance

# Every harmory error subclasses ValueError.
USAGE_ERRORS = (OSError, ValueError)


def write_atomic(path: Path, data: str | bytes) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_file(path) -> bytes:
    """A whole input file, in one plain binary read."""
    with open(path, "rb") as handle:
        return handle.read()


def read_text(path) -> str:
    """A whole input file as ``Path.read_text`` reads it under a UTF-8
    locale: decoded as UTF-8, with the same error, and every CRLF or CR
    turned into LF."""
    text = read_file(path).decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_piece(path: Path, name: str) -> Timeline | None:
    """Load a piece whose id is ``name`` without its extension; None when
    ``name`` has neither piece extension."""
    if name.endswith(".jams.json"):
        return load_jams(read_text(path), fallback_id=name[:-len(".jams.json")])
    if name.endswith(".chart"):
        return load_chart(read_text(path), piece_id=name[:-len(".chart")])
    return None


def load_piece(path: Path) -> Timeline:
    piece = _read_piece(path, path.name)
    if piece is None:
        raise SchemaError(f"{path}: expected a .jams.json or .chart file")
    return piece


def discover_corpus(root: Path) -> list[Timeline]:
    """Load all *.jams.json and *.chart files under a directory, sorted
    by path; piece ids are the extension-free relative paths.  A
    directory named like a piece is not one."""
    if not root.is_dir():
        raise NotADirectoryError(f"not a corpus directory: {root}")
    pieces = (_read_piece(path, path.relative_to(root).as_posix())
              for path in sorted(root.rglob("*")) if path.is_file())
    corpus = [piece for piece in pieces if piece is not None]
    if not corpus:
        raise EmptyCorpusError(f"no .jams.json or .chart files under {root}")
    return corpus


def finite_float(text: str) -> float:
    """The argparse type of every float flag: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """The argparse type of ``--min-gap`` and ``--min-len``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def kernel_size(text: str) -> int:
    """The argparse type of ``--kernel-size``."""
    value = int(text)
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError(f"expected an even integer >= 2, got {text!r}")
    return value


def _seg_params(args) -> SegmentationParams:
    return SegmentationParams(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(SegmentationParams)})


def _add_seg_arguments(parser) -> None:
    for f in dataclasses.fields(SegmentationParams):
        kind = (finite_float if isinstance(f.default, float)
                else kernel_size if f.name == "kernel_size" else non_negative_int)
        parser.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)


def _measure_params(args) -> dict:
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(_STEPS[args.measure])}


def _add_measure_arguments(parser) -> None:
    parser.add_argument("--measure", choices=sorted(MEASURES), default="dtw")
    declared = {f.name: f for steps in _STEPS.values() for f in dataclasses.fields(steps)}
    for f in declared.values():
        parser.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                            type=finite_float if isinstance(f.default, float) else int,
                            help=f.metadata.get("help"))


def _add_workers_argument(parser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; pairs are scored in one "
                             "thread and the output is the same for every value")


def cmd_parse(args) -> int:
    chord = parse_chord(args.chord)
    if chord.is_nochord:
        payload = {"kind": "nochord"}
    else:
        payload = {
            "kind": "sounded",
            "root": str(chord.root),
            "shorthand": chord.shorthand,
            "degrees": sorted(map(str, chord.degrees)),
            "bass": str(chord.bass) if chord.bass else None,
            "pitch_classes": sorted(pitch_class_set(chord)),
            "bass_pitch_class": bass_pitch_class(chord),
            "canonical": render_chord(chord),
        }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_dist(args) -> int:
    a, b = parse_chord(args.chord_a), parse_chord(args.chord_b)
    key = Key.from_string(args.key) if args.key else estimate_key([a, b])
    value = chord_distance(a, key, b, key)
    print(int(value) if value == int(value) else value)
    if not args.key and not args.quiet:
        print(f"note: no --key given, estimated {key}")
    return 0


def cmd_encode(args) -> int:
    timeline = load_piece(Path(args.piece))
    series = encode_tps(timeline, args.grid)
    lines = ["value,weight"]
    lines += [f"{float(v)!r},{w}" for v, w in series.values]
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def cmd_segment(args) -> int:
    timeline = load_piece(Path(args.piece))
    params = _seg_params(args)
    result = segment_timeline(timeline, params)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = timeline.id.replace("/", "_")
    write_atomic(out_dir / f"{stem}.ssm.pgm", ssm_to_pgm(result.ssm))
    if result.curve is not None:
        write_atomic(out_dir / f"{stem}.novelty.csv", novelty_to_csv(result.curve))
    write_atomic(out_dir / f"{stem}.boundaries.csv", boundaries_to_csv(result.boundaries))
    payload = {
        "piece": timeline.id,
        "params": dataclasses.asdict(params) | {"kernel_size": result.kernel_size},
        "boundaries": result.boundaries,
        "segments": [{"id": s.id, "start_event": s.start_event, "end_event": s.end_event,
                      "chords": chord_sequence(s)}
                     for s in result.segments],
    }
    text = json.dumps(payload, indent=2) + "\n"
    write_atomic(out_dir / f"{stem}.segments.json", text)
    if not args.quiet:
        print(text, end="")
    return 0


def cmd_sim(args) -> int:
    a = load_piece(Path(args.piece_a))
    b = load_piece(Path(args.piece_b))
    report = MEASURES[args.measure](a, b, **_measure_params(args))
    print(report.to_json(), end="")
    return 0


def cmd_build_graph(args) -> int:
    corpus = discover_corpus(Path(args.corpus))
    graph = build_memory(corpus, _seg_params(args), theta_sim=args.theta_sim,
                         theta_merge=args.theta_merge)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "memory.nt", export_ntriples(graph))
    write_atomic(out_dir / "memory.json", export_json(graph))
    stats = json.dumps(graph_stats(graph), indent=2) + "\n"
    write_atomic(out_dir / "stats.json", stats)
    if not args.quiet:
        print(stats, end="")
    return 0


def cmd_query(args) -> int:
    graph = import_ntriples(read_file(args.graph))
    chords = tuple(parse_chord(token) for token in args.progression.split())
    key = Key.from_string(args.key) if args.key else None
    results = query_similar(graph, PatternQuery(chords=chords, key=key, k=args.k))
    payload = [{"pattern": pattern_id, "score": score, "chords": chords_text}
               for pattern_id, score, chords_text in results]
    print(json.dumps(payload, indent=2))
    return 0


def cmd_eval_covers(args) -> int:
    corpus = discover_corpus(Path(args.corpus))
    cliques = CliqueSet.from_csv(read_text(args.cliques))
    metrics = evaluate_covers(corpus, cliques, measure=args.measure,
                              params=_measure_params(args))
    print(metrics.to_table() if args.format == "table" else metrics.to_json(), end="")
    return 0


def cmd_bench(args) -> int:
    if args.synthetic:
        corpus = synthetic_corpus(args.synthetic_pieces, args.synthetic_beats)
    else:
        if not args.corpus:
            raise ValueError("bench needs a corpus directory or --synthetic")
        corpus = discover_corpus(Path(args.corpus))
    report = benchmark_measures(corpus, measures=tuple(args.measures.split(",")),
                                repetitions=args.repetitions)
    print(json.dumps(report, indent=2))
    return 0


def cmd_matrix(args) -> int:
    corpus = discover_corpus(Path(args.corpus))
    ids, matrix = corpus_similarity_matrix(corpus, args.measure, _measure_params(args))
    text = matrix_to_csv(ids, matrix)
    if args.out:
        write_atomic(Path(args.out), text)
    else:
        print(text, end="")
    return 0


COMMANDS = ("parse", "dist", "encode", "segment", "sim", "matrix", "build", "query",
            "eval-covers", "bench")


def build_parser(commands=COMMANDS, parser_class=argparse.ArgumentParser):
    """The parser with the subcommands named in ``commands``, added in the
    order of ``COMMANDS``; each subcommand's arguments, help and usage are
    the same whichever others are added.  ``parse_args`` passes
    ``_Declared`` as ``parser_class`` to read the declarations without
    building an argparse parser."""
    parser = parser_class(
        prog="harmory",
        description="Symbolic harmonic similarity and the harmonic memory graph.")
    parser.add_argument("--quiet", action="store_true", help="suppress notes and warnings")
    parser.add_argument("--out-dir", default=".", help="directory for file outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        """The subparser of ``name``; None when it is not in ``commands``."""
        if name not in commands:
            return None
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    if p := command("parse", cmd_parse, "parse a chord symbol to JSON"):
        p.add_argument("chord")

    if p := command("dist", cmd_dist, "Tonal Pitch Space distance between two chords"):
        p.add_argument("chord_a")
        p.add_argument("chord_b")
        p.add_argument("--key", help="governing key, e.g. C:maj (estimated when omitted)")

    if p := command("encode", cmd_encode, "encode a piece as a TPS series CSV"):
        p.add_argument("piece")
        p.add_argument("--grid", choices=("event", "beat"), default="event")
        p.add_argument("--out")

    if p := command("segment", cmd_segment, "segment a piece; writes SSM/novelty/boundaries"):
        p.add_argument("piece")
        _add_seg_arguments(p)

    if p := command("sim", cmd_sim, "similarity report for two pieces"):
        p.add_argument("piece_a")
        p.add_argument("piece_b")
        _add_measure_arguments(p)

    if p := command("matrix", cmd_matrix, "pairwise similarity matrix CSV for a corpus"):
        p.add_argument("corpus")
        _add_measure_arguments(p)
        p.add_argument("--out")

    if p := command("build", cmd_build_graph, "build the harmonic memory graph from a corpus"):
        p.add_argument("corpus")
        _add_seg_arguments(p)
        p.add_argument("--theta-sim", type=finite_float, default=0.6)
        p.add_argument("--theta-merge", type=finite_float, default=0.9)
        _add_workers_argument(p)

    if p := command("query", cmd_query, "query a memory graph with a chord progression"):
        p.add_argument("graph", help="path to an exported .nt graph")
        p.add_argument("progression", help="space-separated chord symbols")
        p.add_argument("--key", help="query key, e.g. C:maj (estimated when omitted)")
        p.add_argument("-k", type=int, default=5)

    if p := command("eval-covers", cmd_eval_covers, "cover-identification metrics for a corpus"):
        p.add_argument("corpus")
        p.add_argument("cliques", help="CSV with header piece_id,clique_id")
        _add_measure_arguments(p)
        _add_workers_argument(p)
        p.add_argument("--format", choices=("json", "table"), default="json")

    if p := command("bench", cmd_bench, "wall-clock and comparison-count benchmark"):
        p.add_argument("corpus", nargs="?")
        p.add_argument("--measures", default="dtw,tpsd")
        p.add_argument("--repetitions", type=int, default=5)
        p.add_argument("--synthetic", action="store_true",
                       help="benchmark the built-in synthetic corpus")
        p.add_argument("--synthetic-pieces", type=int, default=16)
        p.add_argument("--synthetic-beats", type=int, default=256)

    return parser


class _Declared:
    """What ``build_parser`` declares for one parser, recorded in place of
    an ``argparse.ArgumentParser``: each flag's dest, type and choices,
    each positional's, each dest's default, and each subcommand's own
    ``_Declared``.  It is its own subparsers action."""

    def __init__(self, **_):
        self.flags = {}        # option string -> (dest, type, choices); type None: store_true
        self.positionals = []  # (dest, type, choices, required)
        self.defaults = {}     # dest -> default
        self.commands = {}     # name -> _Declared
        self.command_dest = None

    def add_argument(self, *names, action=None, type=None, choices=None, default=None,
                     nargs=None, help=None):
        if action not in (None, "store_true") or nargs not in (None, "?"):
            raise TypeError(f"{names}: only plain, store_true and nargs='?' arguments "
                            "can be recorded")
        if not names[0].startswith("-"):
            dest = names[0]
            self.positionals.append((dest, type or str, choices, nargs is None))
        else:
            # argparse's dest: the first long option, else the first option
            long = next((name for name in names if name.startswith("--")), names[0])
            dest = long.lstrip("-").replace("-", "_")
            if action == "store_true":
                default, type = default or False, None
            else:
                type = type or str
            self.flags.update(dict.fromkeys(names, (dest, type, choices)))
        self.defaults[dest] = default

    def add_subparsers(self, dest, required):
        self.command_dest = dest
        self.defaults[dest] = None
        return self

    def add_parser(self, name, **_):
        self.commands[name] = _Declared()
        return self.commands[name]

    def set_defaults(self, **defaults):
        self.defaults.update(defaults)


class _Declined(ValueError):
    """An argv that only argparse parses as it should; it never leaves
    ``_parse_well_formed``."""


def _converted(text: str, kind, choices):
    """``text`` through an argument's type and choices, as argparse converts it."""
    try:
        value = kind(text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        raise _Declined from None
    if choices is not None and value not in choices:
        raise _Declined
    return value


def _positional_tokens(declared: _Declared, tokens, values: dict):
    """Each token of the iterator ``tokens`` that is not a flag, storing
    the value of each flag of ``declared`` met before it in ``values``.
    Declines every flag that is not spelled out in full, and every value
    that is missing or starts with ``-``."""
    for token in tokens:
        if not token.startswith("-"):
            yield token
            continue
        flag, equals, text = token.partition("=")
        if flag not in declared.flags:
            raise _Declined
        dest, kind, choices = declared.flags[flag]
        if kind is None:  # store_true
            if equals:
                raise _Declined
            values[dest] = True
            continue
        if not equals:
            text = next(tokens, "-")
        if text.startswith("-"):
            raise _Declined
        values[dest] = _converted(text, kind, choices)


def _parse_well_formed(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that ``build_parser().parse_args(argv)`` returns, read
    from the declarations of the global options and of the commands named
    in ``argv`` (usually one), without building an argparse parser.  None
    for an argv that needs argparse: a token that starts with ``-`` and is
    not a declared flag spelled out in full (``-h``, ``--help``, ``--``
    and ``-k5`` among them), a missing value or one that starts with
    ``-``, a bad value, or the wrong number of positionals.

    The global options come before the command, the command's after it,
    mixed with its positionals; the last of a repeated flag wins."""
    top = build_parser(set(argv), _Declared)
    values = dict(top.defaults)
    tokens = iter(argv)
    try:
        command = next(_positional_tokens(top, tokens, values), None)
        declared = top.commands.get(command)
        if declared is None:
            return None
        values[top.command_dest] = command
        values.update(declared.defaults)
        given = list(_positional_tokens(declared, tokens, values))
        required = sum(required for *_, required in declared.positionals)
        if not required <= len(given) <= len(declared.positionals):
            return None
        for (dest, kind, choices, _), text in zip(declared.positionals, given):
            values[dest] = _converted(text, kind, choices)
    except _Declined:
        return None
    return argparse.Namespace(**values)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args`` does, printing the
    same help and errors and raising the same ``SystemExit``.  A
    well-formed argv is read from the declarations alone; the parser with
    every subcommand parses the rest, since a top-level usage message
    lists every command."""
    argv = sys.argv[1:] if argv is None else argv
    return _parse_well_formed(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    logging.basicConfig(format="%(message)s",
                        level=logging.ERROR if args.quiet else logging.WARNING)
    try:
        return args.func(args)
    except USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
