"""Command-line interface.

Exit codes: 0 on success, 2 on usage or input errors, 1 on unexpected
internal errors.  All file outputs are written atomically and are
byte-identical for identical inputs and flags (timings in ``bench``
reports excepted).  Output formats are documented in docs/formats.md.

Every argument is declared once, as data, in the table ``_DECLARATIONS``.
A well-formed command line is parsed from that table without building an
argparse parser; any other, help and usage errors included, goes to the
argparse parser that ``build_parser`` builds from it with every
subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

from harmory.evaluation import (CliqueSet, benchmark_measures, check_bench,
                                evaluate_covers, synthetic_corpus)
from harmory.harte import bass_pitch_class, parse_chord, pitch_class_set, render_chord
from harmory.memory import (
    EmptyCorpusError,
    MemoryThresholds,
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
from harmory.similarity import MEASURES, compare_pieces, corpus_similarity_matrix, matrix_to_csv
from harmory.timeline import (
    SchemaError,
    Timeline,
    encode_tps,
    estimate_key,
    flag,
    load_chart,
    load_jams,
)
from harmory.tps import Key, chord_distance

# Every harmory error subclasses ValueError.
USAGE_ERRORS = (OSError, ValueError)

# The one handler of harmory's warnings; each ``main`` call sets its level
# and points it at that call's ``sys.stderr``.
_LOG_HANDLER = logging.StreamHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(message)s"))


def write_atomic(path: Path, data: str | bytes) -> None:
    """Write ``data``, a ``str`` as UTF-8, to a new file beside ``path`` and
    rename it over ``path``, so a reader sees the old file or the new one.
    The file gets the mode ``open(path, "w")`` gives: 0o666 less the umask.
    On any failure the temp file is removed and the error re-raised, an OSError naming ``path``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd = None
    try:
        while fd is None:
            tmp = f"{path}.{os.urandom(4).hex()}"
            with contextlib.suppress(FileExistsError):
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as err:
        if fd is not None:
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror, str(path)) from err
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
    by piece id, the extension-free relative path.  A directory named
    like a piece is not one."""
    if not root.is_dir():
        raise NotADirectoryError(f"not a corpus directory: {root}")
    # os.walk, like rglob("*"), lists hidden files and descends no symlinked
    # directory, but reads each directory in one scandir.
    paths = sorted(Path(top, name) for top, _, names in os.walk(root) for name in names)
    pieces = (_read_piece(path, path.relative_to(root).as_posix())
              for path in paths if path.is_file())
    corpus = sorted((piece for piece in pieces if piece is not None), key=lambda t: t.id)
    if not corpus:
        raise EmptyCorpusError(f"no .jams.json or .chart files under {root}")
    return corpus


def finite_float(text: str) -> float:
    """The argparse type of every float flag: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _from_flags(cls, args):
    """The parameter class ``cls`` built, and so checked, from its fields' flags."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


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


def _named(name: str, text: str, parse=parse_chord):
    """``text`` parsed by ``parse``, a chord by default; an error names the
    argument or flag ``name`` and quotes ``text``."""
    try:
        return parse(text)
    except ValueError as err:  # every harmory error, HarteError too
        raise ValueError(f"{name} {text!r}: {err}") from err


def cmd_dist(args) -> int:
    a, b = _named("chord_a", args.chord_a), _named("chord_b", args.chord_b)
    key = _named("--key", args.key, Key.from_string) if args.key else estimate_key([a, b])
    value = chord_distance(a, key, b, key)
    print(int(value) if value == int(value) else value)
    if not args.key and not args.quiet:
        print(f"note: no --key given, estimated {key}")
    return 0


def cmd_encode(args) -> int:
    timeline = load_piece(Path(args.piece))
    series = encode_tps(timeline, args.grid)
    # Each distinct row is formatted once, keyed by the weight's text: a
    # Fraction hashes slowly, and a beat grid's rows share one weight object.
    lines, texts, weight, suffix = ["value,weight"], {}, None, ""
    for v, w in series.values:
        if w is not weight:
            weight, suffix = w, f",{w}"
        line = texts.get((v, suffix))
        if line is None:
            line = texts[v, suffix] = f"{float(v)!r}{suffix}"
        lines.append(line)
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def cmd_segment(args) -> int:
    params = _from_flags(SegmentationParams, args)
    timeline = load_piece(Path(args.piece))
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
    steps = _from_flags(MEASURES[args.measure], args)
    a = load_piece(Path(args.piece_a))
    b = load_piece(Path(args.piece_b))
    print(compare_pieces(steps, a, b).to_json(), end="")
    return 0


def cmd_build_graph(args) -> int:
    params, thresholds = (_from_flags(cls, args) for cls in (SegmentationParams, MemoryThresholds))
    graph = build_memory(discover_corpus(Path(args.corpus)), params, thresholds)
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
    chords = tuple(_named(f"token {number}", token)
                   for number, token in enumerate(args.progression.split(), 1))
    key = _named("--key", args.key, Key.from_string) if args.key else None
    query = PatternQuery(chords=chords, key=key, k=args.k)
    results = query_similar(import_ntriples(read_file(args.graph)), query)
    payload = [{"pattern": pattern_id, "score": score, "chords": chords_text}
               for pattern_id, score, chords_text in results]
    print(json.dumps(payload, indent=2))
    return 0


def cmd_eval_covers(args) -> int:
    steps = _from_flags(MEASURES[args.measure], args)
    corpus = discover_corpus(Path(args.corpus))
    cliques = CliqueSet.from_csv(read_text(args.cliques))
    metrics = evaluate_covers(corpus, cliques, steps)
    print(metrics.to_table() if args.format == "table" else metrics.to_json(), end="")
    return 0


def cmd_bench(args) -> int:
    names = args.measures.split(",")
    check_bench(names, args.repetitions)
    if not (args.synthetic or args.corpus):
        raise ValueError("bench needs a corpus directory or --synthetic")
    corpus = (synthetic_corpus(args.synthetic_pieces, args.synthetic_beats) if args.synthetic
              else discover_corpus(Path(args.corpus)))
    report = benchmark_measures(corpus, tuple(MEASURES[n]() for n in names), args.repetitions)
    print(json.dumps(report, indent=2))
    return 0


def cmd_matrix(args) -> int:
    steps = _from_flags(MEASURES[args.measure], args)
    corpus = discover_corpus(Path(args.corpus))
    ids, matrix = corpus_similarity_matrix(corpus, steps)
    text = matrix_to_csv(ids, matrix)
    if args.out:
        write_atomic(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def _field_flags(*classes) -> tuple[tuple[str, dict], ...]:
    """The ``flag`` of each parameter class field, each name once, typed
    ``finite_float`` for a float default and ``int`` otherwise."""
    fields = {f.name: f for cls in classes for f in dataclasses.fields(cls)}
    return tuple((flag(name), dict(
        type=finite_float if isinstance(f.default, float) else int, default=f.default,
        help=f.metadata.get("help"))) for name, f in fields.items())


_SEG_FLAGS = _field_flags(SegmentationParams)
_MEASURE_FLAGS = (("--measure", dict(choices=sorted(MEASURES), default="dtw")),
                  *_field_flags(*MEASURES.values()))
# bench's defaults are its functions': (measures, repetitions) and (pieces, beats).
_BENCH, _SYNTHETIC = benchmark_measures.__defaults__, synthetic_corpus.__defaults__
_WORKERS_FLAG = ("--workers", dict(type=int, default=1, help=(
    "accepted for compatibility; pairs are scored in one thread and the output is the "
    "same for every value")))

# Every argument, declared once: for the top-level parser (None) and each
# command, its function, help text and (name, ``add_argument`` options)
# pairs in ``--help`` order.  An argument has one name, so its dest is
# that name without leading dashes and with ``-`` turned into ``_``.
_DECLARATIONS = {
    None: (None, "Symbolic harmonic similarity and the harmonic memory graph.", (
        ("--quiet", dict(action="store_true", help="suppress notes and warnings")),
        ("--out-dir", dict(default=".", help="directory for file outputs")))),
    "parse": (cmd_parse, "parse a chord symbol to JSON", (("chord", {}),)),
    "dist": (cmd_dist, "Tonal Pitch Space distance between two chords", (
        ("chord_a", {}), ("chord_b", {}),
        ("--key", dict(help="governing key, e.g. C:maj (estimated when omitted)")))),
    "encode": (cmd_encode, "encode a piece as a TPS series CSV", (
        ("piece", {}), ("--grid", dict(choices=("event", "beat"), default="event")),
        ("--out", {}))),
    "segment": (cmd_segment, "segment a piece; writes SSM/novelty/boundaries", (
        ("piece", {}), *_SEG_FLAGS)),
    "sim": (cmd_sim, "similarity report for two pieces", (
        ("piece_a", {}), ("piece_b", {}), *_MEASURE_FLAGS)),
    "matrix": (cmd_matrix, "pairwise similarity matrix CSV for a corpus", (
        ("corpus", {}), *_MEASURE_FLAGS, ("--out", {}))),
    "build": (cmd_build_graph, "build the harmonic memory graph from a corpus", (
        ("corpus", {}), *_SEG_FLAGS, *_field_flags(MemoryThresholds), _WORKERS_FLAG)),
    "query": (cmd_query, "query a memory graph with a chord progression", (
        ("graph", dict(help="path to an exported .nt graph")),
        ("progression", dict(help="space-separated chord symbols")),
        ("--key", dict(help="query key, e.g. C:maj (estimated when omitted)")),
        ("-k", dict(type=int, default=PatternQuery.k)))),
    "eval-covers": (cmd_eval_covers, "cover-identification metrics for a corpus", (
        ("corpus", {}), ("cliques", dict(help="CSV with header piece_id,clique_id")),
        *_MEASURE_FLAGS, _WORKERS_FLAG,
        ("--format", dict(choices=("json", "table"), default="json")))),
    "bench": (cmd_bench, "wall-clock and comparison-count benchmark", (
        ("corpus", dict(nargs="?")),
        ("--measures", dict(default=",".join(steps.name for steps in _BENCH[0]))),
        ("--repetitions", dict(type=int, default=_BENCH[1])),
        ("--synthetic", dict(action="store_true",
                             help="benchmark the built-in synthetic corpus")),
        ("--synthetic-pieces", dict(type=int, default=_SYNTHETIC[0])),
        ("--synthetic-beats", dict(type=int, default=_SYNTHETIC[1])))),
}
COMMANDS = tuple(name for name in _DECLARATIONS if name is not None)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_DECLARATIONS`` with every subcommand, for
    help and usage errors."""
    _, description, arguments = _DECLARATIONS[None]
    parser = argparse.ArgumentParser(prog="harmory", description=description)
    for name, options in arguments:
        parser.add_argument(name, **options)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        func, help_text, arguments = _DECLARATIONS[command]
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        for name, options in arguments:
            p.add_argument(name, **options)
    return parser


def _declared(arguments):
    """What argparse makes of one parser's ``arguments`` in
    ``_DECLARATIONS``: each flag's (dest, type, choices) by its name, the
    type None for ``store_true``; each positional's (dest, type, choices,
    required), ``nargs="?"`` making it optional; and each dest's default."""
    flags, positionals, defaults = {}, [], {}
    for name, options in arguments:
        kind, choices = options.get("type", str), options.get("choices")
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            if options.get("action") == "store_true":
                kind = None
            flags[name] = dest, kind, choices
        else:
            dest = name
            positionals.append((dest, kind, choices, "nargs" not in options))
        defaults[dest] = options.get("default", False if kind is None else None)
    return flags, positionals, defaults


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


def _positional_tokens(flags: dict, tokens, values: dict):
    """Each token of the iterator ``tokens`` that is not a flag, storing
    the value of each of ``flags`` met before it in ``values``.
    Declines every flag that is not spelled out in full, and every value
    that is missing or starts with ``-``."""
    for token in tokens:
        if not token.startswith("-"):
            yield token
            continue
        flag, equals, text = token.partition("=")
        if flag not in flags:
            raise _Declined
        dest, kind, choices = flags[flag]
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
    from the declarations of the global options and of the command named
    in ``argv``, without building an argparse parser.  None for an argv
    that needs argparse: a token that starts with ``-`` and is not a
    declared flag spelled out in full (``-h``, ``--help``, ``--`` and
    ``-k5`` among them), a missing value or one that starts with ``-``, a
    bad value, or the wrong number of positionals.

    The global options come before the command, the command's after it,
    mixed with its positionals; the last of a repeated flag wins."""
    top_flags, _, values = _declared(_DECLARATIONS[None][2])
    tokens = iter(argv)
    try:
        command = next(_positional_tokens(top_flags, tokens, values), None)
        if command not in COMMANDS:
            return None
        func, _, arguments = _DECLARATIONS[command]
        flags, positionals, defaults = _declared(arguments)
        values.update(defaults, command=command, func=func)
        given = list(_positional_tokens(flags, tokens, values))
        required = sum(required for *_, required in positionals)
        if not required <= len(given) <= len(positionals):
            return None
        for (dest, kind, choices, _), text in zip(positionals, given):
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
    _LOG_HANDLER.setLevel(logging.ERROR if args.quiet else logging.WARNING)
    _LOG_HANDLER.stream = sys.stderr
    logging.getLogger("harmory").addHandler(_LOG_HANDLER)  # once: a handler is added once
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
