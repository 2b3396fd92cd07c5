"""End-to-end command-line tests driven through ``main(argv)``."""

from __future__ import annotations

import ast
import dataclasses
import errno
import importlib
import json
import math
import os
import pkgutil
import re
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmory
import harmory.cli as cli
import harmory.evaluation as evaluation
import harmory.segmentation as segmentation
from harmory.cli import main
from harmory.harte import parse_chord, render_chord
from harmory.memory import GraphFormatError, MemoryThresholds, PatternQuery, import_ntriples
from harmory.segmentation import SegmentationParams
from harmory.timeline import MAX_SPAN_BEATS, flag, load_chart, load_jams
from harmory.tps import KEYS, Key
from tests.conftest import (COVER_CORPUS, cover_jams, strict_json, transpose, transpose_chord,
                            transpose_key, write_chart)

DATA = Path(__file__).parent / "data"
GOLDEN_GRAPH = DATA / "memory_golden.nt"


def chart(chords, key="C:maj", beat=1):
    lines = [f"# key: {key}", ""]
    lines += [f"{i * beat} {beat} {chord}" for i, chord in enumerate(chords)]
    return "\n".join(lines) + "\n"


def write_corpus(root, pieces, key_by_piece=None):
    root.mkdir(parents=True, exist_ok=True)
    for name, chords in pieces.items():
        key = (key_by_piece or {}).get(name, "C:maj")
        (root / f"{name}.chart").write_text(chart(chords, key=key))
    return root


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_reports_chord_anatomy(capsys):
    code, out, _ = run(capsys, ["parse", "G:7/3"])
    assert code == 0
    payload = strict_json(out)
    assert payload["kind"] == "sounded"
    assert payload["root"] == "G"
    assert payload["shorthand"] == "7"
    assert payload["bass"] == "3"
    assert payload["pitch_classes"] == [2, 5, 7, 11]
    assert payload["bass_pitch_class"] == 11
    assert payload["canonical"] == "G:7/3"


def test_parse_lists_degrees_as_sorted_strings(capsys):
    code, out, _ = run(capsys, ["parse", "C:maj7(9,11)"])
    assert code == 0
    assert strict_json(out)["degrees"] == ["1", "11", "3", "5", "7", "9"]


def test_parse_nochord(capsys):
    code, out, _ = run(capsys, ["parse", "N"])
    assert code == 0
    assert strict_json(out) == {"kind": "nochord"}


def test_parse_malformed_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["parse", "H:maj"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_dist_with_explicit_key(capsys):
    code, out, _ = run(capsys, ["dist", "C:maj", "G:maj", "--key", "C:maj"])
    assert code == 0
    assert out == "5\n"


def test_dist_estimates_key_and_says_so(capsys):
    code, out, _ = run(capsys, ["dist", "C:maj", "G:maj"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "5"
    assert lines[1].startswith("note: no --key given")
    code, out, _ = run(capsys, ["--quiet", "dist", "C:maj", "G:maj"])
    assert code == 0
    assert out == "5\n"


def test_encode_csv_stdout_and_file(capsys, tmp_path):
    piece = tmp_path / "p.chart"
    piece.write_text(chart(["C:maj", "G:maj"]))
    code, out, _ = run(capsys, ["encode", str(piece)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,weight"
    assert len(lines) == 3
    target = tmp_path / "series.csv"
    code, _, _ = run(capsys, ["encode", str(piece), "--out", str(target)])
    assert code == 0
    assert target.read_text() == out


def test_segment_writes_artifacts(capsys, tmp_path):
    piece = tmp_path / "blocky.chart"
    piece.write_text(chart(["C:maj"] * 4 + ["G:maj"] * 4))
    out_dir = tmp_path / "seg"
    code, out, _ = run(capsys, ["--out-dir", str(out_dir), "segment", str(piece)])
    assert code == 0
    for suffix in (".ssm.pgm", ".novelty.csv", ".boundaries.csv", ".segments.json"):
        assert (out_dir / f"blocky{suffix}").exists()
    payload = strict_json((out_dir / "blocky.segments.json").read_text())
    assert payload["piece"] == "blocky"
    assert payload["boundaries"] == [4]
    assert [s["id"] for s in payload["segments"]] == ["blocky/seg/0", "blocky/seg/1"]
    assert payload["segments"][0]["chords"] == "C:maj C:maj C:maj C:maj"
    assert strict_json(out) == payload
    assert (out_dir / "blocky.ssm.pgm").read_text().startswith("P2\n8 8\n255\n")


SEGMENT_GOLDEN = DATA / "segment"


@pytest.mark.parametrize("golden, flags", [
    ("default", []),
    ("k12-t0.5", ["--kernel-size", "12", "--taper", "0.5"]),
])
def test_segment_matches_golden_outputs(capsys, tmp_path, golden, flags):
    """A 240-event piece over four keys, with no-chords, sevenths and
    inversions.  The PGM does not depend on the kernel, so both runs
    compare it with the default run's file."""
    piece = SEGMENT_GOLDEN / "modulating.jams.json"
    code, out, _ = run(capsys, ["--out-dir", str(tmp_path), "segment", str(piece), *flags])
    assert code == 0
    assert out.encode() == (SEGMENT_GOLDEN / golden / "stdout.json").read_bytes()
    assert (tmp_path / "modulating.ssm.pgm").read_bytes() \
        == (SEGMENT_GOLDEN / "default" / "modulating.ssm.pgm").read_bytes()
    for suffix in (".novelty.csv", ".boundaries.csv", ".segments.json"):
        assert (tmp_path / f"modulating{suffix}").read_bytes() \
            == (SEGMENT_GOLDEN / golden / f"modulating{suffix}").read_bytes()


def test_segment_builds_one_ssm(capsys, tmp_path, monkeypatch):
    piece = tmp_path / "blocky.chart"
    piece.write_text(chart(["C:maj"] * 4 + ["G:maj"] * 4))
    calls = []
    build_ssm = segmentation.build_ssm

    def counting(sounded):
        calls.append(len(sounded))
        return build_ssm(sounded)

    for module in (cli, segmentation):
        monkeypatch.setattr(module, "build_ssm", counting, raising=False)
    code, _, _ = run(capsys, ["--out-dir", str(tmp_path / "seg"), "segment", str(piece)])
    assert code == 0
    assert calls == [8]


def test_sim_scores_transposed_cover_as_identical(capsys, tmp_path):
    a = tmp_path / "a.chart"
    b = tmp_path / "b.chart"
    a.write_text(chart(["C:maj", "G:maj", "C:maj", "G:maj"]))
    b.write_text(chart(["D:maj", "A:maj", "D:maj", "A:maj"], key="D:maj"))
    for measure in ("dtw", "tpsd", "lharp"):
        code, out, _ = run(capsys, ["sim", str(a), str(b), "--measure", measure])
        assert code == 0
        payload = strict_json(out)
        assert payload["measure"] == measure
        assert payload["score"] == 1.0


def test_matrix_csv_and_reruns_are_identical(capsys, tmp_path):
    corpus = write_corpus(tmp_path / "corpus", {
        "x": ["C:maj", "G:maj"],
        "y": ["C:maj", "G:maj"],
    })
    code, out, _ = run(capsys, ["matrix", str(corpus)])
    assert code == 0
    assert out.splitlines()[0] == "id,x,y"
    assert "1.0,1.0" in out
    target = tmp_path / "m.csv"
    assert run(capsys, ["matrix", str(corpus), "--out", str(target)])[0] == 0
    assert target.read_text() == out
    assert run(capsys, ["matrix", str(corpus), "--out", str(target)])[0] == 0
    assert target.read_text() == out


def test_matrix_nested_corpus_uses_relative_ids(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus / "sub", {"x": ["C:maj"]})
    write_corpus(corpus, {"a": ["C:maj"]})
    code, out, _ = run(capsys, ["matrix", str(corpus)])
    assert code == 0
    assert out.splitlines()[0] == "id,a,sub/x"


def test_matrix_rows_follow_the_piece_ids_the_graph_lists(capsys, tmp_path):
    """``a.chart`` sorts after ``a-b.chart`` as a path, but ``a`` before
    ``a-b`` as an id, and the matrix lists pieces as the graph does."""
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj"], "a-b": ["G:maj"]})
    code, out, _ = run(capsys, ["matrix", str(corpus)])
    assert (code, out.splitlines()[0]) == (0, "id,a,a-b")
    assert run(capsys, ["--out-dir", str(tmp_path / "graph"), "build", str(corpus)])[0] == 0
    nodes = json.loads((tmp_path / "graph" / "memory.json").read_text())["nodes"]
    assert [n["id"] for n in nodes if n["type"] == "piece"] == ["a", "a-b"]


def test_build_matches_golden_graph_and_query_finds_medoid(capsys, tmp_path):
    corpus = write_corpus(tmp_path / "corpus", {
        "alpha": ["C:maj"] * 4 + ["G:maj"] * 4,
        "beta": ["G:maj"] * 4 + ["D:maj"] * 4,
        "gamma": ["C:maj", "C:maj", "C:maj", "A:min"],
    }, key_by_piece={"beta": "G:maj"})
    out_dir = tmp_path / "graph"
    argv = ["--out-dir", str(out_dir), "build", str(corpus), "--kernel-size", "4"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert (out_dir / "memory.nt").read_bytes() == GOLDEN_GRAPH.read_bytes()
    stats = strict_json((out_dir / "stats.json").read_text())
    assert stats == strict_json(out)
    assert stats["nodes"]["pieces"] == 3
    first = (out_dir / "memory.nt").read_bytes()
    json_first = (out_dir / "memory.json").read_bytes()
    code, _, _ = run(capsys, argv + ["--workers", "4"])
    assert code == 0
    assert (out_dir / "memory.nt").read_bytes() == first
    assert (out_dir / "memory.json").read_bytes() == json_first

    code, out, _ = run(capsys, [
        "query", str(out_dir / "memory.nt"), "C:maj C:maj C:maj C:maj",
        "--key", "C:maj"])
    assert code == 0
    results = strict_json(out)
    assert results[0]["score"] == 1.0
    assert results[0]["pattern"] == "alpha/seg/0"
    assert results[0]["chords"] == "C:maj C:maj C:maj C:maj"


def test_build_writes_the_json_goldens(capsys, tmp_path):
    """memory_golden.json and stats_golden.json were written from the
    fixture corpus of memory_golden.nt, and hold the exact bytes of
    ``build``'s JSON outputs."""
    corpus = write_corpus(tmp_path / "corpus", {
        "alpha": ["C:maj"] * 4 + ["G:maj"] * 4,
        "beta": ["G:maj"] * 4 + ["D:maj"] * 4,
        "gamma": ["C:maj", "C:maj", "C:maj", "A:min"],
    }, key_by_piece={"beta": "G:maj"})
    out_dir = tmp_path / "graph"
    code, out, _ = run(capsys, ["--out-dir", str(out_dir), "build", str(corpus),
                                "--kernel-size", "4"])
    assert code == 0
    assert (out_dir / "memory.json").read_bytes() == (DATA / "memory_golden.json").read_bytes()
    stats = (DATA / "stats_golden.json").read_bytes()
    assert (out_dir / "stats.json").read_bytes() == stats
    assert out.encode() == stats


def test_every_output_file_gets_the_mode_open_gives_and_no_temp_file_stays(capsys, tmp_path):
    """Each file a command writes is created as ``open(path, "w")`` creates
    it, 0o666 less the umask, and the temp file it went through is gone."""
    corpus, _ = write_cover_corpus(tmp_path / "covers")
    piece = str(SEGMENT_GOLDEN / "modulating.jams.json")
    out = tmp_path / "out"
    for name in ("encode", "matrix"):
        (out / name).mkdir(parents=True)
    # Each command's output directory, its argv and the files it writes there.
    calls = {
        "segment": (["--out-dir", str(out / "segment"), "segment", piece],
                    {f"modulating{suffix}" for suffix in (".ssm.pgm", ".novelty.csv",
                                                         ".boundaries.csv", ".segments.json")}),
        "build": (["--out-dir", str(out / "build"), "build", str(corpus)],
                  {"memory.nt", "memory.json", "stats.json"}),
        "encode": (["encode", piece, "--out", str(out / "encode" / "series.csv")],
                   {"series.csv"}),
        "matrix": (["matrix", str(corpus), "--out", str(out / "matrix" / "m.csv")], {"m.csv"}),
    }
    umask = 0o027
    previous = os.umask(umask)
    try:
        for argv, _ in calls.values():
            assert run(capsys, argv)[0] == 0
    finally:
        os.umask(previous)
    for directory, (_, names) in calls.items():
        files = list((out / directory).iterdir())
        assert {path.name for path in files} == names, directory
        for path in files:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


@pytest.mark.parametrize("argv, target", [
    (["encode", "{piece}", "--out", "{out}/series.csv"], "series.csv"),
    (["matrix", "{corpus}", "--out", "{out}/m.csv"], "m.csv"),
    (["--out-dir", "{out}", "segment", "{piece}"], "modulating.ssm.pgm"),
])
def test_an_output_path_that_is_a_directory_is_a_usage_error_leaving_no_temp_file(
        capsys, tmp_path, argv, target):
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj", "G:maj"]})
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    paths = {"piece": SEGMENT_GOLDEN / "modulating.jams.json", "corpus": corpus, "out": out}
    code, out_text, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out_text) == (2, "")
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out / target}'\n"
    assert [path.name for path in out.iterdir()] == [target]


@pytest.mark.parametrize("argv", [["encode", "{piece}", "--out", "{out}/series.csv"],
                                  ["matrix", "{corpus}", "--out", "{out}/m.csv"]])
def test_an_output_path_in_a_missing_directory_is_a_usage_error_naming_it(capsys, tmp_path,
                                                                         argv):
    """The error names the target, not the temp file that could not be made."""
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj", "G:maj"]})
    out = tmp_path / "missing"
    paths = {"piece": SEGMENT_GOLDEN / "modulating.jams.json", "corpus": corpus, "out": out}
    argv = [arg.format(**paths) for arg in argv]
    assert run(capsys, argv) == (
        2, "", f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{argv[-1]}'\n")
    assert not out.exists()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``build`` of the cover corpus and of a modulating JAMS corpus,
    ``matrix`` and ``eval-covers`` per measure, ``segment``, a beat-grid
    ``encode`` and ``query`` with and without ``--key`` print and write the
    same bytes, and exit alike, under two hash seeds."""
    corpus, cliques = write_cover_corpus(tmp_path / "covers")
    modulating = tmp_path / "modulating"
    modulating.mkdir()
    (modulating / "modulating.jams.json").write_bytes(
        (SEGMENT_GOLDEN / "modulating.jams.json").read_bytes())
    for piece_id, _, beat, sections in COVER_CORPUS:
        if len(sections) > 1:
            (modulating / f"{piece_id}.jams.json").write_text(cover_jams(piece_id, beat, sections))
    src = str(Path(__file__).parents[1] / "src")
    progression = "A:min D:min E:7 A:min F:maj"

    def outputs(seed):
        out = tmp_path / f"seed-{seed}"
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        results = []
        for argv in (["build", str(corpus)],
                     ["--out-dir", str(out / "modulating"), "build", str(modulating)],
                     *(["matrix", str(corpus), "--measure", measure]
                       for measure in ("dtw", "tpsd", "lharp")),
                     *(["eval-covers", str(corpus), str(cliques), "--measure", measure]
                       for measure in ("dtw", "lharp")),
                     ["segment", str(SEGMENT_GOLDEN / "modulating.jams.json")],
                     ["encode", str(SEGMENT_GOLDEN / "modulating.jams.json"), "--grid", "beat"],
                     ["query", str(out / "memory.nt"), progression],
                     ["query", str(out / "memory.nt"), progression, "--key", "A:min"]):
            done = subprocess.run([sys.executable, "-m", "harmory", "--out-dir", str(out), *argv],
                                  capture_output=True, env=env)
            results.append((done.returncode, done.stdout, done.stderr))
        return results, {path.relative_to(out).as_posix(): path.read_bytes()
                         for path in sorted(out.rglob("*")) if path.is_file()}

    first = outputs(0)
    assert [code for code, _, _ in first[0]] == [0] * 11
    assert len(first[1]) == 10
    assert outputs(987) == first


def test_malformed_graphs_are_usage_errors_with_a_position(capsys, tmp_path):
    graph = tmp_path / "memory.nt"
    graph.write_text('<urn:harmory:p> <urn:harmory:hasSegment> <urn:harmory:p/intro> .\n'
                     '<urn:harmory:p/intro> <urn:harmory:chordSequence> "C:maj" .\n')
    code, _, err = run(capsys, ["query", str(graph), "C:maj"])
    assert code == 2
    assert err.startswith("error: line 1:")
    graph.write_text('<urn:harmory:p> <urn:harmory:hasSegment> <urn:harmory:p/seg/0> .\n'
                     '<urn:harmory:p/seg/0> <urn:harmory:chordSequence> "C:maj" .\n'
                     '<urn:harmory:p/seg/0> <urn:harmory:keySequence> "C:maj" .\n'
                     '<urn:harmory:p/seg/0> <urn:harmory:instanceOf> <urn:harmory:q/seg/0> .\n')
    code, _, err = run(capsys, ["query", str(graph), "C:maj"])
    assert code == 2
    assert err.startswith("error: line 4:")
    assert "q/seg/0" in err


@pytest.mark.parametrize("obj", ["<XXXXXXXXXXXXgamma/seg/0>", "<>"])
def test_an_object_iri_outside_the_base_is_a_usage_error(capsys, tmp_path, obj):
    """The object of an instanceOf line is not sliced past the base unread."""
    line = b"<urn:harmory:gamma/seg/0> <urn:harmory:instanceOf> <urn:harmory:gamma/seg/0> ."
    lines = GOLDEN_GRAPH.read_bytes().splitlines()
    graph = tmp_path / "memory.nt"
    graph.write_bytes(b"\n".join(lines).replace(line, line.replace(
        b"<urn:harmory:gamma/seg/0> .", obj.encode() + b" .")) + b"\n")
    number = lines.index(line) + 1
    assert run(capsys, ["query", str(graph), "C:maj"]) \
        == (2, "", f"error: line {number}: not a recognized triple\n")


def test_a_boolean_time_is_a_usage_error(capsys, tmp_path):
    piece = tmp_path / "p.jams.json"
    piece.write_text(json.dumps({"annotations": [{"namespace": "chord_harte", "data": [
        {"time": False, "duration": True, "value": "C:maj"}]}]}))
    assert run(capsys, ["encode", str(piece)]) \
        == (2, "", "error: p: observation 0: bad time value False\n")


@pytest.mark.parametrize("data", [b'{"a": 1}', b"x\r\ny\rz\r\n\r", "\u00e9\u2028".encode(),
                                  b"ok\xff", b"x" * 9000 + b"\xe2\x82"])
def test_input_files_read_as_path_read_text_reads_them(tmp_path, data):
    """Decoded as UTF-8 with universal newlines, or the same decode error."""
    path = tmp_path / "input"
    path.write_bytes(data)
    try:
        expected = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        with pytest.raises(UnicodeDecodeError, match=f"^{re.escape(str(err))}$"):
            cli.read_text(path)
    else:
        assert cli.read_text(path) == expected
    assert cli.read_file(path) == data


def test_a_similar_to_edge_between_non_patterns_is_a_usage_error(capsys, tmp_path):
    """Without gamma/seg/0's own instanceOf line, the similarTo edge on
    line 7 names a segment that is no pattern."""
    line = b"<urn:harmory:gamma/seg/0> <urn:harmory:instanceOf> <urn:harmory:gamma/seg/0> .\n"
    assert line in GOLDEN_GRAPH.read_bytes()
    graph = tmp_path / "memory.nt"
    graph.write_bytes(GOLDEN_GRAPH.read_bytes().replace(line, b""))
    message = ("line 7: similarTo alpha/seg/0 gamma/seg/0: "
               "both must be patterns (the object of an instanceOf)")
    with pytest.raises(GraphFormatError) as raised:
        import_ntriples(graph.read_bytes())
    assert str(raised.value) == message
    assert run(capsys, ["query", str(graph), "C:maj"]) == (2, "", f"error: {message}\n")


def test_build_of_a_piece_named_as_another_piece_s_segment_is_a_usage_error(capsys, tmp_path):
    """Piece a/seg/0 would be a node that is also the first segment of a."""
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj"] * 4})
    write_corpus(corpus / "a" / "seg", {"0": ["G:maj"] * 4})
    out_dir = tmp_path / "graph"
    assert run(capsys, ["--out-dir", str(out_dir), "build", str(corpus)]) \
        == (2, "", "error: hasSegment a a/seg/0: a/seg/0 is also a piece\n")
    assert not out_dir.exists()


def test_build_of_a_piece_whose_id_contains_seg_is_a_usage_error(capsys, tmp_path):
    """Piece p/seg/0/q would make weight node names ambiguous."""
    corpus = write_corpus(tmp_path / "corpus", {"p": ["C:maj"] * 4})
    write_corpus(corpus / "p" / "seg" / "0", {"q": ["G:maj"] * 4})
    out_dir = tmp_path / "graph"
    assert run(capsys, ["--out-dir", str(out_dir), "build", str(corpus)]) == (
        2, "", "error: hasSegment p/seg/0/q p/seg/0/q/seg/0: a piece id must not contain /seg/\n")
    assert not out_dir.exists()


def test_every_corpus_command_refuses_a_repeated_piece_id_naming_it(capsys, tmp_path):
    """a.chart and a.jams.json both load as piece a."""
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj", "G:maj"] * 4,
                                                "b": ["F:maj", "C:maj"] * 4})
    (corpus / "a.jams.json").write_text(cover_jams("a", 1, [("G:maj", ["G:maj", "D:maj"] * 4)]))
    cliques = tmp_path / "cliques.csv"
    cliques.write_text("piece_id,clique_id\na,x\nb,x\n")
    out_dir, matrix = tmp_path / "graph", tmp_path / "matrix.csv"
    for argv in (["--out-dir", str(out_dir), "build", str(corpus)],
                 ["matrix", str(corpus), "--out", str(matrix)],
                 ["eval-covers", str(corpus), str(cliques)],
                 ["bench", str(corpus), "--repetitions", "3"]):
        assert run(capsys, argv) == (2, "", "error: duplicate piece id 'a' in corpus\n"), argv
    assert not out_dir.exists()
    assert not matrix.exists()


def test_query_without_a_key_ranks_a_probe_as_its_transposition(capsys):
    """C G C G and, 5 semitones up, F C F C both fit two major keys
    equally; each is read in the key on its first root, so they rank
    alike."""
    rows = [run(capsys, ["query", str(GOLDEN_GRAPH), progression])
            for progression in ("C:maj G:maj C:maj G:maj", "F:maj C:maj F:maj C:maj")]
    assert rows[0] == rows[1]
    assert rows[0][0] == 0


def test_a_second_chord_sequence_of_a_segment_is_a_usage_error(capsys, tmp_path):
    """A repeated line is one triple; a line that gives gamma/seg/0 a
    second chordSequence is an error that names both lines."""
    line = b'<urn:harmory:gamma/seg/0> <urn:harmory:chordSequence> "C:maj C:maj C:maj A:min" .\n'
    golden = GOLDEN_GRAPH.read_bytes()
    graph = tmp_path / "memory.nt"
    graph.write_bytes(golden + line)
    assert run(capsys, ["query", str(graph), "C:maj"])[0] == 0
    graph.write_bytes(golden + line.replace(b"A:min", b"F:maj"))
    first = golden.splitlines(keepends=True).index(line) + 1
    assert run(capsys, ["query", str(graph), "C:maj"]) == (
        2, "", f"error: line 25: a second chordSequence of gamma/seg/0, "
               f"not the one of line {first}\n")


def test_eval_covers_json_and_table(capsys, tmp_path):
    corpus = write_corpus(tmp_path / "corpus", {
        "song0": ["C:maj", "F:maj", "G:maj", "C:maj"],
        "song0-cover": ["D:maj", "G:maj", "A:maj", "D:maj"],
        "song1": ["A:min", "D:min", "E:7", "A:min"],
        "song1-cover": ["B:min", "E:min", "Gb:7", "B:min"],
    }, key_by_piece={"song0-cover": "D:maj", "song1": "A:min",
                     "song1-cover": "B:min"})
    cliques = tmp_path / "cliques.csv"
    cliques.write_text("piece_id,clique_id\nsong0,c0\nsong0-cover,c0\n"
                       "song1,c1\nsong1-cover,c1\n")
    code, out, _ = run(capsys, ["eval-covers", str(corpus), str(cliques)])
    assert code == 0
    payload = strict_json(out)
    assert payload["mean_average_precision"] == 1.0
    code, out, _ = run(capsys, ["eval-covers", str(corpus), str(cliques),
                                "--format", "table"])
    assert code == 0
    assert "MAP: 1.0000" in out


def test_eval_covers_refuses_a_second_clique_of_a_piece(capsys, tmp_path):
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj"], "b": ["G:maj"], "c": ["F:maj"]})
    cliques = tmp_path / "cliques.csv"
    cliques.write_text("piece_id,clique_id\na,x\nb,x\nc,y\na,y\n")
    assert run(capsys, ["eval-covers", str(corpus), str(cliques)]) == (
        2, "", "error: line 5: a second clique 'y' of a, not 'x' of line 2\n")


def test_eval_covers_incomplete_cliques_is_a_usage_error(capsys, tmp_path):
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj"], "b": ["G:maj"]})
    cliques = tmp_path / "cliques.csv"
    cliques.write_text("piece_id,clique_id\na,x\n")
    code, _, err = run(capsys, ["eval-covers", str(corpus), str(cliques)])
    assert code == 2
    assert err.startswith("error:")


def test_bench_synthetic_report(capsys):
    code, out, _ = run(capsys, [
        "bench", "--synthetic", "--synthetic-pieces", "3",
        "--synthetic-beats", "16", "--repetitions", "3"])
    assert code == 0
    report = strict_json(out)
    assert report["pieces"] == 3
    assert report["pairs"] == 3
    assert set(report["measures"]) == {"dtw", "tpsd"}


def test_bench_counts_lharp_pattern_pairs(capsys):
    code, out, _ = run(capsys, [
        "bench", "--synthetic", "--synthetic-pieces", "3", "--synthetic-beats", "32",
        "--measures", "lharp", "--repetitions", "3"])
    assert code == 0
    stats = strict_json(out)["measures"]["lharp"]
    assert stats["comparisons_total"] == sum(row[2] for row in stats["comparisons_per_pair"])


def test_bench_refuses_fewer_synthetic_beats_than_one_event_before_timing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "benchmark_measures", None)  # never reached
    assert run(capsys, ["bench", "--synthetic", "--synthetic-beats", "3"]) == (
        2, "", "error: --synthetic-beats must be >= 4, one event of 4 beats, got 3\n")


def test_bench_refuses_synthetic_beats_over_the_span_bound_before_any_event(capsys,
                                                                           monkeypatch):
    monkeypatch.setattr(cli, "benchmark_measures", None)  # never reached
    monkeypatch.setattr(evaluation, "ChordEvent", None)  # no event is built
    beats = MAX_SPAN_BEATS + 4
    assert run(capsys, ["bench", "--synthetic", "--synthetic-beats", str(beats)]) == (
        2, "", f"error: --synthetic-beats must be < {beats}, at most {MAX_SPAN_BEATS // 4} "
        f"events of 4 beats, got {beats}\n")


def test_bench_without_corpus_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["bench"])
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, ["encode", str(tmp_path / "missing.chart")])
    assert code == 2
    assert err.startswith("error:")


def test_unrecognized_extension_is_a_usage_error(capsys, tmp_path):
    piece = tmp_path / "p.txt"
    piece.write_text("0 1 C:maj\n")
    code, _, err = run(capsys, ["encode", str(piece)])
    assert code == 2
    assert err.startswith("error:")


def test_corpus_must_be_a_directory_with_pieces(capsys, tmp_path):
    (tmp_path / "empty").mkdir()
    assert run(capsys, ["matrix", str(tmp_path / "empty")])[0] == 2
    stray = tmp_path / "stray.chart"
    stray.write_text(chart(["C:maj"]))
    assert run(capsys, ["matrix", str(stray)])[0] == 2


def test_directory_named_like_a_piece_is_not_a_piece(capsys, tmp_path):
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj"], "b": ["G:maj"]})
    (corpus / "odd.chart").mkdir()
    write_corpus(corpus / "odd.chart", {"x": ["F:maj"]})
    code, out, _ = run(capsys, ["matrix", str(corpus)])
    assert code == 0
    assert out.splitlines()[0] == "id,a,b,odd.chart/x"
    code, _, err = run(capsys, ["encode", str(corpus / "odd.chart")])
    assert code == 2
    assert err.startswith("error:")


def test_every_harmory_error_subclasses_value_error():
    """``cli.USAGE_ERRORS`` lists ValueError for all of them."""
    modules = [importlib.import_module(f"harmory.{info.name}")
               for info in pkgutil.iter_modules(harmory.__path__) if info.name != "__main__"]
    errors = {value for module in modules for value in vars(module).values()
              if isinstance(value, type) and issubclass(value, Exception)
              and value.__module__.startswith("harmory.")}
    assert len(errors) >= 8
    assert all(issubclass(error, ValueError) for error in errors), errors
    assert cli.USAGE_ERRORS == (OSError, ValueError)


def test_argparse_errors_become_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, ["sim", "a", "b", "--measure", "nope"])[0] == 2


def write_cover_corpus(root):
    """The shared cover corpus as JAMS files, and its clique CSV beside it."""
    root.mkdir(parents=True)
    rows = ["piece_id,clique_id"]
    for piece_id, clique, beat, sections in COVER_CORPUS:
        (root / f"{piece_id}.jams.json").write_text(cover_jams(piece_id, beat, sections))
        rows.append(f"{piece_id},{clique}")
    cliques = root.parent / "cliques.csv"
    cliques.write_text("\n".join(rows) + "\n")
    return root, cliques


def test_matrix_and_eval_covers_match_golden_outputs(capsys, tmp_path):
    corpus, cliques = write_cover_corpus(tmp_path / "covers")
    for measure in ("dtw", "tpsd", "lharp"):
        out = tmp_path / f"{measure}.csv"
        code, _, _ = run(capsys, ["matrix", str(corpus), "--measure", measure,
                                  "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (DATA / f"matrix_golden_{measure}.csv").read_bytes()
    code, out, _ = run(capsys, ["eval-covers", str(corpus), str(cliques)])
    assert code == 0
    assert out.encode() == (DATA / "eval_covers_golden.json").read_bytes()


def jams_text(timeline, time=float) -> str:
    """A timeline as JAMS text: its chord events and key spans, times in
    beats written by ``time`` (``str`` writes a rational exactly, as ``"7/2"``)."""
    chords = [{"time": time(e.start), "duration": time(e.duration),
               "value": render_chord(e.chord)} for e in timeline.events]
    keys = [{"time": time(s.start), "duration": time(s.duration), "value": str(s.key)}
            for s in timeline.keys]
    return json.dumps({"file_metadata": {"identifiers": {"id": timeline.id}},
                       "annotations": [{"namespace": "chord_harte", "data": chords},
                                       {"namespace": "key_mode", "data": keys}]})


def transposed_outputs(capsys, root, shifts):
    """Each cover-corpus piece moved by its own shift, written as JAMS and,
    for one key, as a chart: per format, the build's stats.json and
    memory.nt, the dtw, tpsd and lharp matrices and eval-covers' report."""
    timelines = [transpose(load_jams(cover_jams(piece_id, beat, sections)), shift)
                 for (piece_id, _, beat, sections), shift in zip(COVER_CORPUS, shifts)]
    cliques = root / "cliques.csv"
    root.mkdir()
    cliques.write_text("piece_id,clique_id\n" + "".join(f"{piece_id},{clique}\n"
                                                        for piece_id, clique, *_ in COVER_CORPUS))
    outputs = {}
    for form, write in (("jams.json", jams_text), ("chart", write_chart)):
        corpus = root / form
        corpus.mkdir()
        for timeline in timelines:
            if form == "jams.json" or len(timeline.keys) == 1:
                (corpus / f"{timeline.id}.{form}").write_text(write(timeline))
        out_dir = root / f"{form}-graph"
        assert run(capsys, ["--quiet", "--out-dir", str(out_dir), "build", str(corpus)])[0] == 0
        outputs[form, "stats"] = (out_dir / "stats.json").read_bytes()
        outputs[form, "graph"] = (out_dir / "memory.nt").read_text().splitlines()
        for measure in ("dtw", "tpsd", "lharp"):
            code, outputs[form, measure], _ = run(capsys, ["matrix", str(corpus),
                                                           "--measure", measure])
            assert code == 0
        code, outputs[form, "covers"], _ = run(capsys, ["eval-covers", str(corpus), str(cliques)])
        assert code == 0
    return outputs


def test_per_piece_transposition_keeps_every_cli_output(capsys, tmp_path):
    """Moving each piece by its own shift moves the chords and keys of the
    build's segment literals by that shift and changes no other byte of
    build, matrix or eval-covers, read from JAMS or from charts."""
    original = transposed_outputs(capsys, tmp_path / "original", [0] * len(COVER_CORPUS))
    literal = re.compile(r'^(<urn:harmory:(.*)/seg/\d+> <urn:harmory:(chord|key)Sequence>) '
                         r'"(.*)" \.$')

    @given(shifts=st.lists(st.integers(1, 11), min_size=len(COVER_CORPUS),
                           max_size=len(COVER_CORPUS)))
    @settings(max_examples=5, deadline=None)
    def check(shifts):
        moved = transposed_outputs(capsys, Path(tempfile.mkdtemp(dir=tmp_path)) / "moved",
                                   shifts)
        shift_of = {piece_id: shift for (piece_id, *_), shift in zip(COVER_CORPUS, shifts)}
        for name, output in original.items():
            if name[1] != "graph":
                assert moved[name] == output, name
                continue
            expected = []
            for line in output:
                if match := literal.match(line):
                    subject, piece_id, kind, tokens = match.groups()
                    shift = shift_of[piece_id]
                    tokens = " ".join(
                        render_chord(transpose_chord(parse_chord(token), shift)) if kind == "chord"
                        else str(transpose_key(Key.from_string(token), shift))
                        for token in tokens.split())
                    line = f'{subject} "{tokens}" .'
                expected.append(line)
            assert moved[name] == expected, name

    check()


def retimed_outputs(capsys, root, moves):
    """Each cover-corpus piece with its times scaled and offset by its own
    (scale, offset), written exactly as JAMS and, for one key, as a chart:
    per format, every file of ``segment`` on each piece and of ``build``,
    and the dtw and lharp matrices."""
    timelines = []
    for (piece_id, _, beat, sections), (scale, offset) in zip(COVER_CORPUS, moves):
        timeline = load_jams(cover_jams(piece_id, beat, sections))
        timelines.append(dataclasses.replace(timeline, **{
            field: tuple(item._replace(start=item.start * scale + offset,
                                       duration=item.duration * scale)
                         for item in getattr(timeline, field)) for field in ("events", "keys")}))
    outputs = {}
    for form, write in (("jams.json", lambda timeline: jams_text(timeline, str)),
                        ("chart", write_chart)):
        corpus, out_dir = root / form, root / f"{form}-out"
        corpus.mkdir(parents=True)
        for timeline in timelines:
            if form == "jams.json" or len(timeline.keys) == 1:
                (corpus / f"{timeline.id}.{form}").write_text(write(timeline))
        for piece in sorted(corpus.iterdir()):
            assert run(capsys, ["--quiet", "--out-dir", str(out_dir), "segment", str(piece)])[0] == 0
        assert run(capsys, ["--quiet", "--out-dir", str(out_dir), "build", str(corpus)])[0] == 0
        outputs.update({(form, path.name): path.read_bytes() for path in out_dir.iterdir()})
        for measure in ("dtw", "lharp"):
            code, outputs[form, measure], _ = run(capsys, ["matrix", str(corpus),
                                                           "--measure", measure])
            assert code == 0
    return outputs


def test_per_piece_time_scaling_keeps_segment_build_and_the_event_matrices(capsys, tmp_path):
    """Scaling each piece's times by its own positive rational and adding
    its own offset changes no byte of segment, build or the dtw and lharp
    matrices, which read events in order and never their times.  tpsd is
    left out: it reads the beat grid, which a new time scale resamples."""
    original = retimed_outputs(capsys, tmp_path / "original", [(1, 0)] * len(COVER_CORPUS))
    assert len(original) > 20
    rationals = st.builds(Fraction, st.integers(1, 7), st.integers(1, 4))
    offsets = st.builds(Fraction, st.integers(-16, 16), st.integers(1, 4))

    @given(moves=st.lists(st.tuples(rationals, offsets), min_size=len(COVER_CORPUS),
                          max_size=len(COVER_CORPUS)))
    @settings(max_examples=25, deadline=None)
    def check(moves):
        assert retimed_outputs(capsys, Path(tempfile.mkdtemp(dir=tmp_path)), moves) == original

    check()


def renamed_outputs(capsys, root, names):
    """The cover corpus's one-key pieces as charts, each named by ``names``
    in the corpus's order: the files ``build`` writes, and each measure's
    matrix."""
    root.mkdir()
    for (piece_id, _, beat, sections), name in zip(COVER_CORPUS, names):
        if len(sections) == 1:
            (root / f"{name}.chart").write_text(
                write_chart(load_jams(cover_jams(piece_id, beat, sections))))
    out_dir = root.parent / f"{root.name}-graph"
    assert run(capsys, ["--quiet", "--out-dir", str(out_dir), "build", str(root)])[0] == 0
    outputs = {path.name: path.read_text() for path in out_dir.iterdir()}
    for measure in ("dtw", "tpsd", "lharp"):
        code, outputs[measure], _ = run(capsys, ["matrix", str(root), "--measure", measure])
        assert code == 0
    return outputs


def test_renamed_pieces_keep_every_output_but_their_ids(capsys, tmp_path):
    """A chart's id is its file name.  Renaming the charts so that the ids
    keep their sorted order changes no byte of build's memory.nt,
    memory.json and stats.json or of any matrix but the ids.  Renaming them
    so that the order reverses gives each matrix with its rows and columns
    permuted, value for value.  Medoids, edges and ranking ties break by
    id, so build and eval-covers are not claimed then."""
    ids = [piece_id for piece_id, *_ in COVER_CORPUS]
    original = renamed_outputs(capsys, tmp_path / "original", ids)
    assert sorted(original) == ["dtw", "lharp", "memory.json", "memory.nt", "stats.json", "tpsd"]
    old_id = re.compile("|".join(map(re.escape, sorted(ids, key=len, reverse=True))))
    # Letters, digits and "_" sort after "." and "/", so the order of the
    # names is that of their files and of their segments' ids.
    names = st.lists(st.text("abcXYZ019_", min_size=1, max_size=4), min_size=len(ids),
                     max_size=len(ids), unique=True)

    def matrix_cells(csv):
        header, *rows = [line.split(",") for line in csv.splitlines()]
        return {(row[0], column): value
                for row in rows for column, value in zip(header[1:], row[1:])}

    @given(drawn=names)
    @settings(max_examples=15, deadline=None)
    def check(drawn):
        for reverse in (False, True):
            new_id = dict(zip(sorted(ids), sorted(drawn, reverse=reverse)))
            renamed = renamed_outputs(capsys, Path(tempfile.mkdtemp(dir=tmp_path)) / "renamed",
                                      [new_id[piece_id] for piece_id in ids])
            for name, output in original.items():
                expected = old_id.sub(lambda match: new_id[match.group()], output)
                if reverse and name in ("dtw", "tpsd", "lharp"):
                    assert list(matrix_cells(renamed[name])) != list(matrix_cells(expected))
                    assert matrix_cells(renamed[name]) == matrix_cells(expected), name
                elif not reverse:
                    assert renamed[name] == expected, name

    check()


@pytest.mark.parametrize("flags", [
    ["--scale", "0"],
    ["--scale", "-1"],
    ["--band", "-3"],
    ["--measure", "tpsd", "--scale", "0"],
    ["--measure", "lharp", "--n-min", "1"],
    ["--scale", "inf"],
    ["--measure", "tpsd", "--scale", "inf"],
    ["--measure", "lharp", "--tau", "nan"],
    ["--measure", "lharp", "--tau", "inf"],
])
def test_bad_measure_parameters_are_usage_errors_naming_the_flag(capsys, tmp_path, flags):
    corpus, cliques = write_cover_corpus(tmp_path / "covers")
    a, b = (str(corpus / f"{name}.jams.json") for name in ("c0-orig", "c1-orig"))
    for command in (["sim", a, b], ["matrix", str(corpus)],
                    ["eval-covers", str(corpus), str(cliques)]):
        code, out, err = run(capsys, command + flags)
        assert (code, out) == (2, ""), command
        assert_usage_error_naming(err, command[0], flags[-2])


@pytest.mark.parametrize("measure", ["dtw", "tpsd", "lharp"])
@pytest.mark.parametrize("flags", [[], ["--scale", "2.5", "--band", "3", "--tau", "0.5",
                                        "--n-min", "3", "--n-max", "5"]])
def test_each_measure_gets_exactly_its_step_class_fields(capsys, tmp_path, monkeypatch,
                                                         measure, flags):
    """sim, matrix and eval-covers pass a measure's step instance, its
    fields in their declared order, each with its flag's value."""
    import dataclasses

    given = {"scale": 2.5, "band": 3, "tau": 0.5, "n_min": 3, "n_max": 5}
    expected = {f.name: given[f.name] if flags else f.default
                for f in dataclasses.fields(cli.MEASURES[measure])}
    received = []

    def sim(steps, a, b):
        received.append(steps)
        return SimpleNamespace(to_json=str)

    def matrix(corpus, steps):
        received.append(steps)
        return [], []

    def covers(corpus, cliques, steps):
        received.append(steps)
        return evaluation.RankingMetrics(steps.name, 0.0, 0.0, 0.0, ())

    monkeypatch.setattr(cli, "compare_pieces", sim)
    monkeypatch.setattr(cli, "corpus_similarity_matrix", matrix)
    monkeypatch.setattr(cli, "evaluate_covers", covers)
    corpus, cliques = write_cover_corpus(tmp_path / "covers")
    a, b = (str(corpus / f"{name}.jams.json") for name in ("c0-orig", "c1-orig"))
    for command in (["sim", a, b], ["matrix", str(corpus)],
                    ["eval-covers", str(corpus), str(cliques)]):
        assert run(capsys, command + ["--measure", measure] + flags)[0] == 0, command
    assert [type(steps) for steps in received] == [cli.MEASURES[measure]] * 3
    assert [list(dataclasses.asdict(steps).items()) for steps in received] \
        == [list(expected.items())] * 3


@pytest.mark.parametrize("argv, message", [
    (["sim", "{missing}.chart", "{missing}.chart", "--scale", "0"],
     "--scale must be a finite number > 0, got 0.0"),
    (["sim", "{missing}.chart", "{missing}.chart", "--measure", "lharp", "--tau", "-1"],
     "--tau must be a finite number >= 0, got -1.0"),
    (["matrix", "{missing}", "--scale", "0", "--out", "{tmp}/matrix.csv"],
     "--scale must be a finite number > 0, got 0.0"),
    (["eval-covers", "{missing}", "{missing}.csv", "--scale", "0"],
     "--scale must be a finite number > 0, got 0.0"),
    (["bench", "{missing}", "--measures", "dtw,nope"],
     "--measures must name each of dtw, lharp, tpsd at most once, got dtw,nope"),
    (["bench", "{missing}", "--repetitions", "2"], "--repetitions must be an integer >= 3, got 2"),
    (["bench", "{missing}", "--measures", "dtw,tpsd,dtw"],
     "--measures must name each of dtw, lharp, tpsd at most once, got dtw,tpsd,dtw"),
    (["build", "{missing}", "--theta-sim", "0"],
     "--theta-sim must be a number in (0, 1], got 0.0"),
    (["query", "{missing}.nt", "C:maj", "-k", "0"], "-k must be an integer >= 1, got 0"),
], ids=["sim", "sim-tau", "matrix", "eval-covers", "bench", "bench-repetitions",
        "bench-twice", "build", "query"])
def test_parameters_are_checked_before_any_input_is_read(capsys, tmp_path, argv, message):
    """A bad parameter is reported as itself, not as the missing input
    that a command would read first, and nothing is written."""
    argv = [arg.format(missing=tmp_path / "missing", tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, ["--out-dir", str(tmp_path / "out"), *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_bench_refuses_fewer_than_two_synthetic_pieces_before_building_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "benchmark_measures", None)  # never reached
    monkeypatch.setattr(evaluation, "ChordEvent", None)  # no piece is built
    for pieces in ("1", "0", "-3"):
        assert run(capsys, ["bench", "--synthetic", "--synthetic-pieces", pieces]) == (
            2, "", f"error: --synthetic-pieces must be an integer >= 2, got {pieces}\n")


# Typed flags without a range.
UNRANGED_FLAGS = {"--workers"}

# Each ranged flag's bounds, as (a value just outside, the bound, the text
# after "must be " in the refusal); the text None is the declared range of
# the flag's parameter field.  A non-finite value is ``finite_float``'s
# usage error before any range is checked.
RANGE_EDGES = {
    "--kernel-size": [("0", "2", None), ("3", "4", None)],
    "--taper": [("0", "5e-324", None)],
    "--peak-lambda": [("inf", "1.7976931348623157e+308", None)],
    "--min-gap": [("-1", "0", None)],
    "--min-len": [("-1", "0", None)],
    "--scale": [("0", "5e-324", None)],
    "--band": [("-1", "0", None)],
    "--tau": [("-5e-324", "0", None)],
    "--n-min": [("1", "2", None)],
    "--n-max": [("1", "2", ">= --n-min (2)")],
    "--theta-sim": [("0", "5e-324", None), ("1.0000000000000002", "1", None)],
    "--theta-merge": [("0.5999999999999999", "0.6", ">= --theta-sim (0.6)")],
    "-k": [("0", "1", None)],
    "--repetitions": [("2", "3", "an integer >= 3")],
    "--synthetic-pieces": [("1", "2", "an integer >= 2")],
    "--synthetic-beats": [("3", "4", ">= 4, one event of 4 beats")],
}

PARAMETER_CLASSES = (SegmentationParams, MemoryThresholds, *cli.MEASURES.values(), PatternQuery)
# Each parameter field by its flag.
PARAMETER_FIELDS = {flag(f.name): f for cls in PARAMETER_CLASSES for f in dataclasses.fields(cls)}


def typed_flags():
    """(command, flag, type) of each flag that ``_DECLARATIONS`` types
    ``int`` or ``finite_float``."""
    return [(command, name, options["type"]) for command in cli.COMMANDS
            for name, options in cli._DECLARATIONS[command][2]
            if options.get("type") in (int, cli.finite_float)]


def test_every_typed_flag_has_range_edges_or_is_named_as_having_no_range():
    assert {name for _, name, _ in typed_flags()} == RANGE_EDGES.keys() | UNRANGED_FLAGS
    for name, edges in RANGE_EDGES.items():
        if any(text is None for *_, text in edges):
            assert "range" in PARAMETER_FIELDS[name].metadata, name


def missing_input_argv(command, name, missing):
    """``command`` on a missing input, its flags at their defaults, but for
    the measure that owns a measure flag, ``build``'s ``--theta-merge 1``
    (which lets ``--theta-sim`` reach 1) and ``bench``'s tiny synthetic
    corpus, which a ``--synthetic-`` flag needs to be read."""
    measures = [measure for measure, cls in cli.MEASURES.items()
                if name in {flag(f.name) for f in dataclasses.fields(cls)}]
    argv = {"segment": ["segment", f"{missing}.chart"],
            "sim": ["sim", f"{missing}.chart", f"{missing}.chart"],
            "matrix": ["matrix", str(missing)],
            "eval-covers": ["eval-covers", str(missing), f"{missing}.csv"],
            "build": ["build", str(missing), "--theta-merge", "1"],
            "query": ["query", f"{missing}.nt", "C:maj"],
            "bench": ["bench", str(missing)]}[command]
    if name.startswith("--synthetic"):
        argv += ["--synthetic", "--synthetic-pieces", "2", "--synthetic-beats", "4"]
    return argv + (["--measure", measures[0]] if measures else [])


@pytest.mark.parametrize("command, name, kind, outside, bound, text", [
    (command, name, kind, *edge) for command, name, kind in typed_flags()
    if name not in UNRANGED_FLAGS for edge in RANGE_EDGES[name]])
def test_a_value_just_outside_a_range_is_refused_naming_its_flag_and_the_bound_passes(
        capsys, tmp_path, monkeypatch, command, name, kind, outside, bound, text):
    """Through every command that takes the flag, before any input is read
    and with nothing written; the bound changes nothing the command does."""
    monkeypatch.setattr(cli, "benchmark_measures", lambda *args: {"timed": False})
    argv = ["--out-dir", str(tmp_path / "out"), *missing_input_argv(command, name,
                                                                     tmp_path / "missing")]
    code, out, err = run(capsys, [*argv, f"{name}={outside}"])
    assert (code, out) == (2, "")
    if math.isfinite(float(outside)):
        text = text or PARAMETER_FIELDS[name].metadata["range"][0]
        assert err == f"error: {name} must be {text}, got {kind(outside)}\n"
    else:
        assert err.splitlines()[-1] == (f"harmory {command}: error: argument {name}: "
                                        f"expected a finite number, got {outside!r}")
    assert list(tmp_path.iterdir()) == []
    assert run(capsys, [*argv, f"{name}={bound}"]) == run(capsys, argv)


@pytest.mark.parametrize("cls, field", [
    (cls, f) for cls in PARAMETER_CLASSES for f in dataclasses.fields(cls)
    if flag(f.name) in RANGE_EDGES])
def test_the_parameter_classes_refuse_and_accept_the_values_the_flags_do(cls, field):
    """A value just outside is refused with the command line's message, a
    non-finite one included, and the bound is accepted."""
    kind = float if isinstance(field.default, float) else int
    others = {MemoryThresholds: {"theta_merge": 1.0},
              PatternQuery: {"chords": (parse_chord("C:maj"),)}}.get(cls, {})
    for outside, bound, text in RANGE_EDGES[flag(field.name)]:
        cls(**{**others, field.name: kind(bound)})
        text = text or field.metadata["range"][0]
        message = f"{flag(field.name)} must be {text}, got {kind(outside)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**others, field.name: kind(outside)})


def test_each_main_call_logs_at_its_own_level_to_its_own_stderr(tmp_path):
    """``--quiet`` holds for the call that passes it, whichever calls came
    before it in the process, and each call warns on the ``sys.stderr``
    of that call."""
    import os
    import subprocess
    import sys

    piece = tmp_path / "p.jams.json"
    piece.write_text(json.dumps({"annotations": [
        {"namespace": "chord_harte", "data": [{"time": 0, "duration": 4, "value": "C:maj"}]},
        {"namespace": "beat", "data": [{"time": 0}]}]}))
    script = (
        "import contextlib, io, json, sys\n"
        "from harmory.cli import main\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    seen.append(err.getvalue())\n"
        "print(json.dumps(seen))\n")
    plain, quiet = ["encode", str(piece)], ["--quiet", "encode", str(piece)]
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    calls = json.dumps([quiet, plain, quiet, plain])
    result = subprocess.run([sys.executable, "-c", script, calls], capture_output=True, text=True,
                            env=env, check=True)
    warning = "p: skipping unknown namespace 'beat'\n"
    assert json.loads(result.stdout) == ["", warning, "", warning]
    assert result.stderr == ""


def assert_usage_error_naming(err, command, flag):
    """A bad value is rejected by the library (``error: ...``) or, when it
    is not a finite number, by argparse (usage, then an error naming the
    argument)."""
    *_, last = err.splitlines()
    assert last.startswith(("error: ", f"harmory {command}: error: argument {flag}:")), err
    assert flag in last, err


@pytest.mark.parametrize("command, flags", [
    *((command, flags) for command in ("segment", "build")
      for flags in (["--taper", "nan"], ["--taper", "inf"],
                    ["--peak-lambda", "nan"], ["--peak-lambda", "inf"])),
    ("build", ["--theta-merge", "nan"]),
    ("build", ["--theta-merge", "inf"]),
    ("build", ["--theta-sim", "nan"]),
])
def test_non_finite_segment_and_build_parameters_are_usage_errors_naming_the_flag(
        capsys, tmp_path, command, flags):
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj"] * 4 + ["G:maj"] * 4})
    target = corpus / "a.chart" if command == "segment" else corpus
    code, out, err = run(capsys, ["--out-dir", str(tmp_path / "out"), command, str(target),
                                  *flags])
    assert (code, out) == (2, "")
    assert_usage_error_naming(err, command, flags[-2])
    assert not (tmp_path / "out").exists()


# The range of each segmentation flag, as SegmentationParams states it.
SEGMENT_FLAG_RULES = {"--kernel-size": "an even integer >= 2", "--taper": "a finite number > 0",
                      "--min-gap": "an integer >= 0", "--min-len": "an integer >= 0"}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command in ("segment", "build")
    for flag, value in (("--min-gap", "-5"), ("--min-len", "-3"), ("--min-len", "x"),
                        ("--kernel-size", "3"), ("--kernel-size", "0"),
                        ("--kernel-size", "-2"), ("--kernel-size", "2.0"))])
def test_out_of_range_integer_segment_parameters_are_usage_errors_naming_the_flag(
        capsys, tmp_path, command, flag, value):
    """A value that is not an integer is argparse's usage error; an
    integer out of range is ``SegmentationParams``' error, raised before
    any input is read."""
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj"] * 4 + ["G:maj"] * 4})
    target = corpus / "a.chart" if command == "segment" else corpus
    code, out, err = run(capsys, ["--out-dir", str(tmp_path / "out"), command, str(target),
                                  f"{flag}={value}"])
    assert (code, out) == (2, "")
    *_, last = err.splitlines()
    if value in ("x", "2.0"):
        assert last == f"harmory {command}: error: argument {flag}: invalid int value: '{value}'"
    else:
        assert err == f"error: {flag} must be {SEGMENT_FLAG_RULES[flag]}, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("command", ["segment", "build"])
@pytest.mark.parametrize("flag, value", [
    ("--kernel-size", "3"), ("--kernel-size", "0"), ("--kernel-size", "-2"), ("--taper", "0"),
    ("--taper", "-1"), ("--min-gap", "-1"), ("--min-len", "-1")])
def test_out_of_range_segment_parameters_exit_2_whatever_the_piece_length(
        capsys, tmp_path, n, command, flag, value):
    """The library's check, not the piece, decides: a one-event piece,
    which has no novelty curve, refuses the same values as a long one."""
    corpus = write_corpus(tmp_path / "corpus", {"a": (["C:maj"] * 4 + ["G:maj"] * 4)[:n]})
    target = corpus / "a.chart" if command == "segment" else corpus
    code, out, err = run(capsys, ["--out-dir", str(tmp_path / "out"), command, str(target),
                                  flag, value])
    shown = float(value) if flag == "--taper" else int(value)
    assert (code, out, err) == (2, "", f"error: {flag} must be {SEGMENT_FLAG_RULES[flag]}, "
                                       f"got {shown}\n")
    assert not (tmp_path / "out").exists()


def test_smallest_integer_segment_parameters_are_accepted(capsys, tmp_path):
    piece = write_corpus(tmp_path / "corpus", {"a": ["C:maj"] * 4 + ["G:maj"] * 4}) / "a.chart"
    code, out, _ = run(capsys, ["--out-dir", str(tmp_path / "out"), "segment", str(piece),
                                "--min-gap", "0", "--min-len", "0", "--kernel-size", "2"])
    assert code == 0
    params = strict_json(out)["params"]
    assert (params["min_gap"], params["min_len"], params["kernel_size"]) == (0, 0, 2)


def test_every_name_perfbench_wraps_resolves_in_harmory():
    """perfbench/spans.py wraps harmory functions named by (module,
    attribute), and perfbench/run.py replaces ``cli.build_memory``.  The
    tables are read from the source, not imported, so nothing under
    perfbench/ is written."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "spans.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("LAYERS", "PROBES")}
    assert set(tables) == {"LAYERS", "PROBES"}
    for name, (module, attrs) in [*tables["LAYERS"].items(), *tables["PROBES"].items()]:
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            assert callable(getattr(importlib.import_module(module), attr, None)), name
    assert callable(cli.build_memory)


def test_the_benchmark_self_test_passes_and_leaves_its_tree_as_it_found_it():
    """perfbench's traced runs also read attributes of harmory's results
    (``encode_tps(...).values``, ``build_ssm(...).size``, a built graph's
    segments, patterns and similar edges); its self-test runs every
    workload and trace mode on tiny inputs.  Its work directory goes, and
    no bytecode is written under perfbench/."""
    root = Path(__file__).parents[1]

    def tree():
        return sorted(path for top in ("perfbench", ".perfbench_work")
                      for path in (root / top).rglob("*"))

    before = tree()
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 failure(s)"
    assert tree() == before


@pytest.mark.parametrize("measure", ["dtw", "tpsd", "lharp"])
def test_piece_without_a_sounded_chord_is_a_usage_error_naming_the_pair(capsys, tmp_path,
                                                                       measure):
    corpus = write_corpus(tmp_path / "corpus", {"a": ["C:maj", "G:maj"], "b": ["N", "N"]})
    cliques = tmp_path / "cliques.csv"
    cliques.write_text("piece_id,clique_id\na,x\nb,x\n")
    for command in (["matrix", str(corpus)], ["eval-covers", str(corpus), str(cliques)]):
        code, out, err = run(capsys, command + ["--measure", measure])
        assert (code, out) == (2, ""), command
        assert err == "error: a vs b: b: no sounded events\n", command


@pytest.mark.parametrize("measure", ["dtw", "tpsd", "lharp"])
def test_matrix_of_one_piece_without_a_sounded_chord_is_a_usage_error(capsys, tmp_path,
                                                                      measure):
    corpus = write_corpus(tmp_path / "corpus", {"b": ["N", "N"]})
    code, out, err = run(capsys, ["matrix", str(corpus), "--measure", measure])
    assert (code, out, err) == (2, "", "error: b: no sounded events\n")


@pytest.mark.parametrize("grid", ["event", "beat"])
def test_encode_writes_each_row_as_the_value_repr_and_the_weight(capsys, tmp_path, grid):
    """Over the cover corpus (weights of 1 and 2 beats, modulations) and a
    chart whose equal values carry unequal, fractional weights."""
    from harmory.timeline import encode_tps, load_chart

    pieces = {f"{piece_id}.jams.json": cover_jams(piece_id, beat, sections)
              for piece_id, _, beat, sections in COVER_CORPUS}
    pieces["mixed.chart"] = ("# key: C:maj\n0 1 C:maj\n1 2 C:maj\n3 1/2 C:maj\n"
                             "7/2 1 G:maj\n9/2 3/2 C:maj\n6 1/2 N\n13/2 5/2 G:7\n")
    for name, text in pieces.items():
        path = tmp_path / name
        path.write_text(text)
        timeline = load_chart(text) if name.endswith(".chart") else load_jams(text)
        rows = encode_tps(timeline, grid).values
        expected = "value,weight\n" + "".join(f"{float(v)!r},{w}\n" for v, w in rows)
        assert run(capsys, ["encode", str(path), "--grid", grid]) == (0, expected, ""), name


def test_encode_bytes_of_whole_and_fractional_durations(capsys, tmp_path):
    piece = tmp_path / "p.chart"
    piece.write_text("0 4 C:maj\n4 7/2 G:maj\n15/2 1/2 N\n8 3 F:maj\n")
    assert run(capsys, ["encode", str(piece)]) == (
        0, "value,weight\n0.0,4\n5.0,7/2\n5.0,3\n", "")
    assert run(capsys, ["encode", str(piece), "--grid", "beat"]) == (
        0, "value,weight\n" + "0.0,1\n" * 4 + "5.0,1\n" * 7, "")


# Interval numbers in other scripts' digits, or superscripts, with the
# position of the digit that the parser refuses.
NON_ASCII_INTERVALS = [("C:maj/٥", 6), ("C:(3,٥)", 5), ("C:maj/²", 6), ("G:7/³", 4)]


@pytest.mark.parametrize("symbol,position", NON_ASCII_INTERVALS)
def test_a_non_ascii_interval_number_is_a_positioned_usage_error(capsys, symbol, position):
    code, out, err = run(capsys, ["parse", symbol])
    assert (code, out, err) == (2, "", f"error: position {position}: expected interval number\n")


@pytest.mark.parametrize("symbol,position", NON_ASCII_INTERVALS)
def test_a_chart_with_a_non_ascii_interval_number_names_its_line(capsys, tmp_path, symbol,
                                                                 position):
    piece = tmp_path / "p.chart"
    piece.write_text(chart(["C:maj", symbol]))
    code, out, err = run(capsys, ["encode", str(piece)])
    assert (code, out) == (2, "")
    assert err == f"error: line 4: position {position}: expected interval number\n"


@pytest.mark.parametrize("symbol,position", NON_ASCII_INTERVALS)
def test_a_jams_piece_with_a_non_ascii_interval_number_names_its_observation(
        capsys, tmp_path, symbol, position):
    piece = tmp_path / "p.jams.json"
    piece.write_text(json.dumps({
        "file_metadata": {"identifiers": {"id": "p"}},
        "annotations": [{"namespace": "chord_harte", "data": [
            {"time": 0, "duration": 1, "value": "C:maj"},
            {"time": 1, "duration": 1, "value": symbol}]}]}))
    code, out, err = run(capsys, ["encode", str(piece)])
    assert (code, out) == (2, "")
    assert err == (f"error: p: chord observation at event index 1: "
                   f"position {position}: expected interval number\n")


@pytest.mark.parametrize("symbol,position", NON_ASCII_INTERVALS)
def test_a_graph_with_a_non_ascii_interval_number_names_its_line(capsys, tmp_path, symbol,
                                                                 position):
    graph = tmp_path / "memory.nt"
    graph.write_text(GOLDEN_GRAPH.read_text().replace(
        '"C:maj C:maj C:maj C:maj"', f'"C:maj {symbol} C:maj C:maj"', 1))
    code, out, err = run(capsys, ["query", str(graph), "C:maj"])
    assert (code, out) == (2, "")
    assert err == (f"error: line 3: chordSequence of alpha/seg/0: token 2 {symbol!r}: "
                   f"position {position}: expected interval number\n")


def test_discover_corpus_finds_what_rglob_finds_in_its_order(tmp_path):
    """Hidden files and directories are read, a symlinked directory is not
    descended, a symlink to a piece is read, a dangling one and a
    directory named like a piece are not, and the pieces come in id
    order, ``a-b`` before ``a/b``."""
    outside = write_corpus(tmp_path / "outside", {"linked": ["D:maj"], "far": ["E:maj"]})
    root = write_corpus(tmp_path / "corpus", {"a-b": ["C:maj"], ".hidden": ["G:maj"],
                                              "z": ["F:maj"], "a0": ["A:min"]})
    write_corpus(root / "a", {"b": ["C:maj"]})
    write_corpus(root / ".dot", {"x": ["Bb:maj"]})
    write_corpus(root / "odd.chart", {"inner": ["Eb:maj"]})
    write_corpus(root / "deep" / "er", {"y": ["D:min"]})
    (root / "a" / "c.jams.json").write_text(json.dumps({"annotations": [
        {"namespace": "chord_harte", "data": [{"time": 0, "duration": 1, "value": "C:maj"}]}]}))
    (root / "notes.txt").write_text("not a piece\n")
    (root / "cliques.csv").write_text("piece_id,clique_id\n")
    (root / "link.chart").symlink_to(outside / "linked.chart")
    (root / "dangling.chart").symlink_to(tmp_path / "missing.chart")
    (root / "linkdir").symlink_to(outside, target_is_directory=True)
    (root / "linkdir.chart").symlink_to(outside, target_is_directory=True)
    oracle = [path.relative_to(root).as_posix() for path in sorted(root.rglob("*"))
              if path.is_file() and path.name.endswith((".chart", ".jams.json"))]
    ids = [piece.id for piece in cli.discover_corpus(root)]
    assert ids == sorted(name.removesuffix(".chart").removesuffix(".jams.json") for name in oracle)
    assert ids.index("a-b") < ids.index("a/b")
    assert {".hidden", ".dot/x", "a/c", "link", "odd.chart/inner", "deep/er/y"} <= set(ids)
    assert not any(i.startswith(("linkdir", "dangling")) for i in ids)


# Interval numbers of more digits than int() reads, with their position:
# each is out of range, its digits cut to 40 characters.
LONG_INTERVALS = [("C/" + "3" * 5000, 2, "3"), ("C:(" + "1" * 5000 + ")", 3, "1")]


def long_interval_error(position, digit):
    return f"position {position}: degree out of range 1..13: {digit * 37}..."


@pytest.mark.parametrize("symbol,position,digit", LONG_INTERVALS, ids=["bass", "entry"])
def test_a_long_interval_number_is_a_positioned_usage_error(capsys, symbol, position, digit):
    assert run(capsys, ["parse", symbol]) == (
        2, "", f"error: {long_interval_error(position, digit)}\n")


@pytest.mark.parametrize("symbol,position,digit", LONG_INTERVALS, ids=["bass", "entry"])
def test_a_chart_with_a_long_interval_number_names_its_line(capsys, tmp_path, symbol, position,
                                                            digit):
    piece = tmp_path / "p.chart"
    piece.write_text(chart(["C:maj", symbol]))
    assert run(capsys, ["encode", str(piece)]) == (
        2, "", f"error: line 4: {long_interval_error(position, digit)}\n")


@pytest.mark.parametrize("symbol,position,digit", LONG_INTERVALS, ids=["bass", "entry"])
def test_a_jams_piece_with_a_long_interval_number_names_its_observation(
        capsys, tmp_path, symbol, position, digit):
    piece = tmp_path / "p.jams.json"
    piece.write_text(json.dumps({
        "file_metadata": {"identifiers": {"id": "p"}},
        "annotations": [{"namespace": "chord_harte", "data": [
            {"time": 0, "duration": 1, "value": "C:maj"},
            {"time": 1, "duration": 1, "value": symbol}]}]}))
    assert run(capsys, ["encode", str(piece)]) == (
        2, "", f"error: p: chord observation at event index 1: "
               f"{long_interval_error(position, digit)}\n")


@pytest.mark.parametrize("symbol,position,digit", LONG_INTERVALS, ids=["bass", "entry"])
def test_a_graph_with_a_long_interval_number_names_its_line(capsys, tmp_path, symbol, position,
                                                            digit):
    graph = tmp_path / "memory.nt"
    graph.write_text(GOLDEN_GRAPH.read_text().replace(
        '"C:maj C:maj C:maj C:maj"', f'"C:maj {symbol} C:maj C:maj"', 1))
    assert run(capsys, ["query", str(graph), "C:maj"]) == (
        2, "", f"error: line 3: chordSequence of alpha/seg/0: token 2 {symbol!r}: "
               f"{long_interval_error(position, digit)}\n")


def test_query_names_the_progression_token_that_does_not_parse(capsys):
    assert run(capsys, ["query", str(GOLDEN_GRAPH), "C:maj X:min G:7"]) == (
        2, "", "error: token 2 'X:min': position 0: expected note letter A..G\n")
    assert run(capsys, ["query", str(GOLDEN_GRAPH), "C:majé G:7", "--key", "C:maj"]) == (
        2, "", "error: token 1 'C:majé': position 2: expected known shorthand, got 'majé'\n")


def test_dist_names_the_chord_that_does_not_parse(capsys):
    assert run(capsys, ["dist", "C:maj", "Q"]) == (
        2, "", "error: chord_b 'Q': position 0: expected note letter A..G\n")
    assert run(capsys, ["dist", "C:(3,3)", "G:7", "--key", "C:maj"]) == (
        2, "", "error: chord_a 'C:(3,3)': duplicate degree 3\n")


def test_query_names_the_key_flag_and_value_that_do_not_parse(capsys):
    assert run(capsys, ["query", str(GOLDEN_GRAPH), "C:maj", "--key", "X:maj"]) == (
        2, "", "error: --key 'X:maj': not a note letter: 'X'\n")


def test_dist_names_the_key_flag_and_value_that_do_not_parse(capsys):
    assert run(capsys, ["dist", "C:maj", "G:maj", "--key", "Cb#:maj"]) == (
        2, "", "error: --key 'Cb#:maj': mixed accidentals: 'b#'\n")


# A key text of the wrong shape is named once, by the context that read it.
SHAPE = "key must look like 'C:maj' or 'C:min'"


def test_a_key_flag_of_the_wrong_shape_names_its_text_once(capsys):
    assert run(capsys, ["dist", "C:maj", "G:maj", "--key", "Cmaj"]) == (
        2, "", f"error: --key 'Cmaj': {SHAPE}\n")


def test_a_key_sequence_token_of_the_wrong_shape_names_its_text_once(capsys, tmp_path):
    graph = tmp_path / "memory.nt"
    graph.write_text(GOLDEN_GRAPH.read_text().replace(
        'keySequence> "C:maj C:maj C:maj C:maj"', 'keySequence> "Cmaj C:maj C:maj C:maj"', 1))
    assert run(capsys, ["query", str(graph), "C:maj"]) == (
        2, "", f"error: line 5: keySequence of alpha/seg/0: token 1 'Cmaj': {SHAPE}\n")


def test_a_chart_key_header_of_the_wrong_shape_names_its_text_once(capsys, tmp_path):
    piece = tmp_path / "p.chart"
    piece.write_text("# title: p\n# key: Cmaj\n0 1 C:maj\n")
    assert run(capsys, ["encode", str(piece)]) == (2, "", f"error: line 2: key 'Cmaj': {SHAPE}\n")


def test_a_jams_key_observation_of_the_wrong_shape_names_its_text_once(capsys, tmp_path):
    piece = tmp_path / "p.jams.json"
    piece.write_text(json.dumps({
        "file_metadata": {"identifiers": {"id": "p"}},
        "annotations": [{"namespace": "chord_harte", "data": [
                            {"time": 0, "duration": 2, "value": "C:maj"}]},
                        {"namespace": "key_mode", "data": [
                            {"time": 0, "duration": 1, "value": "C:maj"},
                            {"time": 1, "duration": 1, "value": "Cmaj"}]}]}))
    assert run(capsys, ["encode", str(piece)]) == (
        2, "", f"error: p: key observation at event index 1 'Cmaj': {SHAPE}\n")


ONE_CHORD = [{"namespace": "chord_harte", "data": [{"time": 0, "duration": 1, "value": "C:maj"}]}]
ID = "piece id (file_metadata.identifiers.id)"


@pytest.mark.parametrize("command", ["encode", "build"])
@pytest.mark.parametrize("metadata,message", [
    *((value, f"file_metadata: expected a JSON object, got {value!r}") for value in (0, [], "", False)),
    *(({"identifiers": value}, f"file_metadata.identifiers: expected a JSON object, got {value!r}")
      for value in (0, [], "", False)),
    *(({"identifiers": {"id": value}}, f"{ID}: expected a JSON string, got {value!r}")
      for value in (0, False, [])),
    ({"title": {"x": [1, 2]}, "artist": 7},
     "file_metadata.title: expected a JSON string, got {'x': [1, 2]}"),
    ({"identifiers": {"id": "p"}, "artist": 7}, "file_metadata.artist: expected a JSON string, got 7"),
    ({"title": False}, "file_metadata.title: expected a JSON string, got False"),
])
def test_jams_metadata_of_another_json_type_is_a_usage_error_naming_its_field(
        capsys, tmp_path, command, metadata, message):
    (tmp_path / "p.jams.json").write_text(json.dumps({"file_metadata": metadata,
                                                      "annotations": ONE_CHORD}))
    argv = ["encode", str(tmp_path / "p.jams.json")] if command == "encode" \
        else ["--out-dir", str(tmp_path / "out"), "build", str(tmp_path)]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("metadata", [None, {"identifiers": None, "title": None},
                                      {"identifiers": {"id": None}, "artist": None}])
def test_absent_or_null_jams_metadata_names_the_piece_by_its_file(capsys, tmp_path, metadata):
    (tmp_path / "p.jams.json").write_text(json.dumps({"file_metadata": metadata,
                                                      "annotations": ONE_CHORD}))
    assert run(capsys, ["--quiet", "--out-dir", str(tmp_path / "out"), "build",
                        str(tmp_path)])[0] == 0
    graph = json.loads((tmp_path / "out" / "memory.json").read_text())
    assert [node for node in graph["nodes"] if node["type"] == "piece"] == [
        {"id": "p", "type": "piece", "title": None, "artist": None}]


def test_key_texts_parse_to_the_24_table_keys_and_construct_no_key(capsys, monkeypatch):
    """``Key.from_string`` returns one of ``tps.KEYS``, so reading the key
    texts of a chart, a JAMS file, ``--key`` and an N-Triples graph builds
    no ``Key``."""
    assert [(key.tonic, key.mode) for key in KEYS] == [
        (tonic, mode) for tonic in range(12) for mode in ("major", "minor")]
    spellings = {"C": 0, "B#": 0, "Db": 1, "C#": 1, "F#": 6, "Gb": 6, "Cb": 11, "Abb": 7}
    for name, tonic in spellings.items():
        for mode, minor in (("maj", 0), ("min", 1)):
            assert Key.from_string(f"{name}:{mode}") is KEYS[2 * tonic + minor]
    Key.from_string.cache_clear()
    built = []
    monkeypatch.setattr(Key, "__post_init__", built.append)
    chart = load_chart("# key: F#:min\n0 1 A:maj\n1 1 C#:7\n")
    jams = load_jams(cover_jams("m", 1, [("A:min", ["A:min"]), ("C:min", ["C:min"])]))
    graph = import_ntriples(GOLDEN_GRAPH.read_bytes())
    assert run(capsys, ["dist", "C:maj", "G:maj", "--key", "Eb:min"]) == (0, "6\n", "")
    assert built == []
    read = [span.key for tl in (chart, jams) for span in tl.keys]
    read += [key for segment in graph.segments.values() for _, key in segment.events]
    assert len(read) > 20 and all(any(key is table for table in KEYS) for key in read)
