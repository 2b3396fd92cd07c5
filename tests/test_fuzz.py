"""Malformed input never escapes as anything but a documented error.

``load_chart`` and ``load_jams`` raise only ``SchemaError``, and
``import_ntriples`` only ``GraphFormatError``; the commands that read
pieces or graphs exit 0 or 2 on such input, never 1.  An edit of the
golden graph that the import accepts is a graph whose export is the
edited set of lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from harmory.cli import main
from harmory.memory import GraphFormatError, export_ntriples, import_ntriples
from harmory.timeline import SchemaError, load_chart, load_jams
from tests.conftest import chord_symbols

DATA = Path(__file__).parent / "data"
GOLDEN_LINES = (DATA / "memory_golden.nt").read_text().splitlines()
# The IRIs that stand as a subject or an object in the golden graph.
GOLDEN_IRIS = sorted({iri for line in GOLDEN_LINES for iri in line.split(" ")[::2]
                      if iri.startswith("<")})

# Fields that are right, nearly right, or arbitrary.  Times that load stay
# at or below 1e3 beats, because the beat grid has one row per beat; 1e300
# is in the range of a JSON number but past the longest piece.
times = st.sampled_from(["0", "1", "7/2", "0.5", "-1", "1/0", "x", "", "nan", "1e3",
                         "1e300", "1e999999999"]) \
    | st.integers(-3, 40).map(str)
tokens = chord_symbols() | st.sampled_from(["H:maj", "C:", "C:maj/9", "(1)", ":", "N"]) \
    | st.text(max_size=6)
keys = st.sampled_from(["C:maj", "Eb:min", "H:maj", "C:dorian", ":maj", "C#b:min"]) \
    | st.text(max_size=6)


@st.composite
def chart_texts(draw):
    lines = draw(st.lists(st.one_of(
        st.builds("{} {} {}".format, times, times, tokens),
        keys.map("# key: {}".format),
        st.sampled_from(["# title: t", "# artist: a", "#", "", "   "]),
        st.text(max_size=20),
    ), max_size=8))
    return "\n".join(lines)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | st.floats(-5, 50) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8)


def maybe(strategy):
    """The strategy's value, or arbitrary JSON in its place."""
    return strategy | json_values


observations = st.fixed_dictionaries(
    {"time": maybe(st.integers(0, 16) | times | st.booleans()),
     "duration": maybe(st.integers(0, 4) | times | st.booleans()),
     "value": maybe(tokens | keys)})
annotations = st.fixed_dictionaries(
    {"namespace": maybe(st.sampled_from(["chord_harte", "key_mode", "other"])),
     "data": maybe(st.lists(maybe(observations), max_size=5))})
documents = st.fixed_dictionaries(
    {"annotations": maybe(st.lists(maybe(annotations), max_size=3)),
     "file_metadata": maybe(st.fixed_dictionaries(
         {"identifiers": maybe(st.fixed_dictionaries({"id": maybe(st.text(max_size=4))}))}))})
jams_texts = documents.map(json.dumps) | st.text(max_size=30) \
    | st.integers(1, 5).map(lambda depth: "[" * 10_000 * depth)

uris = st.sampled_from(["a", "a/seg/0", "a/seg/1", "b", "b/seg/0", "sim/a/seg/0/b/seg/0",
                        "a/seg/x", "a/seg/01", "", "%zz", "a b"]).map("<urn:harmory:{}>".format)
predicates = st.sampled_from(["hasSegment", "nextSegment", "instanceOf", "chordSequence",
                              "keySequence", "similarTo", "weight", "other"]) \
    .map("<urn:harmory:{}>".format)
literals = st.lists(tokens | keys, max_size=4).map(" ".join) \
    | st.sampled_from(["0.5", "nan", "1e400", "x", '\\"', "\\n"])
# Object IRIs outside the base, of the base's length or empty.
foreign_uris = st.sampled_from(["<>", "<XXXXXXXXXXXXa/seg/0>", "<http://example.org/a/seg/0>",
                                "<urn:other:a>"])
triples = st.builds("{} {} {} .".format, uris, predicates,
                    uris | foreign_uris | literals.map('"{}"'.format))


@st.composite
def graph_bytes(draw):
    """The golden graph with lines dropped, replaced or added, or raw bytes."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=40))
    lines = list(GOLDEN_LINES)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["drop", "replace", "add"]))
        if edit != "add" and at < len(lines):
            del lines[at]
        if edit != "drop":
            lines.insert(at, draw(triples | st.text(max_size=20)))
    return "\n".join(lines).encode("utf-8", "surrogatepass") + draw(st.binary(max_size=2))


# Texts of the golden's weight, keys and sequence literals, each with a
# spelling that reads as the same value but that no build writes.
RESPELLINGS = [('"0.704688"', f'"{weight}"') for weight in
               ("0.704_688", " 0.704688", "7.04688e-1", "+0.704688", "0.7046880", "-0.000000")] \
    + [('keySequence> "C:maj', 'keySequence> "B#:maj'),
       ('keySequence> "C:maj ', 'keySequence> "C:maj  '),
       ('keySequence> "C:maj', 'keySequence> " C:maj'),
       ('C:maj" .', 'C:maj " .')]


@st.composite
def golden_edits(draw):
    """The golden graph's lines with some dropped or repeated, some added
    that copy a line with its subject or object IRI swapped for another of
    the golden IRIs, and some with their weight or keys respelled."""
    lines = list(GOLDEN_LINES)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "respell"]))
        if edit == "respell":
            text, respelled = draw(st.sampled_from(RESPELLINGS))
            holding = [i for i, line in enumerate(lines) if text in line]
            if holding:
                at = draw(st.sampled_from(holding))
                lines[at] = lines[at].replace(text, respelled)
        elif edit == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif lines:
            subject, predicate, obj = draw(st.sampled_from(lines))[:-2].split(" ", 2)
            if edit == "swap":
                iri = draw(st.sampled_from(GOLDEN_IRIS))
                subject, obj = (subject, iri) if obj[0] == "<" and draw(st.booleans()) \
                    else (iri, obj)
            lines.insert(draw(st.integers(0, len(lines))), f"{subject} {predicate} {obj} .")
    return lines


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--quiet", *argv])


@given(chart_texts())
@settings(max_examples=300, deadline=None)
def test_load_chart_raises_only_schema_errors(text):
    try:
        load_chart(text)
    except SchemaError:
        pass


@given(jams_texts)
@settings(max_examples=300, deadline=None)
def test_load_jams_raises_only_schema_errors(text):
    try:
        load_jams(text, fallback_id="fuzz")
    except SchemaError:
        pass
    try:
        load_jams(text.encode("utf-8", "surrogatepass") + b"\xff")
    except SchemaError:
        pass


@given(graph_bytes())
@settings(max_examples=300, deadline=None)
def test_import_ntriples_raises_only_graph_format_errors(data):
    try:
        import_ntriples(data)
    except GraphFormatError:
        pass


@given(golden_edits())
@settings(max_examples=500, deadline=None)
def test_an_edit_of_the_golden_graph_that_imports_re_exports_its_own_lines(lines):
    """A graph is its set of triples: the import accepts an edit only when
    the edited lines are exactly the triples of the graph it reads."""
    try:
        graph = import_ntriples("\n".join(lines).encode())
    except GraphFormatError:
        return
    assert set(export_ntriples(graph).decode().splitlines()) == set(lines)


@given(chart=chart_texts(), jams=jams_texts, graph=graph_bytes())
@settings(max_examples=80, deadline=None)
def test_commands_exit_0_or_2_on_malformed_files(chart, jams, graph):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "corpus"
        corpus.mkdir()
        (corpus / "piece.chart").write_text(chart, "utf-8", "surrogatepass")
        (root / "piece.jams.json").write_text(jams, "utf-8", "surrogatepass")
        (root / "memory.nt").write_bytes(graph)
        pieces = [str(corpus / "piece.chart"), str(root / "piece.jams.json")]
        for piece in pieces:
            assert run(["encode", piece]) in (0, 2)
            assert run(["encode", "--grid", "beat", piece]) in (0, 2)
            assert run(["--out-dir", str(root / "out"), "segment", piece]) in (0, 2)
        assert run(["sim", "--measure", "tpsd", *pieces]) in (0, 2)
        assert run(["matrix", "--measure", "tpsd", str(root)]) in (0, 2)
        assert run(["--out-dir", str(root / "out"), "build", str(corpus)]) in (0, 2)
        assert run(["query", str(root / "memory.nt"), "C:maj G:7"]) in (0, 2)
