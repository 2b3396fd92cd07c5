"""Shared builders and hypothesis strategies."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import reject, strategies as st

from harmory.harte import (FLAT_NAMES, Chord, Degree, HarteError, NO_CHORD, Natural,
                           SHORTHAND_DEGREES, parse_chord, render_chord)
from harmory.timeline import ChordEvent, KeySpan, Timeline, build_timeline
from harmory.tps import Key, chord_distance


def strict_json(text):
    """Parse a JSON output of harmory, failing on the ``NaN`` and
    ``Infinity`` tokens that Python writes but JSON does not allow."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def make_timeline(chords, key="C:maj", piece_id="piece", beat=1):
    """Timeline from chord symbols, one event per `beat` beats."""
    events = tuple(ChordEvent(Fraction(i * beat), Fraction(beat), parse_chord(c))
                   for i, c in enumerate(chords))
    span = KeySpan(Fraction(0), Fraction(len(chords) * beat), Key.from_string(key))
    return build_timeline(piece_id, events, (span,))


def sounded_pairs(timeline):
    """The (chord, key) pair of each sounded event of a timeline."""
    return [(chord, key) for _, chord, key in timeline.sounded()]


# Transposition and chart writing are not harmory operations: they build the
# inputs of the invariance and round-trip tests.

def transpose_key(key, semitones):
    """``key`` moved by ``semitones``, in the same mode."""
    return Key((key.tonic + semitones) % 12, key.mode)


def transpose_chord(chord, semitones):
    """Shift the root; degrees and bass are root-relative and unchanged.
    Full-octave shifts keep the spelling, others respell canonically,
    preferring flats."""
    if chord.is_nochord or semitones % 12 == 0:
        return chord
    name = FLAT_NAMES[(chord.root_pc + semitones) % 12]
    return Chord(root=Natural(name[0], name[1:]), degrees=chord.degrees, bass=chord.bass,
                 shorthand=chord.shorthand)


def transpose(timeline, semitones):
    """Shift all chord roots and key tonics; structure is unchanged."""
    if semitones % 12 == 0:
        return timeline
    events = tuple(
        ChordEvent(e.start, e.duration, transpose_chord(e.chord, semitones))
        for e in timeline.events)
    keys = tuple(
        KeySpan(s.start, s.duration, transpose_key(s.key, semitones)) for s in timeline.keys)
    return Timeline(id=timeline.id, events=events, keys=keys,
                    title=timeline.title, artist=timeline.artist)


def write_chart(timeline):
    """Inverse of ``timeline.load_chart`` for single-key timelines."""
    if len(timeline.keys) != 1:
        raise ValueError("chart format holds exactly one key span")
    lines = []
    if timeline.title:
        lines.append(f"# title: {timeline.title}")
    if timeline.artist:
        lines.append(f"# artist: {timeline.artist}")
    lines.append(f"# key: {timeline.keys[0].key}")
    for event in timeline.events:
        lines.append(f"{event.start} {event.duration} {render_chord(event.chord)}")
    return "\n".join(lines) + "\n"


def transposed_to_c(events):
    """(chord, key) events with each chord transposed down by its key's
    tonic into the key of C of the same mode: the oracle of
    ``tps.key_relative_profiles``, which builds no chord or key."""
    return [(transpose_chord(chord, -key.tonic), Key(0, key.mode)) for chord, key in events]


def tonic_triad_distance(chord, key):
    """The reference key-relative value: ``chord_distance`` from the key's
    tonic triad, parsed as ``"<tonic>:maj"`` or ``"<tonic>:min"``."""
    return chord_distance(parse_chord(str(key)), key, chord, key)


naturals = st.builds(
    Natural,
    letter=st.sampled_from("ABCDEFG"),
    modifiers=st.sampled_from(["", "b", "#", "bb", "##"]),
)

degrees = st.builds(
    Degree,
    interval=st.integers(1, 13),
    alteration=st.integers(-2, 2),
)


@st.composite
def chords(draw):
    """Sounded chords; the bass, when present, is one of the degrees so
    that render/parse is an exact round trip."""
    root = draw(naturals)
    pool = draw(st.lists(degrees, min_size=1, max_size=7,
                         unique_by=lambda d: d.interval))
    degree_set = frozenset(pool)
    bass = draw(st.sampled_from([None] + pool))
    return Chord(root=root, degrees=degree_set, bass=bass)


@st.composite
def written_symbols(draw):
    """Chord symbols as people write them: a root with up to six
    accidentals, a shorthand or a bare degree list, omitted and added
    degrees, and a slash bass that is added when it is not a degree.  A
    few spell no chord: every degree omitted, or an empty body."""
    root = draw(st.sampled_from("ABCDEFG")) + draw(st.sampled_from("b#")) * draw(st.integers(0, 6))
    shorthand = draw(st.sampled_from(["", *SHORTHAND_DEGREES]))
    present = sorted(d.interval for d in SHORTHAND_DEGREES[shorthand]) if shorthand else [1]
    omitted = draw(st.lists(st.sampled_from(present), unique=True, max_size=2))
    sounding = set(present) - set(omitted)
    added = draw(st.lists(degrees.filter(lambda d: d.interval not in sounding), max_size=3,
                          unique_by=lambda d: d.interval))
    bass = draw(st.none() | degrees)
    entries = [f"*{interval}" for interval in omitted] + [str(d) for d in added]
    symbol = f"{root}:{shorthand}" + (f"({','.join(entries)})" if entries else "")
    return symbol + (f"/{bass}" if bass else "")


@st.composite
def written_chords(draw):
    """Chords as the parser builds them from ``written_symbols``."""
    try:
        return parse_chord(draw(written_symbols()))
    except HarteError:  # no degree is left, or none is written
        reject()


keys = st.builds(Key, st.integers(0, 11), st.sampled_from(["major", "minor"]))


@st.composite
def chord_symbols(draw):
    """Syntactically valid chord strings, including N."""
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return "N"
    return render_chord(draw(chords()))


@pytest.fixture
def simple_timeline():
    return make_timeline(["C:maj", "G:maj", "A:min", "F:maj"])


# A small cover corpus: three cliques whose covers are transposed,
# re-timed, substituted or modulating, and one piece without covers.
# Rows are (piece id, clique, beats per chord, sections), each section a
# key and the chord symbols played under it.
_VERSE = ["C:maj", "A:min", "F:maj", "G:7"]
_CHORUS = ["F:maj", "G:maj", "C:maj", "C:maj"]
_MINOR = ["A:min", "D:min", "E:7", "A:min", "F:maj", "D:min", "E:7", "A:min"]
COVER_CORPUS = (
    ("c0-orig", "c0", 1, [("C:maj", _VERSE * 2 + _CHORUS + _VERSE)]),
    ("c0-trans", "c0", 2, [("Eb:maj", ["Eb:maj", "C:min", "Ab:maj", "Bb:7"] * 2
                            + ["Ab:maj", "Bb:maj", "Eb:maj", "Eb:maj"]
                            + ["Eb:maj", "C:min", "Ab:maj", "Bb:7"])]),
    ("c0-sub", "c0", 1, [("A:maj", ["A:maj", "F#:min7", "D:maj", "E:7"] * 2
                          + ["B:min7", "E:maj", "A:maj", "A:maj"]
                          + ["A:maj", "C#:min", "D:maj", "E:7"])]),
    ("c1-orig", "c1", 1, [("A:min", _MINOR * 2)]),
    ("c1-trans", "c1", 2, [("F#:min", ["F#:min", "B:min", "C#:7", "F#:min",
                                       "D:maj", "B:min", "C#:7", "F#:min"] * 2)]),
    ("c1-mod", "c1", 1, [("A:min", _MINOR),
                         ("C:min", ["C:min", "F:min", "G:7", "C:min",
                                    "Ab:maj", "F:min", "G:7", "C:min"])]),
    ("c2-orig", "c2", 1, [("C:maj", ["C:maj", "G:maj", "A:min", "F:maj"] * 2),
                          ("G:maj", ["G:maj", "E:min", "A:7", "D:maj"] * 2)]),
    ("c2-trans", "c2", 2, [("D:maj", ["D:maj", "A:maj", "B:min", "G:maj"] * 2),
                           ("A:maj", ["A:maj", "F#:min", "B:7", "E:maj"] * 2)]),
    ("solo", "c3", 1, [("F:maj", ["F:7", "Bb:7", "F:7", "F:7", "Bb:7", "Bb:7",
                                  "F:7", "F:7", "C:7", "Bb:7", "F:7", "C:7"])]),
)


def cover_jams(piece_id, beat, sections) -> str:
    """JAMS text of a cover-corpus row: one chord every `beat` beats and
    one key annotation per section."""
    chords, keys, time = [], [], 0
    for key, symbols in sections:
        keys.append({"time": time, "duration": beat * len(symbols), "value": key})
        for symbol in symbols:
            chords.append({"time": time, "duration": beat, "value": symbol})
            time += beat
    doc = {"file_metadata": {"identifiers": {"id": piece_id}},
           "annotations": [{"namespace": "chord_harte", "data": chords},
                           {"namespace": "key_mode", "data": keys}]}
    return json.dumps(doc, indent=1)


def cover_corpus() -> list[Timeline]:
    from harmory.timeline import load_jams

    return [load_jams(cover_jams(piece_id, beat, sections))
            for piece_id, _, beat, sections in COVER_CORPUS]


def exhaustive_lharp(a, b, tau=1.0, n_min=2, n_max=4):
    """``similarity.lharp`` with every pattern pair warped and no bound
    consulted: the reference the bounded skip must reproduce exactly."""
    from harmory.similarity import (LocalRegion, SimilarityReport, _covered_runs, _dtw,
                                    extract_recurrent_patterns, key_relative_events)
    from harmory.tps import distance_table, intern

    vocab = {}

    def codes_and_patterns(timeline):
        """The piece's codes, and each pattern with the codes of its first occurrence."""
        profiles = key_relative_events(timeline)
        codes = intern(profiles, vocab)
        return codes, [(p, codes[p.positions[0]:p.positions[0] + p.length])
                       for p in extract_recurrent_patterns(profiles, n_min, n_max)]

    (ca, patterns_a), (cb, patterns_b) = codes_and_patterns(a), codes_and_patterns(b)
    table = distance_table(vocab, vocab)
    agreeing = [(p, q) for p, slice_a in patterns_a for q, slice_b in patterns_b
                if _dtw(slice_a, slice_b, table=table).normalized_cost <= tau]
    runs_a = _covered_runs({p for p, _ in agreeing})
    runs_b = _covered_runs({q for _, q in agreeing})
    coverage_a, coverage_b = Fraction(len(runs_a), len(ca)), Fraction(len(runs_b), len(cb))
    raw = (2 * coverage_a * coverage_b / (coverage_a + coverage_b)
           if coverage_a and coverage_b else Fraction(0))
    regions = []
    for run_a, run_b in sorted({(runs_a[p.positions[0]], runs_b[q.positions[0]])
                                for p, q in agreeing}):
        region_a, region_b = ca[run_a[0]:run_a[1]], cb[run_b[0]:run_b[1]]
        path = _dtw(region_a, region_b, table=table).path
        regions.append(LocalRegion(run_a, run_b,
                                   tuple(table[region_a[i]][region_b[j]] for i, j in path)))
    return SimilarityReport(measure="lharp", score=float(raw), raw=float(raw),
                            params={"tau": tau, "n_min": n_min, "n_max": n_max},
                            local_regions=tuple(regions))
