"""Timeline ingestion, encoding, and transposition."""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from bisect import bisect_right
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmory.harte import FLAT_NAMES, NO_CHORD, ChordSyntaxError, parse_chord
from harmory.cli import main
from harmory.timeline import (
    MAX_SPAN_BEATS,
    ChordEvent,
    EmptyTimelineError,
    KeySpan,
    SchemaError,
    Timeline,
    at_least,
    build_timeline,
    check_ranges,
    encode_tps,
    estimate_key,
    flag,
    load_chart,
    load_jams,
    _to_fraction,
)
from harmory.tps import Key, profile_distance
from tests.conftest import (chords, make_timeline, tonic_triad_distance, transpose, transpose_chord,
                            transpose_key, write_chart)

JAMS_FIXTURE = json.dumps({
    "file_metadata": {
        "title": "Fixture Song",
        "artist": "Fixture Band",
        "identifiers": {"id": "fixture-01"},
    },
    "annotations": [
        {"namespace": "chord_harte",
         "data": [
             {"time": 0, "duration": 4, "value": "C:maj", "confidence": 1.0},
             {"time": 4, "duration": 4, "value": "G:maj", "confidence": 1.0},
         ]},
        {"namespace": "key_mode",
         "data": [{"time": 0, "duration": 8, "value": "C:maj"}]},
    ],
})


def test_load_jams_fixture():
    tl = load_jams(JAMS_FIXTURE)
    assert tl.id == "fixture-01"
    assert tl.title == "Fixture Song"
    assert tl.artist == "Fixture Band"
    assert len(tl.events) == 2
    assert tl.events[0].chord == parse_chord("C:maj")
    assert tl.events[1].start == Fraction(4)
    assert len(tl.keys) == 1
    assert tl.keys[0].key == Key(0, "major")


def test_load_jams_unknown_namespace_warns_and_skips(caplog):
    doc = json.loads(JAMS_FIXTURE)
    doc["annotations"].append({"namespace": "beat", "data": [{"time": 0}]})
    with caplog.at_level(logging.WARNING):
        tl = load_jams(json.dumps(doc))
    assert len(tl.events) == 2
    assert any("beat" in message for message in caplog.messages)


def test_load_jams_missing_id_uses_fallback():
    doc = json.loads(JAMS_FIXTURE)
    del doc["file_metadata"]["identifiers"]
    with pytest.raises(SchemaError):
        load_jams(json.dumps(doc))
    assert load_jams(json.dumps(doc), fallback_id="other").id == "other"


def test_load_jams_rejects_bad_json_and_empty():
    with pytest.raises(SchemaError):
        load_jams("{not json")
    with pytest.raises(SchemaError):
        load_jams(json.dumps({"file_metadata": {"identifiers": {"id": "x"}},
                              "annotations": []}))


def test_load_jams_chord_error_names_event_index():
    doc = json.loads(JAMS_FIXTURE)
    doc["annotations"][0]["data"][1]["value"] = "H:maj"
    with pytest.raises(SchemaError) as info:
        load_jams(json.dumps(doc))
    assert "event index 1" in str(info.value)
    assert isinstance(info.value.__cause__, ChordSyntaxError)


def test_load_jams_rational_times():
    doc = json.loads(JAMS_FIXTURE)
    doc["annotations"][0]["data"][0]["time"] = "7/2"
    doc["annotations"][0]["data"][0]["duration"] = 0.5
    tl = load_jams(json.dumps(doc))
    assert tl.events[0].start == Fraction(7, 2)
    assert tl.events[0].duration == Fraction(1, 2)


CHART_FIXTURE = """\
# title: Chart Song
# artist: Chart Band
# key: C:maj

0 4 C:maj
4 2 G:maj/3
6 2 N
8 7/2 A:min
"""


def test_load_chart_fixture():
    tl = load_chart(CHART_FIXTURE, piece_id="chart-01")
    assert tl.id == "chart-01"
    assert tl.title == "Chart Song"
    assert tl.artist == "Chart Band"
    assert [str(e.chord.root) for e in tl.events if not e.chord.is_nochord] \
        == ["C", "G", "A"]
    assert tl.events[2].chord.is_nochord
    assert tl.events[3].duration == Fraction(7, 2)
    assert tl.keys[0].key == Key(0, "major")


def test_load_chart_minimal():
    tl = load_chart("# key: C:maj\n0 4 C:maj\n4 4 G:maj")
    assert len(tl.events) == 2


def test_load_chart_header_only_is_empty():
    with pytest.raises(SchemaError):
        load_chart("# key: C:maj\n")


def test_load_chart_duplicate_key_header():
    with pytest.raises(SchemaError):
        load_chart("# key: C:maj\n# key: D:maj\n0 1 C:maj")


# A ``#`` line is a header when its text, less the ``#`` and outer spaces,
# starts with ``title:``, ``artist:`` or ``key:``; the value is the rest, stripped.
@pytest.mark.parametrize("header, title, artist, key", [
    ("#title:x", "x", None, "C:maj"),
    ("# artist: a:b", None, "a:b", "C:maj"),
    ("# artist:", None, "", "C:maj"),
    ("#  title : x", None, None, "C:maj"),
    ("# titles: y", None, None, "C:maj"),
    ("# tempo: 120", None, None, "C:maj"),
    ("# key :C:min", None, None, "C:maj"),
    ("#", None, None, "C:maj"),
    ("# key:C:min", None, None, "C:min"),
    ("#title: a\n#title:  b c ", "b c", None, "C:maj"),
])
def test_chart_headers_set_title_artist_and_key(header, title, artist, key):
    body = "0 4 C:maj\n4 4 G:maj\n"
    tl = load_chart(f"{header}\n{body}")
    assert (tl.id, tl.title, tl.artist) == (title or "chart", title, artist)
    assert tl.keys == (KeySpan(0, 8, Key.from_string(key)),)
    assert tl.events == load_chart(body).events


@pytest.mark.parametrize("header, message", [
    ("# key: H:maj", "line 1: key 'H:maj': not a note letter: 'H'"),
    ("# key:", "line 1: key '': key must look like 'C:maj' or 'C:min'"),
    ("# key: C:maj\n#key:C:maj", "line 2: duplicate key header"),
])
def test_chart_key_header_errors(header, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_chart(f"{header}\n0 4 C:maj\n")


def test_load_chart_bad_event_line_number():
    with pytest.raises(SchemaError) as info:
        load_chart("# key: C:maj\n0 1 C:maj\n1 1 H:maj")
    assert "line 3" in str(info.value)


def test_load_chart_zero_duration():
    with pytest.raises(SchemaError) as info:
        load_chart("0 0 C:maj")
    assert "duration" in str(info.value)


def test_load_chart_wrong_field_count():
    with pytest.raises(SchemaError):
        load_chart("0 C:maj")


@pytest.mark.parametrize("line", ["0 1e309 C:maj", "1e-400 4 C:maj", "0 1E+0_400 C:maj"])
def test_load_chart_rejects_time_exponents_beyond_a_json_number(line):
    with pytest.raises(SchemaError, match="^line 2: time exponent beyond ±308"):
        load_chart(f"# key: C:maj\n{line}")


def test_time_exponents_within_a_json_number_are_accepted():
    tl = load_chart("1e-308 1E+0_2 C:maj\n")
    assert tl.events[0].start == Fraction(1, 10**308)
    assert tl.events[0].duration == 100


def test_load_jams_rejects_string_time_exponent_beyond_a_json_number():
    doc = json.loads(JAMS_FIXTURE)
    doc["annotations"][0]["data"][1]["time"] = "1e309"
    with pytest.raises(SchemaError, match="observation 1: time exponent beyond ±308"):
        load_jams(json.dumps(doc))


# Decimal digits of ASCII, Arabic-Indic and Devanagari: Fraction reads all of them.
DIGITS = "0123456789" + "\u0660\u0663\u0669" + "\u0966\u0969"


@given(st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-"]),
              st.text(DIGITS, min_size=1, max_size=24),
              st.sampled_from(["", " ", "\n"])).map("".join),
    st.integers(-10**30, 10**30)))
def test_whole_times_read_as_fraction_reads_them(token):
    """ASCII-decimal tokens and JSON integers take a fast path; leading
    zeros, signs, spaces and other decimal digits take the string path.
    Both give ``Fraction(token)``."""
    assert _to_fraction(token, "ctx") == Fraction(token)


@pytest.mark.parametrize("field, token", [("time", False), ("duration", True)])
def test_json_booleans_are_bad_time_values(field, token):
    """Fraction reads false and true as 0 and 1; a time is a number or a string."""
    doc = json.loads(JAMS_FIXTURE)
    doc["annotations"][0]["data"][1][field] = token
    with pytest.raises(SchemaError, match=f"^fixture-01: observation 1: bad time value {token}$"):
        load_jams(json.dumps(doc))


@pytest.mark.parametrize("token", ["\u00b2", "3\u00b2", "9" * 5000])
def test_digits_that_int_cannot_read_are_bad_time_values(token):
    """'²'.isdigit() is true but no decimal digit; int() also refuses a
    token of more than 4,300 digits."""
    with pytest.raises(SchemaError, match=r"^ctx: bad time value "):
        _to_fraction(token, "ctx")


@pytest.mark.parametrize("token", ["4", 4, 4.0, "4.0", "8/2"])
def test_whole_times_load_as_ints(token):
    time = _to_fraction(token, "ctx")
    assert type(time) is int and time == 4
    doc = json.loads(JAMS_FIXTURE)
    doc["annotations"][0]["data"][1]["time"] = token
    chart = load_chart(f"0 {token} C:maj\n")
    for loaded in (load_jams(json.dumps(doc)).events[1].start, chart.events[0].duration):
        assert type(loaded) is int and loaded == 4


@pytest.mark.parametrize("token", ["7/2", "3.5", 3.5])
def test_other_times_load_as_fractions(token):
    time = _to_fraction(token, "ctx")
    assert type(time) is Fraction and time == Fraction(7, 2)


@pytest.mark.parametrize("start, beat", [("3", "3"), ("3.0", "3"), ("6/2", "3"),
                                         ("7/2", "7/2"), ("3.5", "7/2")])
def test_beat_messages_print_loaded_times_as_fractions_did(start, beat):
    with pytest.raises(SchemaError, match=f"^chart: overlapping events at beat {beat}$"):
        load_chart(f"0 4 C:maj\n{start} 1 G:maj\n")
    with pytest.raises(SchemaError, match=f"^chart: non-positive duration at beat {beat}$"):
        load_chart(f"{start} 0 C:maj\n")


def test_write_chart_round_trips_int_and_fraction_times():
    text = "# key: C:maj\n0 7/2 C:maj\n7/2 1/2 G:maj\n4 4 N\n8 8 F:maj\n"
    tl = load_chart(text, piece_id="p")
    assert [type(e.start) for e in tl.events] == [int, Fraction, int, int]
    assert write_chart(tl) == text
    assert load_chart(write_chart(tl), piece_id="p") == tl


def test_encode_weights_are_the_loaded_durations_and_whole_beats():
    tl = load_chart("0 4 C:maj\n4 3 G:maj\n7 1/2 N\n15/2 3/2 F:maj\n", piece_id="p")
    events = encode_tps(tl, "event").values
    assert events == ((0.0, 4), (5.0, 3), (5.0, Fraction(3, 2)))
    assert [type(w) for _, w in events] == [int, int, Fraction]
    assert {type(w) for _, w in encode_tps(tl, "beat").values} == {int}


def test_a_superscript_time_exits_2(capsys, tmp_path):
    piece = tmp_path / "p.chart"
    piece.write_text("0 1 C:maj\n\u00b2 1 G:maj\n", encoding="utf-8")
    assert main(["encode", str(piece)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: line 2: bad time value '\u00b2'\n")


def test_time_bound_messages_are_unchanged():
    with pytest.raises(SchemaError) as info:
        load_chart("0 1e309 C:maj\n")
    assert str(info.value) == "line 1: time exponent beyond \u00b1308 in '1e309'"
    doc = json.loads(JAMS_FIXTURE)
    doc["annotations"][0]["data"][1]["duration"] = "4E+0_400"
    with pytest.raises(SchemaError) as info:
        load_jams(json.dumps(doc))
    assert str(info.value) == "fixture-01: observation 1: time exponent beyond \u00b1308 in '4E+0_400'"
    for whole in (MAX_SPAN_BEATS + 1, 10**400):
        with pytest.raises(SchemaError) as info:
            load_chart(f"0 {whole} C:maj\n", "p")
        assert str(info.value) == "p: spans more than 1048576 beats"
        doc["annotations"][0]["data"][1]["duration"] = whole
        with pytest.raises(SchemaError) as info:
            load_jams(json.dumps(doc))
        assert str(info.value) == "fixture-01: spans more than 1048576 beats"
    assert load_chart(f"0 {MAX_SPAN_BEATS} C:maj\n").end == MAX_SPAN_BEATS


def test_loaders_parse_each_distinct_chord_token_once():
    symbols = ["C:maj", "G:7", "C:maj", "A:min", "G:7", "C:maj"]
    chart = "".join(f"{i} 1 {symbol}\n" for i, symbol in enumerate(symbols))
    jams = json.dumps({"annotations": [{"namespace": "chord_harte", "data": [
        {"time": i, "duration": 1, "value": symbol} for i, symbol in enumerate(symbols)]}]})
    expected = [parse_chord(s) for s in symbols]
    for load, text in ((load_chart, chart), (load_jams, jams)):
        parse_chord.cache_clear()
        assert [e.chord for e in load(text, "piece").events] == expected
        assert parse_chord.cache_info().misses == len(set(symbols))
    # The cache is the parser's own: a JAMS file after a chart with the
    # same tokens parses none of them again.
    parse_chord.cache_clear()
    load_chart(chart, "piece")
    load_jams(jams, "piece")
    assert parse_chord.cache_info().misses == len(set(symbols))
    with pytest.raises(SchemaError, match="line 4"):
        load_chart(chart.replace("A:min", "H:min"))
    doc = json.loads(jams)
    doc["annotations"][0]["data"][4]["value"] = "H:maj"
    with pytest.raises(SchemaError, match="event index 4"):
        load_jams(json.dumps(doc), fallback_id="piece")


def test_load_jams_rejects_json_of_the_wrong_shape():
    good = json.loads(JAMS_FIXTURE)
    for path, value, message in [
            ((), [1], "missing 'annotations'"),
            (("annotations",), 5, "annotations: expected a JSON array"),
            (("annotations", 0), "x", "annotation 0: expected a JSON object"),
            (("annotations", 0, "data"), {}, "chord_harte data: expected a JSON array"),
            (("annotations", 0, "data", 1, "value"), 5, "observation 1 lacks"),
            (("annotations", 1, "data", 0, "value"), ["C:maj"], "observation 0 lacks"),
            (("file_metadata",), 5, "file_metadata: expected a JSON object"),
            (("file_metadata", "identifiers"), [1], "identifiers: expected a JSON object"),
            (("file_metadata", "identifiers", "id"), 7, "piece id"),
    ]:
        doc = json.loads(JAMS_FIXTURE)
        if path:
            *parents, last = path
            target = doc
            for step in parents:
                target = target[step]
            target[last] = value
        else:
            doc = value
        with pytest.raises(SchemaError, match=message):
            load_jams(json.dumps(doc))
    assert load_jams(json.dumps(good)).id == "fixture-01"
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_jams(b"\xff" + JAMS_FIXTURE.encode())
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_jams("[" * 100_000)


def test_build_timeline_rejects_overlap():
    events = (ChordEvent(Fraction(0), Fraction(2), parse_chord("C:maj")),
              ChordEvent(Fraction(1), Fraction(2), parse_chord("G:maj")))
    with pytest.raises(SchemaError) as info:
        build_timeline("x", events)
    assert "overlap" in str(info.value)


def test_build_timeline_sorts_events():
    events = (ChordEvent(Fraction(4), Fraction(4), parse_chord("G:maj")),
              ChordEvent(Fraction(0), Fraction(4), parse_chord("C:maj")))
    tl = build_timeline("x", events)
    assert [e.start for e in tl.events] == [Fraction(0), Fraction(4)]


def test_build_timeline_estimates_key_when_missing():
    tl = load_chart("0 4 C:maj\n4 4 G:maj\n8 4 F:maj")
    assert tl.keys[0].key == Key(0, "major")
    assert tl.keys[0].start == Fraction(0)
    assert tl.keys[0].duration == Fraction(12)


def test_key_spans_tile_timeline():
    events = tuple(ChordEvent(Fraction(i * 4), Fraction(4), parse_chord(c))
                   for i, c in enumerate(["C:maj", "G:maj", "D:maj", "A:maj"]))
    spans = (KeySpan(Fraction(2), Fraction(4), Key(0, "major")),
             KeySpan(Fraction(8), Fraction(2), Key(2, "major")))
    tl = build_timeline("x", events, spans)
    assert tl.keys[0].start == Fraction(0)
    assert tl.keys[0].start + tl.keys[0].duration == tl.keys[1].start
    assert tl.keys[-1].start + tl.keys[-1].duration == tl.end
    c, d = Key(0, "major"), Key(2, "major")
    assert [key for _, _, key in tl.sounded()] == [c, c, d, d]


def bisect_key_at(timeline, position):
    """The bisect lookup that ``sounded()``'s walk replaced: the key of the
    last span starting at or before ``position``, else of the first span."""
    starts = [span.start for span in timeline.keys]
    return timeline.keys[max(bisect_right(starts, position) - 1, 0)].key


def bisect_encode(timeline, grid):
    """The per-event, per-beat bisect loop that ``encode_tps`` replaced."""
    sounded = [(i, e) for i, e in enumerate(timeline.events) if not e.chord.is_nochord]
    event_values = [None] * len(timeline.events)
    for i, e in sounded:
        event_values[i] = tonic_triad_distance(e.chord, bisect_key_at(timeline, e.start))
    if grid == "event":
        return tuple((event_values[i], e.duration) for i, e in sounded)
    start = timeline.events[0].start
    starts = [e.start for e in timeline.events]
    held = next(v for v in event_values if v is not None)
    values = []
    for j in range(int(timeline.end - start)):
        idx = bisect_right(starts, start + j) - 1
        if idx >= 0 and event_values[idx] is not None:
            held = event_values[idx]
        values.append((held, Fraction(1)))
    return tuple(values)


offsets = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))
lengths = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3, 4]))
tps_keys = st.builds(Key, st.integers(0, 11), st.sampled_from(["major", "minor"]))


@st.composite
def keyed_timelines(draw):
    """``build_timeline`` outputs with fractional starts and gaps, leading
    and inner no-chords, and key spans starting before the first event,
    between events, exactly on an event start, or on one beat together."""
    position = draw(offsets)
    events = []
    for _ in range(draw(st.integers(1, 10))):
        position += draw(st.sampled_from([0, 0, Fraction(1, 2)]) | lengths)
        duration = draw(lengths)
        symbol = draw(st.sampled_from(["N", "C:maj", "G:7", "A:min", "F#:dim", "Eb:maj7/3"]))
        events.append(ChordEvent(position, duration, parse_chord(symbol)))
        position += duration
    starts = st.sampled_from([e.start for e in events]) \
        | st.builds(Fraction.__add__, st.just(events[0].start), offsets)
    spans = [KeySpan(start, draw(lengths), draw(tps_keys))
             for start in draw(st.lists(starts, min_size=1, max_size=5))]
    return build_timeline("p", events, spans)


@given(keyed_timelines())
@settings(max_examples=400, deadline=None)
def test_sounded_keys_and_encodings_equal_the_bisect_lookup(timeline):
    expected = [(i, e.chord, bisect_key_at(timeline, e.start))
                for i, e in enumerate(timeline.events) if not e.chord.is_nochord]
    if not expected:
        for call in (timeline.sounded, lambda: encode_tps(timeline, "beat")):
            with pytest.raises(EmptyTimelineError, match="^p: no sounded events$"):
                call()
        return
    assert timeline.sounded() == expected
    for grid in ("event", "beat"):
        values = bisect_encode(timeline, grid)
        if not values:
            with pytest.raises(EmptyTimelineError, match="^p: shorter than one beat$"):
                encode_tps(timeline, grid)
            continue
        series = encode_tps(timeline, grid)
        assert series.values == values
        assert all(type(v) is float and type(w) is (int if grid == "beat" else Fraction)
                   for v, w in series.values)


def per_beat_grid(timeline):
    """The per-beat loop that ``encode_tps``'s per-event fill replaced: each
    beat takes the last event whose offset's ceiling is at most the beat (the
    last one starting at or before it); a no-chord keeps the previous beat's value."""
    sounded = timeline.sounded()
    value_at = {i: tonic_triad_distance(chord, key) for i, chord, key in sounded}
    start = timeline.events[0].start
    first_beats = [ceil(e.start - start) for e in timeline.events]
    held, i, grid_values = value_at[sounded[0][0]], 0, []
    for beat in range(int(timeline.end - start)):  # floor of the total span
        while i + 1 < len(first_beats) and first_beats[i + 1] <= beat:
            i += 1
        held = value_at.get(i, held)
        grid_values.append((held, Fraction(1)))
    if not grid_values:
        raise EmptyTimelineError(f"{timeline.id}: shorter than one beat")
    return tuple(grid_values)


@st.composite
def crowded_timelines(draw):
    """Timelines whose events often share a beat: fractional starts, gaps,
    short events, leading and trailing no-chords, and spans of under a beat."""
    position = draw(offsets)
    events = []
    for _ in range(draw(st.integers(1, 12))):
        position += draw(st.sampled_from([0, 0, 0, Fraction(1, 4), Fraction(1, 2), 1, 2]))
        duration = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                                         Fraction(3, 4), 1, Fraction(3, 2), 2]))
        symbol = draw(st.sampled_from(["N", "N", "C:maj", "G:7", "A:min", "Eb:maj7/3"]))
        events.append(ChordEvent(position, duration, parse_chord(symbol)))
        position += duration
    spans = [KeySpan(events[0].start, draw(lengths), draw(tps_keys))
             for _ in range(draw(st.integers(0, 2)))]
    spans += [KeySpan(e.start, 1, draw(tps_keys)) for e in events if draw(st.booleans())][:2]
    return build_timeline("p", events, spans or [KeySpan(events[0].start, 1, Key(0))])


# A sounded event that holds no beat, then a no-chord in the same beat:
# beat 2 keeps C:maj, the previous beat's value, not the skipped G:maj's.
SKIPPED = build_timeline("p", [ChordEvent(0, 1, parse_chord("C:maj")),
                               ChordEvent(Fraction(5, 4), Fraction(1, 4), parse_chord("G:maj")),
                               ChordEvent(Fraction(3, 2), Fraction(3, 2), NO_CHORD)],
                         [KeySpan(0, 3, Key(0))])


@given(crowded_timelines())
@example(SKIPPED)
@settings(max_examples=400, deadline=None)
def test_the_beat_grid_equals_the_per_beat_loop(timeline):
    try:
        expected = per_beat_grid(timeline)
    except EmptyTimelineError as err:
        with pytest.raises(EmptyTimelineError, match=f"^{re.escape(str(err))}$"):
            encode_tps(timeline, "beat")
        return
    assert encode_tps(timeline, "beat").values == expected


def test_encode_costs_each_distinct_event_once(monkeypatch):
    import harmory.tps as tps

    costed = []

    def counting(triad, p):
        costed.append(p)
        return profile_distance(triad, p)

    monkeypatch.setattr(tps, "profile_distance", counting)
    tl = make_timeline(["C:maj", "G:maj", "C:maj", "N", "G:maj", "A:min"])
    for grid in ("event", "beat"):
        costed.clear()
        encode_tps(tl, grid)
        expected = tps.key_relative_profiles((parse_chord(s), Key(0))
                                             for s in ("C:maj", "G:maj", "A:min"))
        assert sorted(costed) == sorted(expected)


def test_estimate_key_prefers_best_coverage():
    chords = [parse_chord(c) for c in ("C:maj", "G:maj", "F:maj", "A:min")]
    assert estimate_key(chords) == Key(0, "major")


def test_estimate_key_tie_breaks_nearest_tonic_above_the_first_root_then_major():
    # a lone triad fits several keys; the key on its own root wins the tie
    assert estimate_key([parse_chord("C:maj")]) == Key(0, "major")
    assert estimate_key([parse_chord("D:maj")]) == Key(2, "major")
    assert estimate_key([parse_chord("A:min")]) == Key(9, "minor")
    # C and G both fit C major and G major: the first sounded root decides
    c_g = [parse_chord(c) for c in ("N", "C:maj", "G:maj", "C:maj", "G:maj")]
    assert estimate_key(c_g) == Key(0)
    assert estimate_key(c_g[2:]) == Key(7)
    assert estimate_key([transpose_chord(c, 5) for c in c_g]) == Key(5)


# The 24 keys and their diatonic sets, for the oracle below.
ORACLE_KEYS = [(Key(tonic, mode), Key(tonic, mode).diatonic())
               for tonic in range(12) for mode in ("major", "minor")]


def oracle_estimate_key(pcs: set[int], first_root: int) -> Key:
    """Every key ranked by pitch classes covered, then by how few
    semitones its tonic lies above the first root, then major first."""
    return max(ORACLE_KEYS, key=lambda k: (len(pcs & k[1]), -((k[0].tonic - first_root) % 12),
                                           k[0].mode == "major"))[0]


def test_estimate_key_matches_the_candidate_loop_on_every_pitch_class_set():
    """Every pitch-class set, played from each of its pitch classes."""
    lone = [parse_chord(f"{name}:maj(*3,*5)") for name in FLAT_NAMES]  # one pitch class each
    with pytest.raises(EmptyTimelineError):
        estimate_key([parse_chord("N")])
    for mask in range(1, 1 << 12):
        pcs = [pc for pc in range(12) if mask >> pc & 1]
        for i, first in enumerate(pcs):
            played = [lone[pc] for pc in pcs[i:] + pcs[:i]]
            assert estimate_key(played) == oracle_estimate_key(set(pcs), first)


@given(st.lists(chords() | st.just(NO_CHORD), min_size=1, max_size=8)
       .filter(lambda progression: any(not c.is_nochord for c in progression)))
@settings(max_examples=200, deadline=None)
def test_estimate_key_commutes_with_transposition(progression):
    key = estimate_key(progression)
    for shift in range(1, 12):
        assert estimate_key([transpose_chord(c, shift) for c in progression]) \
            == transpose_key(key, shift)


def test_encode_event_grid():
    tl = make_timeline(["C:maj", "G:maj"], beat=4)
    series = encode_tps(tl, "event")
    assert series.values == ((0.0, Fraction(4)), (5.0, Fraction(4)))


def test_encode_single_tonic():
    tl = make_timeline(["C:maj"], beat=3)
    assert encode_tps(tl, "event").values == ((0.0, Fraction(3)),)


def test_encode_beat_grid():
    tl = make_timeline(["C:maj", "G:maj"], beat=4)
    series = encode_tps(tl, "beat")
    assert [v for v, _ in series.values] == [0.0] * 4 + [5.0] * 4
    assert all(w == 1 for _, w in series.values)


def test_encode_beat_grid_nochord_holds_previous():
    tl = make_timeline(["C:maj", "N", "N", "A:min"])
    series = encode_tps(tl, "beat")
    assert [v for v, _ in series.values] == [0.0, 0.0, 0.0, 7.0]


def test_encode_beat_grid_leading_nochord_holds_first_sounded():
    tl = make_timeline(["N", "G:maj", "C:maj"])
    series = encode_tps(tl, "beat")
    assert [v for v, _ in series.values] == [5.0, 5.0, 0.0]


def test_encode_event_grid_drops_nochord():
    tl = make_timeline(["C:maj", "N", "G:maj"])
    series = encode_tps(tl, "event")
    assert len(series.values) == 2


def test_encode_rejects_all_nochord():
    events = (ChordEvent(Fraction(0), Fraction(1), parse_chord("N")),)
    tl = Timeline(id="x", events=events,
                  keys=(KeySpan(Fraction(0), Fraction(1), Key(0, "major")),))
    with pytest.raises(EmptyTimelineError):
        encode_tps(tl, "beat")


def test_encode_beat_grid_weight_sum_is_floor_of_span():
    tl = load_chart("# key: C:maj\n0 5/2 C:maj\n5/2 2 G:maj")
    series = encode_tps(tl, "beat")
    assert sum(w for _, w in series.values) == int(tl.end - tl.events[0].start)


def test_encode_transposition_invariance():
    tl = make_timeline(["C:maj", "G:maj", "A:min", "F:maj"])
    for n in range(12):
        assert encode_tps(transpose(tl, n), "event") == encode_tps(tl, "event")
        assert encode_tps(transpose(tl, n), "beat") == encode_tps(tl, "beat")


def test_transpose_shifts_roots_and_keys():
    tl = make_timeline(["C:maj", "G:maj"])
    up = transpose(tl, 7)
    assert [str(e.chord.root) for e in up.events] == ["G", "D"]
    assert up.keys[0].key == Key(7, "major")
    assert up.events[0].start == tl.events[0].start


def test_transpose_identity_and_inverse():
    tl = make_timeline(["C:maj", "G:maj", "A:min"])
    assert transpose(tl, 0) is tl
    assert transpose(tl, 12) is tl
    assert transpose(transpose(tl, 5), -5) == tl


def test_transpose_preserves_bass_relation():
    tl = make_timeline(["C:maj/3"])
    assert transpose(tl, 2).events[0].chord.bass == parse_chord("C:maj/3").bass


def test_chart_round_trip():
    tl = load_chart(CHART_FIXTURE, piece_id="chart-01")
    again = load_chart(write_chart(tl), piece_id="chart-01")
    assert again == tl


def test_write_chart_fractions_survive():
    tl = make_timeline(["C:maj", "G:maj"])
    text = write_chart(tl)
    assert load_chart(text, piece_id=tl.id) == tl


@given(st.integers(-24, 24))
@settings(max_examples=50)
def test_transpose_round_trip_property(n):
    tl = make_timeline(["C:maj", "Eb:7", "G:min7/b7", "B:dim"])
    assert transpose(transpose(tl, n), -n) == tl


def test_ingestion_determinism():
    assert load_chart(CHART_FIXTURE, piece_id="x") == load_chart(CHART_FIXTURE, piece_id="x")
    assert load_jams(JAMS_FIXTURE) == load_jams(JAMS_FIXTURE)


def test_a_parameter_flag_is_its_name_with_dashes_and_one_dash_for_one_letter():
    assert [flag(name) for name in ("theta_sim", "kernel_size", "tau", "k")] \
        == ["--theta-sim", "--kernel-size", "--tau", "-k"]


def test_check_ranges_refuses_the_first_field_out_of_its_range_naming_its_flag():
    @dataclasses.dataclass(frozen=True)
    class Knobs:
        free: float = 0.5
        min_gap: int = dataclasses.field(default=1, metadata={"range": at_least(1)})
        k: int = dataclasses.field(default=1, metadata={"range": at_least(0)})
        __post_init__ = check_ranges

    Knobs(free=float("nan"), min_gap=1, k=0)
    with pytest.raises(ValueError, match="^--min-gap must be an integer >= 1, got 0$"):
        Knobs(min_gap=0, k=-1)
    with pytest.raises(ValueError, match="^-k must be an integer >= 0, got -1$"):
        Knobs(k=-1)
