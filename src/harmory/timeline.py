"""Chord timelines: ingestion, key handling, and Tonal Pitch Space encoding.

Two input formats are supported.  The JSON annotation format::

    {
      "file_metadata": {"title": ..., "artist": ..., "identifiers": {"id": ...}},
      "annotations": [
        {"namespace": "chord_harte",
         "data": [{"time": 0, "duration": 4, "value": "C:maj", "confidence": 1}]},
        {"namespace": "key_mode",
         "data": [{"time": 0, "duration": 8, "value": "C:maj"}]}
      ]
    }

and the plain chart format: ``#`` comment lines, of which ``# title:``,
``# artist:`` and ``# key: <Natural>:<maj|min>`` are recognized headers,
followed by one ``<start> <duration> <chord>`` event per line.  Times are
beats, written as decimals or rationals like ``7/2``.  A whole time loads
as an ``int`` and any other as a ``Fraction``; Python compares and adds
the two exactly.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from math import ceil, isfinite
from typing import NamedTuple

from harmory.harte import Chord, HarteError, parse_chord
from harmory.tps import KEYS, Key, key_relative_profiles, key_relative_values

log = logging.getLogger(__name__)

# The longest piece, from its first event's start to its last event's end.
# The beat grid holds one value per beat of it.
MAX_SPAN_BEATS = 2**20


class SchemaError(ValueError):
    """Structurally invalid timeline input."""


class EmptyTimelineError(ValueError):
    """A timeline without sounded events was passed to an analysis step."""


class ChordEvent(NamedTuple):
    start: int | Fraction
    duration: int | Fraction
    chord: Chord


class KeySpan(NamedTuple):
    start: int | Fraction
    duration: int | Fraction
    key: Key


@dataclass(frozen=True)
class Timeline:
    """A piece: ordered, non-overlapping chord events plus tiling key spans."""

    id: str
    events: tuple[ChordEvent, ...]
    keys: tuple[KeySpan, ...]
    title: str | None = None
    artist: str | None = None

    @property
    def end(self) -> int | Fraction:
        last = self.events[-1]
        return last.start + last.duration

    def sounded(self) -> list[tuple[int, Chord, Key]]:
        """(index, chord, key) of each sounded event, in order; its key is the
        last span's starting at or before it, else the first span's."""
        keyed, span = [], 0
        for index, event in enumerate(self.events):
            while span + 1 < len(self.keys) and self.keys[span + 1].start <= event.start:
                span += 1
            if not event.chord.is_nochord:
                keyed.append((index, event.chord, self.keys[span].key))
        if not keyed:
            raise EmptyTimelineError(f"{self.id}: no sounded events")
        return keyed


# Ranges of parameter fields: (text, test) pairs, each read by check_ranges.
FINITE = ("a finite number", isfinite)
POSITIVE = ("a finite number > 0", lambda value: value > 0 and isfinite(value))
NON_NEGATIVE = ("a finite number >= 0", lambda value: value >= 0 and isfinite(value))


def at_least(low: int) -> tuple:
    """The range of an integer parameter; it refuses what ``value < low`` holds for."""
    return f"an integer >= {low}", lambda value: not value < low


def flag(name: str) -> str:
    """The flag of the parameter ``name``: ``--theta-sim`` for ``theta_sim``, ``-k`` for ``k``."""
    return ("-" if len(name) == 1 else "--") + name.replace("_", "-")


def check_ranges(params) -> None:
    """The one range check of a parameter dataclass: the first field whose
    metadata ``range`` refuses its value raises ``<flag> must be <text>, got <value>``."""
    for f in fields(params):
        text, test = f.metadata.get("range", (None, None))
        if test and not test(value := getattr(params, f.name)):
            raise ValueError(f"{flag(f.name)} must be {text}, got {value}")


def corpus_ids(corpus: list[Timeline]) -> list[str]:
    """The pieces' ids, in corpus order.  Raises a ``ValueError`` naming the
    first id that a second piece repeats."""
    ids, seen = [tl.id for tl in corpus], set()
    for piece_id in ids:
        if piece_id in seen:
            raise ValueError(f"duplicate piece id {piece_id!r} in corpus")
        seen.add(piece_id)
    return ids


class TpsSeries(NamedTuple):
    """Tonal Pitch Space values with weights, per event or per beat."""

    values: tuple[tuple[float, int | Fraction], ...]


def build_timeline(piece_id: str, events, keys=(), title=None, artist=None) -> Timeline:
    """Validate and normalize raw events/keys into a Timeline.

    Events are sorted; overlaps, non-positive durations and a span beyond
    ``MAX_SPAN_BEATS`` are rejected.
    Key spans are normalized to tile the whole piece; when none are given
    a single span with the estimated key is used.
    """
    events = tuple(sorted(events, key=lambda e: e.start))
    if not events:
        raise SchemaError(f"{piece_id}: no chord events")
    for event in events:
        if event.duration <= 0:
            raise SchemaError(f"{piece_id}: non-positive duration at beat {event.start}")
    for prev, cur in zip(events, events[1:]):
        if prev.start + prev.duration > cur.start:
            raise SchemaError(f"{piece_id}: overlapping events at beat {cur.start}")
    end = events[-1].start + events[-1].duration
    if end - events[0].start > MAX_SPAN_BEATS:
        raise SchemaError(f"{piece_id}: spans more than {MAX_SPAN_BEATS} beats")
    spans = sorted(keys, key=lambda s: s.start)
    if not spans:
        sounding = [e.chord for e in events if not e.chord.is_nochord]
        if not sounding:
            raise SchemaError(f"{piece_id}: only no-chord events")
        spans = [KeySpan(events[0].start, end - events[0].start, estimate_key(sounding))]
    normalized = []
    for i, span in enumerate(spans):
        start = min(span.start, events[0].start) if i == 0 else span.start
        stop = spans[i + 1].start if i + 1 < len(spans) else max(end, span.start + span.duration)
        if stop > start:
            normalized.append(KeySpan(start, stop - start, span.key))
    return Timeline(id=piece_id, events=events, keys=tuple(normalized),
                    title=title, artist=artist)


def estimate_key(chords) -> Key:
    """Key whose diatonic set covers the most chord pitch classes.  Ties
    prefer the tonic the fewest semitones above the first sounded chord's
    root, then major, so that transposing the chords transposes the key."""
    pcs = 0  # the chords' pitch classes, as a mask
    for chord in chords:
        if not chord.is_nochord:
            if not pcs:  # the first sounded chord: the index of its root's major key in KEYS
                start = 2 * chord.root_pc
            pcs |= chord.mask
    if not pcs:
        raise EmptyTimelineError("cannot estimate a key without sounded chords")
    # max keeps the first of equal coverings, so the candidates run from that key up.
    return max(KEYS[start:] + KEYS[:start], key=lambda key: (pcs & key.mask).bit_count())


# Fraction builds 10**exponent in full; a JSON number's exponent is at most 308.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _to_fraction(value, context: str, *args) -> int | Fraction:
    """A time in beats: an ``int`` when it is whole, else a ``Fraction``.
    An error's message starts with ``context % args``, built only then."""
    if type(value) is int:  # a JSON integer; JSON true and false are bools
        return value
    # ASCII-decimal tokens skip the other checks and Fraction's string parser;
    # int() stays inside the try, as it rejects tokens of over 4,300 digits.
    whole = isinstance(value, str) and value.isascii() and value.isdigit()
    if not whole:
        if isinstance(value, bool):  # which Fraction reads as 1 and 0
            raise SchemaError(f"{context % args}: bad time value {value!r}")
        exponent = _EXPONENT.search(value) if isinstance(value, str) else None
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > 3 or int(digits or 0) > 308:
            raise SchemaError(f"{context % args}: time exponent beyond ±308 in {value!r:.40}")
    try:
        if whole:
            return int(value)
        time = Fraction(str(value) if isinstance(value, float) else value)
    except (ValueError, TypeError, ZeroDivisionError) as err:
        raise SchemaError(f"{context % args}: bad time value {value!r}") from err
    return time.numerator if time.denominator == 1 else time


def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind``; a SchemaError naming ``what`` otherwise."""
    if not isinstance(value, kind):
        noun = {dict: "object", list: "array", str: "string"}[kind]
        raise SchemaError(f"{what}: expected a JSON {noun}, got {value!r:.40}")
    return value


def load_jams(data: str | bytes, fallback_id: str | None = None) -> Timeline:
    """Load the JSON annotation subset documented in the module docstring.

    Unknown annotation namespaces are skipped with a warning.
    """
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as err:  # bad JSON, bad UTF-8, or nested too deep
        raise SchemaError(f"not valid JSON: {err}") from err
    if not isinstance(obj, dict) or "annotations" not in obj:
        raise SchemaError("missing 'annotations'")
    meta = _expect(obj.get("file_metadata") or {}, dict, "file_metadata")
    identifiers = _expect(meta.get("identifiers") or {}, dict, "file_metadata.identifiers")
    piece_id = identifiers.get("id") or fallback_id
    if not piece_id:
        raise SchemaError("missing piece id (file_metadata.identifiers.id)")
    _expect(piece_id, str, "piece id (file_metadata.identifiers.id)")
    events: list[ChordEvent] = []
    keys: list[KeySpan] = []
    for number, annotation in enumerate(_expect(obj["annotations"], list, "annotations")):
        namespace = _expect(annotation, dict, f"{piece_id}: annotation {number}").get("namespace")
        if namespace is None:
            raise SchemaError(f"{piece_id}: annotation without namespace")
        if namespace not in ("chord_harte", "key_mode"):
            log.warning("%s: skipping unknown namespace %r", piece_id, namespace)
            continue
        observations = _expect(annotation.get("data", []), list, f"{piece_id}: {namespace} data")
        for index, obs in enumerate(observations):
            if not isinstance(obs, dict) or "time" not in obs or "duration" not in obs \
                    or not isinstance(obs.get("value"), str):
                raise SchemaError(f"{piece_id}: {namespace} observation {index} "
                                  "lacks time/duration/value (a string)")
            start = _to_fraction(obs["time"], "%s: observation %d", piece_id, index)
            duration = _to_fraction(obs["duration"], "%s: observation %d", piece_id, index)
            if namespace == "chord_harte":
                try:
                    chord = parse_chord(obs["value"])
                except HarteError as err:
                    raise SchemaError(
                        f"{piece_id}: chord observation at event index {index}: {err}"
                    ) from err
                events.append(ChordEvent(start, duration, chord))
            else:
                try:
                    key = Key.from_string(obs["value"])
                except ValueError as err:
                    raise SchemaError(f"{piece_id}: key observation at event index {index} "
                                      f"{obs['value']!r}: {err}") from err
                keys.append(KeySpan(start, duration, key))
    if not events:
        raise SchemaError(f"{piece_id}: no chord_harte events")
    return build_timeline(piece_id, events, keys,
                          title=meta.get("title"), artist=meta.get("artist"))


def load_chart(text: str, piece_id: str | None = None) -> Timeline:
    """Load the plain chart format; see the module docstring."""
    title = artist = None
    key: Key | None = None
    events: list[ChordEvent] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            name, colon, value = line[1:].strip().partition(":")
            value = value.strip()
            if colon and name == "title":
                title = value
            elif colon and name == "artist":
                artist = value
            elif colon and name == "key":
                if key is not None:
                    raise SchemaError(f"line {lineno}: duplicate key header")
                try:
                    key = Key.from_string(value)
                except ValueError as err:
                    raise SchemaError(f"line {lineno}: key {value!r}: {err}") from err
            continue
        fields = line.split()
        if len(fields) != 3:
            raise SchemaError(f"line {lineno}: expected '<start> <duration> <chord>'")
        start = _to_fraction(fields[0], "line %d", lineno)
        duration = _to_fraction(fields[1], "line %d", lineno)
        try:
            chord = parse_chord(fields[2])
        except HarteError as err:
            raise SchemaError(f"line {lineno}: {err}") from err
        events.append(ChordEvent(start, duration, chord))
    if not events:
        raise SchemaError("chart has no event lines")
    piece_id = piece_id or title or "chart"
    spans = []
    if key is not None:
        first = min(e.start for e in events)
        end = max(e.start + e.duration for e in events)
        spans = [KeySpan(first, end - first, key)]
    return build_timeline(piece_id, events, spans, title=title, artist=artist)


def encode_tps(timeline: Timeline, grid: str = "event") -> TpsSeries:
    """Encode a timeline as key-relative Tonal Pitch Space values.

    Event grid: one (value, duration) entry per sounded event; no-chords
    are dropped.  Beat grid: one entry of weight 1 per whole beat, the value
    of the last event starting at or before the beat; during no-chords the
    previous beat's value holds, and beats before the first sounded event
    hold the first sounded value.
    """
    if grid not in ("event", "beat"):
        raise ValueError(f"grid must be 'event' or 'beat': {grid!r}")
    sounded = timeline.sounded()
    value_at = dict(zip([i for i, _, _ in sounded], key_relative_values(
        key_relative_profiles((chord, key) for _, chord, key in sounded))))
    if grid == "event":
        return TpsSeries(tuple((v, timeline.events[i].duration) for i, v in value_at.items()))
    start = timeline.events[0].start
    beats = int(timeline.end - start)  # floor of the total span
    # An event starts at or before beat b exactly when ceil(its offset) <= b,
    # so it holds the beats from its ceiling to the next event's.
    firsts = [min(ceil(e.start - start), beats) for e in timeline.events] + [beats]
    held, grid_values = value_at[sounded[0][0]], []
    for i, (first, stop) in enumerate(zip(firsts, firsts[1:])):
        if stop > first:  # an event that holds no beat sets no value
            held = value_at.get(i, held)
            grid_values += [(held, 1)] * (stop - first)
    if not grid_values:
        raise EmptyTimelineError(f"{timeline.id}: shorter than one beat")
    return TpsSeries(tuple(grid_values))
