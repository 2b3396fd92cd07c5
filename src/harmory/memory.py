"""The harmonic memory graph: recurrent patterns as first-class nodes.

Every piece is segmented; segments whose pairwise warping similarity
reaches ``theta_merge`` are merged into one pattern, represented by the
medoid segment.  Patterns whose medoids score at least ``theta_sim`` are
linked by weighted ``similarTo`` edges.  The graph serializes to
N-Triples under the ``urn:harmory:`` vocabulary and to a JSON dump, both
byte-deterministic.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import fsum
from typing import NamedTuple
from urllib.parse import quote, unquote

from harmory.harte import parse_chord, render_chord
from harmory.segmentation import Segment, SegmentationParams, segment_timeline
from harmory.similarity import DEFAULT_SCALE, Warps, _Dtw
from harmory.timeline import (ChordEvent, KeySpan, Timeline, at_least, build_timeline,
                              check_ranges, corpus_ids, estimate_key)
from harmory.tps import Key

BASE = "urn:harmory:"


class EmptyCorpusError(ValueError):
    """build_memory needs at least one piece."""


class EmptyQueryError(ValueError):
    """A query needs at least one sounded chord."""


class GraphFormatError(ValueError):
    """A memory graph that breaks an invariant, or N-Triples that do not
    spell one.  An error about a (subject, predicate, object) triple, the
    object None for a literal, names it and keeps it as ``triple``."""

    def __init__(self, message: str, *triple):
        if triple:  # "instanceOf m p: ...", or for a literal "weight of n: ..."
            message = ("{1} {0} {2}: " if triple[2] else "{1} of {0}: ").format(*triple) + message
        super().__init__(message)
        self.triple = triple


class PieceInfo(NamedTuple):
    title: str | None
    artist: str | None
    segments: tuple[Segment, ...]  # in index order


@dataclass(frozen=True)
class PatternQuery:
    """A progression to rank pattern medoids by; constructing one checks it."""

    chords: tuple
    key: Key | None = None
    k: int = field(default=5, metadata={"range": at_least(1)})

    def __post_init__(self):
        check_ranges(self)
        if all(chord.is_nochord for chord in self.chords):
            raise EmptyQueryError("progression needs at least one sounded chord")


@dataclass(frozen=True)
class MemoryThresholds:
    """``build_memory``'s thresholds; constructing one checks them."""

    theta_sim: float = field(default=0.6, metadata={"range": (
        "a number in (0, 1]", lambda value: 0 < value <= 1)})
    theta_merge: float = 0.9

    def __post_init__(self):
        check_ranges(self)
        if not self.theta_merge >= self.theta_sim:
            raise ValueError(f"--theta-merge must be >= --theta-sim ({self.theta_sim}), "
                             f"got {self.theta_merge}")


@dataclass(frozen=True)
class MemoryGraph:
    """Pieces with their segments, the patterns these fall into (each
    medoid to its members) and the similarTo edges between patterns;
    ``segments`` indexes every piece's segments by id.  Built or imported,
    a graph holds these, or a GraphFormatError names the first triple
    that breaks one:
    - a piece ``p`` holds segments ``p/seg/0`` to ``p/seg/n-1``, n >= 1, each
      of one or more events; no piece id is a segment id or contains ``/seg/``,
      so each weight node names one edge;
    - each segment is in one pattern, keyed by its medoid, one of its members;
    - edges ``(a, b, w)`` are one per pair, in order, ``a < b`` patterns and
      ``0 <= w <= 1``."""

    pieces: dict[str, PieceInfo]
    patterns: dict[str, tuple[str, ...]]
    similar: tuple[tuple[str, str, float], ...]
    segments: dict[str, Segment] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise GraphFormatError("a memory graph needs a piece")
        segments = {s.id: s for piece in self.pieces.values() for s in piece.segments}
        self.__dict__["segments"] = segments  # frozen, so set past the dataclass's __setattr__
        for piece_id, piece in self.pieces.items():
            if piece_id in segments:
                raise GraphFormatError(f"{piece_id} is also a piece",
                                       segments[piece_id].piece_id, "hasSegment", piece_id)
            if not piece.segments:
                raise GraphFormatError(f"piece {piece_id}: needs a segment")
            if "/seg/" in piece_id:
                raise GraphFormatError("a piece id must not contain /seg/", piece_id, "hasSegment",
                                       piece.segments[0].id)
            for index, segment in enumerate(piece.segments):
                if segment.index != index or segment.piece_id != piece_id:
                    raise GraphFormatError(f"segment {index} of {piece_id} must be {piece_id}/seg/"
                                           f"{index}", piece_id, "hasSegment", segment.id)
                if not segment.events:
                    raise GraphFormatError(f"segment {segment.id}: needs a sounded chord")
        pattern_of: dict[str, str] = {}
        for medoid, members in self.patterns.items():
            for member in members:
                if member not in segments or medoid not in segments:
                    raise GraphFormatError("both must be segments of a piece (hasSegment)",
                                           member, "instanceOf", medoid)
                if member in pattern_of:
                    raise GraphFormatError(f"{member} is already a member of {pattern_of[member]}",
                                           member, "instanceOf", medoid)
                pattern_of[member] = medoid
            if pattern_of.get(medoid) != medoid:
                raise GraphFormatError(f"pattern {medoid} must be keyed by its medoid, one of "
                                       "its members", next(iter(members), medoid),
                                       "instanceOf", medoid)
        previous = ("", "")
        for a, b, weight in self.similar:
            if a not in self.patterns or b not in self.patterns:
                raise GraphFormatError("both must be patterns (the object of an instanceOf)",
                                       a, "similarTo", b)
            if not a < b or (a, b) <= previous:
                raise GraphFormatError("one edge per pair, from the lower id, in pair order",
                                       a, "similarTo", b)
            if not 0 <= weight <= 1:
                raise GraphFormatError(f"{weight} is not in [0, 1]",
                                       weight_node(a, b), "weight", None)
            previous = (a, b)
        if len(pattern_of) != len(segments):
            raise GraphFormatError(f"segment {min(segments.keys() - pattern_of.keys())}: a member "
                                   "of no pattern (instanceOf)")


# The node of the edge ``a similarTo b`` that carries its weight.
weight_node = "sim/{}/{}".format


def components(items, pairs) -> list[list]:
    """The groups of ``items`` that ``pairs`` connect, each sorted, in
    order of their first item."""
    group_of = {item: [item] for item in items}
    for a, b in pairs:
        small, large = sorted((group_of[a], group_of[b]), key=len)
        if small is not large:
            large += small
            for item in small:
                group_of[item] = large
    unique = {id(group): group for group in group_of.values()}
    return sorted(sorted(group) for group in unique.values())


def segment_to_timeline(segment: Segment) -> Timeline:
    """View a segment as a one-beat-per-event timeline."""
    events = [ChordEvent(i, 1, chord) for i, (chord, _) in enumerate(segment.events)]
    spans = [KeySpan(i, 1, key) for i, (_, key) in enumerate(segment.events)]
    return build_timeline(segment.id, events, spans)


def _segment_score(steps: _Dtw, shared: Warps, x: int, y: int) -> float:
    """Warping similarity of two registered key-relative code sequences."""
    return steps.score(steps.compare(x, y, shared))


def build_memory(corpus: list[Timeline],
                 seg_params: SegmentationParams = SegmentationParams(),
                 thresholds: MemoryThresholds = MemoryThresholds(),
                 scale: float = DEFAULT_SCALE) -> MemoryGraph:
    """Segment a corpus and fold similar segments into patterns.

    ``scale`` is checked as ``_Dtw`` checks it, before any piece is segmented.
    A score depends only on two segments' key-relative code sequences, so
    the build decides once per pair of distinct sequences, warping it only
    if ``Warps.bounds`` leaves it able to reach the merge (or, for two
    medoids, the link) threshold; segments of one sequence score 1.0.  A
    medoid has its pattern's best ``math.fsum`` total of scores against
    the other members, the smallest id among those.  The graph is the one
    that scoring every pair gives, with weights to six places, as exported.
    """
    if not corpus:
        raise EmptyCorpusError("corpus is empty")
    steps, theta_sim, theta_merge = _Dtw(scale), thresholds.theta_sim, thresholds.theta_merge
    corpus_ids(corpus)
    pieces = {tl.id: PieceInfo(tl.title, tl.artist,
                               tuple(segment_timeline(tl, seg_params).segments))
              for tl in sorted(corpus, key=lambda t: t.id)}
    segments = sorted((s for piece in pieces.values() for s in piece.segments), key=lambda s: s.id)
    shared = Warps()
    sequence_of = dict(zip((s.id for s in segments),
                           shared.register_events([s.events for s in segments])))
    bounds = shared.bounds().tolist()
    twins: dict[int, list[str]] = {}  # each sequence to its segments, in id order
    for seg_id, x in sequence_of.items():
        twins.setdefault(x, []).append(seg_id)

    def reaching(x: int, y: int, theta: float) -> float:
        """Sequences x and y's score, warped only if their bound can reach theta, else 0."""
        return _segment_score(steps, shared, x, y) if steps.score(bounds[x][y]) >= theta else 0.0

    merges = [(twins[x][0], twins[y][0]) for x, y in combinations(twins, 2)
              if reaching(x, y, theta_merge) >= theta_merge]
    if theta_merge <= 1:
        merges += [(ids[0], seg_id) for ids in twins.values() for seg_id in ids[1:]]
    patterns: dict[str, tuple[str, ...]] = {}
    for group in components(sequence_of, merges):
        # One exact total per distinct sequence, over the group's other members.
        counts = Counter(map(sequence_of.get, group))
        totals = {x: fsum(chain.from_iterable(
            [1.0 if x == y else _segment_score(steps, shared, x, y)] * (n - (x == y))
            for y, n in counts.items())) for x in counts}
        best = max(totals.values())
        medoid = next(seg_id for seg_id in group if totals[sequence_of[seg_id]] == best)
        patterns[medoid] = tuple(group)
    medoids = sorted(patterns)
    similar = tuple((a, b, round(value, 6)) for i, a in enumerate(medoids) for b in medoids[i + 1:]
                    if (value := reaching(sequence_of[a], sequence_of[b], theta_sim)) >= theta_sim)
    return MemoryGraph(pieces=pieces, patterns=patterns, similar=similar)


def _uri(name: str) -> str:
    return f"<{BASE}{quote(name, safe='/_.-')}>"


def chord_sequence(segment: Segment) -> str:
    """The segment's chords as space-joined canonical symbols."""
    return " ".join(render_chord(chord) for chord, _ in segment.events)


def _structure_edges(graph: MemoryGraph):
    """(source, type, target) of each hasSegment, nextSegment and instanceOf edge."""
    for piece_id, piece in graph.pieces.items():
        for segment in piece.segments:
            yield piece_id, "hasSegment", segment.id
        for a, b in zip(piece.segments, piece.segments[1:]):
            yield a.id, "nextSegment", b.id
    for medoid, members in graph.patterns.items():
        for member in members:
            yield member, "instanceOf", medoid


def export_ntriples(graph: MemoryGraph) -> bytes:
    """Serialize to N-Triples ordered by subject id, predicate, then object id or literal."""
    triples = [(source, kind, target, source, _uri(target))
               for source, kind, target in _structure_edges(graph)]
    for seg_id, segment in graph.segments.items():
        for kind, text in (("chordSequence", chord_sequence(segment)),
                           ("keySequence", " ".join(str(key) for _, key in segment.events))):
            triples.append((seg_id, kind, text, seg_id, _literal(text)))
    for a, b, weight in graph.similar:  # a weight line sorts as the pair that it weighs
        triples += [(a, "similarTo", b, a, _uri(b)),
                    (a, "weight", b, weight_node(a, b), f'"{weight:.6f}"')]
    return "".join(f"{_uri(subject)} <{BASE}{kind}> {obj} .\n"
                   for _, kind, _, subject, obj in sorted(triples)).encode("utf-8")


# Every IRI, the object's too, must lie under BASE and hold only the
# characters that _uri writes; each group holds the part after BASE.  A
# literal is runs of plain characters between escapes, matched a run at a
# time rather than a character at a time.
_IRI = f"<{re.escape(BASE)}([A-Za-z0-9/_.~%-]*)>"
_TRIPLE = re.compile(rf'^{_IRI} {_IRI} (?:{_IRI}|"([^"\\]*(?:\\.[^"\\]*)*)") \.$')
_SEGMENT_ID = re.compile(r"(.*)/seg/(0|[1-9][0-9]*)")
# A literal's escapes, the backslash's first; _unquote_literal reads them backwards in one pass.
_ESCAPES = (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r"))
_UNESCAPES = {escaped: char for char, escaped in _ESCAPES}
_ESCAPE = re.compile(r"\\.")


def _literal(text: str) -> str:
    for char, escaped in _ESCAPES:
        text = text.replace(char, escaped)
    return f'"{text}"'


def _unquote_literal(text: str) -> str:
    return _ESCAPE.sub(lambda match: _UNESCAPES.get(match[0], match[0]), text)


def _decoded(lineno: int, name: str) -> str:
    """A percent-encoded name under BASE, decoded; it must be the one that _uri writes."""
    if (written := _uri(decoded := unquote(name))) != f"<{BASE}{name}>":
        raise GraphFormatError(f"line {lineno}: <{BASE}{name}> is written {written}")
    return decoded


def _triples(text: str):
    """(line number, subject, predicate, object) of each triple line, the
    IRIs without BASE and percent-decoded, a literal unescaped; blank lines
    are skipped and any other line is an error."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        match = _TRIPLE.match(raw)
        if match is None:
            if raw.strip():
                raise GraphFormatError(f"line {lineno}: not a recognized triple")
            continue
        subject, predicate, obj, literal = match.groups()
        if "%" in subject:
            subject = _decoded(lineno, subject)
        if obj is None:
            obj = _unquote_literal(literal) if "\\" in literal else literal
        elif "%" in obj:
            obj = _decoded(lineno, obj)
        yield lineno, subject, predicate, obj


def _sounded_chord(token: str):
    if token == "N":
        raise ValueError("N, the no-chord, is not a sounded chord")
    return parse_chord(token)


class _Tokens(dict):
    """The tokens of one import, each distinct one parsed once and read
    only as the text that a build writes for what it parses to."""

    def __init__(self, parse, write):
        self.parse, self.write = parse, write

    def __missing__(self, token: str):
        if (written := self.write(value := self.parse(token))) != token:
            raise ValueError(f"a build writes {written!r}")
        self[token] = value
        return value


def _parse_tokens(read: _Tokens, literals: dict, seg_id: str, predicate: str) -> tuple:
    """Each token of a segment's sequence literal as ``read`` reads it; an
    error names the token by its 1-based index and its text."""
    if seg_id not in literals:
        raise GraphFormatError("missing", seg_id, predicate, None)
    tokens = (literal := literals[seg_id][0]).split()
    if " ".join(tokens) != literal:
        raise GraphFormatError("a build joins its tokens by one space", seg_id, predicate, None)
    parsed: list = []
    try:
        parsed.extend(map(read.__getitem__, tokens))  # keeps the tokens read before a failure
    except ValueError as err:
        raise GraphFormatError(f"token {len(parsed) + 1} {tokens[len(parsed)]!r}: {err}",
                               seg_id, predicate, None) from err
    return tuple(parsed)


def import_ntriples(data: bytes) -> MemoryGraph:
    """Rebuild a memory graph from export_ntriples output.

    Structure, weights, chords and keys round-trip, so queries rank as
    on the exported graph; titles and artists are not exported.  The
    lines only spell the graph: ``MemoryGraph`` checks it, and every
    triple read must be one the graph holds.  An error about a triple
    that the text gives names its first line.
    """
    # A graph is a set of triples, so a repeated line is read once.  Each
    # subject has one object of the predicates in ``single``, kept with
    # the number of the first line that gives it; ``pairs`` keeps the
    # similarTo and nextSegment pairs in the order of their first lines.
    has_segment: dict[str, set[tuple[int, str]]] = {}
    pairs: dict[str, dict[tuple[str, str], None]] = {"similarTo": {}, "nextSegment": {}}
    instance_of, sequences, key_sequences, weights = {}, {}, {}, {}  # subject -> (object, line)
    single = {"instanceOf": instance_of, "chordSequence": sequences,
              "keySequence": key_sequences, "weight": weights}
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len((data[:err.start] + b".").decode("utf-8").splitlines())
        raise GraphFormatError(f"line {line}: not UTF-8 at byte {err.start}") from err
    for lineno, subject, predicate, obj in _triples(text):
        if predicate in single:
            first, first_line = single[predicate].setdefault(subject, (obj, lineno))
            if first != obj:
                raise GraphFormatError(f"line {lineno}: a second {predicate} of {subject}, "
                                       f"not the one of line {first_line}")
            if predicate == "weight":
                try:
                    written = f"{abs(value := float(obj)):.6f}"  # as a build writes it
                except ValueError as err:
                    raise GraphFormatError(f"line {lineno}: {err}") from err
                if obj != written and 0 <= value <= 1:  # MemoryGraph refuses the rest
                    raise GraphFormatError(f"line {lineno}: weight {obj!r} is written {written!r}")
        elif predicate == "hasSegment":
            seg_match = _SEGMENT_ID.fullmatch(obj)
            if not seg_match or seg_match.group(1) != subject:
                raise GraphFormatError(
                    f"line {lineno}: segment {obj!r} is not named {subject}/seg/<index>")
            has_segment.setdefault(subject, set()).add((int(seg_match.group(2)), obj))
        elif predicate in pairs:
            pairs[predicate][subject, obj] = None
        else:
            raise GraphFormatError(f"line {lineno}: unknown predicate {predicate!r}")
    try:
        pieces: dict[str, PieceInfo] = {}
        chords_read, keys_read = (_Tokens(_sounded_chord, render_chord),
                                  _Tokens(Key.from_string, str))
        for piece_id in sorted(has_segment):
            piece_segments = []
            for index, seg_id in sorted(has_segment[piece_id]):
                chords = _parse_tokens(chords_read, sequences, seg_id, "chordSequence")
                keys = _parse_tokens(keys_read, key_sequences, seg_id, "keySequence")
                if not chords or len(keys) != len(chords):
                    raise GraphFormatError(f"needs one or more sounded chords and one key per "
                                           f"chord, got {len(chords)} chords and {len(keys)} keys",
                                           seg_id, "keySequence", None)
                piece_segments.append(Segment(piece_id, index, tuple(zip(chords, keys))))
            pieces[piece_id] = PieceInfo(None, None, tuple(piece_segments))
        member_lists: dict[str, list[str]] = {}
        for member, (pattern_id, _) in instance_of.items():
            member_lists.setdefault(pattern_id, []).append(member)
        patterns = {pattern_id: tuple(sorted(members))
                    for pattern_id, members in member_lists.items()}
        similar = []
        for a, b in sorted(pairs["similarTo"]):
            if (weight := weights.get(weight_node(a, b))) is None:
                raise GraphFormatError("missing weight", a, "similarTo", b)
            similar.append((a, b, float(weight[0])))
        graph = MemoryGraph(pieces=pieces, patterns=patterns, similar=tuple(similar))
        # Every triple read is one the graph holds.
        following = {(a.id, b.id) for piece in pieces.values()
                     for a, b in zip(piece.segments, piece.segments[1:])}
        for a, b in pairs["nextSegment"]:
            if (a, b) not in following:
                raise GraphFormatError("not the order of the hasSegment indices",
                                       a, "nextSegment", b)
        if len(pairs["nextSegment"]) != len(following):
            a, b = min(following - pairs["nextSegment"].keys())
            raise GraphFormatError("missing", a, "nextSegment", b)
        nodes = {weight_node(a, b) for a, b, _ in similar}
        for name, table, held, what in (
                ("chordSequence", sequences, graph.segments, "a segment"),
                ("keySequence", key_sequences, graph.segments, "a segment"),
                ("weight", weights, nodes, "the weight node of a similarTo edge")):
            if len(table) != len(held):
                subject = next(subject for subject in table if subject not in held)
                raise GraphFormatError(f"not {what}", subject, name, None)
    except GraphFormatError as err:
        for lineno, subject, predicate, obj in _triples(text) if err.triple else ():
            if (subject, predicate) == err.triple[:2] and err.triple[2] in (None, obj):
                raise GraphFormatError(f"line {lineno}: {err}") from None
        raise
    return graph


def export_json(graph: MemoryGraph) -> str:
    """JSON dump with nodes and edges arrays in stable order."""
    nodes = [{"id": piece_id, "type": "piece", "title": piece.title, "artist": piece.artist}
             for piece_id, piece in sorted(graph.pieces.items())]
    nodes += [{"id": seg_id, "type": "segment", "chords": chord_sequence(segment)}
              for seg_id, segment in sorted(graph.segments.items())]
    nodes += [{"id": pattern_id, "type": "pattern", "members": list(members)}
              for pattern_id, members in sorted(graph.patterns.items())]
    edges = [{"source": source, "type": kind, "target": target}
             for source, kind, target in _structure_edges(graph)]
    edges += [{"source": a, "type": "similarTo", "target": b, "weight": weight}
              for a, b, weight in graph.similar]
    edges.sort(key=lambda e: (e["source"], e["type"], e["target"]))
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2) + "\n"


def query_similar(graph: MemoryGraph, query: PatternQuery,
                  scale: float = DEFAULT_SCALE) -> list[tuple[str, float, str]]:
    """Rank pattern medoids by warping similarity to a chord progression.

    Returns up to k (pattern id, score, chord sequence) rows; ties are
    broken by pattern id.  ``scale`` is checked as ``_Dtw`` checks it.
    """
    steps = _Dtw(scale)
    chords = [c for c in query.chords if not c.is_nochord]
    key = query.key or estimate_key(chords)
    medoids = {pattern_id: graph.segments[pattern_id] for pattern_id in sorted(graph.patterns)}
    shared = Warps()
    probe, *sequences = shared.register_events(
        [[(chord, key) for chord in chords], *(medoid.events for medoid in medoids.values())])
    scores = {pattern_id: _segment_score(steps, shared, probe, sequence)
              for pattern_id, sequence in zip(medoids, sequences)}
    top = sorted(scores, key=lambda pattern_id: (-scores[pattern_id], pattern_id))[:query.k]
    return [(pattern_id, scores[pattern_id], chord_sequence(medoids[pattern_id]))
            for pattern_id in top]


def graph_stats(graph: MemoryGraph) -> dict:
    """Node/edge counts, similarTo component sizes, degree histogram."""
    pairs = [(a, b) for a, b, _ in graph.similar]
    degrees = Counter(chain.from_iterable(pairs))
    histogram = Counter(degrees[pattern_id] for pattern_id in graph.patterns)
    sizes = sorted(map(len, components(graph.patterns, pairs)), reverse=True)
    segments = len(graph.segments)
    return {
        "nodes": {"pieces": len(graph.pieces), "segments": segments,
                  "patterns": len(graph.patterns)},
        "edges": {"hasSegment": segments, "nextSegment": segments - len(graph.pieces),
                  "instanceOf": segments, "similarTo": len(pairs)},
        "similar_components": {"count": len(sizes), "sizes": sizes},
        "degree_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
