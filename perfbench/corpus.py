"""Seeded synthetic corpora for the benchmark, written as harmory input files.

Everything here is plain Python: the program under test only ever sees
the `.chart`, `.jams.json` and `cliques.csv` files these functions write.
The same seed always gives the same files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")
# Scale degree -> (semitones above the tonic, triad quality).
DEGREES = {
    "maj": ((0, "maj"), (2, "min"), (4, "min"), (5, "maj"), (7, "maj"), (9, "min"), (11, "dim")),
    "min": ((0, "min"), (2, "dim"), (3, "maj"), (5, "min"), (7, "maj"), (8, "maj"), (10, "maj")),
}
SEVENTH = {"maj": "maj7", "min": "min7", "dim": "hdim7"}
INVERSIONS = {"maj": ("3", "5"), "min": ("b3", "5"), "dim": ("5",), "maj7": ("3", "5"),
              "min7": ("b3", "b7"), "hdim7": ("5",), "7": ("3", "5", "b7")}


@dataclass(frozen=True)
class Chord:
    root: int
    quality: str
    bass: str | None = None

    def symbol(self) -> str:
        text = f"{NAMES[self.root]}:{self.quality}"
        return f"{text}/{self.bass}" if self.bass else text

    def shifted(self, semitones: int) -> "Chord":
        return Chord((self.root + semitones) % 12, self.quality, self.bass)


@dataclass
class Piece:
    id: str
    tonic: int
    mode: str
    events: list = field(default_factory=list)   # (start, duration, Chord | None)
    key_spans: list = field(default_factory=list)  # (start, duration, tonic, mode)
    sections: list = field(default_factory=list)   # chords of each section

    def key_name(self, tonic=None, mode=None) -> str:
        return f"{NAMES[self.tonic if tonic is None else tonic]}:{mode or self.mode}"

    def sounded(self) -> int:
        return sum(1 for _, _, chord in self.events if chord is not None)


def diatonic(tonic: int, mode: str, degree: int, seventh: bool = False) -> Chord:
    offset, quality = DEGREES[mode][degree % 7]
    if seventh:
        quality = "7" if (mode, degree % 7) in (("maj", 4), ("min", 4)) else SEVENTH[quality]
    return Chord((tonic + offset) % 12, quality)


def substitute(rng: random.Random, chord: Chord) -> Chord:
    """A nearby chord: the relative triad a third below, or a seventh."""
    if rng.random() < 0.5:
        if chord.quality in ("maj", "maj7", "7"):
            return Chord((chord.root + 9) % 12, "min")
        return Chord((chord.root + 3) % 12, "maj")
    return Chord(chord.root, SEVENTH.get(chord.quality, "7"))


def _progression(rng: random.Random, length: int,
                 degrees=range(7)) -> list[tuple[int, bool]]:
    """Scale degrees starting on the first of ``degrees``, no degree twice
    in a row, exactly one chord a seventh."""
    chosen = [degrees[0]]
    while len(chosen) < length:
        chosen.append(rng.choice([d for d in degrees if d != chosen[-1]]))
    seventh = rng.randrange(1, length)
    return [(d, i == seventh) for i, d in enumerate(chosen)]


def _chart(piece: Piece) -> str:
    lines = [f"# title: {piece.id}", f"# key: {piece.key_name()}"]
    lines += [f"{start} {duration} {chord.symbol() if chord else 'N'}"
              for start, duration, chord in piece.events]
    return "\n".join(lines) + "\n"


def _jams(piece: Piece) -> str:
    chords = [{"time": s, "duration": d, "value": c.symbol() if c else "N", "confidence": 1}
              for s, d, c in piece.events]
    keys = [{"time": s, "duration": d, "value": piece.key_name(t, m)}
            for s, d, t, m in piece.key_spans]
    return json.dumps({"file_metadata": {"title": piece.id, "identifiers": {"id": piece.id}},
                       "annotations": [{"namespace": "chord_harte", "data": chords},
                                       {"namespace": "key_mode", "data": keys}]}, indent=1)


# --- memory: pop-form pieces -------------------------------------------

# (chords, scale degrees) of verses, choruses and bridges.  Sections draw
# on different degrees so that their boundaries are clear novelty peaks.
SECTIONS = ((4, (0, 3, 4)), (5, (5, 1, 2)), (6, (3, 6, 2, 4)))

def pop_corpus(seed: int | str, pieces: int, pool_size: int) -> list[Piece]:
    """Verse/chorus/bridge pieces whose sections are drawn from one shared
    pool of key-relative progressions, so sections repeat inside a piece
    and progressions recur across pieces.  Section lengths are fixed and
    every third piece is in minor, so that the pieces of every seed have
    the same size and only their harmony varies."""
    rng = random.Random(f"pop-{seed}")
    pools = [[_progression(rng, length, degrees) for _ in range(pool_size)]
             for length, degrees in SECTIONS]
    corpus = []
    for p in range(pieces):
        piece = Piece(f"pop{p:02d}", rng.randrange(12), "min" if p % 3 == 2 else "maj")
        verse, chorus, bridge = (rng.choice(pool) for pool in pools)
        form = [verse, verse, chorus, chorus, verse, verse, chorus, chorus, bridge, chorus, chorus]
        beat = 0
        duration = (2, 4)[p % 2]
        for prog in form:
            chords = [diatonic(piece.tonic, piece.mode, d, s) for d, s in prog]
            piece.sections.append(chords)
            for chord in chords:
                piece.events.append((beat, duration, chord))
                beat += duration
        corpus.append(piece)
    return corpus


@dataclass(frozen=True)
class Query:
    progression: str
    key: str | None


def pop_queries(seed: int, corpus: list[Piece], count: int) -> list[Query]:
    """Corpus sections transposed by a random shift, a third of them with
    one chord substituted, half of them with ``--key``."""
    rng = random.Random(f"query-{seed}")
    queries = []
    for _ in range(count):
        piece = rng.choice(corpus)
        chords = rng.choice(piece.sections)
        shift = rng.randrange(12)
        chords = [c.shifted(shift) for c in chords]
        if rng.random() < 1 / 3:
            i = rng.randrange(len(chords))
            chords[i] = substitute(rng, chords[i])
        key = piece.key_name((piece.tonic + shift) % 12) if rng.random() < 0.5 else None
        queries.append(Query(" ".join(c.symbol() for c in chords), key))
    return queries


# --- covers: originals and perturbed covers ----------------------------

def cover_corpus(seed: int, cliques: int, covers_per_clique: int,
                 events: int) -> tuple[list[Piece], list[tuple[str, str]]]:
    """Each clique has an original that cycles through three diatonic
    progressions of 4, 5 and 6 chords, two beats each, and covers that are
    transposed, have one chord in eight substituted and are re-timed: the
    first cover at double length, the others with a quarter of the chords
    held twice as long.  Modes alternate between cliques, so that every
    seed gives pieces of the same sizes and only their harmony varies."""
    rng = random.Random(f"covers-{seed}")
    corpus, rows = [], []
    for c in range(cliques):
        tonic, mode = rng.randrange(12), ("maj", "min")[c % 2]
        cycle = [step for length in (4, 5, 6) for step in _progression(rng, length)]
        chords = [diatonic(tonic, mode, d, s) for d, s in (cycle * events)[:events]]
        versions = [(0, chords, [2] * events)]
        for v in range(1, covers_per_clique + 1):
            shift = rng.randrange(1, 12)
            cover = [chord.shifted(shift) for chord in chords]
            for i in rng.sample(range(events), events // 8):
                cover[i] = substitute(rng, cover[i])
            held = set(range(events)) if v == 1 else set(rng.sample(range(events), events // 4))
            versions.append((shift, cover, [4 if i in held else 2 for i in range(events)]))
        for v, (shift, version, durations) in enumerate(versions):
            piece = Piece(f"c{c:03d}v{v}", (tonic + shift) % 12, mode)
            starts = [sum(durations[:i]) for i in range(events)]
            piece.events = list(zip(starts, durations, version))
            corpus.append(piece)
            rows.append((piece.id, f"clique{c:03d}"))
    return corpus, rows


# --- analyze: long modulating pieces ------------------------------------

def modulating_corpus(seed: int, pieces: int, events: int) -> list[Piece]:
    """Long pieces that modulate to a related key every 48-96 events,
    with no-chords, sevenths and inversions."""
    rng = random.Random(f"analyze-{seed}")
    corpus = []
    for p in range(pieces):
        tonic, mode = rng.randrange(12), "maj" if rng.random() < 0.6 else "min"
        piece = Piece(f"long{p:02d}", tonic, mode)
        beat = 0
        while len(piece.events) < events:
            span_events = min(rng.randint(48, 96), events - len(piece.events))
            span_start = beat
            progs = [_progression(rng, length) for length in (4, 5, 6)]
            degrees = []
            while len(degrees) < span_events:
                degrees += rng.choice(progs)
            for d, seventh in degrees[:span_events]:
                duration = rng.choice((1, 2, 2, 4))
                if rng.random() < 0.05:
                    chord = None
                else:
                    chord = diatonic(tonic, mode, d, seventh)
                    if rng.random() < 0.15:
                        chord = Chord(chord.root, chord.quality,
                                      rng.choice(INVERSIONS[chord.quality]))
                piece.events.append((beat, duration, chord))
                beat += duration
            piece.key_spans.append((span_start, beat - span_start, tonic, mode))
            tonic = (tonic + rng.choice((5, 7, 9, 3))) % 12
            mode = rng.choice(("maj", "min"))
        corpus.append(piece)
    return corpus


def transposed(piece: Piece, shift: int) -> Piece:
    return Piece(piece.id, (piece.tonic + shift) % 12, piece.mode,
                 [(s, d, c.shifted(shift) if c else None) for s, d, c in piece.events])


# --- writing ---------------------------------------------------------------

def write_charts(directory: Path, corpus: list[Piece]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for piece in corpus:
        (directory / f"{piece.id}.chart").write_text(_chart(piece))


def write_jams(directory: Path, corpus: list[Piece]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for piece in corpus:
        (directory / f"{piece.id}.jams.json").write_text(_jams(piece))


def write_cliques(path: Path, rows: list[tuple[str, str]]) -> None:
    path.write_text("piece_id,clique_id\n" + "".join(f"{p},{c}\n" for p, c in rows))
