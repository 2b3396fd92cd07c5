"""Tonal Pitch Space: keys, basic spaces, and chord distances.

A chord in a key spans five nested pitch-class levels: root, fifth,
chord tones, diatonic scale, chromatic total.  The distance between two
chord/key pairs is the circle-of-fifths distance between the key tonics,
plus the circle-of-fifths distance between the chord roots, plus the
number of level entries of the destination space missing from the source
space, averaged over both directions.

Every comparison of event sequences interns its events to small integer
codes and indexes one table holding the distance of each distinct pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from harmory.harte import (
    Chord,
    Degree,
    FLAT_NAMES,
    Natural,
    NoChordError,
    natural_for_pitch_class,
    pitch_class_set,
)

MAJOR_STEPS = (0, 2, 4, 5, 7, 9, 11)
MINOR_STEPS = (0, 2, 3, 5, 7, 8, 11)  # harmonic minor

_MODES = {"major": MAJOR_STEPS, "minor": MINOR_STEPS}
_MODE_LABELS = {"major": "maj", "minor": "min"}


@dataclass(frozen=True)
class Key:
    tonic: int
    mode: str = "major"

    def __post_init__(self):
        if not 0 <= self.tonic <= 11:
            raise ValueError(f"tonic out of range 0..11: {self.tonic}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be 'major' or 'minor': {self.mode!r}")

    def diatonic(self) -> frozenset[int]:
        return frozenset((self.tonic + step) % 12 for step in _MODES[self.mode])

    def tonic_triad(self) -> Chord:
        third = Degree(3) if self.mode == "major" else Degree(3, -1)
        return Chord(root=natural_for_pitch_class(self.tonic),
                     degrees=frozenset([Degree(1), third, Degree(5)]),
                     shorthand="maj" if self.mode == "major" else "min")

    def transpose(self, semitones: int) -> "Key":
        return Key((self.tonic + semitones) % 12, self.mode)

    @classmethod
    def from_string(cls, text: str) -> "Key":
        """Parse '<Natural>:<maj|min>', e.g. 'Eb:min'."""
        name, sep, mode = text.partition(":")
        if not sep or mode not in ("maj", "min"):
            raise ValueError(f"key must look like 'C:maj' or 'C:min': {text!r}")
        natural = Natural(name[:1], name[1:])
        return cls(natural.pitch_class, "major" if mode == "maj" else "minor")

    def __str__(self) -> str:
        return f"{FLAT_NAMES[self.tonic]}:{_MODE_LABELS[self.mode]}"


@dataclass(frozen=True)
class BasicSpace:
    """The five nested levels (root, fifth, chord, diatonic, chromatic)."""

    levels: tuple[frozenset[int], ...]

    def weight(self, pc: int) -> int:
        """Number of levels containing the pitch class (0..5)."""
        return sum(1 for level in self.levels if pc % 12 in level)


# Bounded like ``_directed`` below: each distinct event's space is built once.
@lru_cache(maxsize=2**12)
def basic_space(chord: Chord, key: Key) -> BasicSpace:
    if chord.is_nochord:
        raise NoChordError("no-chord has no basic space")
    root = chord.root.pitch_class
    fifth_degree = next((d for d in chord.degrees if d.interval == 5), None)
    if fifth_degree is not None and fifth_degree.alteration != 0:
        fifth = (root + fifth_degree.semitones) % 12
    else:
        fifth = (root + 7) % 12
    level_a = frozenset([root])
    level_b = level_a | {fifth}
    level_c = level_b | pitch_class_set(chord)
    level_d = level_c | key.diatonic()
    level_e = frozenset(range(12))
    return BasicSpace((level_a, level_b, level_c, level_d, level_e))


def fifths_distance(x: int, y: int) -> int:
    """Minimal number of perfect-fifth steps between two pitch classes."""
    up = (7 * (y - x)) % 12  # 7 is its own inverse mod 12
    return min(up, 12 - up) if up else 0


def _missing_level_entries(src: BasicSpace, dst: BasicSpace) -> int:
    # Count (pitch class, level) pairs of dst absent from src; the shared
    # chromatic level never contributes.
    return sum(len(dst.levels[i] - src.levels[i]) for i in range(4))


# Bounded, because Natural accepts any number of accidentals, so the
# (chord, key, chord, key) space has no bound of its own.
@lru_cache(maxsize=2**16)
def _directed(x: Chord, kx: Key, y: Chord, ky: Key) -> int:
    i = fifths_distance(kx.tonic, ky.tonic)
    j = fifths_distance(x.root.pitch_class, y.root.pitch_class)
    k = _missing_level_entries(basic_space(x, kx), basic_space(y, ky))
    return i + j + k


def chord_distance(x: Chord, kx: Key, y: Chord, ky: Key) -> float:
    """Symmetrized Tonal Pitch Space distance between chord/key pairs."""
    if x.is_nochord or y.is_nochord:
        raise NoChordError("chord distance is undefined for no-chords")
    return (_directed(x, kx, y, ky) + _directed(y, ky, x, kx)) / 2


def intern(events, vocab: dict) -> list[int]:
    """Code each (chord, key) event by its position in ``vocab``, adding
    events not seen before, so that equal events share one code."""
    return [vocab.setdefault(event, len(vocab)) for event in events]


def distance_table(vocab_a: dict, vocab_b: dict) -> list[list[float]]:
    """``chord_distance`` from each event of one vocabulary (row, by
    code) to each event of the other (column, by code).  A vocabulary
    against itself costs each unordered pair once: the distance is
    symmetric, so one triangle is computed and mirrored."""
    if vocab_a is not vocab_b:
        return [[chord_distance(x, kx, y, ky) for y, ky in vocab_b] for x, kx in vocab_a]
    events = list(vocab_a)
    table = [[0.0] * len(events) for _ in events]
    for i, (x, kx) in enumerate(events):
        for j in range(i, len(events)):
            y, ky = events[j]
            table[i][j] = table[j][i] = chord_distance(x, kx, y, ky)
    return table


def key_relative_value(chord: Chord, key: Key) -> float:
    """Distance of a chord from its key's tonic triad."""
    return chord_distance(key.tonic_triad(), key, chord, key)
