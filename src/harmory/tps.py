"""Tonal Pitch Space: keys, basic spaces, and chord distances.

A chord in a key spans five nested pitch-class levels: root, fifth,
chord tones, diatonic scale, chromatic total.  The distance between two
chord/key pairs is the circle-of-fifths distance between the key tonics,
plus the circle-of-fifths distance between the chord roots, plus the
number of level entries of the destination space missing from the source
space, averaged over both directions.

Each (chord, key) event is a ``Profile`` of 12-bit level masks, which is
all a distance reads.  Every comparison of event sequences interns the
profiles to small integer codes and indexes one table of the distance of
each distinct pair, which numpy fills from the profiles in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from harmory.harte import Chord, FLAT_NAMES, Natural, NoChordError

MAJOR_STEPS = (0, 2, 4, 5, 7, 9, 11)
MINOR_STEPS = (0, 2, 3, 5, 7, 8, 11)  # harmonic minor

_MODES = {"major": MAJOR_STEPS, "minor": MINOR_STEPS}

# numpy kernels (tpsd's shifts, the bound block, novelty's windows) work
# in blocks of about this many cells, so that each float64 temporary stays
# near 128 KB; larger temporaries ran several times slower per cell.
BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class Key:
    tonic: int
    mode: str = "major"
    mask: int = field(init=False, compare=False, repr=False)  # the diatonic set, 12 bits
    _hash: int = field(init=False, compare=False, repr=False)  # the dataclass hash, kept

    def __post_init__(self):
        if not 0 <= self.tonic <= 11:
            raise ValueError(f"tonic out of range 0..11: {self.tonic}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be 'major' or 'minor': {self.mode!r}")
        self.__dict__.update(mask=sum(1 << pc for pc in self.diatonic()),
                             _hash=hash((self.tonic, self.mode)))

    def __hash__(self) -> int:
        return self._hash

    def diatonic(self) -> frozenset[int]:
        return frozenset((self.tonic + step) % 12 for step in _MODES[self.mode])

    @staticmethod
    @lru_cache(maxsize=2**12)  # bounded for the reason profile's cache is
    def from_string(text: str) -> "Key":
        """Parse '<Natural>:<maj|min>', e.g. 'Eb:min', to one of ``KEYS``.
        The caller names ``text`` in an error."""
        name, sep, mode = text.partition(":")
        if not sep or mode not in ("maj", "min"):
            raise ValueError("key must look like 'C:maj' or 'C:min'")
        return KEYS[2 * Natural(name[:1], name[1:]).pitch_class + (mode == "min")]

    def __str__(self) -> str:
        return f"{FLAT_NAMES[self.tonic]}:{self.mode[:3]}"  # maj or min


# The 24 keys, by tonic and major first: KEYS[2 * tonic + (mode == "minor")].
KEYS = tuple(Key(tonic, mode) for tonic in range(12) for mode in ("major", "minor"))


class Profile(NamedTuple):
    """A chord in a key: key tonic, chord root, and the root, fifth, chord and
    diatonic levels as 12-bit pitch-class masks (the chromatic level never differs)."""

    tonic: int
    root: int
    root_level: int
    fifth_level: int
    chord_level: int
    diatonic_level: int


# Bounded, because Natural accepts any number of accidentals, so the
# (chord, key) space has no bound of its own.
@lru_cache(maxsize=2**12)
def profile(chord: Chord, key: Key) -> Profile:
    if chord.is_nochord:
        raise NoChordError("no-chord has no basic space")
    root = chord.root_pc
    root_level = 1 << root
    # The chord's own fifth degree; a chord without one still gets the perfect fifth.
    fifth_level = root_level | 1 << (root + chord.fifth) % 12
    chord_level = fifth_level | chord.mask
    return Profile(key.tonic, root, root_level, fifth_level, chord_level, chord_level | key.mask)


def fifths_distance(x: int, y: int) -> int:
    """Minimal number of perfect-fifth steps between two pitch classes."""
    up = (7 * (y - x)) % 12  # 7 is its own inverse mod 12
    return min(up, 12 - up) if up else 0


# _FIFTHS[12 * x + y] is fifths_distance(x, y); _POPCOUNT[mask] counts a mask's bits.
_FIFTHS = bytes(fifths_distance(x, y) for x in range(12) for y in range(12))
_POPCOUNT = bytes(mask.bit_count() for mask in range(1 << 12))


def chord_distance(x: Chord, kx: Key, y: Chord, ky: Key) -> float:
    """Symmetrized Tonal Pitch Space distance between chord/key pairs."""
    return profile_distance(profile(x, kx), profile(y, ky))


def profile_distance(p: Profile, q: Profile) -> float:
    """The distance of two profiles: the two fifths distances plus the mean of
    popcount(q_level & ~p_level) over both directions, popcount(p_level ^ q_level) / 2."""
    missing = sum((a ^ b).bit_count() for a, b in zip(p[2:], q[2:]))
    return _FIFTHS[12 * p.tonic + q.tonic] + _FIFTHS[12 * p.root + q.root] + missing / 2


def key_relative_profiles(events) -> list[Profile]:
    """The profile of each (chord, key) event with the key's tonic moved to
    C, the root and every level mask rotated down by the tonic: that of the
    chord transposed down by the tonic, in C of the key's mode."""
    profiles = [profile(chord, key) for chord, key in events]
    moved = {p: Profile(0, (p.root - t) % 12, *((m >> t | m << 12 - t) & 0xFFF for m in p[2:]))
             for p in set(profiles) for t in [p.tonic]}  # each distinct profile once
    return [moved[p] for p in profiles]


def intern(profiles, vocab: dict) -> list[int]:
    """Code each profile by its position in ``vocab``, adding profiles not
    seen before, so that equal profiles share one code."""
    return [vocab.setdefault(p, len(vocab)) for p in profiles]


def distance_table(vocab_a: dict, vocab_b: dict) -> list[list[float]]:
    """``chord_distance`` from each profile of one vocabulary (row, by
    code) to each of the other (column, by code), as Python floats, filled
    by numpy from the profiles that key them.  Every value is a
    half-integer, so the floats equal ``chord_distance``'s exactly."""
    fifths = np.frombuffer(_FIFTHS, dtype=np.uint8).reshape(12, 12)
    popcount = np.frombuffer(_POPCOUNT, dtype=np.uint8)
    a, b = (np.fromiter(chain.from_iterable(vocab), np.intp, 6 * len(vocab)).reshape(-1, 6)
            for vocab in (vocab_a, vocab_b))
    twice = 2 * (fifths[a[:, 0]][:, b[:, 0]] + fifths[a[:, 1]][:, b[:, 1]])
    for level in range(2, 6):
        twice += popcount[a[:, level, None] ^ b[:, level]]
    return (twice / 2).tolist()


# What key_relative_profiles makes of each mode's tonic triad, C-E-G or C-Eb-G.
_MAJOR_TRIAD, _MINOR_TRIAD = (Profile(0, 0, 1, 0x81, 0x81 | 1 << s[2], sum(1 << x for x in s))
                              for s in (MAJOR_STEPS, MINOR_STEPS))


def key_relative_values(profiles) -> list[float]:
    """The distance of each profile that ``key_relative_profiles`` returns
    from its mode's tonic triad, pricing each distinct profile once.  The
    mode is read from the profile: under a major key the diatonic level is
    the chord level OR-ed with the major scale.  A minor-key profile passes
    that test only when its chord level holds both thirds and both sixths,
    and then it is as far from one triad as from the other."""
    value = {p: profile_distance(
        _MAJOR_TRIAD if p.diatonic_level == p.chord_level | _MAJOR_TRIAD.diatonic_level
        else _MINOR_TRIAD, p) for p in set(profiles)}
    return [value[p] for p in profiles]
