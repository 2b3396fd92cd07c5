"""Tonal Pitch Space: keys, basic spaces, and chord distances.

A chord in a key spans five nested pitch-class levels: root, fifth,
chord tones, diatonic scale, chromatic total.  ``distance_terms`` alone
states Lerdahl's distance between two chord/key pairs, as six terms.

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
    return min(up := 7 * (y - x) % 12, 12 - up)  # 7 is its own inverse mod 12


# _FIFTHS[12 * x + y] is fifths_distance(x, y); _POPCOUNT[mask] counts a mask's bits.
_FIFTHS = bytes(fifths_distance(x, y) for x in range(12) for y in range(12))
_POPCOUNT = bytes(mask.bit_count() for mask in range(1 << 12))


def chord_distance(x: Chord, kx: Key, y: Chord, ky: Key) -> float:
    """Symmetrized Tonal Pitch Space distance between chord/key pairs."""
    return profile_distance(profile(x, kx), profile(y, ky))


def distance_terms(p: Profile, q: Profile, fifths=_FIFTHS, popcount=_POPCOUNT) -> tuple:
    """Lerdahl's distance of two profiles as six terms, doubled to ints: the
    fifths distances of the tonics and of the roots, and popcount(p_level ^
    q_level), the entries either space misses, of each level.  Arrays whose
    item i is field i, with numpy views of the tables, give each broadcast pair's."""
    return (2 * fifths[12 * p[0] + q[0]], 2 * fifths[12 * p[1] + q[1]], popcount[p[2] ^ q[2]],
            popcount[p[3] ^ q[3]], popcount[p[4] ^ q[4]], popcount[p[5] ^ q[5]])


def profile_distance(p: Profile, q: Profile) -> float:
    """The distance of two profiles: half the sum of their doubled terms."""
    return sum(distance_terms(p, q)) / 2


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
    """``chord_distance`` of each profile of ``vocab_a`` (row, by code) and each
    of ``vocab_b`` (column), as floats: half the exact numpy sum of its terms."""
    a, b = (np.fromiter(chain.from_iterable(vocab), np.intp, 6 * len(vocab)).reshape(-1, 6).T
            for vocab in (vocab_a, vocab_b))
    twice, *terms = distance_terms(a[:, :, None], b, np.frombuffer(_FIFTHS, np.uint8),
                                   np.frombuffer(_POPCOUNT, np.uint8))
    for term in terms:  # in place: a forked call pays for each new numpy temporary
        twice += term
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
