"""What a ``Chord`` and a ``Key`` carry from the moment they are built.

Each chord holds its root's pitch class, its sounding pitch classes as a
12-bit mask, the semitones of its fifth degree and its hash; each key
holds its diatonic mask.  ``profile``, ``pitch_class_set`` and
``estimate_key`` only combine them.  The references below are the
derivations that those fields replaced, walking the degrees and the
scale each time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from harmory.harte import NO_CHORD, SHORTHAND_DEGREES, parse_chord, pitch_class_set
from harmory.timeline import estimate_key
from harmory.tps import Key, Profile, profile
from tests.conftest import chords, keys, written_chords

sounded = chords() | written_chords()


def reference_pitch_class_set(chord) -> frozenset[int]:
    return frozenset((chord.root.pitch_class + d.semitones) % 12 for d in chord.degrees)


def reference_fifth(chord) -> int:
    return next((d.semitones for d in chord.degrees if d.interval == 5), 7)


def reference_profile(chord, key) -> Profile:
    root = chord.root.pitch_class
    root_level = 1 << root
    fifth_level = root_level | 1 << (root + reference_fifth(chord)) % 12
    chord_level = fifth_level | sum(1 << pc for pc in reference_pitch_class_set(chord))
    diatonic_level = chord_level | sum(1 << pc for pc in key.diatonic())
    return Profile(key.tonic, root, root_level, fifth_level, chord_level, diatonic_level)


REFERENCE_KEYS = tuple((key, key.diatonic()) for key in (
    Key(tonic, mode) for tonic in range(12) for mode in ("major", "minor")))


def reference_estimate_key(chords) -> Key:
    pcs = set()
    for chord in chords:
        if not chord.is_nochord:
            if not pcs:
                start = 2 * chord.root.pitch_class
            pcs |= reference_pitch_class_set(chord)
    return max(REFERENCE_KEYS[start:] + REFERENCE_KEYS[:start],
               key=lambda candidate: len(pcs & candidate[1]))[0]


@given(sounded)
@settings(max_examples=200)
def test_a_chord_carries_its_root_mask_and_fifth(chord):
    pcs = reference_pitch_class_set(chord)
    assert chord.root_pc == chord.root.pitch_class
    assert chord.mask == sum(1 << pc for pc in pcs)
    assert pitch_class_set(chord) == pcs
    assert chord.fifth == reference_fifth(chord)


@given(sounded | st.just(NO_CHORD))
@settings(max_examples=100)
def test_a_chord_hashes_as_the_dataclass_hash_of_its_compared_fields(chord):
    # So that every set and dict of chords iterates in the order it did.
    assert hash(chord) == hash((chord.root, chord.degrees, chord.bass))


@given(sounded)
@settings(max_examples=50)
def test_equality_and_repr_see_only_the_declared_fields(chord):
    assert repr(chord) == (f"Chord(root={chord.root!r}, degrees={chord.degrees!r}, "
                           f"bass={chord.bass!r}, shorthand={chord.shorthand!r})")
    twin = type(chord)(chord.root, chord.degrees, chord.bass)
    assert twin == chord and hash(twin) == hash(chord)


def test_a_key_carries_its_diatonic_mask_outside_equality_and_repr():
    for key, scale in REFERENCE_KEYS:
        assert key.mask == sum(1 << pc for pc in scale)
    assert repr(Key(3, "minor")) == "Key(tonic=3, mode='minor')"


def test_a_chord_that_adds_nothing_shares_its_shorthands_degree_set():
    for name, degrees in SHORTHAND_DEGREES.items():
        assert parse_chord(f"Eb:{name}").degrees is degrees
    assert parse_chord("C:maj/3").degrees is SHORTHAND_DEGREES["maj"]
    assert parse_chord("C:maj/b7").degrees == SHORTHAND_DEGREES["7"]


@given(sounded, keys)
@settings(max_examples=200)
def test_profile_combines_the_chord_and_key_as_the_reference_derives_them(chord, key):
    assert profile.__wrapped__(chord, key) == reference_profile(chord, key)
    assert profile(chord, key) == reference_profile(chord, key)


@given(st.lists(sounded | st.just(NO_CHORD), min_size=1, max_size=8)
       .filter(lambda progression: any(not c.is_nochord for c in progression)))
@settings(max_examples=150, deadline=None)
def test_estimate_key_matches_the_set_based_reference(progression):
    assert estimate_key(progression) == reference_estimate_key(progression)
