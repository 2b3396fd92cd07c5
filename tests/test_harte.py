"""Chord symbol parsing and rendering.

The golden table pins pitch-class sets and canonical renderings that
were derived by hand from the letter/degree arithmetic (C=0, D=2, E=4,
F=5, G=7, A=9, B=11; interval offsets 1..13 -> 0 2 4 5 7 9 11 0 2 4 5
7 9 plus one semitone per accidental).
"""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings

from harmory.harte import (
    NO_CHORD,
    Chord,
    ChordSemanticError,
    ChordSyntaxError,
    Degree,
    HarteError,
    Natural,
    NoChordError,
    bass_pitch_class,
    parse_chord,
    pitch_class_set,
    render_chord,
)
from tests.conftest import chord_symbols, chords, transpose_chord

# (input, sorted pitch classes, canonical rendering)
GOLDEN = [
    ("C", [0, 4, 7], "C:maj"),
    ("C:maj", [0, 4, 7], "C:maj"),
    ("C:min", [0, 3, 7], "C:min"),
    ("C:dim", [0, 3, 6], "C:dim"),
    ("C:aug", [0, 4, 8], "C:aug"),
    ("C:maj7", [0, 4, 7, 11], "C:maj7"),
    ("C:min7", [0, 3, 7, 10], "C:min7"),
    ("C:7", [0, 4, 7, 10], "C:7"),
    ("C:dim7", [0, 3, 6, 9], "C:dim7"),
    ("C:hdim7", [0, 3, 6, 10], "C:hdim7"),
    ("C:minmaj7", [0, 3, 7, 11], "C:minmaj7"),
    ("C:maj6", [0, 4, 7, 9], "C:maj6"),
    ("C:min6", [0, 3, 7, 9], "C:min6"),
    ("C:9", [0, 2, 4, 7, 10], "C:9"),
    ("C:maj9", [0, 2, 4, 7, 11], "C:maj9"),
    ("C:min9", [0, 2, 3, 7, 10], "C:min9"),
    ("C:sus2", [0, 2, 7], "C:sus2"),
    ("C:sus4", [0, 5, 7], "C:sus4"),
    ("C:11", [0, 2, 4, 5, 7, 10], "C:11"),
    ("C:13", [0, 2, 4, 5, 7, 9, 10], "C:13"),
    ("D", [2, 6, 9], "D:maj"),
    ("E:min", [4, 7, 11], "E:min"),
    ("F#:maj", [1, 6, 10], "F#:maj"),
    ("Bb:maj", [2, 5, 10], "Bb:maj"),
    ("Eb:7", [1, 3, 7, 10], "Eb:7"),
    ("Ab:min7", [3, 6, 8, 11], "Ab:min7"),
    ("C#:dim", [1, 4, 7], "C#:dim"),
    ("Db:maj", [1, 5, 8], "Db:maj"),
    ("G:7", [2, 5, 7, 11], "G:7"),
    ("A:min", [0, 4, 9], "A:min"),
    ("B:dim", [2, 5, 11], "B:dim"),
    ("Fbb:maj", [3, 7, 10], "Fbb:maj"),
    ("G##:min", [0, 4, 9], "G##:min"),
    ("B#:maj", [0, 4, 7], "B#:maj"),
    ("Cb:maj", [3, 6, 11], "Cb:maj"),
    ("C:maj/3", [0, 4, 7], "C:maj/3"),
    ("C:maj/5", [0, 4, 7], "C:maj/5"),
    ("C/b7", [0, 4, 7, 10], "C:7/b7"),
    ("C:min/b3", [0, 3, 7], "C:min/b3"),
    ("Eb:7/3", [1, 3, 7, 10], "Eb:7/3"),
    ("A:7/5", [1, 4, 7, 9], "A:7/5"),
    ("D:min7/b7", [0, 2, 5, 9], "D:min7/b7"),
    ("F:maj/3", [0, 5, 9], "F:maj/3"),
    ("C:sus2/2", [0, 2, 7], "C:sus2/2"),
    ("C:maj(9)", [0, 2, 4, 7], "C:maj(9)"),
    ("C:maj(*5,9)", [0, 2, 4], "C:(3,9)"),
    ("C:(3,5,7)", [0, 4, 7, 11], "C:maj7"),
    ("C:(4,5)", [0, 5, 7], "C:sus4"),
    ("C:(3,5)", [0, 4, 7], "C:maj"),
    ("C:(b3,5)", [0, 3, 7], "C:min"),
    ("C:maj7(*5)", [0, 4, 11], "C:(3,7)"),
    ("C:7(#9)", [0, 3, 4, 7, 10], "C:7(#9)"),
    ("C:min(6)", [0, 3, 7, 9], "C:min6"),
    ("C:maj(6)", [0, 4, 7, 9], "C:maj6"),
    ("C:sus4(b7)", [0, 5, 7, 10], "C:sus4(b7)"),
    ("C:maj(*3,*5)", [0], "C:maj(*3,*5)"),
    ("C:7(13)", [0, 4, 7, 9, 10], "C:7(13)"),
    ("C:9(11)", [0, 2, 4, 5, 7, 10], "C:11"),
    ("C:11(13)", [0, 2, 4, 5, 7, 9, 10], "C:13"),
    ("C:maj(#11)", [0, 4, 6, 7], "C:maj(#11)"),
    ("G:min(9)", [2, 7, 9, 10], "G:min(9)"),
    ("C:aug(b7)", [0, 4, 8, 10], "C:aug(b7)"),
    ("C:dim(bb7)", [0, 3, 6, 9], "C:dim7"),
    ("C:13(*9)", [0, 4, 5, 7, 9, 10], "C:7(11,13)"),
    ("C:maj(4)", [0, 4, 5, 7], "C:maj(4)"),
    ("C:(b9)", [0, 1], "C:(b9)"),
]

MALFORMED = [
    ("", ChordSyntaxError, "position 0"),
    ("H", ChordSyntaxError, "position 0"),
    ("c:maj", ChordSyntaxError, "position 0"),
    ("C:", ChordSyntaxError, "position 2"),
    ("C:foo", ChordSyntaxError, "foo"),
    ("C:Maj", ChordSyntaxError, "position 2"),
    ("C:maj(", ChordSyntaxError, "position 6"),
    ("C:maj()", ChordSyntaxError, "position 6"),
    ("C:maj(3", ChordSyntaxError, "position 7"),
    ("C:maj(3,)", ChordSyntaxError, "position 8"),
    ("C:maj(b)", ChordSyntaxError, "position 7"),
    ("C/", ChordSyntaxError, "position 2"),
    ("C:maj/", ChordSyntaxError, "position 6"),
    ("C//5", ChordSyntaxError, "position 2"),
    ("C::maj", ChordSyntaxError, "position 2"),
    ("C:maj x", ChordSyntaxError, "position 5"),
    ("N:maj", ChordSyntaxError, "position 0"),
    ("Cb#", ChordSemanticError, "mixed accidentals"),
    ("C:maj(3,3)", ChordSemanticError, "duplicate degree 3"),
    ("C:(1,1)", ChordSemanticError, "duplicate degree 1"),
    ("C:(1,4,5)", ChordSemanticError, "duplicate degree 1"),
    ("C:maj(3)", ChordSemanticError, "duplicate degree 3"),
    ("C:maj(*9)", ChordSemanticError, "omit absent degree 9"),
    ("C:(*1)", ChordSemanticError, "no sounding degrees"),
    ("C:maj(*1,*3,*5)", ChordSemanticError, "no sounding degrees"),
    ("C:maj/0", ChordSemanticError, "out of range"),
    ("C:maj/14", ChordSemanticError, "out of range"),
]


@pytest.mark.parametrize("symbol,pcs,canonical", GOLDEN)
def test_golden_pitch_classes_and_rendering(symbol, pcs, canonical):
    chord = parse_chord(symbol)
    assert sorted(pitch_class_set(chord)) == pcs
    assert render_chord(chord) == canonical


@pytest.mark.parametrize("symbol,pcs,canonical", GOLDEN)
def test_golden_round_trip(symbol, pcs, canonical):
    chord = parse_chord(symbol)
    assert parse_chord(render_chord(chord)) == chord


@pytest.mark.parametrize("symbol,error,fragment", MALFORMED)
def test_malformed(symbol, error, fragment):
    with pytest.raises(error) as info:
        parse_chord(symbol)
    assert fragment in str(info.value)
    assert isinstance(info.value, HarteError)


def test_no_chord():
    chord = parse_chord("N")
    assert chord == NO_CHORD
    assert chord.is_nochord
    assert render_chord(chord) == "N"
    with pytest.raises(NoChordError):
        pitch_class_set(chord)
    with pytest.raises(NoChordError):
        bass_pitch_class(chord)


def test_bare_note_is_major_triad():
    assert parse_chord("C") == parse_chord("C:maj")
    assert parse_chord("Eb") == parse_chord("Eb:(3,5)")


def test_shorthand_equals_expansion():
    # degree lists start from an implicit 1, so expansions omit it
    pairs = [
        ("C:maj", "C:(3,5)"),
        ("C:min", "C:(b3,5)"),
        ("C:dim", "C:(b3,b5)"),
        ("C:aug", "C:(3,#5)"),
        ("C:maj7", "C:(3,5,7)"),
        ("C:min7", "C:(b3,5,b7)"),
        ("C:7", "C:(3,5,b7)"),
        ("C:dim7", "C:(b3,b5,bb7)"),
        ("C:hdim7", "C:(b3,b5,b7)"),
        ("C:minmaj7", "C:(b3,5,7)"),
        ("C:maj6", "C:(3,5,6)"),
        ("C:min6", "C:(b3,5,6)"),
        ("C:9", "C:(3,5,b7,9)"),
        ("C:maj9", "C:(3,5,7,9)"),
        ("C:min9", "C:(b3,5,b7,9)"),
        ("C:sus2", "C:(2,5)"),
        ("C:sus4", "C:(4,5)"),
        ("C:11", "C:(3,5,b7,9,11)"),
        ("C:13", "C:(3,5,b7,9,11,13)"),
    ]
    for shorthand, expansion in pairs:
        assert parse_chord(shorthand) == parse_chord(expansion), shorthand
        assert (pitch_class_set(parse_chord(shorthand))
                == pitch_class_set(parse_chord(expansion)))


def test_shorthand_excluded_from_equality():
    assert parse_chord("C:maj7").shorthand == "maj7"
    assert parse_chord("C:(3,5,7)").shorthand is None
    assert parse_chord("C:maj7") == parse_chord("C:(3,5,7)")


def test_bass_degree_added_when_absent():
    chord = parse_chord("C:maj/b7")
    assert Degree(7, -1) in chord.degrees
    assert bass_pitch_class(chord) == 10


def test_bass_degree_not_duplicated_when_present():
    chord = parse_chord("C:maj/3")
    assert chord.degrees == parse_chord("C:maj").degrees


def test_chord_validation_rejects_duplicate_intervals():
    with pytest.raises(ChordSemanticError):
        Chord(root=Natural("C"),
              degrees=frozenset({Degree(3), Degree(3, -1)}), bass=None)


def test_chord_validation_rejects_omit_markers():
    with pytest.raises(ChordSemanticError):
        Chord(root=Natural("C"),
              degrees=frozenset({Degree(3, omit=True)}), bass=None)


def test_nochord_has_no_pitch_material():
    with pytest.raises(ChordSemanticError):
        Chord(root=None, degrees=frozenset({Degree(1)}), bass=None)


def test_transpose_chord_octave_preserves_spelling():
    chord = parse_chord("F#:maj")
    assert transpose_chord(chord, 12) == chord
    assert str(transpose_chord(chord, 0).root) == "F#"


def test_transpose_chord_canonical_flats():
    assert str(transpose_chord(parse_chord("C:maj"), 1).root) == "Db"
    assert str(transpose_chord(parse_chord("F#:maj"), 1).root) == "G"
    assert str(transpose_chord(parse_chord("A:min"), 1).root) == "Bb"


def test_transpose_chord_shifts_pitch_classes():
    chord = parse_chord("C:7/3")
    for n in range(-12, 13):
        shifted = transpose_chord(chord, n)
        assert pitch_class_set(shifted) == frozenset(
            (pc + n) % 12 for pc in pitch_class_set(chord))
        assert bass_pitch_class(shifted) == (bass_pitch_class(chord) + n) % 12


def test_transpose_nochord():
    assert transpose_chord(NO_CHORD, 3).is_nochord


@given(chords())
@settings(max_examples=300)
def test_render_parse_round_trip(chord):
    assert parse_chord(render_chord(chord)) == chord


@given(chord_symbols())
def test_rendering_is_stable(symbol):
    once = render_chord(parse_chord(symbol))
    assert render_chord(parse_chord(once)) == once


def test_parser_totality_on_random_input():
    """Arbitrary junk either parses or raises a positioned grammar error,
    never anything else."""
    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + ":/#b(),* "
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            parse_chord(text)
        except HarteError:
            pass


# str.isdigit takes these, and int() reads the first two as 5 and 3.
@pytest.mark.parametrize("symbol,message", [
    ("C:maj/٥", "position 6: expected interval number"),
    ("C:(3,٥)", "position 5: expected interval number"),
    ("C:maj/²", "position 6: expected interval number"),
    ("G:7/³", "position 4: expected interval number"),
    ("C:maj(*٣)", "position 7: expected interval number"),
    ("C:(b٩)", "position 4: expected interval number"),
    ("C:maj/1٥", "position 7: expected end of input"),
])
def test_an_interval_number_is_written_in_ascii_digits(symbol, message):
    with pytest.raises(ChordSyntaxError) as info:
        parse_chord(symbol)
    assert str(info.value) == message


def test_no_other_digit_is_an_interval_number():
    others = [c for c in map(chr, range(0x110000)) if c.isdigit() and not c.isascii()]
    assert len(others) > 100
    for char in others:
        for symbol in (f"C:maj/{char}", f"C:({char})", f"C:(*{char})"):
            with pytest.raises(ChordSyntaxError):
                parse_chord(symbol)


def test_degree_semitones():
    offsets = {1: 0, 2: 2, 3: 4, 4: 5, 5: 7, 6: 9, 7: 11,
               8: 0, 9: 2, 10: 4, 11: 5, 12: 7, 13: 9}
    for interval, base in offsets.items():
        assert Degree(interval).semitones == base
        assert Degree(interval, -1).semitones == (base - 1) % 12
        assert Degree(interval, 1).semitones == (base + 1) % 12


def test_natural_pitch_classes():
    for name, pc in [("C", 0), ("D", 2), ("E", 4), ("F", 5),
                     ("G", 7), ("A", 9), ("B", 11)]:
        assert Natural(name).pitch_class == pc
    assert Natural("C", "#").pitch_class == 1
    assert Natural("C", "b").pitch_class == 11
    assert Natural("B", "##").pitch_class == 1
