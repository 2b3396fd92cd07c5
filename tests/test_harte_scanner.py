"""The chord scanner against the recursive-descent parser it replaced.

``ReferenceParser``, ``reference_assemble`` and ``reference_render`` are
that parser and the loop renderer as they were, so every symbol, written
or mangled, must parse to the same chord or fail with the same error, and
every chord must render to the same text.  The reference reads an
interval number with ``int()``, so it is compared on numbers of up to 40
digits; the long numbers have tests of their own below.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmory.harte import (NATURALS, NO_CHORD, SHORTHAND_DEGREES, SHORTHANDS, Chord,
                           ChordSemanticError, ChordSyntaxError, Degree, HarteError, Natural,
                           parse_chord, render_chord)
from tests.conftest import chords, written_chords, written_symbols

_ASCII_DIGITS = frozenset("0123456789")


class ReferenceParser:
    """Recursive-descent parser over a chord string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, expected: str):
        raise ChordSyntaxError(self.pos, expected)

    def parse(self) -> Chord:
        if self.text == "N":
            return NO_CHORD
        root = self.parse_natural()
        shorthand: str | None = None
        entries: list[Degree] = []
        explicit_body = False
        if self.peek() == ":":
            self.pos += 1
            explicit_body = True
            if self.peek() == "(":
                entries = self.parse_degree_list()
            else:
                shorthand = self.parse_shorthand()
                if self.peek() == "(":
                    entries = self.parse_degree_list()
        bass = None
        if self.peek() == "/":
            self.pos += 1
            bass = self.parse_degree()
            if bass.omit:
                raise ChordSemanticError("bass degree may not carry an omit marker", self.pos)
        if self.pos != len(self.text):
            self.error("end of input")
        if not explicit_body:
            shorthand = "maj"
        return reference_assemble(root, shorthand, entries, bass)

    def parse_natural(self) -> Natural:
        start = self.pos
        if self.peek() not in NATURALS:
            self.error("note letter A..G")
        letter = self.text[self.pos]
        self.pos += 1
        modifiers = self.parse_modifiers()
        try:
            return Natural(letter, modifiers)
        except ChordSemanticError as err:
            raise ChordSemanticError(str(err), start) from None

    def parse_modifiers(self) -> str:
        start = self.pos
        while self.peek() in ("b", "#"):
            self.pos += 1
        return self.text[start:self.pos]

    def parse_shorthand(self) -> str:
        start = self.pos
        while self.peek() and (self.peek().islower() or self.peek().isdigit()):
            self.pos += 1
        token = self.text[start:self.pos]
        if not token:
            self.error("quality shorthand or '('")
        if token not in SHORTHAND_DEGREES:
            raise ChordSyntaxError(start, f"known shorthand, got {token!r}")
        return token

    def parse_degree_list(self) -> list[Degree]:
        # Caller guarantees the opening parenthesis.
        self.pos += 1
        entries = [self.parse_degree(allow_omit=True)]
        while self.peek() == ",":
            self.pos += 1
            entries.append(self.parse_degree(allow_omit=True))
        if self.peek() != ")":
            self.error("',' or ')'")
        self.pos += 1
        return entries

    def parse_degree(self, allow_omit: bool = False) -> Degree:
        start = self.pos
        omit = False
        if allow_omit and self.peek() == "*":
            omit = True
            self.pos += 1
        modifiers = self.parse_modifiers()
        if modifiers.strip("b") and modifiers.strip("#"):
            raise ChordSemanticError(f"mixed accidentals: {modifiers!r}", start)
        digits_start = self.pos
        while self.peek() in _ASCII_DIGITS:
            self.pos += 1
        if self.pos == digits_start:
            self.error("interval number")
        flats = modifiers.count("b")
        try:
            return Degree(
                interval=int(self.text[digits_start:self.pos]),
                alteration=-flats if flats else len(modifiers),
                omit=omit,
            )
        except ChordSemanticError as err:
            raise ChordSemanticError(str(err), start) from None


def reference_assemble(root: Natural, shorthand: str | None, entries: list[Degree],
                       bass: Degree | None) -> Chord:
    if shorthand is not None:
        base = SHORTHAND_DEGREES[shorthand]
    else:
        base = frozenset([Degree(1)])
    table = {d.interval: d for d in base}
    for entry in entries:
        if entry.omit:
            if entry.interval not in table:
                raise ChordSemanticError(f"cannot omit absent degree {entry.interval}")
            del table[entry.interval]
        else:
            if entry.interval in table:
                raise ChordSemanticError(f"duplicate degree {entry.interval}")
            table[entry.interval] = entry
    if bass is not None and bass.interval not in table:
        table[bass.interval] = bass
    if not table:
        raise ChordSemanticError("chord has no sounding degrees")
    # A chord that adds nothing to its shorthand shares its degree set.
    degrees = base if len(table) == len(base) and not entries else frozenset(table.values())
    return Chord(root=root, degrees=degrees, bass=bass, shorthand=shorthand)


def reference_render(chord: Chord) -> str:
    if chord.is_nochord:
        return "N"
    best: str | None = None
    for name, expansion in SHORTHAND_DEGREES.items():
        if expansion <= chord.degrees:
            if best is None or len(expansion) > len(SHORTHAND_DEGREES[best]):
                best = name
    if best is not None:
        rest = sorted(chord.degrees - SHORTHAND_DEGREES[best], key=Degree.sort_key)
        body = best + (f"({','.join(map(str, rest))})" if rest else "")
    elif chord.degrees == frozenset([Degree(1)]):
        body = "maj(*3,*5)"
    else:
        entries = [] if Degree(1) in chord.degrees else [Degree(1, omit=True)]
        entries += sorted(chord.degrees - {Degree(1)}, key=Degree.sort_key)
        body = f"({','.join(map(str, entries))})"
    text = f"{chord.root}:{body}"
    if chord.bass is not None:
        text += f"/{chord.bass}"
    return text


def reference_pitch_content(chord: Chord) -> tuple:
    """The root's pitch class, the sounding mask and the fifth, from the degrees."""
    if chord.is_nochord:
        return None, 0, 7
    root = chord.root.pitch_class
    pcs = {(root + d.semitones) % 12 for d in chord.degrees}
    fifth = next((d.semitones for d in chord.degrees if d.interval == 5), 7)
    return root, sum(1 << pc for pc in pcs), fifth


def assert_parses_as_the_reference(text: str):
    try:
        expected = ReferenceParser(text).parse()
    except HarteError as err:
        with pytest.raises(HarteError) as info:
            parse_chord.__wrapped__(text)
        assert (type(info.value), str(info.value)) == (type(err), str(err)), text
        return
    chord = parse_chord.__wrapped__(text)
    assert chord == expected and repr(chord) == repr(expected), text
    assert chord.shorthand == expected.shorthand and hash(chord) == hash(expected), text
    assert (chord.root_pc, chord.mask, chord.fifth) == reference_pitch_content(expected), text
    shared = SHORTHAND_DEGREES.get(chord.shorthand)
    assert (chord.degrees is shared) == (expected.degrees is shared), text


# Characters a mangled symbol gains: the grammar's punctuation, ASCII and
# other digits, superscripts, and lowercase letters that are not ASCII
# (str.islower takes them, so the shorthand scan does too).
POOL = "N:*(),/#b" + string.digits + "٥٣²³" + "éßªͅ" + "ACGMajmins "


@st.composite
def mangled(draw, symbols):
    """A symbol of ``symbols`` with up to three characters inserted, deleted or replaced."""
    text = draw(symbols)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(POOL))
        text = draw(st.sampled_from([text[:at] + char + text[at:], text[:at] + text[at + 1:],
                                     text[:at] + char + text[at + 1:]]))
    return text


@given(mangled(written_symbols()) | st.text(POOL, max_size=10))
@settings(max_examples=300)
def test_the_scanner_parses_as_the_reference_parser(text):
    assert_parses_as_the_reference(text)


@pytest.mark.parametrize("text", [
    "", "N", "N:maj", "n", "C", "Cb#", "C#b:maj", "Cbbb#", "C###", "Cbbbb:min7/b3", "H:maj",
    "C:", "C:(", "C:()", "C:maj(", "C:maj()", "C:maj(3", "C:maj(3,)", "C:maj(,3)",
    "C:majé", "C:maj²", "C:ͅ", "C:Maj", "C:ªmaj", "C:maj7x", "C:foo(3)", "C:maj7 ",
    "C:(b#)", "C:(b#3", "C:(*b#9)", "C:(bbb3)", "C:(###5)", "C:(*bbb14)", "C/bbb3", "C/b#",
    "C/*3", "C//5", "C::maj", "C:maj/", "C:maj/3/5", "C:maj(3)(5)",
    "C:(03)", "C:(*05,09)", "C/005", "C:maj/010", "C:(00)", "C/0", "C:(014)", "C:maj/0013",
    "C:(10)", "C:maj(100)", "C:(" + "9" * 40 + ")", "C/" + "1" * 39,
    "C:maj(*3,*5)", "C:(*1)", "C:(*1,1)", "C:maj(*9)", "C:maj(3)", "C:maj(*3,b3)",
    "C:maj/b3", "C:maj/b7", "C:min/b3", "C:maj(9)/9", "C:(*1,3)/1",
])
def test_hard_cases_parse_as_the_reference(text):
    assert_parses_as_the_reference(text)


@given(chords() | written_chords() | st.just(NO_CHORD))
@settings(max_examples=150)
def test_render_by_lookup_equals_the_reference_render(chord):
    assert render_chord.__wrapped__(chord) == reference_render(chord)


def test_each_shorthand_expands_as_the_reference_reads_it():
    assert list(SHORTHAND_DEGREES) == list(SHORTHANDS)
    for name, expansion in SHORTHANDS.items():
        degrees = frozenset(ReferenceParser(f"({expansion})").parse_degree_list())
        assert SHORTHAND_DEGREES[name] == degrees
        assert repr(SHORTHAND_DEGREES[name]) == repr(degrees)


# An interval number reads as the number its digits spell, however many.
def test_leading_zeros_do_not_count():
    assert parse_chord("C/" + "0" * 5000 + "5") == parse_chord("C/5")
    assert parse_chord("C:(" + "0" * 5000 + "13)") == parse_chord("C:(13)")


@pytest.mark.parametrize("text,message", [
    ("C/" + "3" * 5000, "position 2: degree out of range 1..13: " + "3" * 37 + "..."),
    ("C:(" + "1" * 5000 + ")", "position 3: degree out of range 1..13: " + "1" * 37 + "..."),
    ("C:maj(*b" + "0" * 10 + "7" * 41 + ")",
     "position 6: degree out of range 1..13: " + "7" * 37 + "..."),
    ("C:(" + "0" * 5000 + ")", "position 3: degree out of range 1..13: 0"),
    ("C/" + "9" * 40, "position 2: degree out of range 1..13: " + "9" * 40),
], ids=["bass", "entry", "omitted", "zeros", "forty digits"])
def test_a_long_interval_number_is_out_of_range_at_its_position(text, message):
    with pytest.raises(ChordSemanticError) as info:
        parse_chord(text)
    assert str(info.value) == message
