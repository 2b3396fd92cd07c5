"""Harte chord symbols: parsing, rendering, and pitch-class semantics.

Grammar accepted by :func:`parse_chord`::

    chord      ::= "N" | note | note "/" degree | note ":" body ("/" degree)?
    body       ::= shorthand | shorthand "(" degreelist ")" | "(" degreelist ")"
    note       ::= natural modifier*
    natural    ::= "A" | "B" | "C" | "D" | "E" | "F" | "G"
    modifier   ::= "b" | "#"
    degreelist ::= degree ("," degree)*
    degree     ::= "*"? modifier* integer
    integer    ::= ("0" | "1" | ... | "9")+

A bare note is a major triad.  Degree-list entries add intervals to the
shorthand expansion; "*" entries remove the named interval number.  A bare
degree list starts from the implicit degree 1, so ``C:(3,5,7)`` equals
``C:maj7`` and ``C:(*1,3,5)`` is a rootless voicing.  A bass degree that is
not already in the degree set is added to the sounding set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

NATURALS = ("A", "B", "C", "D", "E", "F", "G")

# Semitone of each natural above C.
LETTER_PITCH = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Major-scale semitone offset of each degree number.
DEGREE_OFFSET = {
    1: 0, 2: 2, 3: 4, 4: 5, 5: 7, 6: 9, 7: 11,
    8: 0, 9: 2, 10: 4, 11: 5, 12: 7, 13: 9,
}

# Quality shorthands and their interval expansions.  Order matters: it is
# the tie-break when several expansions of equal size fit a degree set
# during rendering.
SHORTHANDS: dict[str, str] = {
    "maj": "1,3,5",
    "min": "1,b3,5",
    "dim": "1,b3,b5",
    "aug": "1,3,#5",
    "maj7": "1,3,5,7",
    "min7": "1,b3,5,b7",
    "7": "1,3,5,b7",
    "dim7": "1,b3,b5,bb7",
    "hdim7": "1,b3,b5,b7",
    "minmaj7": "1,b3,5,7",
    "maj6": "1,3,5,6",
    "min6": "1,b3,5,6",
    "9": "1,3,5,b7,9",
    "maj9": "1,3,5,7,9",
    "min9": "1,b3,5,b7,9",
    "sus2": "1,2,5",
    "sus4": "1,4,5",
    "11": "1,3,5,b7,9,11",
    "13": "1,3,5,b7,9,11,13",
}

# Canonical spelling for each pitch class (flats for the black keys).
FLAT_NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")


class HarteError(ValueError):
    """Base class for chord symbol errors."""


class ChordSyntaxError(HarteError):
    """Input does not match the chord grammar."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"position {position}: expected {expected}")


class ChordSemanticError(HarteError):
    """Grammatical input with no valid chord meaning."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"position {position}: {message}"
        super().__init__(message)


class NoChordError(HarteError):
    """A no-chord was passed where a sounded chord is required."""


@dataclass(frozen=True)
class Natural:
    """A note name: a letter plus uniform accidentals, spelling preserved."""

    letter: str
    modifiers: str = ""

    def __post_init__(self):
        if self.letter not in NATURALS:
            raise ChordSemanticError(f"not a note letter: {self.letter!r}")
        if not (set(self.modifiers) <= {"b"} or set(self.modifiers) <= {"#"}):
            raise ChordSemanticError(f"mixed accidentals: {self.modifiers!r}")

    @property
    def pitch_class(self) -> int:
        shift = len(self.modifiers)
        if self.modifiers.startswith("b"):
            shift = -shift
        return (LETTER_PITCH[self.letter] + shift) % 12

    def __str__(self) -> str:
        return self.letter + self.modifiers


@dataclass(frozen=True)
class Degree:
    """A chord degree: interval number 1..13 with alteration in -2..+2."""

    interval: int
    alteration: int = 0
    omit: bool = False

    def __post_init__(self):
        if not 1 <= self.interval <= 13:
            raise ChordSemanticError(f"degree out of range 1..13: {self.interval}")
        if abs(self.alteration) > 2:
            raise ChordSemanticError(f"alteration out of range: {self.alteration}")

    @property
    def semitones(self) -> int:
        """Semitone offset above the root, mod 12."""
        if self.omit:
            raise ChordSemanticError("omitted degree has no sounding offset")
        return (DEGREE_OFFSET[self.interval] + self.alteration) % 12

    def sort_key(self) -> tuple[int, int]:
        return (self.interval, self.alteration)

    def __str__(self) -> str:
        accidental = "b" * -self.alteration if self.alteration < 0 else "#" * self.alteration
        return ("*" if self.omit else "") + accidental + str(self.interval)


@dataclass(frozen=True)
class Chord:
    """A parsed chord.  ``root is None`` encodes the no-chord symbol.

    ``degrees`` holds the sounding intervals after shorthand expansion,
    additions, omissions, and bass merging.  ``shorthand`` records the
    quality as written and is not part of structural equality.

    Built with the chord, outside equality and ``repr``: the root's pitch
    class, the sounding pitch classes as a 12-bit ``mask``, the semitones of
    the fifth degree (7 when there is none) and the dataclass hash.
    """

    root: Natural | None = None
    degrees: frozenset[Degree] = frozenset()
    bass: Degree | None = None
    shorthand: str | None = field(default=None, compare=False)
    root_pc: int | None = field(init=False, compare=False, repr=False)
    mask: int = field(init=False, compare=False, repr=False)
    fifth: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.root is None:
            if self.degrees or self.bass is not None or self.shorthand is not None:
                raise ChordSemanticError("a no-chord carries no other fields")
            root, mask, fifth = None, 0, 7
        else:
            shape = _SHAPES.get(self.degrees)
            if shape is None:  # not a shorthand's degree set
                intervals = [d.interval for d in self.degrees]
                if len(set(intervals)) != len(intervals):
                    raise ChordSemanticError("duplicate interval numbers in degree set")
                if any(d.omit for d in self.degrees):
                    raise ChordSemanticError("degree set may not contain omit markers")
                shape = _shape(self.degrees)
            if self.bass is not None and self.bass.omit:
                raise ChordSemanticError("bass degree may not carry an omit marker")
            above_c, fifth, _ = shape
            root = self.root.pitch_class
            mask = (above_c << root | above_c >> 12 - root) & 0xFFF
        # The fields are frozen, so they are set past the dataclass's __setattr__.
        self.__dict__.update(root_pc=root, mask=mask, fifth=fifth,
                             _hash=hash((self.root, self.degrees, self.bass)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_nochord(self) -> bool:
        return self.root is None

    def __str__(self) -> str:
        return render_chord(self)


NO_CHORD = Chord()


def _shape(degrees: frozenset[Degree], name: str | None = None) -> tuple[int, int, str | None]:
    """A degree set's pitch classes above C as a 12-bit mask, the semitones
    of its fifth degree (7 when there is none), and the shorthand ``name``."""
    mask, fifth = 0, 7
    for degree in degrees:
        semitones = degree.semitones
        mask |= 1 << semitones
        if degree.interval == 5:
            fifth = semitones
    return mask, fifth, name


# The grammar's tokens.  Every valid symbol but "N" is one match of _SYMBOL,
# which joins them; _error walks them one at a time through a symbol that
# _SYMBOL or the tables refuse.  Digits are ASCII: str.isdigit also takes
# other scripts' digits and superscripts.
_ACCIDENTALS = re.compile("[b#]*")
_DIGITS = re.compile("[0-9]+")
_INTERVAL = _ACCIDENTALS.pattern + _DIGITS.pattern
_SYMBOL = re.compile(rf"([A-G]{_ACCIDENTALS.pattern})(?::(?=[a-z0-9(])([a-z0-9]+)?"
                     rf"(?:\((\*?{_INTERVAL}(?:,\*?{_INTERVAL})*)\))?)?(?:/({_INTERVAL}))?")
_LEADING_ZEROS = re.compile("(?<![0-9])0+(?=[0-9])")

# Built once, here, and only read after: every natural with up to two
# accidentals and every degree, keyed by their text, each shorthand's
# degrees, and the shape of each of those degree sets.
_NATURALS = {f"{letter}{accidentals}": Natural(letter, accidentals)
             for letter in NATURALS for accidentals in ("", "b", "bb", "#", "##")}
_DEGREES = {f"{omit}{Degree(interval, alteration)}": Degree(interval, alteration, bool(omit))
            for omit in ("", "*") for interval in range(1, 14) for alteration in range(-2, 3)}
SHORTHAND_DEGREES: dict[str, frozenset[Degree]] = {
    name: frozenset(_DEGREES[entry] for entry in expansion.split(","))
    for name, expansion in SHORTHANDS.items()
}
_SHAPES = {degrees: _shape(degrees, name) for name, degrees in SHORTHAND_DEGREES.items()}
_ROOT_ONLY = frozenset([Degree(1)])


def _degree(token: str) -> Degree:
    """The degree an entry or bass token spells; KeyError when it spells none."""
    return _DEGREES.get(token) or _DEGREES[_LEADING_ZEROS.sub("", token)]


def _mixed(accidentals: str) -> bool:
    return bool(accidentals.strip("b") and accidentals.strip("#"))


def _error(text: str) -> HarteError:
    """The positioned error of the first token of ``text`` that the grammar
    or the tables refuse."""
    if text[:1] not in NATURALS:
        return ChordSyntaxError(0, "note letter A..G")
    pos = _ACCIDENTALS.match(text, 1).end()
    if _mixed(text[1:pos]):
        return ChordSemanticError(f"mixed accidentals: {text[1:pos]!r}", 0)
    if text.startswith(":", pos):
        pos += 1
        if not text.startswith("(", pos):
            start = pos
            # As str.islower and str.isdigit read them, so that the error quotes the run.
            while pos < len(text) and (text[pos].islower() or text[pos].isdigit()):
                pos += 1
            if pos == start:
                return ChordSyntaxError(pos, "quality shorthand or '('")
            if text[start:pos] not in SHORTHAND_DEGREES:
                return ChordSyntaxError(start, f"known shorthand, got {text[start:pos]!r}")
        if text.startswith("(", pos):
            pos, error = _degree_error(text, pos + 1, omit=True)
            while error is None and text.startswith(",", pos):
                pos, error = _degree_error(text, pos + 1, omit=True)
            if error is not None:
                return error
            if not text.startswith(")", pos):
                return ChordSyntaxError(pos, "',' or ')'")
            pos += 1
    if text.startswith("/", pos):
        pos, error = _degree_error(text, pos + 1, omit=False)
        if error is not None:
            return error
    return ChordSyntaxError(pos, "end of input")


def _degree_error(text: str, start: int, omit: bool) -> tuple[int, HarteError | None]:
    """The end of the degree token at ``start``, and its error if it has one.
    ``omit`` says whether the token may start with ``*``."""
    pos = start + (omit and text.startswith("*", start))
    end = _ACCIDENTALS.match(text, pos).end()
    accidentals = text[pos:end]
    if _mixed(accidentals):
        return end, ChordSemanticError(f"mixed accidentals: {accidentals!r}", start)
    digits = _DIGITS.match(text, end)
    if digits is None:
        return end, ChordSyntaxError(end, "interval number")
    pos, end = digits.span()
    if _LEADING_ZEROS.sub("", text[start:end]) in _DEGREES:
        return end, None
    number = text[pos:end].lstrip("0") or "0"
    if number not in _DEGREES:  # an unaltered degree's text is its interval number
        shown = number if len(number) <= 40 else number[:37] + "..."
        return end, ChordSemanticError(f"degree out of range 1..13: {shown}", start)
    alteration = -len(accidentals) if accidentals.startswith("b") else len(accidentals)
    return end, ChordSemanticError(f"alteration out of range: {alteration}", start)


# Both converters cache, so a process parses and renders each distinct
# token or chord once.  Bounded, because a note takes any number of
# accidentals, so the tokens have no bound of their own.
@lru_cache(maxsize=2**12)
def parse_chord(text: str) -> Chord:
    """Parse a chord symbol, raising positioned errors on bad input."""
    if text == "N":
        return NO_CHORD
    symbol = _SYMBOL.fullmatch(text)
    if symbol is None:
        raise _error(text)
    note, shorthand, entries, bass = symbol.groups()
    if shorthand is None and entries is None:  # a bare note is a major triad
        shorthand = "maj"
    try:
        root = _NATURALS.get(note) or Natural(note[0], note[1:])
        base = SHORTHAND_DEGREES[shorthand] if shorthand else _ROOT_ONLY
        entries = [_degree(entry) for entry in entries.split(",")] if entries else ()
        bass = _degree(bass) if bass else None
    except (KeyError, ChordSemanticError):
        raise _error(text) from None
    if not entries and (bass is None or bass in base):
        # A chord that adds nothing to its shorthand shares its degree set.
        return Chord(root, base, bass, shorthand)
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
    degrees = base if len(table) == len(base) and not entries else frozenset(table.values())
    return Chord(root, degrees, bass, shorthand)


@lru_cache(maxsize=2**12)
def render_chord(chord: Chord) -> str:
    """Render the canonical symbol: the largest fitting shorthand plus a
    sorted remainder list.  ``parse_chord(render_chord(c)) == c``."""
    if chord.is_nochord:
        return "N"
    shape = _SHAPES.get(chord.degrees)
    if shape is not None:  # exactly a shorthand's degrees, as most chords are
        body = shape[2]
    else:
        best: str | None = None
        for name, expansion in SHORTHAND_DEGREES.items():
            if expansion <= chord.degrees:
                if best is None or len(expansion) > len(SHORTHAND_DEGREES[best]):
                    best = name
        if best is not None:
            rest = sorted(chord.degrees - SHORTHAND_DEGREES[best], key=Degree.sort_key)
            body = best + (f"({','.join(map(str, rest))})" if rest else "")
        elif chord.degrees == _ROOT_ONLY:
            body = "maj(*3,*5)"
        else:
            entries = [] if Degree(1) in chord.degrees else [Degree(1, omit=True)]
            entries += sorted(chord.degrees - _ROOT_ONLY, key=Degree.sort_key)
            body = f"({','.join(map(str, entries))})"
    text = f"{chord.root}:{body}"
    if chord.bass is not None:
        text += f"/{chord.bass}"
    return text


def pitch_class_set(chord: Chord) -> frozenset[int]:
    """Sounding pitch classes of a chord; the bass is reported separately
    by :func:`bass_pitch_class`."""
    if chord.is_nochord:
        raise NoChordError("no-chord has no pitch classes")
    return frozenset(pc for pc in range(12) if chord.mask >> pc & 1)


def bass_pitch_class(chord: Chord) -> int:
    if chord.is_nochord:
        raise NoChordError("no-chord has no bass")
    if chord.bass is None:
        return chord.root_pc
    return (chord.root_pc + chord.bass.semitones) % 12
