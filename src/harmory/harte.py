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
            intervals = [d.interval for d in self.degrees]
            if len(set(intervals)) != len(intervals):
                raise ChordSemanticError("duplicate interval numbers in degree set")
            if any(d.omit for d in self.degrees):
                raise ChordSemanticError("degree set may not contain omit markers")
            if self.bass is not None and self.bass.omit:
                raise ChordSemanticError("bass degree may not carry an omit marker")
            root, mask, fifth = self.root.pitch_class, 0, 7
            for degree in self.degrees:
                semitones = degree.semitones
                mask |= 1 << (root + semitones) % 12
                if degree.interval == 5:
                    fifth = semitones
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


# The grammar's digits; str.isdigit also takes other scripts' and superscripts.
_DIGITS = frozenset("0123456789")


class _Parser:
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
        return _assemble(root, shorthand, entries, bass)

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
        while self.peek() in _DIGITS:
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


SHORTHAND_DEGREES: dict[str, frozenset[Degree]] = {
    name: frozenset(_Parser(f"({expansion})").parse_degree_list())
    for name, expansion in SHORTHANDS.items()
}


def _assemble(root: Natural, shorthand: str | None, entries: list[Degree],
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


# Both converters cache, so a process parses and renders each distinct
# token or chord once.  Bounded, because a note takes any number of
# accidentals, so the tokens have no bound of their own.
@lru_cache(maxsize=2**12)
def parse_chord(text: str) -> Chord:
    """Parse a chord symbol, raising positioned errors on bad input."""
    return _Parser(text).parse()


@lru_cache(maxsize=2**12)
def render_chord(chord: Chord) -> str:
    """Render the canonical symbol: the largest fitting shorthand plus a
    sorted remainder list.  ``parse_chord(render_chord(c)) == c``."""
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
