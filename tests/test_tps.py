"""Tonal Pitch Space distances.

The reference oracle below recomputes the directed distance from the
written definition (set differences per level) with code that shares
nothing with the implementation; golden values were hand-derived from
the level tables.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmory.harte import NO_CHORD, SHORTHANDS, NoChordError, parse_chord, pitch_class_set
import harmory.memory as memory
import harmory.tps as tps
from harmory.memory import MemoryThresholds, PatternQuery
from harmory.segmentation import SegmentationParams
from harmory.similarity import MEASURES
from harmory.timeline import at_least
from harmory.tps import (
    Key,
    chord_distance,
    fifths_distance,
    key_relative_profiles,
    key_relative_values,
    profile,
)
from tests.conftest import (chords, tonic_triad_distance, transpose_chord, transpose_key,
                            transposed_to_c)

MAJOR = Key.from_string("C:maj")
LEVELS = ("root_level", "fifth_level", "chord_level", "diatonic_level")
sounded_events = st.tuples(chords().filter(lambda chord: not chord.is_nochord),
                           st.builds(Key, st.integers(0, 11), st.sampled_from(["major", "minor"])))


def pitch_classes(mask: int) -> frozenset[int]:
    return frozenset(pc for pc in range(12) if mask >> pc & 1)


def levels(chord, key) -> list[frozenset[int]]:
    """The profile's four level masks as pitch-class sets."""
    space = profile(chord, key)
    return [pitch_classes(getattr(space, name)) for name in LEVELS]


def oracle_fifths(x: int, y: int) -> int:
    best = 99
    for direction in (7, 5):
        pc, steps = x % 12, 0
        while pc != y % 12:
            pc = (pc + direction) % 12
            steps += 1
        best = min(best, steps)
    return best


def oracle_levels(chord, key):
    root = chord.root.pitch_class
    fifth = (root + 7) % 12
    for degree in chord.degrees:
        if degree.interval == 5 and degree.alteration:
            fifth = (root + degree.semitones) % 12
    a = {root}
    b = a | {fifth}
    c = b | set(pitch_class_set(chord))
    d = c | set(key.diatonic())
    return [a, b, c, d]


def oracle_directed(x, kx, y, ky) -> float:
    i = oracle_fifths(kx.tonic, ky.tonic)
    j = oracle_fifths(x.root.pitch_class, y.root.pitch_class)
    k = sum(len(dst - src) for src, dst in zip(oracle_levels(x, kx),
                                               oracle_levels(y, ky)))
    return i + j + k


def oracle_distance(x, kx, y, ky) -> float:
    return (oracle_directed(x, kx, y, ky) + oracle_directed(y, ky, x, kx)) / 2


def test_major_diatonic():
    assert sorted(Key(0, "major").diatonic()) == [0, 2, 4, 5, 7, 9, 11]
    assert sorted(Key(7, "major").diatonic()) == [0, 2, 4, 6, 7, 9, 11]


def test_harmonic_minor_diatonic():
    # A harmonic minor: A B C D E F G#
    assert sorted(Key(9, "minor").diatonic()) == [0, 2, 4, 5, 8, 9, 11]
    assert sorted(Key(0, "minor").diatonic()) == [0, 2, 3, 5, 7, 8, 11]


def test_key_from_string():
    assert Key.from_string("C:maj") == Key(0, "major")
    assert Key.from_string("Eb:min") == Key(3, "minor")
    assert Key.from_string("F#:maj") == Key(6, "major")
    # tonics are pitch classes; rendering uses canonical flat spelling
    assert str(Key.from_string("F#:maj")) == "Gb:maj"
    assert str(Key(3, "minor")) == "Eb:min"


def test_basic_space_tonic():
    space = profile(parse_chord("C:maj"), MAJOR)
    assert (space.tonic, space.root) == (0, 0)
    assert levels(parse_chord("C:maj"), MAJOR) == [
        frozenset({0}), frozenset({0, 7}), frozenset({0, 4, 7}),
        frozenset({0, 2, 4, 5, 7, 9, 11})]


def test_basic_space_dominant():
    space = profile(parse_chord("G:maj"), MAJOR)
    assert (space.tonic, space.root) == (0, 7)
    assert levels(parse_chord("G:maj"), MAJOR) == [
        frozenset({7}), frozenset({7, 2}), frozenset({7, 11, 2}),
        frozenset({0, 2, 4, 5, 7, 9, 11})]


def test_basic_space_altered_fifth():
    assert levels(parse_chord("C:aug"), MAJOR)[1] == frozenset({0, 8})
    assert levels(parse_chord("C:dim"), MAJOR)[1] == frozenset({0, 6})


def test_basic_space_rejects_nochord():
    with pytest.raises(NoChordError):
        profile(NO_CHORD, MAJOR)
    with pytest.raises(NoChordError):
        chord_distance(NO_CHORD, MAJOR, parse_chord("C:maj"), MAJOR)


def test_fifths_distance_examples():
    assert fifths_distance(0, 0) == 0
    assert fifths_distance(0, 7) == 1
    assert fifths_distance(0, 9) == 3


def test_fifths_distance_brute_force():
    for x, y in itertools.product(range(12), repeat=2):
        assert fifths_distance(x, y) == oracle_fifths(x, y)
        assert fifths_distance(x, y) == fifths_distance(y, x)
        assert 0 <= fifths_distance(x, y) <= 6


def test_hand_oracle_values():
    tonic = parse_chord("C:maj")
    assert chord_distance(tonic, MAJOR, tonic, MAJOR) == 0.0
    assert chord_distance(tonic, MAJOR, parse_chord("G:maj"), MAJOR) == 5.0
    assert chord_distance(tonic, MAJOR, parse_chord("A:min"), MAJOR) == 7.0
    assert chord_distance(tonic, MAJOR, parse_chord("F:maj"), MAJOR) == 5.0


def key_relative_value(symbol: str, key: Key) -> float:
    return key_relative_values(key_relative_profiles([(parse_chord(symbol), key)]))[0]


def test_key_relative_values_examples():
    assert key_relative_value("C:maj", MAJOR) == 0.0
    assert key_relative_value("G:maj", MAJOR) == 5.0
    assert key_relative_value("A:min", MAJOR) == 7.0
    minor = Key.from_string("A:min")
    assert key_relative_value("A:min", minor) == 0.0


def assert_values_follow_profiles(chord_list):
    """Under all 24 keys, ``key_relative_values`` gives each event its
    reference value, and equal key-relative profiles never have different
    reference values: the value is a function of the profile alone."""
    events = [(chord, Key(tonic, mode)) for chord in chord_list
              for tonic in range(12) for mode in ("major", "minor")]
    profiles = key_relative_profiles(events)
    expected = [tonic_triad_distance(chord, key) for chord, key in events]
    assert key_relative_values(profiles) == expected
    by_profile = {}
    for p, value in zip(profiles, expected):
        assert by_profile.setdefault(p, value) == value


def test_key_relative_values_of_every_shorthand():
    assert_values_follow_profiles([parse_chord(f"C:{name}") for name in SHORTHANDS])


@given(st.lists(chords(), min_size=1, max_size=4))
@settings(max_examples=100)
def test_key_relative_values_of_random_degree_sets(chord_list):
    assert_values_follow_profiles(chord_list)


@pytest.mark.parametrize("symbol, major, minor, one_profile", [
    # Both scales lie in the diatonic level under C:maj, yet the mode is major.
    ("Ab:maj", 10.0, 8.0, False),
    # Both thirds and both sixths: C:maj and C:min give one profile.
    ("C:(b3,10,b6,13)", 2.5, 2.5, True),
])
def test_key_relative_values_under_c_major_and_c_minor(symbol, major, minor, one_profile):
    events = [(parse_chord(symbol), Key(0, mode)) for mode in ("major", "minor")]
    profiles = key_relative_profiles(events)
    assert (profiles[0] == profiles[1]) is one_profile
    assert key_relative_values(profiles) == [major, minor]
    assert [tonic_triad_distance(*event) for event in events] == [major, minor]


def test_matches_reference_oracle_on_triads():
    symbols = ["C:maj", "C:min", "D:min7", "Eb:7", "F#:dim", "G:7",
               "A:min", "Bb:maj7", "B:hdim7", "C:aug", "E:sus4", "Ab:13"]
    keys = [Key.from_string(k) for k in ("C:maj", "A:min", "Eb:maj", "F#:min")]
    for sa, sb in itertools.product(symbols, repeat=2):
        for ka, kb in itertools.product(keys, repeat=2):
            a, b = parse_chord(sa), parse_chord(sb)
            assert chord_distance(a, ka, b, kb) == oracle_distance(a, ka, b, kb)


@given(chords(), chords(),
       st.integers(0, 11), st.sampled_from(["major", "minor"]),
       st.integers(0, 11), st.sampled_from(["major", "minor"]))
@settings(max_examples=200)
def test_symmetry_and_bounds(a, b, ta, ma, tb, mb):
    ka, kb = Key(ta, ma), Key(tb, mb)
    d = chord_distance(a, ka, b, kb)
    assert d == chord_distance(b, kb, a, ka)
    assert 0 <= d <= 60
    assert d == oracle_distance(a, ka, b, kb)


@given(chords(), chords(), st.integers(0, 11), st.integers(1, 11))
@settings(max_examples=200)
def test_transposition_invariance(a, b, tonic, shift):
    ka, kb = Key(tonic, "major"), Key((tonic + 5) % 12, "minor")
    base = chord_distance(a, ka, b, kb)
    moved = chord_distance(transpose_chord(a, shift), transpose_key(ka, shift),
                           transpose_chord(b, shift), transpose_key(kb, shift))
    assert moved == base


def test_zero_iff_identical_space():
    a = parse_chord("C:maj")
    assert chord_distance(a, MAJOR, parse_chord("C:(3,5)"), MAJOR) == 0.0
    assert chord_distance(a, MAJOR, a, Key(0, "minor")) > 0
    assert chord_distance(a, MAJOR, parse_chord("C:min"), MAJOR) > 0


def test_weight_nesting():
    space = levels(parse_chord("C:maj"), MAJOR)
    for small, big in zip(space, space[1:]):
        assert small <= big

    def weight(pc):  # levels holding the pitch class, the chromatic one included
        return 1 + sum(pc in level for level in space)

    assert weight(0) == 5
    assert weight(7) == 4
    assert weight(4) == 3
    assert weight(2) == 2
    assert weight(1) == 1


@given(sounded_events)
@settings(max_examples=200)
def test_profile_levels_match_oracle_levels(event):
    chord, key = event
    assert levels(chord, key) == oracle_levels(chord, key)
    assert profile(chord, key)[:2] == (key.tonic, chord.root.pitch_class)


def test_every_tps_cache_is_bounded():
    # Natural accepts any number of accidentals, so only a fixed bound
    # keeps a cache of a long-running process finite.
    caches = [value for value in vars(tps).values() if hasattr(value, "cache_parameters")]
    assert caches
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None


def unbounded_caches(source: str) -> list[str]:
    """Each ``functools.cache``, each ``cache`` name (an import, a
    decorator or a per-call ``cache(...)`` wrapper), and each ``lru_cache``
    not called with an integer ``maxsize`` built from literals alone."""
    tree = ast.parse(source)
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def integer(node) -> bool:
        if node is None or not all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp,
                                                  ast.operator, ast.unaryop))
                                   for n in ast.walk(node)):
            return False
        value = eval(compile(ast.Expression(node), "<maxsize>", "eval"), {"__builtins__": {}})
        return type(value) is int

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"line {node.lineno}: imports cache"
                      for alias in node.names if alias.name == "cache"]
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name == "cache":
            found.append(f"line {node.lineno}: cache")
        elif name == "lru_cache":
            call = called.get(id(node))
            maxsize = None if call is None else next(
                (k.value for k in call.keywords if k.arg == "maxsize"),
                call.args[0] if call.args else None)
            if not integer(maxsize):
                found.append(f"line {node.lineno}: lru_cache without an integer maxsize")
    return found


SOURCES = sorted((Path(__file__).parents[1] / "src" / "harmory").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_cache_in_the_package_is_bounded(path):
    # As above, for every module: a cache of a long-running process stays
    # finite only under a fixed bound.
    assert unbounded_caches(path.read_text()) == []


def test_the_cache_check_finds_each_unbounded_form():
    for source in ["import functools\nf = functools.cache(g)",
                   "from functools import cache", "parse = cache(parse_chord)",
                   "@cache\ndef f(): pass", "@lru_cache\ndef f(): pass",
                   "@lru_cache()\ndef f(): pass", "@lru_cache(maxsize=None)\ndef f(): pass",
                   "@lru_cache(None)\ndef f(): pass", "@functools.lru_cache(n)\ndef f(): pass",
                   "@lru_cache(maxsize=2.0 ** 12)\ndef f(): pass"]:
        assert unbounded_caches(source), source
    for source in ["@lru_cache(maxsize=2**12)\ndef f(): pass",
                   "@functools.lru_cache(128)\ndef f(): pass",
                   "@lru_cache(maxsize=1 << 10, typed=True)\ndef f(): pass"]:
        assert unbounded_caches(source) == [], source
    assert len(SOURCES) > 5


def second_writers(source: str) -> list[str]:
    """Each way of writing a file outside ``write_atomic``: an import of
    ``tempfile``, ``open`` or ``.open`` with a mode that writes or is not
    a literal, ``os.open``, ``os.fdopen``, and ``.write_text``/``.write_bytes``."""
    tree = ast.parse(source)
    exempt = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name == "write_atomic"
              for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import) and any(a.name == "tempfile" for a in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            found.append(f"line {node.lineno}: imports tempfile")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        owner = func.value.id if isinstance(func, ast.Attribute) \
            and isinstance(func.value, ast.Name) else None
        if name in ("write_text", "write_bytes") or owner == "os" and name in ("open", "fdopen"):
            found.append(f"line {node.lineno}: {name}")
        elif name == "open":
            # open(file, mode) and io.open(file, mode); Path(...).open(mode).
            at = 1 if isinstance(func, ast.Name) or owner == "io" else 0
            mode = {k.arg: k.value for k in node.keywords}.get(
                "mode", node.args[at] if len(node.args) > at else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+")):
                found.append(f"line {node.lineno}: open for writing")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_file_goes_through_the_one_writer(path):
    # One writer keeps every output atomic, in one encoding and with one
    # file mode.
    assert second_writers(path.read_text()) == []


def test_the_writer_check_finds_each_second_writer():
    for source in ["import tempfile", "import os, tempfile", "from tempfile import mkstemp",
                   "open(p, 'w')", "open(p, mode='a')", "open(p, 'r+b')", "open(p, 'xb')",
                   "open(p, mode)", "io.open(p, 'w')", "Path(p).open('w')",
                   "p.open(mode='wb')", "p.write_text(s)", "Path(p).write_bytes(b)",
                   "os.fdopen(fd, 'w')", "fd = os.open(p, os.O_WRONLY)",
                   "def write(p):\n    os.open(p, 0)"]:
        assert second_writers(source), source
    for source in ["open(p)", "open(p, 'rb')", "open(p, mode='r')", "io.open(p, 'rb')",
                   "Path(p).open()", "p.open('r')", "p.read_text()", "os.read(fd, 1)",
                   "def write_atomic(path, data):\n    fd = os.open(path, 0)\n"
                   "    os.fdopen(fd, 'w')"]:
        assert second_writers(source) == [], source


# Plain frozen dataclasses kept because ``asdict`` writes them as JSON
# objects; as NamedTuples they would be written as arrays.
SERIALIZED_RECORDS = {"QueryResult", "LocalRegion"}


def plain_records(source: str) -> list[str]:
    """Each frozen dataclass that uses nothing a ``NamedTuple`` lacks: no
    method or property, no ``__post_init__`` (defined or assigned), and no
    ``field()`` with ``metadata`` or ``init=False``; ``SERIALIZED_RECORDS`` aside."""
    def frozen_dataclass(node) -> bool:
        return isinstance(node, ast.Call) and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in node.keywords) and (getattr(node.func, "id", None) == "dataclass"
                                         or getattr(node.func, "attr", None) == "dataclass")

    def machinery(statement) -> bool:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return True
        if isinstance(statement, ast.Assign):
            return any(isinstance(n, ast.Name) and n.id == "__post_init__"
                       for target in statement.targets for n in ast.walk(target))
        value = statement.value if isinstance(statement, ast.AnnAssign) else None
        return isinstance(value, ast.Call) and any(
            k.arg == "metadata" or k.arg == "init" and isinstance(k.value, ast.Constant)
            and k.value.value is False for k in value.keywords)

    return [f"line {node.lineno}: {node.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(frozen_dataclass, node.decorator_list))
            and node.name not in SERIALIZED_RECORDS and not any(map(machinery, node.body))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_frozen_dataclass_in_the_package_needs_its_machinery(path):
    # A value of fields alone is a NamedTuple, as tps.Profile is: it
    # generates no __init__, __eq__, __hash__, __repr__ or __setattr__ code.
    assert plain_records(path.read_text()) == []


def test_the_records_check_finds_each_plain_dataclass():
    plain = "@dataclass(frozen=True)\nclass A:\n"
    for source in [plain + "    x: int", plain + '    """Doc."""\n    x: int = 1',
                   plain + "    x: int = field(default=1, compare=False)",
                   "@dataclasses.dataclass(frozen=True)\nclass A:\n    x: tuple = ()",
                   "@dataclass(eq=True, frozen=True)\nclass A:\n    x: int\n    y: str"]:
        assert plain_records(source) == ["line 2: A"], source
    for source in [plain + "    x: int\n    def f(self): pass",
                   plain + "    x: int\n    @property\n    def y(self): return 1",
                   plain + "    x: int\n    def __post_init__(self): pass",
                   plain + "    x: int\n    __post_init__ = check",
                   plain + "    x: int\n    f, __post_init__ = g, check",
                   plain + "    x: int = field(default=1, metadata={'range': R})",
                   plain + "    x: int = field(init=False)",
                   "@dataclass\nclass A:\n    x: int", "class A(NamedTuple):\n    x: int",
                   "@dataclass(frozen=True)\nclass QueryResult:\n    x: int"]:
        assert plain_records(source) == [], source


# The methods of a dict, list or set that change it.
MUTATORS = {"setdefault", "update", "append", "add", "extend", "insert", "pop", "popitem",
            "remove", "discard", "clear"}


def module_state_writes(source: str) -> list[str]:
    """Each store or ``del`` into a module-level dict, list or set, and
    each call of one of its ``MUTATORS``, made inside a function that does
    not bind the name itself (as a parameter or a local)."""
    tree = ast.parse(source)
    containers = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                        ast.SetComp))
                or isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("dict", "list", "set", "defaultdict")):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        arguments = function.args
        bound = {a.arg for a in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                                 arguments.vararg, arguments.kwarg) if a is not None}
        bound |= {n.id for n in ast.walk(function)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        bound -= {name for n in ast.walk(function) if isinstance(n, ast.Global) for name in n.names}
        shared = containers - bound
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and isinstance(node.value, ast.Name) and node.value.id in shared:
                found.append(f"line {node.lineno}: stores into {node.value.id}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in shared:
                found.append(f"line {node.lineno}: {node.func.value.id}.{node.func.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_in_the_package_writes_module_state(path):
    # Module-level tables are built at import and only read after, so a
    # long-running process neither grows them nor sees one call change the next.
    assert module_state_writes(path.read_text()) == []


def test_the_module_state_check_finds_each_write():
    for source in ["T = {}\ndef f(k): T[k] = 1", "T = []\ndef f(x): T.append(x)",
                   "T = set()\ndef f(x): T.add(x)", "T: dict = {}\ndef f(): T.update(a=1)",
                   "T = {}\ndef f(): T.setdefault(1, 2)", "T = [1]\ndef f(): T.extend([2])",
                   "T = {k: 0 for k in 'ab'}\ndef f(): T['a'] += 1",
                   "T = dict()\nclass C:\n    def m(self): del T[1]",
                   "T = {}\ndef f():\n    def g(): T[1] = 2", "T = {}\ng = lambda: T.clear()",
                   "T = {}\ndef f():\n    global T\n    T[1] = 2"]:
        assert module_state_writes(source), source
    for source in ["T = {}\ndef f(): return T[1]", "T = {}\nT[1] = 2\nT.update(a=1)",
                   "def f(vocab): vocab.setdefault(1, 2)", "T = {}\ndef f(T): T[1] = 2",
                   "T = {}\ndef f():\n    T = {}\n    T[1] = 2", "T = ()\ndef f(): T.count(1)",
                   "T = {}\ndef f(x): x.__dict__.update(a=T[1])",
                   "T = {}\ndef f(): return [y for y in T.values()]"]:
        assert module_state_writes(source) == [], source


# The one function in each module that may build a Fraction: the loader's
# time conversion, and the synthetic corpus, whose Fraction times criterion
# 5's tpsd/dtw timing was measured on.
FRACTION_BUILDERS = {"timeline.py": "_to_fraction", "evaluation.py": "synthetic_corpus"}


def fraction_calls(source: str, builder: str | None = None) -> list[str]:
    """Each call of ``Fraction``, ``fractions.Fraction`` or a ``Fraction``
    method, and each import of ``Fraction`` under another name, outside
    the function named ``builder``."""
    def named(node) -> str | None:
        return node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None

    tree = ast.parse(source)
    exempt = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name == builder
              for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found += [f"line {node.lineno}: imports Fraction as {alias.asname}"
                      for alias in node.names
                      if alias.name == "Fraction" and alias.asname not in (None, "Fraction")]
        elif isinstance(node, ast.Call) and id(node) not in exempt and (
                named(node.func) == "Fraction" or isinstance(node.func, ast.Attribute)
                and named(node.func.value) == "Fraction"):
            found.append(f"line {node.lineno}: calls {ast.unparse(node.func)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_whole_times_stay_int_past_the_loader(path):
    # A whole beat loads as an int, and int and Fraction times compare and
    # add exactly, so no later step converts a time to a Fraction.
    assert fraction_calls(path.read_text(), FRACTION_BUILDERS.get(path.name)) == []


def test_the_fraction_check_finds_each_call():
    for source in ["Fraction(1)", "x = fractions.Fraction(1, 2)", "Fraction.from_float(0.5)",
                   "from fractions import Fraction as F", "def f(d):\n    return Fraction(d)",
                   "def _to_fraction(v): pass\none = Fraction(1)",
                   "def g():\n    def _to_fraction(v): pass\n    return Fraction(1)"]:
        assert fraction_calls(source, "_to_fraction"), source
    for source in ["from fractions import Fraction", "w: int | Fraction = 1",
                   "isinstance(w, Fraction)", "d = w.denominator",
                   "def _to_fraction(v):\n    return Fraction(str(v))",
                   "def _to_fraction(v):\n    def f(): return Fraction(v)\n    return f()"]:
        assert fraction_calls(source, "_to_fraction") == [], source


def table_reads(source: str) -> list[str]:
    """Each read of ``_FIFTHS`` or ``_POPCOUNT`` outside ``distance_terms``
    and outside the ``np.frombuffer`` views that ``distance_table`` passes
    to it, so that one function states Lerdahl's distance."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    allowed = {id(node) for function in functions if function.name == "distance_terms"
               for node in ast.walk(function)}
    allowed |= {id(node) for function in functions if function.name == "distance_table"
                for call in ast.walk(function) if isinstance(call, ast.Call)
                and ast.unparse(call.func) == "np.frombuffer" for node in ast.walk(call)}
    return [f"line {node.lineno}: {node.id}" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("_FIFTHS", "_POPCOUNT")
            and isinstance(node.ctx, ast.Load) and id(node) not in allowed]


def rounding_calls(source: str, name: str) -> list[str]:
    """Each ``round`` call inside the function ``name``."""
    return [f"line {node.lineno}: {ast.unparse(node)}" for function in ast.walk(ast.parse(source))
            if isinstance(function, ast.FunctionDef) and function.name == name
            for node in ast.walk(function) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "round"]


def test_the_distance_and_the_weights_are_stated_once():
    # The two byte tables are read only by distance_terms, which both
    # profile_distance and distance_table evaluate; a built graph holds each
    # weight as both exports write it, so export_json rounds nothing.
    assert table_reads(Path(tps.__file__).read_text()) == []
    assert rounding_calls(Path(memory.__file__).read_text(), "export_json") == []


def test_the_design_checks_find_each_restatement():
    for source in ["def profile_distance(p, q):\n    return _FIFTHS[12 * p.tonic + q.tonic]",
                   "def distance_table(a, b):\n    f = np.frombuffer(_FIFTHS)[_POPCOUNT[0]]",
                   "def distance_table(a, b):\n    return np.asarray(_POPCOUNT)",
                   "FIFTHS_VIEW = np.frombuffer(_FIFTHS, np.uint8)"]:
        assert table_reads(source), source
    for source in ["_FIFTHS = bytes(range(144))", "def distance_terms(p, q, f=_FIFTHS): pass",
                   "def distance_table(a, b):\n    v = np.frombuffer(_POPCOUNT, np.uint8)"]:
        assert table_reads(source) == [], source
    assert rounding_calls("def export_json(g):\n    return [round(w, 6) for w in g]",
                          "export_json")
    assert rounding_calls("def build(g):\n    return round(g, 6)", "export_json") == []


def fields_without_range(fields) -> list[str]:
    """The names of the dataclass ``fields`` whose metadata declares no ``range``."""
    return [f.name for f in fields if "range" not in f.metadata]


# Every parameter field: each that a flag sets, and PatternQuery's k.
PARAMETER_FIELDS = [f for cls in (SegmentationParams, MemoryThresholds, *MEASURES.values())
                    for f in dataclasses.fields(cls)] + [
    f for f in dataclasses.fields(PatternQuery) if f.name == "k"]

# The fields bounded by another field, each checked by a written rule instead.
TIED_FIELDS = ["n_max", "theta_merge"]


def test_every_parameter_field_declares_its_range():
    # One range per field, beside its default, read by check_ranges alone.
    assert sorted(fields_without_range(PARAMETER_FIELDS)) == TIED_FIELDS
    for f in PARAMETER_FIELDS:
        if f.name not in TIED_FIELDS:
            text, test = f.metadata["range"]
            assert isinstance(text, str) and callable(test), f.name


def test_the_range_guard_finds_a_field_without_a_range():
    @dataclasses.dataclass(frozen=True)
    class Knobs:
        ranged: int = dataclasses.field(default=1, metadata={"range": at_least(1)})
        bare: float = 0.5

    assert fields_without_range(dataclasses.fields(Knobs)) == ["bare"]


def test_a_key_hashes_as_the_dataclass_hash_of_its_compared_fields():
    # Stored when the key is built, so a profile cache hit runs no Python __hash__;
    # equal to the dataclass hash, so every set and dict of keys iterates as it did.
    for tonic in range(12):
        for mode in ("major", "minor"):
            key = Key(tonic, mode)
            assert hash(key) == key._hash == hash((tonic, mode)) == hash(Key(tonic, mode))
            assert repr(key) == f"Key(tonic={tonic}, mode={mode!r})"


def test_basic_space_cache_is_bounded():
    # Each event's basic space is kept as its Profile of level masks.
    assert tps.profile.cache_parameters()["maxsize"] is not None


def test_directed_cache_is_bounded():
    # Both directions of a distance are costed from the cached profiles,
    # so costing more distinct events than the bound keeps it.
    maxsize = tps.profile.cache_parameters()["maxsize"]
    keys = [Key(tonic, mode) for tonic in range(12) for mode in ("major", "minor")]
    spelled = [parse_chord("C" + "#" * n + ":maj") for n in range(maxsize // len(keys) + 2)]
    for chord in spelled:
        for key in keys:
            assert chord_distance(chord, key, chord, MAJOR) >= 0
    assert len(spelled) * len(keys) > maxsize
    assert tps.profile.cache_info().currsize <= maxsize


def test_distance_table_indexes_interned_profiles():
    events = [(parse_chord(s), Key.from_string(k)) for s, k in
              [("C:maj", "C:maj"), ("G:7", "C:maj"), ("C:maj", "C:maj"), ("C:maj", "A:min")]]
    vocab_a, vocab_b = {}, {}
    codes_a = tps.intern([profile(*event) for event in events], vocab_a)
    codes_b = tps.intern([profile(*event) for event in events[::-1]], vocab_b)
    assert codes_a == [0, 1, 0, 2]
    assert codes_b == [0, 1, 2, 1]
    table = tps.distance_table(vocab_a, vocab_b)
    for (x, kx), i in zip(events, codes_a):
        for (y, ky), j in zip(events[::-1], codes_b):
            assert table[i][j] == chord_distance(x, kx, y, ky)


@given(st.lists(sounded_events, min_size=1, max_size=12),
       st.lists(sounded_events, min_size=1, max_size=12))
@settings(max_examples=200)
def test_distance_table_equals_scalar_and_oracle_distances(events_a, events_b):
    sides = []
    for events in (events_a, events_b):
        vocab = {}
        sides.append((events, tps.intern([profile(*event) for event in events], vocab), vocab))
    a, b = sides
    for (rows, row_codes, row_vocab), (cols, col_codes, col_vocab) in ((a, a), (a, b), (b, a)):
        table = tps.distance_table(row_vocab, col_vocab)
        assert len(table) == len(row_vocab)
        assert all(len(row) == len(col_vocab) for row in table)
        for (x, kx), i in zip(rows, row_codes):
            for (y, ky), j in zip(cols, col_codes):
                assert type(table[i][j]) is float
                assert table[i][j] == chord_distance(x, kx, y, ky) == oracle_distance(x, kx, y, ky)


@given(st.lists(sounded_events, min_size=2, max_size=6))
@settings(max_examples=200)
def test_the_six_terms_are_the_distance(events):
    """Lerdahl's distance is the six terms of ``distance_terms``: doubled
    ints that sum to twice ``chord_distance`` and to twice the table's cell,
    that no swap of the pair or transposition of both events changes, and
    whose tonic term is 0 between key-relative profiles."""
    vocab: dict = {}
    codes = tps.intern([profile(*event) for event in events], vocab)
    table = tps.distance_table(vocab, vocab)
    relative = key_relative_profiles(events)
    for (x, i, rx), (y, j, ry) in itertools.combinations(zip(events, codes, relative), 2):
        p, q = profile(*x), profile(*y)
        terms = tps.distance_terms(p, q)
        assert len(terms) == 6 and all(type(term) is int for term in terms)
        assert sum(terms) / 2 == chord_distance(*x, *y) == table[i][j]
        assert tps.distance_terms(q, p) == terms
        for shift in range(12):
            moved = [profile(transpose_chord(chord, shift), transpose_key(key, shift))
                     for chord, key in (x, y)]
            assert tps.distance_terms(*moved) == terms
        assert tps.distance_terms(rx, ry)[0] == 0


def test_the_terms_of_named_pairs():
    # C:maj to G:maj in C major: one fifth between the roots, and levels that
    # differ in 2, 2, 4 and 0 pitch classes; C:maj from C major to G major:
    # one fifth between the tonics, and F against F# on the diatonic level.
    c, g = (profile(parse_chord(symbol), MAJOR) for symbol in ("C:maj", "G:maj"))
    assert tps.distance_terms(c, g) == (0, 2, 2, 2, 4, 0)
    assert tps.distance_terms(c, profile(parse_chord("C:maj"), Key(7, "major"))) == \
        (2, 0, 0, 0, 0, 2)


def test_distance_table_calls_neither_profile_nor_chord_distance(monkeypatch):
    profiled, scalar = [], []

    def counting_profile(*args):
        profiled.append(args)
        return profile(*args)

    def counting_distance(*args):
        scalar.append(args)
        return chord_distance(*args)

    events = [(parse_chord(s), Key.from_string(k)) for s, k in
              [("C:maj", "C:maj"), ("G:7", "C:maj"), ("A:min", "A:min"), ("F:maj", "C:maj"),
               ("C:maj", "C:maj"), ("G:7", "C:maj")]]
    others = [(parse_chord("Db:min"), Key.from_string("E:maj"))] + events[:2]
    vocab, other = {}, {}
    codes = tps.intern([profile(*event) for event in events], vocab)
    other_codes = tps.intern([profile(*event) for event in others], other)
    assert (len(vocab), len(other)) == (4, 3)
    monkeypatch.setattr(tps, "profile", counting_profile)
    monkeypatch.setattr(tps, "chord_distance", counting_distance)
    square = tps.distance_table(vocab, vocab)
    rectangle = tps.distance_table(vocab, other)
    assert profiled == [] and scalar == []
    for (x, kx), i in zip(events, codes):
        for (y, ky), j in zip(events, codes):
            assert square[i][j] == chord_distance(x, kx, y, ky)
        for (y, ky), j in zip(others, other_codes):
            assert rectangle[i][j] == chord_distance(x, kx, y, ky)


def test_key_relative_profiles_reject_nochord():
    # A no-chord has no profile, so no vocabulary can hold one.
    with pytest.raises(NoChordError):
        tps.key_relative_profiles([(parse_chord("G:7"), MAJOR), (NO_CHORD, MAJOR)])


@given(st.lists(chords(), min_size=1, max_size=4))
@example([parse_chord(s) for s in ("Cbb:min7/b3", "B##:maj/5", "F#:(3,b7)", "Ebb:sus4(b7)/4",
                                   "Db:dim7/bb7", "E:min(*5)")])
@settings(max_examples=100)
def test_key_relative_profiles_equal_the_profiles_of_the_chords_moved_to_c(chord_list):
    # Every tonic and both modes, for chords with multi-accidental roots,
    # inversions and altered or missing fifths.
    events = [(chord, Key(tonic, mode)) for chord in chord_list
              for tonic in range(12) for mode in ("major", "minor")]
    expected = [profile(chord, key) for chord, key in transposed_to_c(events)]
    assert tps.key_relative_profiles(events) == expected
    assert tps.key_relative_profiles(iter(events)) == expected
