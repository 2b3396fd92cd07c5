"""Similarity measures: warping, profile distance, pattern coverage.

Oracles: oracle_enumerate walks every monotone warping path (no dynamic
programming, no pruning); oracle_dtw fills the warping recurrence cell by
cell, testing every neighbour of every cell; oracle_tpsd_raw recomputes
the cyclic-shift minimum with numpy and oracle_tpsd_shifts with a Python
loop over the shifts; oracle_windows re-derives pattern n-grams with a
plain dictionary.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import exp, inf
from operator import sub

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmory.similarity as similarity
from harmory.harte import parse_chord
from harmory.similarity import (
    MEASURES,
    Alignment,
    Warps,
    _Dtw,
    _Lharp,
    _Tpsd,
    _backtrack,
    _dtw,
    compare_pieces,
    corpus_similarity_matrix,
    dtw_align,
    extract_recurrent_patterns,
    key_relative_events,
    lharp,
    matrix_to_csv,
    tpsd,
)
from harmory.timeline import (ChordEvent, EmptyTimelineError, KeySpan, Timeline,
                              build_timeline, encode_tps)
from harmory.tps import Key, chord_distance, distance_table, fifths_distance, intern, profile
from tests.conftest import (chords, cover_corpus, exhaustive_lharp, make_timeline,
                            tonic_triad_distance, transpose, transposed_to_c)

tps_keys = st.builds(Key, st.integers(0, 11), st.sampled_from(["major", "minor"]))

POOL = ["C:maj", "G:maj", "A:min", "F:maj", "D:min7", "E:7", "Bb:maj7", "C:7"]
KEYS = ["C:maj", "G:maj", "A:min", "Eb:maj"]


def random_pair(rng):
    a = make_timeline([rng.choice(POOL) for _ in range(rng.randint(1, 6))],
                      key=rng.choice(KEYS), piece_id="a")
    b = make_timeline([rng.choice(POOL) for _ in range(rng.randint(1, 6))],
                      key=rng.choice(KEYS), piece_id="b")
    return a, b


def cell_matrix(a, b):
    ea, eb = transposed_to_c(a.sounded()), transposed_to_c(b.sounded())
    return [[chord_distance(x[0], x[1], y[0], y[1]) for y in eb] for x in ea]


def oracle_enumerate(cells):
    """Minimum path cost over an exhaustive walk of all monotone paths."""
    n, m = len(cells), len(cells[0])
    best = [inf]

    def walk(i, j, acc):
        acc += cells[i][j]
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def oracle_tpsd_raw(a, b):
    ga = np.array([v for v, _ in encode_tps(a, "beat").values])
    gb = np.array([v for v, _ in encode_tps(b, "beat").values])
    short, long_ = (ga, gb) if len(ga) <= len(gb) else (gb, ga)
    return min(
        float(np.abs(long_ - np.resize(np.roll(short, -s), len(long_))).mean())
        for s in range(len(short)))


def oracle_tpsd_shifts(va, vb):
    """The least summed absolute difference over the cyclic shifts of the
    shorter series, one shift at a time in Python."""
    short, long_ = (va, vb) if len(va) <= len(vb) else (vb, va)
    length = len(long_)
    # Shift s pairs long_[t] with short[(t + s) % len(short)].
    tiled = short * (length // len(short) + 2)
    return min(sum(map(abs, map(sub, long_, tiled[shift:shift + length])))
               for shift in range(len(short)))


def oracle_dtw(ca, cb, band=None, *, table):
    """The warping recurrence cell by cell: every cell of the band takes
    its cost plus the cheapest of its diagonal, upper and left neighbours."""
    n, m = len(ca), len(cb)
    width = None if band is None else max(band, abs(n - m))
    acc = [[inf] * m for _ in range(n)]
    for i in range(n):
        row = acc[i]
        above = acc[i - 1] if i else None
        costs = table[ca[i]]
        for j in range(m):
            if width is not None and abs(i - j) > width:
                continue
            c = costs[cb[j]]
            if i == 0 and j == 0:
                row[j] = c
                continue
            best = inf
            if i and j and above[j - 1] < best:
                best = above[j - 1]
            if i and above[j] < best:
                best = above[j]
            if j and row[j - 1] < best:
                best = row[j - 1]
            row[j] = c + best
    path, tied = _backtrack(acc, n, m, up_first=True)
    if tied:
        path = min(path, _backtrack(acc, n, m, up_first=False)[0], key=len)
    total = acc[n - 1][m - 1]
    return Alignment(path=tuple(path), cost=total, normalized_cost=total / len(path))


def oracle_windows(timeline, n):
    events = transposed_to_c(timeline.sounded())
    values = [tonic_triad_distance(c, k) for c, k in events]
    roots = [c.root.pitch_class for c, _ in events]
    windows: dict[tuple, list[int]] = {}
    for start in range(len(events) - n + 1):
        enc = []
        for k in range(n):
            step = fifths_distance(roots[start + k], roots[start + k + 1]) \
                if k < n - 1 else 0
            enc.append((values[start + k], step))
        windows.setdefault(tuple(enc), []).append(start)
    return {key: tuple(pos) for key, pos in windows.items() if len(pos) >= 2}


def test_dtw_identical_pieces():
    tl = make_timeline(["C:maj", "F:maj", "G:maj", "C:maj"])
    report = compare_pieces(_Dtw(), tl, tl)
    assert report.score == 1.0
    assert report.raw == 0.0
    alignment = dtw_align(tl, tl)
    assert alignment.path == ((0, 0), (1, 1), (2, 2), (3, 3))


def test_dtw_single_cell():
    a = make_timeline(["C:maj"])
    b = make_timeline(["G:maj"])
    alignment = dtw_align(a, b)
    assert alignment.cost == 5.0
    assert alignment.normalized_cost == 5.0
    assert compare_pieces(_Dtw(), a, b).score == exp(-1.0)


def test_dtw_matches_brute_force_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        a, b = random_pair(rng)
        cells = cell_matrix(a, b)
        alignment = dtw_align(a, b)
        assert alignment.cost == pytest.approx(oracle_enumerate(cells), abs=1e-9)


def test_dtw_path_is_valid_and_cost_consistent():
    rng = random.Random(12)
    for _ in range(40):
        a, b = random_pair(rng)
        cells = cell_matrix(a, b)
        alignment = dtw_align(a, b)
        path = alignment.path
        assert path[0] == (0, 0)
        assert path[-1] == (len(cells) - 1, len(cells[0]) - 1)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}
        assert alignment.cost == pytest.approx(
            sum(cells[i][j] for i, j in path), abs=1e-9)
        assert alignment.normalized_cost == pytest.approx(
            alignment.cost / len(path), abs=1e-12)


@given(events=st.lists(st.tuples(chords(), tps_keys), min_size=1, max_size=6), data=st.data(),
       cells=st.sampled_from([1, 7, 1 << 14]))
@settings(max_examples=150, deadline=None)
def test_dtw_lower_bound_never_exceeds_the_warped_cost(events, data, cells):
    """The one block bounds every registered pair, whatever the block's
    row size; an entry depends on its own pair alone, in either order."""
    vocab = {}
    intern([profile(*event) for event in events], vocab)
    table = distance_table(vocab, vocab)
    codes = st.lists(st.integers(0, len(vocab) - 1), min_size=1, max_size=7)
    rows = data.draw(st.lists(codes, min_size=0, max_size=4))
    columns = data.draw(st.lists(codes, min_size=0, max_size=5))
    shared = Warps()
    shared.vocab = vocab
    for seq in rows + columns:
        shared.register(seq)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "BLOCK_CELLS", cells)
        bounds = shared.bounds()
    assert bounds.shape == (len(shared.sequences),) * 2
    for a in rows:
        for b in columns:
            cost = _dtw(a, b, table=table).normalized_cost
            i, j = shared.register(a), shared.register(b)
            assert bounds[i, j] <= cost
            # An entry depends on its own pair alone, in either order: not on
            # the other sequences registered, nor on the width they pad to.
            assert bounds[i, j] == bounds[j, i]
            for first, second in ((a, b), (b, a)):
                alone = Warps()
                alone.vocab = vocab
                x, y = alone.register(first), alone.register(second)
                assert bounds[i, j] == alone.bounds()[x, y] == alone.bounds()[y, x]
            if len(a) == len(b) == 1:  # one cell: the bound is the cost
                assert bounds[i, j] == cost


def test_dtw_equals_the_cell_by_cell_recurrence():
    """Paths, costs and normalized costs are bit-identical for every band,
    also where the band is narrower than the length difference or binds
    on only some rows.  The table's few distinct costs make many ties
    for the traceback."""
    rng = random.Random(17)
    table = [[rng.randint(0, 4) / 2 for _ in range(6)] for _ in range(6)]
    lengths = [(1, 1), (1, 40), (40, 1), (40, 40), (2, 9), (9, 2)]
    lengths += [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(150)]
    for n, m in lengths:
        ca = [rng.randrange(6) for _ in range(n)]
        cb = [rng.randrange(6) for _ in range(m)]
        for band in (None, 0, 1, 2, 3, 9, 25):
            assert _dtw(ca, cb, band, table=table) == oracle_dtw(ca, cb, band, table=table)


def test_dtw_band_equals_unbanded_when_wide():
    rng = random.Random(13)
    for _ in range(20):
        a, b = random_pair(rng)
        wide = dtw_align(a, b, band=10)
        assert wide.cost == dtw_align(a, b).cost


def test_dtw_band_never_below_length_difference():
    a = make_timeline(["C:maj"] * 6)
    b = make_timeline(["C:maj"] * 2)
    assert dtw_align(a, b, band=0).cost == 0.0


def test_dtw_rejects_empty():
    from harmory.timeline import ChordEvent

    a = make_timeline(["C:maj"])
    nc = Timeline(id="nc",
                  events=(ChordEvent(Fraction(0), Fraction(1), parse_chord("N")),),
                  keys=a.keys)
    with pytest.raises(EmptyTimelineError):
        dtw_align(a, nc)


def test_tpsd_identical():
    tl = make_timeline(["C:maj", "G:maj", "A:min", "F:maj"], beat=2)
    report = tpsd(tl, tl)
    assert report.raw == 0.0
    assert report.score == 1.0


def test_tpsd_constant_difference():
    a = make_timeline(["C:maj", "C:maj"])
    b = make_timeline(["G:maj", "G:maj"])
    assert tpsd(a, b).raw == 5.0
    assert tpsd(a, b).score == exp(-1.0)


def test_tpsd_cyclic_shift_alignment():
    a = make_timeline(["C:maj", "G:maj"])
    b = make_timeline(["G:maj", "C:maj"])
    assert tpsd(a, b).raw == 0.0


def test_tpsd_matches_numpy_oracle():
    rng = random.Random(21)
    for _ in range(40):
        a, b = random_pair(rng)
        assert tpsd(a, b).raw == oracle_tpsd_raw(a, b)


half_integers = st.lists(st.integers(0, 26).map(lambda k: k / 2), min_size=1, max_size=60)


@given(va=half_integers, vb=half_integers, cells=st.sampled_from([1, 7, 64, 1 << 14]))
@example(va=[2.5], vb=[0.0, 3.5, 7.0], cells=1 << 14)  # n = 1
@example(va=[1.0, 2.5, 4.0], vb=[4.0, 1.0, 2.5], cells=1 << 14)  # n = L
@example(va=[1.0, 6.5], vb=[6.5, 1.0, 6.5, 1.0, 0.0, 1.0], cells=1 << 14)  # L % n == 0
@example(va=[1.0, 6.5, 3.0], vb=[6.5, 1.0, 6.5, 1.0, 0.0], cells=1 << 14)  # L % n != 0
@example(va=[4.5] * 5, vb=[4.5] * 7, cells=1 << 14)  # constant
@settings(max_examples=300, deadline=None)
def test_tpsd_kernel_equals_the_shift_loop(va, vb, cells):
    """Over half-integer series the kernel's minimum is the shift loop's
    exactly, in either argument order and for any block size."""
    expected = oracle_tpsd_shifts(va, vb) / max(len(va), len(vb))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "BLOCK_CELLS", cells)
        for x, y in ((va, vb), (vb, va)):
            raw = _Tpsd().compare(np.array(x), np.array(y), None)
            assert type(raw) is float and raw == expected


@pytest.mark.parametrize("n, length", [(300, 400), (3, 20_000)])
def test_tpsd_kernel_equals_the_shift_loop_over_several_blocks(n, length):
    """Pairs whose shifts fill more than one block of the default size,
    the second with fewer cells to a block than one shift holds."""
    assert n * length > similarity.BLOCK_CELLS
    rng = random.Random(n)
    va = [rng.randint(0, 26) / 2 for _ in range(n)]
    vb = [rng.randint(0, 26) / 2 for _ in range(length)]
    raw = _Tpsd().compare(np.array(va), np.array(vb), None)
    assert raw == oracle_tpsd_shifts(va, vb) / length


def test_tpsd_unequal_lengths_use_longer_denominator():
    a = make_timeline(["C:maj"] * 2)
    b = make_timeline(["C:maj"] * 5)
    assert tpsd(a, b).raw == 0.0
    b2 = make_timeline(["G:maj"] * 5)
    assert tpsd(a, b2).raw == 5.0


def test_patterns_worked_example():
    tl = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj"])
    patterns = extract_recurrent_patterns(key_relative_events(tl), 2, 2)
    assert len(patterns) == 1
    assert patterns[0].positions == (0, 2)
    assert patterns[0].length == 2


def test_patterns_uniform_sequence():
    tl = make_timeline(["C:maj"] * 4)
    patterns = extract_recurrent_patterns(key_relative_events(tl), 2, 2)
    assert len(patterns) == 1
    assert patterns[0].positions == (0, 1, 2)


def test_patterns_no_repeats():
    tl = make_timeline(["C:maj", "G:maj", "A:min", "F:maj"])
    assert extract_recurrent_patterns(key_relative_events(tl), 2, 4) == []


def test_pattern_lengths_are_checked_as_lharp_checks_them():
    profiles = key_relative_events(make_timeline(["C:maj", "G:maj"] * 3))
    with pytest.raises(ValueError, match="^--n-min must be an integer >= 2, got 1$"):
        extract_recurrent_patterns(profiles, 1, 4)
    with pytest.raises(ValueError, match=r"^--n-max must be >= --n-min \(3\), got 2$"):
        extract_recurrent_patterns(profiles, 3, 2)
    assert [p.length for p in extract_recurrent_patterns(profiles, 3, 3)] == [3, 3]


def test_patterns_match_window_oracle():
    rng = random.Random(31)
    for _ in range(25):
        tl = make_timeline([rng.choice(POOL) for _ in range(rng.randint(2, 12))],
                           key=rng.choice(KEYS))
        for n in (2, 3):
            expected = oracle_windows(tl, n)
            got = {p.key: p.positions
                   for p in extract_recurrent_patterns(key_relative_events(tl), n, n)}
            assert got == expected


@given(st.lists(st.tuples(st.sampled_from(POOL[:3]), st.sampled_from(KEYS[:3])),
                min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_patterns_of_modulating_pieces_match_window_oracle(pairs):
    # Each event under its own key: a step between roots under different
    # keys is taken between the roots relative to their tonics.
    tl = events_timeline([(parse_chord(c), Key.from_string(k)) for c, k in pairs])
    for n in (2, 3):
        got = {p.key: p.positions
               for p in extract_recurrent_patterns(key_relative_events(tl), n, n)}
        assert got == oracle_windows(tl, n)


def test_patterns_transposition_invariant_keys():
    tl = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj"])
    for n in range(12):
        moved = extract_recurrent_patterns(key_relative_events(transpose(tl, n)), 2, 2)
        base = extract_recurrent_patterns(key_relative_events(tl), 2, 2)
        assert [(p.key, p.positions) for p in moved] \
            == [(p.key, p.positions) for p in base]


def test_patterns_validation():
    tl = make_timeline(["C:maj", "G:maj"])
    with pytest.raises(ValueError):
        extract_recurrent_patterns(key_relative_events(tl), 1, 4)
    with pytest.raises(ValueError):
        extract_recurrent_patterns(key_relative_events(tl), 3, 2)


def test_lharp_worked_example():
    a = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj"], piece_id="a")
    b = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "A:min", "F:maj"],
                      piece_id="b")
    report = lharp(a, b, tau=0.0, n_min=2, n_max=2)
    assert report.score == 0.8
    assert report.raw == 0.8
    assert [(r.interval_a, r.interval_b) for r in report.local_regions] \
        == [((0, 4), (0, 4))]
    assert all(c == 0.0 for c in report.local_regions[0].step_costs)
    # harmonic mean of 1 and 2/3, computed exactly
    assert Fraction(4, 5) == Fraction(2) * 1 * Fraction(2, 3) / (1 + Fraction(2, 3))


def test_lharp_self_similarity_equals_coverage():
    tl = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "D:min", "E:min"])
    report = lharp(tl, tl)
    assert report.score == float(Fraction(4, 6))


def test_lharp_full_coverage_self_is_one():
    tl = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj"])
    assert lharp(tl, tl).score == 1.0


def test_lharp_no_patterns_is_zero():
    a = make_timeline(["C:maj", "G:maj", "A:min", "F:maj"], piece_id="a")
    b = make_timeline(["D:min", "E:7", "F:maj", "C:maj"], piece_id="b")
    report = lharp(a, b)
    assert report.score == 0.0
    assert report.local_regions == ()


def events_timeline(events):
    """One beat per (chord, key) event, each under its own key."""
    return build_timeline("events",
                          [ChordEvent(Fraction(i), Fraction(1), c) for i, (c, _) in enumerate(events)],
                          [KeySpan(Fraction(i), Fraction(1), k) for i, (_, k) in enumerate(events)])


def test_lharp_step_costs_are_key_relative_distances_along_each_path():
    pairs = [
        (make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "A:min", "F:maj"], piece_id="a"),
         make_timeline(["D:maj", "A:7", "D:maj", "A:7", "E:min", "F#:min"], key="D:maj",
                       piece_id="b")),
        (make_timeline(["C:maj", "G:maj", "G:maj", "C:maj", "G:maj", "G:maj", "F:maj"],
                       piece_id="a"),
         make_timeline(["C:maj7", "G:7", "C:maj7", "G:7", "C:maj7"], piece_id="b")),
    ]
    for a, b in pairs:
        regions = lharp(a, b).local_regions
        assert regions and all(any(r.step_costs) for r in regions)
        ea, eb = transposed_to_c(a.sounded()), transposed_to_c(b.sounded())
        for region in regions:
            sub_a = ea[slice(*region.interval_a)]
            sub_b = eb[slice(*region.interval_b)]
            cells = [[chord_distance(x[0], x[1], y[0], y[1]) for y in sub_b] for x in sub_a]
            path = dtw_align(events_timeline(sub_a), events_timeline(sub_b)).path
            assert region.step_costs == tuple(cells[i][j] for i, j in path)
            assert sum(region.step_costs) == oracle_enumerate(cells)


modulating_events = st.lists(st.tuples(st.sampled_from(POOL[:4]), st.sampled_from(KEYS[:3])),
                             min_size=0, max_size=6)


@given(motif=modulating_events.filter(lambda events: len(events) >= 2),
       a=st.tuples(modulating_events, st.integers(1, 3), modulating_events),
       b=st.tuples(modulating_events, st.integers(1, 3), modulating_events),
       tau=st.sampled_from([0.0, 0.5, 1.0, 2.5, 100.0]),
       n_min=st.integers(2, 3), extra=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_bounded_lharp_equals_warping_every_pattern_pair(motif, a, b, tau, n_min, extra):
    """Skipping the pattern pairs whose lower bound exceeds tau changes
    nothing: score, raw and every local region match the reference.
    Each piece repeats one shared motif between its own events, so that
    patterns recur within and agree across the two."""
    ta, tb = (events_timeline([(parse_chord(c), Key.from_string(k))
                               for c, k in before + motif * repeats + after])
              for before, repeats, after in (a, b))
    assert lharp(ta, tb, tau, n_min, n_min + extra) \
        == exhaustive_lharp(ta, tb, tau, n_min, n_min + extra)


@pytest.mark.parametrize("tau", [0.0, 1.0, 2.5])
def test_lharp_matrix_warps_only_the_pattern_pairs_its_bound_admits(monkeypatch, tau):
    import harmory.similarity as similarity
    from harmory.evaluation import comparison_counts

    bounded, warped = {}, []
    bound_block = similarity._bound_block

    def recording_block(sequences, table):
        block = bound_block(sequences, table)
        bounded.update(((a, b), block[x, y])
                       for x, a in enumerate(sequences) for y, b in enumerate(sequences))
        return block

    def counting_dtw(ca, cb, band=None, *, table):
        # Pattern slices are tuples; the regions warped after them are lists.
        if isinstance(ca, tuple):
            warped.append((ca, cb))
        return _dtw(ca, cb, band, table=table)

    monkeypatch.setattr(similarity, "_bound_block", recording_block)
    monkeypatch.setattr(similarity, "_dtw", counting_dtw)
    corpus = matrix_corpus()
    _, matrix = corpus_similarity_matrix(corpus, _Lharp(tau=tau))
    pattern_pairs = sum(comparison_counts(a, b, _Lharp())
                        for i, a in enumerate(corpus) for b in corpus[i + 1:])
    assert matrix.sum() > len(corpus)  # some patterns agree
    assert 0 < len(warped) < pattern_pairs
    assert all(bounded[pair] <= tau for pair in warped)


def test_each_call_builds_one_bound_block(monkeypatch):
    """An lharp matrix, an lharp ``compare_pieces`` (its ``explain``
    included) and a memory build each build one block of bounds over
    their registered sequences, however many pairs of pieces read it."""
    from harmory.memory import build_memory

    built = []
    bound_block = similarity._bound_block

    def counting_block(sequences, table):
        built.append(len(sequences))
        return bound_block(sequences, table)

    monkeypatch.setattr(similarity, "_bound_block", counting_block)
    corpus = matrix_corpus()
    for call in (lambda: corpus_similarity_matrix(corpus, _Lharp()),
                 lambda: compare_pieces(_Lharp(), corpus[0], corpus[1]).local_regions,
                 lambda: build_memory(corpus).similar):
        built.clear()
        assert call()  # a matrix, regions, similarTo edges
        assert len(built) == 1 and built[0] > 1


def test_lharp_matrix_warps_each_distinct_slice_pair_once(monkeypatch):
    """Within one matrix no unordered pair of pattern slices is warped
    twice; a second matrix warps the same set again, so nothing stored
    outlives the call."""
    import harmory.similarity as similarity

    warped = []

    def counting_dtw(ca, cb, band=None, *, table):
        if isinstance(ca, tuple):  # a pattern slice, not a region
            warped.append(tuple(sorted((ca, cb))))
        return _dtw(ca, cb, band, table=table)

    monkeypatch.setattr(similarity, "_dtw", counting_dtw)
    corpus = matrix_corpus()
    runs = []
    for _ in range(2):
        warped.clear()
        corpus_similarity_matrix(corpus, _Lharp())
        assert 0 < len(warped) == len(set(warped))
        runs.append(sorted(warped))
    assert runs[0] == runs[1]


def test_lharp_matrix_warps_each_slice_pair_once_and_aligns_no_region(monkeypatch):
    """A matrix reads only scores: it calls ``_dtw`` once per distinct pair
    of pattern slices and aligns no region."""
    warped = []

    def counting_dtw(ca, cb, band=None, *, table):
        warped.append((ca, cb))
        return _dtw(ca, cb, band, table=table)

    monkeypatch.setattr(similarity, "_dtw", counting_dtw)
    corpus = cover_corpus()
    _, matrix = corpus_similarity_matrix(corpus, _Lharp())
    assert matrix.sum() > len(corpus)  # some patterns agree, so some pair has regions
    # Registered slices are tuples; a region is a list slice of a piece's codes.
    assert all(isinstance(ca, tuple) and isinstance(cb, tuple) for ca, cb in warped)
    assert 0 < len(warped) == len({tuple(sorted(pair)) for pair in warped})


def test_measure_symmetry():
    rng = random.Random(41)
    for _ in range(15):
        a, b = random_pair(rng)
        for name, steps in MEASURES.items():
            assert compare_pieces(steps(), a, b).score \
                == compare_pieces(steps(), b, a).score, name


progressions = st.lists(st.sampled_from(["C:maj", "G:maj", "A:min", "D:min", "B:dim",
                                         "C:maj7"]), min_size=1, max_size=10)


@given(a=progressions, b=progressions, key=st.sampled_from(KEYS),
       band=st.none() | st.integers(0, 3), tau=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
@example(a=["G:maj", "A:min", "D:min", "C:maj7"],
         b=["B:dim", "D:min", "G:maj", "D:min", "C:maj", "C:maj7", "A:min"],
         key="C:maj", band=None, tau=1.0)
@example(a=["E:min", "F:maj", "D:min", "C:maj"] * 2, b=["A:min", "C:maj7", "C:maj"] * 2,
         key="C:maj", band=None, tau=4.0)
@settings(max_examples=300, deadline=None)
def test_dtw_and_lharp_are_symmetric(a, b, key, band, tau):
    """Both argument orders warp along paths of one length, so dtw and the
    pattern agreement of lharp score the same both ways.  In the examples
    the backtrack meets an up/left tie: of the pieces in the first, and of
    two patterns whose cost straddles tau in the second."""
    ta, tb = make_timeline(a, piece_id="a"), make_timeline(b, key=key, piece_id="b")
    assert len(dtw_align(ta, tb, band).path) == len(dtw_align(tb, ta, band).path)
    assert compare_pieces(_Dtw(band=band), ta, tb).raw \
        == compare_pieces(_Dtw(band=band), tb, ta).raw
    assert lharp(ta, tb, tau).score == lharp(tb, ta, tau).score


@given(order=st.permutations(range(13)), size=st.integers(2, 13))
@settings(max_examples=20, deadline=None)
def test_a_shuffled_corpus_gives_the_matrix_with_its_rows_and_columns_permuted(order, size):
    """The corpus order decides only the order of the ids, for every
    measure: each piece is interned into the corpus vocabulary in another
    order, and every score stays bit for bit the same."""
    corpus = matrix_corpus()
    assert len(corpus) == 13
    picked = order[:size]
    for name, steps in MEASURES.items():
        ids, matrix = corpus_similarity_matrix(corpus, steps())
        shuffled_ids, shuffled = corpus_similarity_matrix([corpus[k] for k in picked], steps())
        assert shuffled_ids == [ids[k] for k in picked], name
        assert np.array_equal(shuffled, matrix[np.ix_(picked, picked)]), name


def test_dtw_warps_each_distinct_pair_of_a_matrix_once(monkeypatch):
    """Pieces p0 and p2 share one key-relative sequence, and p1 and p3
    another: the matrix warps each of the three unordered sequence pairs
    once, whichever order its pieces meet them in."""
    warped = []

    def counting(a, b, *args, **kwargs):
        warped.append(tuple(sorted((a, b))))
        return _dtw(a, b, *args, **kwargs)

    a, b = make_timeline(["C:maj", "G:maj", "A:min"]), make_timeline(["F:maj", "C:maj"])
    corpus = [Timeline(f"p{i}", tl.events, tl.keys)
              for i, tl in enumerate([a, b, a, transpose(b, 3)])]
    expected = compare_pieces(_Dtw(), a, b).score
    monkeypatch.setattr(similarity, "_dtw", counting)
    _, matrix = corpus_similarity_matrix(corpus, _Dtw())
    assert len(warped) == len(set(warped)) == 3
    assert matrix[0, 1] == matrix[1, 2] == matrix[0, 3] == matrix[2, 3] == expected < 1.0
    assert matrix[0, 2] == matrix[1, 3] == 1.0


def package_callers(name: str) -> set[str]:
    """The functions in the package, as ``module.Class.function``, that call
    a function or method named ``name``."""
    import ast
    from pathlib import Path

    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                callers.add(scope)
            visit(child, scope)

    for path in Path(similarity.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return callers


def test_the_kernel_is_called_by_the_memo_the_aligner_and_lharp_regions_alone():
    """``_dtw``'s callers in the package, by enclosing function."""
    assert package_callers("_dtw") == {"similarity.Warps.cost", "similarity.dtw_align",
                                       "similarity._Lharp.explain"}


def test_one_place_builds_a_report_and_one_maps_a_distance_to_a_score():
    """Steps return numbers: ``compare_pieces`` alone builds a report, and
    ``_Dtw.score`` (tpsd's too) is the one ``exp(-raw / scale)``; the other
    ``exp`` is the novelty kernel's Gaussian taper."""
    assert package_callers("SimilarityReport") == {"similarity.compare_pieces"}
    assert package_callers("exp") == {"similarity._Dtw.score",
                                      "segmentation.checkerboard_kernel"}
    assert _Tpsd.score is _Dtw.score


@pytest.mark.parametrize("steps, params, message", [
    (_Dtw, {"scale": inf}, "--scale must be a finite number > 0, got inf"),
    (_Tpsd, {"scale": inf}, "--scale must be a finite number > 0, got inf"),
    (_Tpsd, {"scale": float("nan")}, "--scale must be a finite number > 0, got nan"),
    (_Lharp, {"tau": -1.0}, "--tau must be a finite number >= 0, got -1.0"),
    (_Lharp, {"tau": -inf}, "--tau must be a finite number >= 0, got -inf"),
    (_Lharp, {"tau": float("nan")}, "--tau must be a finite number >= 0, got nan"),
    (_Lharp, {"tau": inf}, "--tau must be a finite number >= 0, got inf"),
])
def test_step_classes_refuse_a_non_finite_scale_or_tau_and_a_negative_tau(steps, params,
                                                                          message):
    """The library refuses what the command line refuses, naming the flag."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        steps(**params)


def test_the_pair_functions_refuse_a_negative_tau_and_an_infinite_scale():
    a = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj"])
    with pytest.raises(ValueError, match=r"^--tau must be a finite number >= 0, got -1\.0$"):
        lharp(a, a, tau=-1.0)
    with pytest.raises(ValueError, match="^--scale must be a finite number > 0, got inf$"):
        tpsd(a, a, scale=inf)


def test_measure_transposition_invariance():
    a = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "A:min"], piece_id="a")
    b = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "F:maj", "D:min"],
                      piece_id="b")
    for name, steps in MEASURES.items():
        base = compare_pieces(steps(), a, b).score
        for n in range(12):
            assert compare_pieces(steps(), transpose(a, n), b).score == base, name
            assert compare_pieces(steps(), a, transpose(b, n)).score == base, name


def test_scores_in_unit_interval():
    rng = random.Random(51)
    for _ in range(20):
        a, b = random_pair(rng)
        for name, steps in MEASURES.items():
            score = compare_pieces(steps(), a, b).score
            assert 0.0 <= score <= 1.0, name
            if name in ("dtw", "tpsd"):
                assert score > 0.0


def test_report_json_stable():
    a = make_timeline(["C:maj"])
    text = compare_pieces(_Dtw(), a, a).to_json()
    assert text == (
        '{\n'
        '  "measure": "dtw",\n'
        '  "score": 1.0,\n'
        '  "raw": 0.0,\n'
        '  "params": {\n'
        '    "scale": 5.0,\n'
        '    "band": null\n'
        '  },\n'
        '  "local_regions": []\n'
        '}\n'
    )


def oracle_report_json(report) -> str:
    """``SimilarityReport.to_json`` as it built its payload by hand."""
    payload = {
        "measure": report.measure,
        "score": report.score,
        "raw": report.raw,
        "params": report.params,
        "local_regions": [
            {"interval_a": list(r.interval_a), "interval_b": list(r.interval_b),
             "step_costs": list(r.step_costs)}
            for r in report.local_regions],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_report_json_equals_the_hand_built_payload():
    a = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "A:min", "F:maj"], piece_id="a")
    b = make_timeline(["D:maj", "A:7", "D:maj", "A:7", "E:min", "F#:min", "B:min"],
                      key="D:maj", piece_id="b")
    reports = [lharp(a, b), lharp(b, a, tau=0.5, n_min=2, n_max=3)]
    assert all(report.local_regions for report in reports)
    reports += [compare_pieces(_Dtw(band=band), a, b) for band in (None, 0, 3)]
    reports += [tpsd(a, b), lharp(a, make_timeline(["D:min", "E:7"]))]
    for report in reports:
        assert report.to_json() == oracle_report_json(report)


def test_matrix_duplicated_piece():
    a = make_timeline(["C:maj", "G:maj"], piece_id="one")
    b = make_timeline(["C:maj", "G:maj"], piece_id="two")
    ids, matrix = corpus_similarity_matrix([a, b], _Dtw())
    assert ids == ["one", "two"]
    assert np.array_equal(matrix, np.ones((2, 2)))


def test_matrix_matches_individual_calls():
    corpus = [make_timeline(["C:maj", "G:maj", "A:min"], piece_id="p1"),
              make_timeline(["F:maj", "C:maj"], piece_id="p2"),
              make_timeline(["D:min", "G:7", "C:maj"], piece_id="p3")]
    ids, matrix = corpus_similarity_matrix(corpus, _Tpsd())
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else tpsd(corpus[i], corpus[j]).score
            assert matrix[i, j] == expected
    assert np.array_equal(matrix, matrix.T)


def test_every_analysis_of_a_piece_without_a_sounded_chord_raises_one_error():
    from harmory.evaluation import comparison_counts
    from harmory.segmentation import segment_timeline

    tl = Timeline(id="nc", events=(ChordEvent(Fraction(0), Fraction(1), parse_chord("N")),),
                  keys=make_timeline(["C:maj"]).keys)
    for call in (tl.sounded, lambda: key_relative_events(tl), lambda: encode_tps(tl),
                 lambda: comparison_counts(tl, tl, _Dtw()), lambda: segment_timeline(tl)):
        with pytest.raises(EmptyTimelineError, match="^nc: no sounded events$"):
            call()


def test_matrix_error_names_pair():
    from harmory.timeline import ChordEvent

    good = make_timeline(["C:maj"], piece_id="good")
    bad = Timeline(id="bad",
                   events=(ChordEvent(Fraction(0), Fraction(1), parse_chord("N")),),
                   keys=good.keys)
    with pytest.raises(EmptyTimelineError) as info:
        corpus_similarity_matrix([good, bad], _Dtw())
    assert str(info.value) == "good vs bad: bad: no sounded events"


def test_matrix_names_a_failing_piece_by_the_first_pair_that_holds_it(monkeypatch):
    def empty(piece_id):
        return Timeline(id=piece_id, keys=make_timeline(["C:maj"]).keys,
                        events=(ChordEvent(Fraction(0), Fraction(1), parse_chord("N")),))

    corpus = [make_timeline(["C:maj"], piece_id=piece_id) for piece_id in ("a", "b", "good")]
    with pytest.raises(EmptyTimelineError, match="^bad vs good: bad: no sounded events$"):
        corpus_similarity_matrix([empty("bad"), corpus[2]], _Dtw())
    with pytest.raises(EmptyTimelineError, match="^a vs bad: bad: no sounded events$"):
        corpus_similarity_matrix([*corpus[:2], empty("bad"), empty("worse")], _Dtw())
    # Any other error is the program's: a RuntimeError, which exits 1.
    monkeypatch.setattr(_Dtw, "compare", lambda self, x, y, shared: 1 / 0)
    with pytest.raises(RuntimeError, match="^a vs b: division by zero$") as raised:
        corpus_similarity_matrix(corpus, _Dtw())
    assert type(raised.value.__cause__) is ZeroDivisionError
    monkeypatch.setattr(_Dtw, "prepare", lambda self, timeline, shared: {}[timeline.id])
    with pytest.raises(RuntimeError, match="^a vs b: 'a'$"):
        corpus_similarity_matrix(corpus, _Dtw())
    with pytest.raises(KeyError):  # one piece: no pair holds it
        corpus_similarity_matrix(corpus[:1], _Dtw())


# (events covered, events) of a piece.
coverages = st.integers(1, 5_000).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


@given(a=coverages, b=coverages)
@settings(max_examples=300, deadline=None)
def test_lharp_harmonic_mean_equals_the_rounded_fraction(a, b):
    """``_Lharp.compare``'s quotient of ints is 2·fa·fb/(fa + fb) of the
    covered fractions, rounded as ``float(Fraction)`` rounds it."""
    (ca, na), (cb, nb) = a, b
    fa, fb = Fraction(ca, na), Fraction(cb, nb)
    expected = float(2 * fa * fb / (fa + fb)) if fa and fb else 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Lharp, "_agreeing", lambda self, x, y, shared: ([], range(ca), range(cb)))
        raw = _Lharp().compare((range(na), []), (range(nb), []), None)
    assert type(raw) is float and raw == expected


def test_matrix_rejects_duplicate_ids():
    a = make_timeline(["C:maj"], piece_id="same")
    b = make_timeline(["G:maj"], piece_id="same")
    with pytest.raises(ValueError, match="duplicate piece id 'same'"):
        corpus_similarity_matrix([a, b], _Dtw())


def test_matrix_csv_golden():
    ids = ["x", "y"]
    matrix = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert matrix_to_csv(ids, matrix) == "id,x,y\nx,1.0,0.5\ny,0.5,1.0\n"


def matrix_corpus():
    """Transposed, re-timed and modulating covers, plus random pieces
    whose keys and chords give each a vocabulary of its own."""
    rng = random.Random(7)
    return cover_corpus() + [
        make_timeline([rng.choice(POOL) for _ in range(rng.randint(3, 10))],
                      key=rng.choice(KEYS), piece_id=f"random{i}")
        for i in range(4)]


def test_lharp_matrix_walks_each_piece_once(monkeypatch):
    # The codes and the pattern windows read one list of key-relative profiles.
    walked = []
    sounded = Timeline.sounded

    def counting(timeline):
        walked.append(timeline.id)
        return sounded(timeline)

    monkeypatch.setattr(Timeline, "sounded", counting)
    corpus = matrix_corpus()
    corpus_similarity_matrix(corpus, _Lharp())
    assert walked == [tl.id for tl in corpus]


@pytest.mark.parametrize("measure, params", [
    ("dtw", {}),
    ("dtw", {"band": 1}),
    ("dtw", {"scale": 2.5, "band": 0}),
    ("tpsd", {}),
    ("tpsd", {"scale": 0.5}),
    ("lharp", {}),
    ("lharp", {"tau": 2.0, "n_min": 3, "n_max": 5}),
    ("lharp", {"tau": 0.0, "n_min": 2, "n_max": 2}),
])
def test_matrix_equals_pairwise_measures(measure, params):
    corpus = matrix_corpus()
    expected = np.eye(len(corpus))
    for i, a in enumerate(corpus):
        for j in range(i + 1, len(corpus)):
            expected[i, j] = expected[j, i] = compare_pieces(
                MEASURES[measure](**params), a, corpus[j]).score
    ids, matrix = corpus_similarity_matrix(corpus, MEASURES[measure](**params))
    assert ids == [tl.id for tl in corpus]
    assert np.array_equal(matrix, expected)


@pytest.mark.parametrize("measure, per_piece, tables", [
    ("dtw", ["key_relative_events"], 1),
    ("tpsd", ["encode_tps"], 0),
    ("lharp", ["key_relative_events", "extract_recurrent_patterns"], 1),
])
def test_matrix_prepares_each_piece_once(monkeypatch, measure, per_piece, tables):
    import harmory.similarity as similarity

    calls = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("key_relative_events", "encode_tps", "extract_recurrent_patterns",
                 "distance_table"):
        monkeypatch.setattr(similarity, name, counting(name, getattr(similarity, name)))
    corpus = matrix_corpus()
    corpus_similarity_matrix(corpus, MEASURES[measure]())
    # Each piece is prepared once, and one table serves the whole corpus;
    # tpsd reads none, so none is built.
    counted = {**{name: len(corpus) for name in per_piece}, "distance_table": tables}
    assert calls == {name: count for name, count in counted.items() if count}
