"""Self-similarity, novelty, and boundary picking.

oracle_novelty below recomputes the checkerboard correlation with
literal nested loops and explicit bounds checks; the frozen curve values
for the AAAABBBB piece were produced by that oracle.  Two exact oracles
keep the earlier writers: oracle_novelty_windows sums each diagonal
window with its own np.sum, and oracle_pgm joins each row of Python
ints; novelty and ssm_to_pgm must equal them exactly.  A dense matrix is
the SSM's table with one code per event; ``dense`` gives any SSM's
matrix, whose cell (i, j) is ``table[codes[i], codes[j]]``.
"""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmory.segmentation as segmentation
import harmory.tps as tps
from harmory.harte import parse_chord
from harmory.segmentation import (
    SSM,
    KernelTooLargeError,
    SegmentationParams,
    boundaries_to_csv,
    build_ssm,
    checkerboard_kernel,
    novelty,
    novelty_to_csv,
    pick_boundaries,
    segment_timeline,
    ssm_to_pgm,
)
from harmory.timeline import ChordEvent, KeySpan, build_timeline
from harmory.tps import Key, chord_distance
from tests.conftest import chords, make_timeline, transpose

AABB = make_timeline(["C:maj"] * 4 + ["G:maj"] * 4)

KERNEL4_CURVE = [2.277672226981, 0.324652467358, 0.000000000000, 0.649304934717,
                 4.555344453962, 0.649304934717, 0.000000000000, 0.324652467358]
KERNEL8_CURVE = [8.969956280240, 2.604677476835, 1.303426450638, 6.430490756204,
                 17.939912560480, 6.430490756204, 1.303426450638, 2.604677476835]


def oracle_kernel(size, taper):
    h = size // 2
    out = []
    for r in range(size):
        u = (r - h) + 0.5
        row = []
        for c in range(size):
            v = (c - h) + 0.5
            sign = (1 if u > 0 else -1) * (1 if v > 0 else -1)
            row.append(sign * math.exp(-taper * (u * u + v * v) / (h * h)))
        out.append(row)
    return out


def oracle_novelty(matrix, size, taper):
    n = len(matrix)
    h = size // 2
    kernel = oracle_kernel(size, taper)
    values = []
    for t in range(n):
        acc = 0.0
        for r in range(size):
            i = t - h + r
            if not 0 <= i < n:
                continue
            for c in range(size):
                j = t - h + c
                if 0 <= j < n:
                    acc += kernel[r][c] * matrix[i][j]
        values.append(max(acc, 0.0))
    return values


def oracle_novelty_windows(matrix, kernel_size, taper):
    """Novelty as one np.sum over each zero-padded diagonal window."""
    n = len(matrix)
    half = kernel_size // 2
    kernel = checkerboard_kernel(kernel_size, taper)
    padded = np.zeros((n + 2 * half, n + 2 * half))
    padded[half:half + n, half:half + n] = matrix
    values = np.empty(n)
    for i in range(n):
        window = padded[i:i + kernel_size, i:i + kernel_size]
        values[i] = np.sum(kernel * window)
    np.clip(values, 0.0, None, out=values)
    return values


def oracle_pgm(matrix):
    """The PGM text with each row's cells rounded to Python ints and joined."""
    n = len(matrix)
    rows = np.floor(255.0 * matrix + 0.5)
    lines = ["P2", f"{n} {n}", "255"]
    lines += [" ".join(map(str, row)) for row in rows.astype(int).tolist()]
    return "\n".join(lines) + "\n"


# Cells anywhere in [0, 1], and cells exactly halfway between two grey levels.
unit_cells = st.floats(0.0, 1.0) | st.integers(0, 254).map(lambda k: (k + 0.5) / 255)


@st.composite
def unit_matrices(draw):
    n = draw(st.integers(1, 12))
    return np.array(draw(st.lists(unit_cells, min_size=n * n, max_size=n * n))).reshape(n, n)


def dense_ssm(matrix):
    """The SSM whose table is ``matrix``, one code per event."""
    return SSM(table=matrix, codes=np.arange(len(matrix)))


def dense(ssm):
    return ssm.table[np.ix_(ssm.codes, ssm.codes)]


def random_ssm(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    return dense_ssm(m)


def test_ssm_identical_chords_all_ones():
    ssm = build_ssm(make_timeline(["C:maj"] * 5).sounded())
    assert np.array_equal(dense(ssm), np.ones((5, 5)))


def test_ssm_two_distinct_chords():
    matrix = dense(build_ssm(make_timeline(["C:maj", "G:maj"]).sounded()))
    assert matrix[0, 0] == matrix[1, 1] == 1.0
    assert matrix[0, 1] == matrix[1, 0] == 0.0


def test_ssm_block_structure():
    ssm = build_ssm(AABB.sounded())
    expect = np.zeros((8, 8))
    expect[:4, :4] = 1.0
    expect[4:, 4:] = 1.0
    assert np.array_equal(dense(ssm), expect)


def test_ssm_excludes_nochords_with_index_map():
    ssm = build_ssm(make_timeline(["C:maj", "N", "G:maj"]).sounded())
    assert ssm.size == 2


def test_ssm_symmetric_unit_diagonal_in_range():
    tl = make_timeline(["C:maj", "G:7", "A:min", "F:maj7", "D:min", "E:7"])
    matrix = dense(build_ssm(tl.sounded()))
    assert np.allclose(matrix, matrix.T, atol=1e-12)
    assert np.allclose(np.diag(matrix), 1.0)
    assert matrix.min() >= 0.0 and matrix.max() <= 1.0


def test_ssm_costs_each_distinct_event_pair_once(monkeypatch):
    # One profile computed per distinct event, one table over those four
    # profiles, and no scalar chord_distance call: the 48 x 48 matrix is
    # held as a 4 x 4 table and 48 codes.
    tables, scalar = [], []
    distance_table = segmentation.distance_table

    def counting_table(rows, cols):
        tables.append((list(rows), list(cols)))
        return distance_table(rows, cols)

    def counting_distance(*args):
        scalar.append(args)
        return chord_distance(*args)

    for module in (tps, segmentation):
        monkeypatch.setattr(module, "chord_distance", counting_distance, raising=False)
    monkeypatch.setattr(segmentation, "distance_table", counting_table)
    symbols = ["C:maj", "G:7", "A:min", "F:maj"]
    tps.profile.cache_clear()
    ssm = build_ssm(make_timeline([symbols[i % 4] for i in range(48)]).sounded())
    assert ssm.size == 48
    assert ssm.table.shape == (4, 4)
    assert ssm.codes.tolist() == [i % 4 for i in range(48)]
    assert tps.profile.cache_info().misses == 4
    profiles = [tps.profile(parse_chord(s), Key.from_string("C:maj")) for s in symbols]
    assert tables == [(profiles, profiles)]
    assert scalar == []


SYMBOLS = ["C:maj", "G:7", "A:min", "F:maj7", "D:min/b3", "E:7", "Bb:maj", "N"]
KEYS = [Key.from_string(k) for k in ("C:maj", "G:maj", "A:min", "Eb:maj", "F#:min")]


@st.composite
def modulating_timelines(draw):
    """Runs of one-beat events, each run under its own key, next keys
    distinct; returns the timeline and each sounded event's key."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=2, max_size=4)
                .filter(lambda ks: all(x != y for x, y in zip(ks, ks[1:]))))
    events, spans, sounded_keys = [], [], []
    for key in keys:
        run = draw(st.lists(st.one_of(st.sampled_from(SYMBOLS).map(parse_chord), chords()),
                            min_size=1, max_size=8))
        spans.append(KeySpan(Fraction(len(events)), Fraction(len(run)), key))
        for chord in run:
            events.append(ChordEvent(Fraction(len(events)), Fraction(1), chord))
            if not chord.is_nochord:
                sounded_keys.append(key)
    # A last sounded chord, so that every piece has one.
    last = draw(st.sampled_from(SYMBOLS[:-1]).map(parse_chord))
    events.append(ChordEvent(Fraction(len(events)), Fraction(1), last))
    sounded_keys.append(keys[-1])
    return build_timeline("mod", events, spans), sounded_keys


@given(modulating_timelines())
@settings(max_examples=60, deadline=None)
def test_ssm_matches_pairwise_oracle_under_each_events_own_key(drawn):
    timeline, keys = drawn
    chords_ = [e.chord for e in timeline.events if not e.chord.is_nochord]
    n = len(chords_)
    distances = np.array([[chord_distance(chords_[i], keys[i], chords_[j], keys[j])
                           for j in range(n)] for i in range(n)])
    largest = distances.max() or 1.0
    assert np.array_equal(dense(build_ssm(timeline.sounded())), 1.0 - distances / largest)


def test_checkerboard_kernel_hand_values():
    k = checkerboard_kernel(2, 1.0)
    e = math.exp(-0.5)
    assert np.allclose(k, [[e, -e], [-e, e]])
    k4 = checkerboard_kernel(4, 1.0)
    assert k4.shape == (4, 4)
    # corner: u=v=-1.5 -> + exp(-(2*2.25)/4)
    assert k4[0, 0] == pytest.approx(math.exp(-1.125))
    assert k4[0, 3] == pytest.approx(-math.exp(-1.125))
    assert np.allclose(k4, k4.T)
    assert k4.sum() == pytest.approx(0.0, abs=1e-12)


def test_novelty_matches_oracle_on_random_matrices():
    for seed in range(6):
        n = 5 + seed
        ssm = random_ssm(n, seed)
        for size in (2, 4, 6):
            ours = novelty(ssm, size, 1.0)
            ref = oracle_novelty(dense(ssm).tolist(), size, 1.0)
            assert np.allclose(ours, ref, atol=1e-12)


@given(matrix=unit_matrices(), taper=st.sampled_from([1.0, 0.3, 2.5]),
       block=st.sampled_from([1, 7, 64, 1 << 14]))
@example(matrix=np.array([[0.5 / 255]]), taper=1.0, block=1 << 14)  # n = 1
@example(matrix=np.array([[1.0, 127.5 / 255], [254.5 / 255, 1.0]]), taper=1.0,
         block=1 << 14)  # n = 2
@settings(max_examples=200, deadline=None)
def test_novelty_equals_the_per_window_loop(matrix, taper, block):
    """Bit for bit, for every even kernel size up to 2n and any block size."""
    ssm = dense_ssm(matrix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmentation, "BLOCK_CELLS", block)
        for kernel_size in range(2, 2 * ssm.size + 1, 2):
            assert np.array_equal(novelty(ssm, kernel_size, taper),
                                  oracle_novelty_windows(matrix, kernel_size, taper))


@pytest.mark.parametrize("n, kernel_size", [(70, 130), (70, 140), (300, 8), (300, 16)])
def test_novelty_equals_the_per_window_loop_over_several_blocks(n, kernel_size):
    """Curves that fill more than one block of the default size, the first
    two with windows larger than a block."""
    assert n * kernel_size**2 > segmentation.BLOCK_CELLS
    ssm = random_ssm(n, kernel_size)
    assert np.array_equal(novelty(ssm, kernel_size, 1.0),
                          oracle_novelty_windows(dense(ssm), kernel_size, 1.0))


def test_novelty_frozen_block_curves():
    ssm = build_ssm(AABB.sounded())
    assert np.allclose(novelty(ssm, 4, 1.0), KERNEL4_CURVE, atol=1e-9)
    assert np.allclose(novelty(ssm, 8, 1.0), KERNEL8_CURVE, atol=1e-9)


def test_novelty_constant_ssm_zero_interior():
    n = 20
    ssm = dense_ssm(np.ones((n, n)))
    curve = novelty(ssm, 8, 1.0)
    # full windows cancel exactly; truncated edge windows do not
    assert np.allclose(curve[4:n - 3], 0.0, atol=1e-9)
    assert (curve >= 0).all()
    assert pick_boundaries(curve) == []


def test_novelty_length_equals_ssm_size():
    ssm = random_ssm(9, 1)
    assert len(novelty(ssm, 4, 1.0)) == 9


def test_novelty_validation():
    ssm = random_ssm(4, 2)
    with pytest.raises(ValueError, match="^--kernel-size must be an even integer >= 2, got 3$"):
        novelty(ssm, 3, 1.0)
    with pytest.raises(ValueError, match="^--kernel-size must be"):
        novelty(ssm, 0, 1.0)
    for taper in (0.0, float("nan")):
        with pytest.raises(ValueError, match="^--taper must be a finite number > 0"):
            novelty(ssm, 4, taper)
    with pytest.raises(KernelTooLargeError):
        novelty(ssm, 10, 1.0)


OUT_OF_RANGE_PARAMS = [("kernel_size", 3), ("kernel_size", 0), ("kernel_size", -2),
                       ("taper", 0.0), ("taper", -1.0), ("taper", float("nan")),
                       ("taper", float("inf")), ("peak_lambda", float("nan")),
                       ("peak_lambda", float("inf")), ("peak_lambda", float("-inf")),
                       ("min_gap", -1), ("min_len", -1)]


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("field, value", OUT_OF_RANGE_PARAMS)
def test_out_of_range_params_are_refused_whatever_the_piece_length(n, field, value):
    """SegmentationParams checks every range itself, so a bad value is
    refused before the piece is read: the short-piece paths (no novelty
    curve at n = 1, a clamped kernel at n = 2) let none through."""
    from harmory.memory import build_memory

    tl = make_timeline((["C:maj"] * 4 + ["G:maj"] * 4)[:n])
    message = f"^--{field.replace('_', '-')} must be "
    with pytest.raises(ValueError, match=message):
        segment_timeline(tl, SegmentationParams(**{field: value}))
    with pytest.raises(ValueError, match=message):
        build_memory([tl], SegmentationParams(**{field: value}))
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(SegmentationParams(), **{field: value})


def test_pick_boundaries_block_piece():
    ssm = build_ssm(AABB.sounded())
    assert pick_boundaries(novelty(ssm, 4, 1.0)) == [4]
    assert pick_boundaries(novelty(ssm, 8, 1.0)) == [4]


def test_pick_boundaries_all_zero():
    curve = np.zeros(10)
    assert pick_boundaries(curve) == []


def test_pick_boundaries_equal_peaks_within_gap_keep_lower_index():
    curve = np.array([0.0, 1.0, 0.5, 1.0, 0.0])
    assert pick_boundaries(curve, 0.5, min_gap=3) == [1]
    assert pick_boundaries(curve, 0.5, min_gap=2) == [1, 3]


def test_pick_boundaries_never_returns_ends():
    curve = np.array([9.0, 0.0, 0.0, 0.0, 9.0])
    assert pick_boundaries(curve, 0.0, 1) == []


def test_pick_boundaries_threshold():
    curve = np.array([0.0, 0.2, 0.0, 5.0, 0.0, 0.2, 0.0])
    assert pick_boundaries(curve, 1.0, 1) == [3]


def test_lambda_monotonicity():
    rng = random.Random(3)
    for trial in range(20):
        curve = np.array([rng.random() for _ in range(30)])
        lambdas = [0.0, 0.25, 0.5, 1.0, 2.0]
        counts = [len(pick_boundaries(curve, lam, 2)) for lam in lambdas]
        assert counts == sorted(counts, reverse=True)


def test_segment_block_piece():
    segments = segment_timeline(AABB, SegmentationParams(kernel_size=4)).segments
    assert [(s.start_event, s.end_event) for s in segments] == [(0, 4), (4, 8)]
    assert segments[0].id == "piece/seg/0"
    assert [str(c.root) for c in segments[1].chords] == ["G"] * 4
    segments = segment_timeline(AABB).segments  # default kernel 8
    assert [(s.start_event, s.end_event) for s in segments] == [(0, 4), (4, 8)]


def test_segment_no_peaks_single_segment():
    tl = make_timeline(["C:maj", "G:maj", "A:min", "F:maj"])
    segments = segment_timeline(tl).segments
    assert len(segments) == 1
    assert (segments[0].start_event, segments[0].end_event) == (0, 4)


def test_segment_single_event_piece():
    segments = segment_timeline(make_timeline(["C:maj"])).segments
    assert [(s.start_event, s.end_event) for s in segments] == [(0, 1)]


def test_segment_partition_and_min_len():
    from harmory.evaluation import synthetic_corpus

    params = SegmentationParams()
    for tl in synthetic_corpus(6, 64):
        segments = segment_timeline(tl, params).segments
        n = len(tl.sounded())
        assert segments[0].start_event == 0
        assert segments[-1].end_event == n
        for a, b in zip(segments, segments[1:]):
            assert a.end_event == b.start_event
        if len(segments) > 1:
            assert all(s.end_event - s.start_event >= params.min_len for s in segments)
        assert [s.index for s in segments] == list(range(len(segments)))


def restart_merge(cuts, min_len):
    """Merge spans by restarting after each merge: the first span shorter
    than min_len joins the span before it, or the one after it when it is
    the first span."""
    spans = list(zip(cuts, cuts[1:]))
    changed = True
    while changed and len(spans) > 1:
        changed = False
        for i, (a, b) in enumerate(spans):
            if b - a < min_len:
                if i == 0:
                    spans[0] = (a, spans[1][1])
                    del spans[1]
                else:
                    spans[i - 1] = (spans[i - 1][0], b)
                    del spans[i]
                changed = True
                break
    return spans


@given(symbols=st.lists(st.sampled_from(SYMBOLS[:-1]), min_size=1, max_size=40),
       kernel_size=st.sampled_from([2, 4, 8]), peak_lambda=st.sampled_from([-2.0, 0.0, 0.5]),
       min_gap=st.integers(1, 3), min_len=st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_one_pass_merge_equals_the_restart_loop(symbols, kernel_size, peak_lambda,
                                                min_gap, min_len):
    params = SegmentationParams(kernel_size, 1.0, peak_lambda, min_gap, min_len)
    result = segment_timeline(make_timeline(symbols), params)
    cuts = [0, *result.boundaries, len(symbols)]
    assert [(s.start_event, s.end_event) for s in result.segments] \
        == restart_merge(cuts, min_len)


def test_segment_boundaries_transposition_invariant():
    tl = make_timeline(["C:maj", "C:maj", "F:maj", "G:7", "A:min", "A:min",
                        "D:min", "G:7", "C:maj", "C:maj"])
    base = [(s.start_event, s.end_event) for s in segment_timeline(tl).segments]
    for n in range(1, 12):
        moved = [(s.start_event, s.end_event)
                 for s in segment_timeline(transpose(tl, n)).segments]
        assert moved == base


def test_segment_kernel_clamped_for_short_pieces():
    tl = make_timeline(["C:maj", "G:maj", "C:maj"])
    segments = segment_timeline(tl, SegmentationParams(kernel_size=64)).segments
    assert segments[-1].end_event == 3


def test_ssm_pgm_golden():
    ssm = build_ssm(make_timeline(["C:maj", "G:maj"]).sounded())
    assert ssm_to_pgm(ssm) == b"P2\n2 2\n255\n255 0\n0 255\n"


def test_ssm_pgm_rounding():
    m = np.array([[1.0, 0.5019], [0.5019, 1.0]])
    ssm = dense_ssm(m)
    # 255 * 0.5019 = 127.9845 -> 128
    assert b"255 128" in ssm_to_pgm(ssm)


def test_ssm_pgm_rejects_cells_outside_the_unit_range():
    for cell in (-0.01, 1.01, np.nan):
        ssm = dense_ssm(np.array([[1.0, cell], [cell, 1.0]]))
        with pytest.raises(ValueError):
            ssm_to_pgm(ssm)


@given(matrix=unit_matrices())
@example(matrix=np.array([[0.5 / 255]]))  # n = 1
@example(matrix=np.array([[1.0, 9.5 / 255], [99.5 / 255, 0.0]]))  # n = 2
@settings(max_examples=200, deadline=None)
def test_ssm_pgm_equals_the_per_row_join(matrix):
    assert ssm_to_pgm(dense_ssm(matrix)) == oracle_pgm(matrix).encode()


def test_ssm_pgm_equals_the_per_row_join_on_every_grey_level():
    levels = np.arange(256 * 256).reshape(256, 256) % 256
    for matrix in (levels / 255, (levels.T + 0.5) / 256, np.ones((1, 1))):  # C and F order
        assert ssm_to_pgm(dense_ssm(matrix)) == oracle_pgm(matrix).encode()


@st.composite
def vocabulary_ssms(draw):
    """SSMs with fewer codes than events, as build_ssm makes them."""
    table = draw(unit_matrices())
    codes = draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=30))
    return SSM(table=table, codes=np.array(codes))


@given(ssm=vocabulary_ssms(), taper=st.sampled_from([1.0, 0.3]),
       block=st.sampled_from([1, 7, 1 << 14]))
@settings(max_examples=200, deadline=None)
def test_table_and_codes_equal_their_dense_matrix(ssm, taper, block):
    """novelty and ssm_to_pgm of table plus codes equal the oracles on
    the dense matrix those codes gather, bit for bit."""
    matrix = dense(ssm)
    assert ssm_to_pgm(ssm) == oracle_pgm(matrix).encode()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmentation, "BLOCK_CELLS", block)
        for kernel_size in range(2, 2 * ssm.size + 1, 2):
            assert np.array_equal(novelty(ssm, kernel_size, taper),
                                  oracle_novelty_windows(matrix, kernel_size, taper))


def test_segmenting_a_long_piece_allocates_less_than_one_dense_matrix():
    """2,000 sounded events over 16 distinct profiles: the traced peak of
    segmentation plus the PGM stays below 8 n^2 bytes, one n-by-n float64
    matrix."""
    rng = random.Random(7)
    symbols = [f"{root}:{quality}" for root in ("C", "D", "E", "F", "G", "A", "B", "Bb")
               for quality in ("maj", "min")]
    sections = [[rng.choice(symbols) for _ in range(rng.randint(2, 6))] for _ in range(5)]
    chords_ = []
    while len(chords_) < 2000:
        chords_ += rng.choice(sections) * rng.randint(2, 6)
    timeline = make_timeline(chords_[:2000])
    n = len(timeline.sounded())
    assert n == 2000
    tracemalloc.start()
    try:
        result = segment_timeline(timeline)
        pgm = ssm_to_pgm(result.ssm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    assert len(result.ssm.table) <= 16
    assert pgm.startswith(b"P2\n2000 2000\n255\n")


def test_novelty_csv_golden():
    curve = np.array([0.0, 1.5])
    assert novelty_to_csv(curve) == "index,value\n0,0.0\n1,1.5\n"


def test_boundaries_csv_golden():
    assert boundaries_to_csv([4, 9]) == "boundary_index\n4\n9\n"
    assert boundaries_to_csv([]) == "boundary_index\n"
