"""Release acceptance suite.

One test per release criterion; each prints a single PASS or FAIL line
(visible with ``pytest -s`` or in captured output on failure) and
re-raises on failure so nothing is hidden from pytest.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

from harmory.cli import main
from harmory.evaluation import CliqueSet, evaluate_covers
from harmory.harte import Chord, Degree, Natural, parse_chord, pitch_class_set, \
    render_chord
from harmory.memory import MemoryThresholds, build_memory, export_ntriples, import_ntriples, \
    segment_to_timeline
from harmory.segmentation import SegmentationParams, build_ssm, novelty, \
    pick_boundaries, segment_timeline
from harmory.similarity import MEASURES, _Dtw, compare_pieces, dtw_align, lharp
from harmory.timeline import ChordEvent, Timeline
from harmory.tps import Key, chord_distance
from tests.conftest import make_timeline, strict_json, transpose, transpose_chord
from tests.test_harte import GOLDEN, MALFORMED
from tests.test_memory import closure_groups, fixture_corpus
from tests.test_similarity import POOL, cell_matrix, oracle_enumerate, \
    oracle_windows, random_pair


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: criterion {number} - {title}")
                raise
            print(f"PASS: criterion {number} - {title}")
        return run
    return decorate


@criterion(1, "chord grammar golden table and 10k fuzz round trip under 5 s")
def test_criterion_1_grammar():
    started = time.perf_counter()
    assert len(GOLDEN) >= 60
    assert len(MALFORMED) >= 15
    for symbol, pitch_classes, canonical in GOLDEN:
        chord = parse_chord(symbol)
        assert sorted(pitch_class_set(chord)) == pitch_classes, symbol
        assert render_chord(chord) == canonical, symbol
    for symbol, error, fragment in MALFORMED:
        try:
            parse_chord(symbol)
        except error as err:
            assert fragment in str(err), symbol
        else:
            raise AssertionError(f"{symbol!r} parsed but should not")

    rng = random.Random(20260814)
    modifiers = ("", "b", "#", "bb", "##")
    for _ in range(10_000):
        root = Natural(rng.choice("ABCDEFG"), rng.choice(modifiers))
        pool = [Degree(i, rng.randint(-2, 2))
                for i in rng.sample(range(1, 14), rng.randint(1, 7))]
        chord = Chord(root=root, degrees=frozenset(pool),
                      bass=rng.choice([None] + pool))
        symbol = render_chord(chord)
        parsed = parse_chord(symbol)
        assert parsed == chord, symbol
        assert render_chord(parsed) == symbol
    assert time.perf_counter() - started < 5.0


TWENTY_CHORDS = [
    "C:maj", "G:maj", "A:min", "F:maj", "D:min7", "E:7", "B:dim", "C:maj7",
    "F:maj7", "G:7", "A:min7", "D:7", "E:min", "Bb:maj", "C:aug", "G:sus4",
    "F:maj6", "D:hdim7", "A:7", "C:min",
]


@criterion(2, "chord distance oracle values and 12-fold transposition invariance")
def test_criterion_2_distance():
    tonic = parse_chord("C:maj")
    key = Key(0, "major")
    assert chord_distance(tonic, key, parse_chord("C:maj"), key) == 0
    assert chord_distance(tonic, key, parse_chord("G:maj"), key) == 5
    assert chord_distance(tonic, key, parse_chord("A:min"), key) == 7

    fixture = [parse_chord(symbol) for symbol in TWENTY_CHORDS]
    assert len(fixture) == 20
    base = [chord_distance(a, key, b, key)
            for a, b in zip(fixture, fixture[1:])]
    for n in range(12):
        moved = [transpose_chord(c, n) for c in fixture]
        moved_key = Key(n % 12, "major")
        shifted = [chord_distance(a, moved_key, b, moved_key)
                   for a, b in zip(moved, moved[1:])]
        assert shifted == base


@criterion(3, "warping cost equals exhaustive path enumeration on 200 pairs under 30 s")
def test_criterion_3_dtw_brute_force():
    started = time.perf_counter()
    rng = random.Random(3)
    for _ in range(200):
        a, b = random_pair(rng)
        assert dtw_align(a, b).cost == oracle_enumerate(cell_matrix(a, b))
    assert time.perf_counter() - started < 30.0


@criterion(4, "block fixture boundary at 4, constant fixture none, invariant")
def test_criterion_4_segmentation():
    params = SegmentationParams()

    def boundaries(tl):
        ssm = build_ssm(tl.sounded())
        curve = novelty(ssm, min(params.kernel_size, 2 * ssm.size), params.taper)
        return pick_boundaries(curve, params.peak_lambda, params.min_gap)

    block = make_timeline(["C:maj"] * 4 + ["G:maj"] * 4)
    assert boundaries(block) == [4]
    assert boundaries(make_timeline(["C:maj"] * 8)) == []
    for n in range(12):
        assert boundaries(transpose(block, n)) == [4]


@criterion(5, "warping beats the step-function baseline on comparisons and wall clock")
def test_criterion_5_efficiency(capsys):
    assert main(["bench", "--synthetic", "--synthetic-pieces", "16",
                 "--synthetic-beats", "256"]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["pieces"] == 16
    assert report["pairs"] == 120
    dtw_stats = report["measures"]["dtw"]
    tpsd_stats = report["measures"]["tpsd"]
    dtw_counts = {(a, b): c for a, b, c in dtw_stats["comparisons_per_pair"]}
    tpsd_counts = {(a, b): c for a, b, c in tpsd_stats["comparisons_per_pair"]}
    assert set(dtw_counts) == set(tpsd_counts) and len(dtw_counts) == 120
    for pair, count in dtw_counts.items():
        assert count < tpsd_counts[pair], pair
    dtw_s, tpsd_s = (stats["median_seconds_per_pair"] for stats in (dtw_stats, tpsd_stats))
    assert dtw_s < tpsd_s, (f"median per pair: dtw {dtw_s * 1e3:.3f} ms, tpsd "
                            f"{tpsd_s * 1e3:.3f} ms, tpsd/dtw {tpsd_s / dtw_s:.3f}")


# The step-function baseline only sees scalar key-relative values, so
# the loops must keep every cross-clique profile distance (min over
# rotations, 0.625/beat here) above the worst single-substitution
# distance (0.375/beat); otherwise losing to a non-cover is legitimate.
COVER_LOOPS = [
    (["C:maj", "F:maj", "G:maj", "C:maj"], "C:maj"),
    (["C:maj", "A:min", "E:7", "A:min"], "C:maj"),
    (["D:min", "G:7", "C:maj", "A:min"], "C:maj"),
    (["C:maj", "E:min", "B:dim", "C:maj"], "C:maj"),
    (["A:min", "F:maj", "G:maj", "A:min"], "A:min"),
    (["C:maj", "Bb:maj", "E:min", "D:min7"], "C:maj"),
]


def cover_corpus(perturb):
    corpus, rows = [], []
    for j, (loop, key) in enumerate(COVER_LOOPS):
        source = make_timeline(loop * 4, key=key)
        base = transpose(source, j)
        cover = transpose(source, j + 5)
        events = cover.events
        if perturb:
            slot = events[5]
            substitute = transpose_chord(parse_chord("B:dim"), j + 5)
            assert substitute != slot.chord
            replaced = ChordEvent(slot.start, slot.duration, substitute)
            events = events[:5] + (replaced,) + events[6:]
        corpus.append(Timeline(id=f"song{j}", events=base.events, keys=base.keys))
        corpus.append(Timeline(id=f"song{j}-cover", events=events, keys=cover.keys))
        rows += [(f"song{j}", f"clique{j}"), (f"song{j}-cover", f"clique{j}")]
    csv = "piece_id,clique_id\n" + "\n".join(f"{p},{c}" for p, c in rows) + "\n"
    return corpus, CliqueSet.from_csv(csv)


@criterion(6, "cover ranking: exact MAP 1.0 on transposed cliques, >= 0.9 perturbed")
def test_criterion_6_cover_detection():
    corpus, cliques = cover_corpus(perturb=False)
    assert len(corpus) == 12
    for measure in ("dtw", "tpsd"):
        assert evaluate_covers(corpus, cliques, MEASURES[measure]()).mean_average_precision == 1.0
    perturbed, cliques = cover_corpus(perturb=True)
    for measure in ("dtw", "tpsd"):
        metrics = evaluate_covers(perturbed, cliques, MEASURES[measure]())
        assert metrics.mean_average_precision >= 0.9, measure


@criterion(7, "graph export is deterministic, re-importable, merges match closure")
def test_criterion_7_memory_determinism():
    corpus = fixture_corpus() + [
        make_timeline(["A:min"] * 4 + ["E:7"] * 4, piece_id="delta"),
        make_timeline(["D:maj"] * 4 + ["A:maj"] * 4, key="D:maj", piece_id="eps"),
    ]
    params = SegmentationParams(kernel_size=4)
    theta_merge = 0.9
    thresholds = MemoryThresholds(theta_merge=theta_merge)
    graph = build_memory(corpus, params, thresholds)
    data = export_ntriples(graph)
    assert export_ntriples(build_memory(corpus, params, thresholds)) == data

    imported = import_ntriples(data)
    assert export_ntriples(imported) == data
    assert sorted(imported.pieces) == sorted(graph.pieces)
    assert sorted(imported.segments) == sorted(graph.segments)
    assert {p: sorted(members) for p, members in graph.patterns.items()} \
        == {p: sorted(members) for p, members in imported.patterns.items()}

    segments = [seg for tl in corpus for seg in segment_timeline(tl, params).segments]
    assert len(segments) <= 20
    ids = sorted(segment.id for segment in segments)
    by_id = {segment.id: segment for segment in segments}
    edges = []
    for i, sa in enumerate(ids):
        for sb in ids[i + 1:]:
            score = compare_pieces(_Dtw(), segment_to_timeline(by_id[sa]),
                                   segment_to_timeline(by_id[sb])).score
            if score >= theta_merge:
                edges.append((sa, sb))
    merged = sorted(sorted(members) for members in graph.patterns.values())
    assert merged == closure_groups(ids, edges)


def coverage_fraction(tl, n_min=2, n_max=4):
    covered = set()
    total = len(tl.events)
    for n in range(n_min, n_max + 1):
        for positions in oracle_windows(tl, n).values():
            for p in positions:
                covered.update(range(p, p + n))
    return Fraction(len(covered), total)


@criterion(8, "pattern-coverage measure: self equals coverage, symmetric, invariant")
def test_criterion_8_lharp():
    rng = random.Random(8)
    fixtures = []
    for _ in range(20):
        vocabulary = rng.sample(POOL, rng.randint(2, 4))
        chords = [rng.choice(vocabulary) for _ in range(rng.randint(2, 10))]
        fixtures.append(make_timeline(chords))
    for tl in fixtures:
        assert lharp(tl, tl).score == float(coverage_fraction(tl))

    for a, b in zip(fixtures[:10], fixtures[10:]):
        base = lharp(a, b).score
        assert lharp(b, a).score == base
        for n in range(12):
            assert lharp(transpose(a, n), b).score == base
            assert lharp(a, transpose(b, n)).score == base

    a = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj"], piece_id="a")
    b = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "A:min", "F:maj"],
                      piece_id="b")
    assert lharp(a, b, tau=0.0, n_min=2, n_max=2).score == 0.8
