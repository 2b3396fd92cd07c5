"""Cover evaluation metrics, comparison counting, synthetic corpus.

The 4-piece all-tied fixture is hand-computed: with every pairwise score
equal, candidates rank in id order, so the two 'two'-clique queries see
their cover at rank 3 (AP 1/3) and the 'one'-clique queries at rank 1
(AP 1), giving MAP (1 + 1 + 1/3 + 1/3)/4 = 2/3, P@1 1/2, mean first
rank 2.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmory.evaluation import (
    CliqueError,
    CliqueSet,
    RankingMetrics,
    benchmark_measures,
    comparison_counts,
    diatonic_triad,
    evaluate_covers,
    synthetic_corpus,
)
from harmory.harte import parse_chord, pitch_class_set, render_chord
import harmory.evaluation as evaluation
from harmory.similarity import (MEASURES, _Dtw, _Lharp, _Tpsd, corpus_similarity_matrix,
                                extract_recurrent_patterns, key_relative_events)
from harmory.timeline import (MAX_SPAN_BEATS, ChordEvent, KeySpan, Timeline, build_timeline,
                              encode_tps)
from harmory.tps import Key
from tests.conftest import make_timeline, strict_json, transpose


def cliques_csv(rows):
    return "piece_id,clique_id\n" + "\n".join(f"{p},{c}" for p, c in rows) + "\n"


def oracle_average_precision(relevant_ranks):
    ranks = sorted(relevant_ranks)
    return sum((i + 1) / rank for i, rank in enumerate(ranks)) / len(ranks)


def test_clique_csv_round_trip():
    cliques = CliqueSet.from_csv(cliques_csv([("a", "x"), ("b", "x"), ("c", "y")]))
    assert cliques.clique_of("a") == "x"
    assert cliques.mapping == {"a": "x", "b": "x", "c": "y"}


def test_clique_csv_requires_exact_header():
    with pytest.raises(CliqueError):
        CliqueSet.from_csv("piece,clique\na,x\n")
    with pytest.raises(CliqueError):
        CliqueSet.from_csv("")
    with pytest.raises(CliqueError):
        CliqueSet.from_csv("piece_id,clique_id\na,x,extra\n")


def test_clique_csv_reads_a_repeated_row_once():
    rows = [("a", "x"), ("b", "x"), ("a", "x")]
    assert CliqueSet.from_csv(cliques_csv(rows)).mapping == {"a": "x", "b": "x"}


@pytest.mark.parametrize("text, message", [
    ("piece,clique\na,x\n", "line 1: clique CSV must start with header 'piece_id,clique_id'"),
    ("piece_id,clique_id\na,x,extra\n",
     "line 2: bad clique row ['a', 'x', 'extra'], need piece_id,clique_id"),
    ("piece_id,clique_id\na,x\n\nb\n", "line 4: bad clique row ['b'], need piece_id,clique_id"),
    (cliques_csv([("a", "x"), ("b", "x"), ("c", "y"), ("a", "y")]),
     "line 5: a second clique 'y' of a, not 'x' of line 2"),
])
def test_clique_csv_errors_name_their_line(text, message):
    with pytest.raises(CliqueError, match=f"^{re.escape(message)}$"):
        CliqueSet.from_csv(text)


def test_clique_of_missing_piece():
    cliques = CliqueSet.from_csv(cliques_csv([("a", "x")]))
    with pytest.raises(CliqueError):
        cliques.clique_of("nope")


def covers_corpus():
    """3 cliques of transposed covers with distinct progressions."""
    progressions = [
        ["C:maj", "F:maj", "G:maj", "C:maj"],
        ["A:min", "D:min", "E:7", "A:min"],
        ["C:maj", "A:min", "F:maj", "G:7"],
    ]
    corpus, rows = [], []
    for i, chords in enumerate(progressions):
        base = make_timeline(chords, piece_id=f"song{i}")
        moved = transpose(base, 3 + i)
        cover = Timeline(id=f"song{i}-cover", events=moved.events, keys=moved.keys)
        corpus += [base, cover]
        rows += [(base.id, f"c{i}"), (cover.id, f"c{i}")]
    return corpus, CliqueSet.from_csv(cliques_csv(rows))


def test_perfect_cover_ranking():
    corpus, cliques = covers_corpus()
    for measure in ("dtw", "tpsd"):
        metrics = evaluate_covers(corpus, cliques, MEASURES[measure]())
        assert metrics.mean_average_precision == 1.0
        assert metrics.precision_at_1 == 1.0
        assert metrics.mean_rank_first_relevant == 1.0


def test_all_tied_scores_rank_by_id():
    corpus = [make_timeline(["C:maj", "G:maj"], piece_id=p)
              for p in ("pa", "pb", "pc", "pd")]
    cliques = CliqueSet.from_csv(cliques_csv(
        [("pa", "one"), ("pb", "one"), ("pc", "two"), ("pd", "two")]))
    metrics = evaluate_covers(corpus, cliques, _Dtw())
    by_query = {q.query_id: q for q in metrics.queries}
    assert by_query["pa"].average_precision == 1.0
    assert by_query["pb"].average_precision == 1.0
    assert by_query["pc"].average_precision == pytest.approx(1 / 3)
    assert by_query["pd"].average_precision == pytest.approx(1 / 3)
    assert by_query["pc"].first_relevant_rank == 3
    assert by_query["pa"].top_hit == "pb"
    assert by_query["pc"].top_hit == "pa"
    assert metrics.mean_average_precision == pytest.approx(2 / 3)
    assert metrics.precision_at_1 == 0.5
    assert metrics.mean_rank_first_relevant == 2.0


def test_single_relevant_ap_is_reciprocal_rank():
    assert oracle_average_precision([1]) == 1.0
    assert oracle_average_precision([3]) == pytest.approx(1 / 3)
    assert oracle_average_precision([1, 2]) == 1.0


def test_metrics_match_independent_ranking_oracle():
    corpus = [
        make_timeline(["C:maj", "F:maj", "G:maj", "C:maj"], piece_id="q0"),
        make_timeline(["C:maj", "F:maj", "G:maj", "A:min"], piece_id="q1"),
        make_timeline(["D:min", "G:7", "C:maj", "A:min"], piece_id="q2"),
        make_timeline(["E:min", "A:min", "B:dim", "E:min"], piece_id="q3"),
    ]
    rows = [("q0", "x"), ("q1", "x"), ("q2", "y"), ("q3", "y")]
    cliques = CliqueSet.from_csv(cliques_csv(rows))
    metrics = evaluate_covers(corpus, cliques, _Dtw())
    ids, matrix = corpus_similarity_matrix(corpus, _Dtw())
    index = {p: i for i, p in enumerate(ids)}
    clique = dict(rows)
    expected = []
    for query in sorted(ids):
        order = sorted((c for c in ids if c != query),
                       key=lambda c: (-matrix[index[query], index[c]], c))
        ranks = [rank for rank, c in enumerate(order, 1)
                 if clique[c] == clique[query]]
        expected.append(oracle_average_precision(ranks))
    got = [q.average_precision for q in metrics.queries]
    assert got == pytest.approx(expected)
    assert metrics.mean_average_precision == pytest.approx(
        sum(expected) / len(expected))


def test_evaluate_requires_full_clique_coverage():
    corpus = [make_timeline(["C:maj"], piece_id="a"),
              make_timeline(["G:maj"], piece_id="b")]
    cliques = CliqueSet.from_csv(cliques_csv([("a", "x")]))
    with pytest.raises(CliqueError):
        evaluate_covers(corpus, cliques)


def test_evaluate_requires_a_usable_query():
    corpus = [make_timeline(["C:maj"], piece_id="a"),
              make_timeline(["G:maj"], piece_id="b")]
    cliques = CliqueSet.from_csv(cliques_csv([("a", "x"), ("b", "y")]))
    with pytest.raises(CliqueError):
        evaluate_covers(corpus, cliques)


def test_metrics_serialization():
    corpus, cliques = covers_corpus()
    metrics = evaluate_covers(corpus, cliques, _Dtw())
    payload = strict_json(metrics.to_json())
    assert payload["measure"] == "dtw"
    assert payload["mean_average_precision"] == 1.0
    assert len(payload["queries"]) == 6
    table = metrics.to_table()
    assert "MAP: 1.0000" in table
    assert table.splitlines()[0].startswith("query")


def oracle_metrics_json(metrics) -> str:
    """``RankingMetrics.to_json`` as it built its payload by hand."""
    payload = {
        "measure": metrics.measure,
        "mean_average_precision": metrics.mean_average_precision,
        "precision_at_1": metrics.precision_at_1,
        "mean_rank_first_relevant": metrics.mean_rank_first_relevant,
        "queries": [
            {"query_id": q.query_id, "average_precision": q.average_precision,
             "first_relevant_rank": q.first_relevant_rank, "top_hit": q.top_hit,
             "top_relevant": q.top_relevant}
            for q in metrics.queries],
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_metrics_json_equals_the_hand_built_payload(measure):
    corpus, cliques = covers_corpus()
    # A copy of song0 filed under another clique, so that some queries miss.
    corpus.append(make_timeline(["C:maj", "F:maj", "G:maj", "C:maj"], piece_id="stray"))
    cliques = CliqueSet({**cliques.mapping, "stray": "c1"})
    metrics = evaluate_covers(corpus, cliques, MEASURES[measure]())
    assert metrics.mean_average_precision < 1.0
    assert metrics.to_json() == oracle_metrics_json(metrics)


def test_comparison_counts_dtw():
    a = make_timeline(["C:maj", "N", "G:maj"], piece_id="a")
    b = make_timeline(["C:maj", "G:maj", "A:min", "F:maj"], piece_id="b")
    sounded_a = sum(1 for e in a.events if not e.chord.is_nochord)
    sounded_b = sum(1 for e in b.events if not e.chord.is_nochord)
    assert comparison_counts(a, b, _Dtw()) == sounded_a * sounded_b == 8


def test_comparison_counts_tpsd():
    a = make_timeline(["C:maj", "G:maj"], beat=2)
    b = make_timeline(["C:maj"] * 3, beat=3)
    la = len(encode_tps(a, "beat").values)
    lb = len(encode_tps(b, "beat").values)
    assert comparison_counts(a, b, _Tpsd()) == la * lb == 4 * 9


def test_comparison_counts_lharp_are_the_pattern_pairs_it_bounds():
    a = make_timeline(["C:maj", "G:maj", "C:maj", "G:maj", "A:min"], piece_id="a")
    b = make_timeline(["F:maj", "C:maj", "F:maj", "C:maj", "F:maj", "C:maj"], piece_id="b")
    for n_min, n_max in [(2, 2), (2, 4), (3, 5)]:
        la, lb = (len(extract_recurrent_patterns(key_relative_events(tl), n_min, n_max))
                  for tl in (a, b))
        assert comparison_counts(a, b, _Lharp(n_min=n_min, n_max=n_max)) == la * lb
    # a repeats C-G; b repeats F-C, C-F, F-C-F, C-F-C and F-C-F-C.
    assert comparison_counts(a, b, _Lharp()) == 1 * 5


def oracle_comparison_counts(a, b, measure, band=None, n_min=2, n_max=4):
    """The per-measure count model, each measure's parameters and defaults
    restated: dtw's cells within its band, tpsd's beat-grid lengths
    multiplied, lharp's recurrent patterns of a times those of b."""
    if measure == "dtw":
        n, m = len(a.sounded()), len(b.sounded())
        if band is None:
            return n * m
        width = max(band, abs(n - m))
        return sum(min(m, i + width + 1) - max(0, i - width) for i in range(n))
    if measure == "tpsd":
        return len(encode_tps(a, "beat").values) * len(encode_tps(b, "beat").values)
    assert measure == "lharp"
    pa, pb = (extract_recurrent_patterns(key_relative_events(tl), n_min, n_max) for tl in (a, b))
    return len(pa) * len(pb)


@st.composite
def counted_timelines(draw, piece_id):
    """Pieces of 1 to 12 events, some of them no-chords or repeats, of 1
    to 3 beats each, under one key or modulating half-way."""
    symbols = draw(st.lists(st.sampled_from(["C:maj", "G:7", "A:min", "F:maj", "N"]),
                            min_size=1, max_size=12).filter(lambda s: set(s) != {"N"}))
    beat = draw(st.integers(1, 3))
    events = [ChordEvent(Fraction(i * beat), Fraction(beat), parse_chord(symbol))
              for i, symbol in enumerate(symbols)]
    keys = [Key.from_string(k) for k in draw(st.lists(
        st.sampled_from(["C:maj", "A:min", "Eb:maj"]), min_size=1,
        max_size=2 if len(symbols) > 1 else 1))]
    cut = len(symbols) // 2 * beat if len(keys) == 2 else len(symbols) * beat
    spans = [KeySpan(Fraction(0), Fraction(cut), keys[0])]
    if len(keys) == 2:
        spans.append(KeySpan(Fraction(cut), Fraction(len(symbols) * beat - cut), keys[1]))
    return build_timeline(piece_id, events, spans)


@given(a=counted_timelines("a"), b=counted_timelines("b"), band=st.integers(0, 8),
       n_min=st.integers(2, 4), extra=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_comparison_counts_equal_the_per_measure_model(a, b, band, n_min, extra):
    """The step classes count as the per-measure model did, with every
    measure's defaults and with drawn bands and pattern lengths."""
    for measure in ("dtw", "tpsd", "lharp"):
        assert comparison_counts(a, b, MEASURES[measure]()) \
            == oracle_comparison_counts(a, b, measure)
    assert comparison_counts(a, b, _Dtw(band=band)) \
        == oracle_comparison_counts(a, b, "dtw", band=band)
    n_max = n_min + extra
    assert comparison_counts(a, b, _Lharp(n_min=n_min, n_max=n_max)) \
        == oracle_comparison_counts(a, b, "lharp", n_min=n_min, n_max=n_max)


def test_benchmark_report_shape():
    corpus = synthetic_corpus(3, 32)
    report = benchmark_measures(corpus, repetitions=3)
    assert report["pieces"] == 3
    assert report["pairs"] == 3
    assert report["repetitions"] == 3
    for measure in ("dtw", "tpsd"):
        stats = report["measures"][measure]
        assert stats["seconds_total_min"] <= stats["seconds_total_median"] \
            <= stats["seconds_total_max"]
        assert stats["median_seconds_per_pair"] > 0
        assert stats["comparisons_total"] == sum(
            row[2] for row in stats["comparisons_per_pair"])
        assert len(stats["comparisons_per_pair"]) == 3
        for ida, idb, count in stats["comparisons_per_pair"]:
            assert count == comparison_counts(
                next(t for t in corpus if t.id == ida),
                next(t for t in corpus if t.id == idb), MEASURES[measure]())


def test_benchmark_counts_lharp_pattern_pairs_with_its_params():
    corpus = synthetic_corpus(3, 32)
    report = benchmark_measures(corpus, measures=(_Lharp(n_min=2, n_max=3),), repetitions=3)
    stats = report["measures"]["lharp"]
    assert stats["comparisons_total"] > 0
    for ida, idb, count in stats["comparisons_per_pair"]:
        a, b = (next(t for t in corpus if t.id == i) for i in (ida, idb))
        assert count == comparison_counts(a, b, _Lharp(n_min=2, n_max=3))


def test_benchmark_times_the_measures_in_turns_within_each_repetition(monkeypatch):
    """A speed spell of the machine falls on every measure: each
    repetition times dtw's and tpsd's whole pass, one after the other,
    rather than all of dtw's repetitions before all of tpsd's."""
    called = []
    monkeypatch.setattr(evaluation, "compare_pieces",
                        lambda steps, a, b: called.append(steps.name))
    corpus = synthetic_corpus(3, 16)
    benchmark_measures(corpus, (_Dtw(), _Tpsd()), repetitions=3)
    passes = [called[i:i + 3] for i in range(0, len(called), 3)]
    assert len(passes) == 6 and all(len(set(run)) == 1 for run in passes)
    for repetition in range(3):
        turns = [run[0] for run in passes[2 * repetition:2 * repetition + 2]]
        assert sorted(turns) == ["dtw", "tpsd"], passes


def test_benchmark_validations():
    corpus = synthetic_corpus(2, 16)
    with pytest.raises(ValueError):
        benchmark_measures(corpus, repetitions=2)
    with pytest.raises(ValueError):
        benchmark_measures(corpus[:1], repetitions=3)
    # Two dtw steps would be timed and counted under one name.
    with pytest.raises(ValueError, match=r"^--measures must name each of dtw, lharp, tpsd "
                                         r"at most once, got dtw,tpsd,dtw$"):
        benchmark_measures(corpus, (_Dtw(), _Tpsd(), _Dtw(band=2)), repetitions=3)


def test_diatonic_triads_major():
    key = Key(0, "major")
    names = [render_chord(diatonic_triad(key, d)) for d in range(7)]
    assert names == ["C:maj", "D:min", "E:min", "F:maj", "G:maj", "A:min", "B:dim"]


def test_diatonic_triads_harmonic_minor():
    key = Key(9, "minor")
    names = [render_chord(diatonic_triad(key, d)) for d in range(7)]
    assert names == ["A:min", "B:dim", "C:aug", "D:min", "E:maj", "F:maj",
                     "Ab:dim"]


def test_synthetic_corpus_deterministic():
    assert synthetic_corpus(4, 64) == synthetic_corpus(4, 64)


def test_synthetic_corpus_ignores_global_random_state():
    random.seed(123)
    first = synthetic_corpus(2, 32)
    random.seed(456)
    second = synthetic_corpus(2, 32)
    assert first == second


def test_synthetic_corpus_refuses_exactly_the_spans_over_the_bound_before_any_event(
        monkeypatch):
    """The span is (N // 4) * 4 beats: N = MAX_SPAN_BEATS + 3 passes the
    check and MAX_SPAN_BEATS + 4 does not, before an event is built."""

    class Built(Exception):
        pass

    def refuse(*args):
        raise Built

    monkeypatch.setattr(evaluation, "ChordEvent", refuse)
    with pytest.raises(Built):
        synthetic_corpus(2, MAX_SPAN_BEATS + 3)
    for beats in (MAX_SPAN_BEATS + 4, 2**22):
        with pytest.raises(ValueError, match=f"^--synthetic-beats must be < {MAX_SPAN_BEATS + 4}, "
                                             f"at most {MAX_SPAN_BEATS // 4} events of 4 beats, "
                                             f"got {beats}$"):
            synthetic_corpus(1, beats)


def test_synthetic_corpus_shape():
    corpus = synthetic_corpus(4, 64)
    assert [tl.id for tl in corpus] == [f"synthetic-{i:02d}" for i in range(4)]
    for p, tl in enumerate(corpus):
        assert tl.end == 64
        assert len(tl.events) == 16
        key = tl.keys[0].key
        assert key.tonic == p % 12
        assert key.mode == ("major" if p % 2 == 0 else "minor")
        diatonic = set(key.diatonic())
        for event in tl.events:
            assert set(pitch_class_set(event.chord)) <= diatonic


def filled_cells(n, m, band):
    """Finite cells of a banded DTW accumulator, by running it."""
    width = max(band, abs(n - m))
    acc = [[inf] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            if abs(i - j) > width:
                continue
            steps = [acc[i - 1][j - 1] if i and j else inf, acc[i - 1][j] if i else inf,
                     acc[i][j - 1] if j else inf]
            acc[i][j] = 0.0 if i == j == 0 else 1.0 + min(steps)
    return sum(value < inf for row in acc for value in row)


def test_comparison_counts_dtw_respects_the_band():
    for n in range(1, 8):
        for m in range(1, 8):
            a = make_timeline(["C:maj"] * n, piece_id="a")
            b = make_timeline(["G:maj"] * m, piece_id="b")
            assert comparison_counts(a, b, _Dtw()) == n * m
            for band in range(0, 9):
                assert comparison_counts(a, b, _Dtw(band=band)) == filled_cells(n, m, band)


def test_benchmark_counts_cells_within_its_band():
    corpus = synthetic_corpus(3, 32)
    report = benchmark_measures(corpus, measures=(_Dtw(band=1),), repetitions=3)
    for ida, idb, count in report["measures"]["dtw"]["comparisons_per_pair"]:
        a, b = (next(t for t in corpus if t.id == i) for i in (ida, idb))
        assert count == comparison_counts(a, b, _Dtw(band=1)) < len(a.sounded()) * len(b.sounded())
