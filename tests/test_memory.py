"""Harmonic memory graph: build, export, import, query.

tests/data/memory_golden.nt was produced once from the three-piece
fixture below and every line checked by hand (segment boundaries from
the block SSMs, merges from key-relative identity, the single
similarTo weight = exp(-7/4/5) = 0.704688).
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from math import exp, fsum
from pathlib import Path
from urllib.parse import unquote

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmory.memory as memory
from harmory.cli import main
from harmory.harte import parse_chord, render_chord
from harmory.memory import (
    BASE,
    EmptyCorpusError,
    EmptyQueryError,
    GraphFormatError,
    MemoryGraph,
    MemoryThresholds,
    PatternQuery,
    PieceInfo,
    build_memory,
    components,
    export_json,
    export_ntriples,
    graph_stats,
    import_ntriples,
    query_similar,
    segment_to_timeline,
)
from harmory.segmentation import Segment, SegmentationParams, segment_timeline
from harmory.similarity import DEFAULT_SCALE, Warps, _Dtw, _dtw, compare_pieces, dtw_align
from harmory.timeline import estimate_key, load_jams
from harmory.tps import Key, distance_table, intern, key_relative_profiles
from tests.conftest import chords, make_timeline, strict_json, transpose

DATA = Path(__file__).parent / "data"
PARAMS = SegmentationParams(kernel_size=4)


def fixture_corpus():
    return [
        make_timeline(["C:maj"] * 4 + ["G:maj"] * 4, piece_id="alpha"),
        make_timeline(["G:maj"] * 4 + ["D:maj"] * 4, key="G:maj", piece_id="beta"),
        make_timeline(["C:maj", "C:maj", "C:maj", "A:min"], piece_id="gamma"),
    ]


def modulating_piece():
    """A JAMS piece that moves from C:maj to G:maj in the middle of its
    second segment, so one key per segment cannot describe it."""
    symbols = ["C:maj"] * 4 + ["D:7", "G:maj", "D:7", "G:maj"]
    doc = {"file_metadata": {"identifiers": {"id": "modulating"}},
           "annotations": [
               {"namespace": "chord_harte",
                "data": [{"time": i, "duration": 1, "value": c}
                         for i, c in enumerate(symbols)]},
               {"namespace": "key_mode",
                "data": [{"time": 0, "duration": 6, "value": "C:maj"},
                         {"time": 6, "duration": 2, "value": "G:maj"}]}]}
    return load_jams(json.dumps(doc))


@lru_cache(maxsize=None)
def graph_and_round_trip():
    graph = build_memory(fixture_corpus() + [modulating_piece()], PARAMS)
    return graph, import_ntriples(export_ntriples(graph))


def closure_groups(nodes, edges):
    """Connected components by breadth-first search (reference for
    ``components``)."""
    neighbours = {n: set() for n in nodes}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, groups = set(), []
    for start in nodes:
        if start in seen:
            continue
        queue, component = [start], set()
        while queue:
            node = queue.pop()
            if node in component:
                continue
            component.add(node)
            queue.extend(neighbours[node] - component)
        seen |= component
        groups.append(sorted(component))
    return sorted(groups)


def test_components_match_bfs_closure():
    rng = random.Random(17)
    for trial in range(30):
        n = rng.randint(1, 20)
        nodes = [f"s{i:02d}" for i in range(n)]
        rng.shuffle(nodes)
        edges = [(rng.choice(nodes), rng.choice(nodes))
                 for _ in range(rng.randint(0, 2 * n))]
        assert components(nodes, edges) == closure_groups(sorted(nodes), edges)


def test_build_fixture_structure():
    graph = build_memory(fixture_corpus(), PARAMS)
    assert sorted(graph.pieces) == ["alpha", "beta", "gamma"]
    assert [s.id for s in graph.pieces["alpha"].segments] == ["alpha/seg/0", "alpha/seg/1"]
    assert sorted(graph.segments) == [
        "alpha/seg/0", "alpha/seg/1", "beta/seg/0", "beta/seg/1", "gamma/seg/0"]
    assert sorted(graph.patterns) == ["alpha/seg/0", "alpha/seg/1", "gamma/seg/0"]
    assert sorted(graph.patterns["alpha/seg/0"]) == ["alpha/seg/0", "beta/seg/0"]
    assert sorted(graph.patterns["alpha/seg/1"]) == ["alpha/seg/1", "beta/seg/1"]
    assert graph.similar == (("alpha/seg/0", "gamma/seg/0",
                              pytest.approx(exp(-0.35))),)


def test_merging_matches_brute_force_closure():
    corpus = fixture_corpus() + [
        make_timeline(["A:min"] * 4 + ["E:7"] * 4, piece_id="delta"),
        make_timeline(["D:maj"] * 4 + ["A:maj"] * 4, key="D:maj", piece_id="eps"),
    ]
    theta_merge = 0.9
    graph = build_memory(corpus, PARAMS, MemoryThresholds(theta_merge=theta_merge))
    segments = [seg for tl in corpus for seg in segment_timeline(tl, PARAMS).segments]
    assert len(segments) <= 20
    ids = sorted(s.id for s in segments)
    by_id = {s.id: s for s in segments}
    edges = []
    for i, sa in enumerate(ids):
        for sb in ids[i + 1:]:
            score = compare_pieces(_Dtw(), segment_to_timeline(by_id[sa]),
                                   segment_to_timeline(by_id[sb])).score
            if score >= theta_merge:
                edges.append((sa, sb))
    expected = closure_groups(ids, edges)
    got = sorted(sorted(members) for members in graph.patterns.values())
    assert got == expected


def test_medoid_tie_breaks_lexicographic():
    graph = build_memory(fixture_corpus(), PARAMS)
    # both members score 1.0 with each other: tie -> smallest id
    assert graph.patterns["alpha/seg/0"] == ("alpha/seg/0", "beta/seg/0")


def test_export_matches_golden_bytes():
    graph = build_memory(fixture_corpus(), PARAMS)
    assert export_ntriples(graph) == (DATA / "memory_golden.nt").read_bytes()


def test_ids_prefixed_in_their_order_move_no_line_of_the_golden():
    """memory.nt is ordered by its ids, not by their spelling: prefixing
    every piece id with ``x`` keeps the ids' order, so the file is the
    golden with each id prefixed, its weight line still under its edge."""
    corpus = [make_timeline(["C:maj"] * 4 + ["G:maj"] * 4, piece_id="xalpha"),
              make_timeline(["G:maj"] * 4 + ["D:maj"] * 4, key="G:maj", piece_id="xbeta"),
              make_timeline(["C:maj", "C:maj", "C:maj", "A:min"], piece_id="xgamma")]
    golden = (DATA / "memory_golden.nt").read_text()
    expected = re.sub(r"\b(alpha|beta|gamma)\b", r"x\1", golden)
    assert "<urn:harmory:sim/xalpha/seg/0/xgamma/seg/0>" in expected
    assert export_ntriples(build_memory(corpus, PARAMS)) == expected.encode()


def test_export_deterministic_across_runs():
    first = export_ntriples(build_memory(fixture_corpus(), PARAMS))
    second = export_ntriples(build_memory(fixture_corpus(), PARAMS))
    assert first == second


def test_import_round_trip():
    graph = build_memory(fixture_corpus(), PARAMS)
    data = export_ntriples(graph)
    back = import_ntriples(data)
    assert export_ntriples(back) == data
    assert sorted(back.pieces) == sorted(graph.pieces)
    assert {s: [str(c) for c in seg.chords] for s, seg in back.segments.items()} \
        == {s: [str(c) for c in seg.chords] for s, seg in graph.segments.items()}
    assert {p: sorted(v) for p, v in back.patterns.items()} \
        == {p: sorted(v) for p, v in graph.patterns.items()}
    assert [(a, b) for a, b, _ in back.similar] \
        == [(a, b) for a, b, _ in graph.similar]


def test_import_golden_file():
    graph = import_ntriples((DATA / "memory_golden.nt").read_bytes())
    assert sorted(graph.pieces) == ["alpha", "beta", "gamma"]
    assert [str(c) for c in graph.segments["gamma/seg/0"].chords] \
        == ["C:maj", "C:maj", "C:maj", "A:min"]
    (a, b, weight), = graph.similar
    assert (a, b) == ("alpha/seg/0", "gamma/seg/0")
    assert weight == pytest.approx(0.704688, abs=5e-7)


def test_import_parses_each_distinct_chord_token_once():
    data = (DATA / "memory_golden.nt").read_bytes()
    tokens = [token for line in data.decode().splitlines() if "chordSequence" in line
              for token in line.split('"')[1].split()]
    parse_chord.cache_clear()
    graph = import_ntriples(data)
    assert len(tokens) > len(set(tokens))
    assert parse_chord.cache_info().misses == len(set(tokens))
    with_bad_token = data.replace(b'"C:maj C:maj C:maj A:min"', b'"C:maj C:maj H:maj A:min"')
    with pytest.raises(GraphFormatError, match="^line 22: chordSequence of gamma/seg/0: "
                                               "token 3 'H:maj': position 0: expected note"):
        import_ntriples(with_bad_token)
    assert graph.segments == import_ntriples(data).segments


def test_import_parses_each_distinct_key_token_once():
    data = (DATA / "memory_golden.nt").read_bytes()
    tokens = [token for line in data.decode().splitlines() if "keySequence" in line
              for token in line.split('"')[1].split()]
    Key.from_string.cache_clear()
    graph = import_ntriples(data)
    assert len(tokens) > len(set(tokens))
    assert Key.from_string.cache_info().misses == len(set(tokens))
    with_bad_token = data.replace(b'"C:maj C:maj C:maj C:maj"', b'"C:maj C:maj H:maj C:maj"', 1)
    with pytest.raises(GraphFormatError,
                       match="^line 3: chordSequence of alpha/seg/0: token 3 'H:maj': "
                             "position 0: expected note"):
        import_ntriples(with_bad_token)
    assert graph.segments == import_ntriples(data).segments


def test_exports_and_queries_render_each_distinct_chord_once():
    graph = build_memory(fixture_corpus() + [modulating_piece()], PARAMS)
    distinct = {chord for segment in graph.segments.values() for chord in segment.chords}
    query = PatternQuery(chords=(parse_chord("C:maj"),), k=9)
    expected = (export_ntriples(graph), export_json(graph), query_similar(graph, query))
    for export in (export_ntriples, export_json):
        render_chord.cache_clear()
        export(graph)
        assert render_chord.cache_info().misses == len(distinct)
    # The cache is the renderer's own: the JSON export after the
    # N-Triples export renders no chord again.
    render_chord.cache_clear()
    export_ntriples(graph)
    export_json(graph)
    assert render_chord.cache_info().misses == len(distinct)
    render_chord.cache_clear()
    results = query_similar(graph, query)
    shown = [graph.segments[pattern_id].chords for pattern_id, _, _ in results]
    assert render_chord.cache_info().misses == len(set().union(*shown)) \
        < sum(map(len, shown))
    assert (export_ntriples(graph), export_json(graph), results) == expected


def test_import_keeps_keys_that_change_inside_a_segment():
    graph, back = graph_and_round_trip()
    assert [str(k) for k in graph.segments["modulating/seg/1"].keys] \
        == ["C:maj", "C:maj", "G:maj", "G:maj"]
    assert back.segments == graph.segments


@given(progression=st.lists(chords(), min_size=1, max_size=6),
       key=st.none() | st.builds(Key, st.integers(0, 11), st.sampled_from(["major", "minor"])))
@settings(max_examples=60, deadline=None)
def test_query_ranks_the_same_after_the_round_trip(progression, key):
    graph, back = graph_and_round_trip()
    query = PatternQuery(chords=tuple(progression), key=key, k=len(graph.patterns))
    expected = [(i, round(s, 6)) for i, s, _ in query_similar(graph, query)]
    assert [(i, round(s, 6)) for i, s, _ in query_similar(back, query)] == expected


def test_import_rejects_key_sequences_that_do_not_fit():
    good = (DATA / "memory_golden.nt").read_bytes()
    line = b'<urn:harmory:gamma/seg/0> <urn:harmory:keySequence> "C:maj C:maj C:maj C:maj" .\n'
    assert line in good
    for bad in (b"", line.replace(b"C:maj C:maj C:maj C:maj", b"C:maj C:maj C:maj"),
                line.replace(b"C:maj C:maj C:maj C:maj", b"C:maj C:maj C:maj H:maj")):
        with pytest.raises(GraphFormatError, match="gamma/seg/0"):
            import_ntriples(good.replace(line, bad))


def test_import_rejects_garbage():
    with pytest.raises(GraphFormatError):
        import_ntriples(b"not a triple line\n")
    with pytest.raises(GraphFormatError):
        import_ntriples(
            b'<urn:harmory:x> <urn:harmory:unknownPredicate> <urn:harmory:y> .\n')


def test_build_validations():
    with pytest.raises(EmptyCorpusError):
        build_memory([], PARAMS)
    corpus = fixture_corpus()
    for theta_sim in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=rf"^--theta-sim must be a number in \(0, 1\], "
                                             rf"got {theta_sim}$"):
            build_memory(corpus, PARAMS, MemoryThresholds(theta_sim=theta_sim))
    for theta_sim, theta_merge in ((0.8, 0.5), (0.6, float("nan"))):
        with pytest.raises(ValueError, match=rf"^--theta-merge must be >= --theta-sim "
                                             rf"\({theta_sim}\), got {theta_merge}$"):
            build_memory(corpus, PARAMS, MemoryThresholds(theta_sim, theta_merge))
    duplicate = [corpus[0], corpus[0]]
    with pytest.raises(ValueError, match=f"duplicate piece id '{corpus[0].id}'"):
        build_memory(duplicate, PARAMS)


def test_query_medoid_returns_itself_first():
    graph = build_memory(fixture_corpus(), PARAMS)
    query = PatternQuery(chords=tuple(parse_chord(c) for c in ["C:maj"] * 4),
                         key=None, k=3)
    results = query_similar(graph, query)
    assert results[0][0] == "alpha/seg/0"
    assert results[0][1] == 1.0
    assert results[0][2] == "C:maj C:maj C:maj C:maj"
    assert len(results) == 3


def test_query_ties_rank_by_id():
    graph = build_memory(fixture_corpus(), PARAMS)
    query = PatternQuery(chords=(parse_chord("C:maj"),), key=None, k=3)
    results = query_similar(graph, query)
    scores = [s for _, s, _ in results]
    assert scores == sorted(scores, reverse=True)
    for (ida, sa, _), (idb, sb, _) in zip(results, results[1:]):
        if sa == sb:
            assert ida < idb


def test_query_respects_k():
    graph = build_memory(fixture_corpus(), PARAMS)
    query = PatternQuery(chords=(parse_chord("C:maj"),), key=None, k=1)
    assert len(query_similar(graph, query)) == 1


def test_query_drops_nochords_and_rejects_empty():
    graph = build_memory(fixture_corpus(), PARAMS)
    okay = PatternQuery(chords=(parse_chord("N"), parse_chord("C:maj")), k=1)
    assert query_similar(graph, okay)
    with pytest.raises(EmptyQueryError):
        query_similar(graph, PatternQuery(chords=(parse_chord("N"),), k=1))


def test_graph_stats_golden():
    stats = graph_stats(build_memory(fixture_corpus(), PARAMS))
    assert stats == {
        "nodes": {"pieces": 3, "segments": 5, "patterns": 3},
        "edges": {"hasSegment": 5, "nextSegment": 2, "instanceOf": 5,
                  "similarTo": 1},
        "similar_components": {"count": 2, "sizes": [2, 1]},
        "degree_histogram": {"0": 1, "1": 2},
    }


def test_export_json_shape():
    graph = build_memory(fixture_corpus(), PARAMS)
    payload = strict_json(export_json(graph))
    assert set(payload) == {"nodes", "edges"}
    node_ids = [n["id"] for n in payload["nodes"]]
    assert "alpha" in node_ids and "alpha/seg/0" in node_ids
    similar_edges = [e for e in payload["edges"] if e["type"] == "similarTo"]
    assert similar_edges == [{"source": "alpha/seg/0", "type": "similarTo",
                              "target": "gamma/seg/0", "weight": 0.704688}]
    assert export_json(graph) == export_json(build_memory(fixture_corpus(), PARAMS))


def test_segment_to_timeline():
    segments = segment_timeline(fixture_corpus()[0], PARAMS).segments
    tl = segment_to_timeline(segments[0])
    assert tl.id == "alpha/seg/0"
    assert len(tl.events) == 4
    assert compare_pieces(_Dtw(), tl, tl).score == 1.0


def exhaustive_memory(corpus, seg_params, theta_sim, theta_merge, scale):
    """The memory graph by scoring every pair of segments, each through
    dtw's ``compare_pieces`` on the segments' own timelines, each link
    decided on its score and weighted by it to six places: the oracle for
    ``build_memory``'s pruning."""
    pieces = {tl.id: PieceInfo(tl.title, tl.artist,
                               tuple(segment_timeline(tl, seg_params).segments))
              for tl in sorted(corpus, key=lambda t: t.id)}
    segments = {s.id: s for piece in pieces.values() for s in piece.segments}
    ordered = sorted(segments)
    scores = {(a, b): compare_pieces(_Dtw(scale), segment_to_timeline(segments[a]),
                                     segment_to_timeline(segments[b])).score
              for i, a in enumerate(ordered) for b in ordered[i + 1:]}
    patterns = {}
    for group in closure_groups(ordered, [pair for pair, value in scores.items()
                                          if value >= theta_merge]):
        totals = {s: fsum(scores[tuple(sorted((s, o)))] for o in group if o != s)
                  for s in group}
        best = max(totals.values())
        medoid = min(s for s, value in totals.items() if value == best)
        patterns[medoid] = tuple(group)
    medoids = sorted(patterns)
    similar = tuple((a, b, round(scores[a, b], 6)) for i, a in enumerate(medoids)
                    for b in medoids[i + 1:] if scores[a, b] >= theta_sim)
    return MemoryGraph(pieces=pieces, patterns=patterns, similar=similar)


def assert_same_exports(graph, expected):
    assert export_ntriples(graph) == export_ntriples(expected)
    assert export_json(graph) == export_json(expected)


# Four-chord sections shared between pieces, so that segments repeat,
# merge and link; pieces are transposed, which key-relative codes undo.
SECTIONS = (["C:maj", "A:min", "F:maj", "G:7"], ["F:maj", "G:maj", "C:maj", "C:maj"],
            ["A:min", "E:7", "A:min", "E:7"], ["D:min", "G:7", "C:maj", "A:min"],
            ["C:maj", "C:maj", "G:maj", "G:maj"])


@st.composite
def section_corpora(draw):
    corpus = []
    for p in range(draw(st.integers(1, 4))):
        chords = [chord for s in draw(st.lists(st.sampled_from(SECTIONS), min_size=1,
                                               max_size=4)) for chord in s]
        if draw(st.booleans()):
            chords[draw(st.integers(0, len(chords) - 1))] = draw(
                st.sampled_from(["D:7", "Bb:maj", "E:min", "F#:dim"]))
        piece = make_timeline(chords, key=draw(st.sampled_from(["C:maj", "A:min"])),
                              piece_id=f"p{p}")
        corpus.append(transpose(piece, draw(st.integers(0, 11))))
    return corpus


@given(corpus=section_corpora(),
       theta_sim=st.sampled_from([0.3, 0.6, 0.75, 0.9, 1.0]) | st.floats(0.01, 1.0),
       merge_step=st.sampled_from([0.0, 0.0, 0.1, 0.3, 1.0]),
       scale=st.sampled_from([1.0, 2.0, 5.0]))
@settings(max_examples=60, deadline=None)
def test_pruned_build_exports_what_scoring_every_pair_exports(corpus, theta_sim,
                                                              merge_step, scale):
    theta_merge = theta_sim + merge_step
    thresholds = MemoryThresholds(theta_sim, theta_merge)
    assert_same_exports(build_memory(corpus, PARAMS, thresholds, scale),
                        exhaustive_memory(corpus, PARAMS, theta_sim, theta_merge, scale))


@pytest.mark.parametrize("theta_sim,theta_merge", [(0.6, 0.9), (0.6, 0.6), (1.0, 1.0),
                                                   (0.05, 0.05), (0.5, 1.5)])
def test_pruned_build_matches_the_oracle_at_edge_thresholds(theta_sim, theta_merge):
    corpus = fixture_corpus() + [modulating_piece()]
    assert_same_exports(build_memory(corpus, PARAMS, MemoryThresholds(theta_sim, theta_merge)),
                        exhaustive_memory(corpus, PARAMS, theta_sim, theta_merge, 5.0))


@given(order=st.permutations(range(4)),
       thresholds=st.sampled_from([(0.6, 0.9), (0.05, 0.05)]))
@settings(max_examples=20, deadline=None)
def test_build_exports_do_not_depend_on_the_corpus_order(order, thresholds):
    """Whatever order the pieces come in, and so their segments' code
    sequences are registered in, the graph exports the same bytes."""
    corpus = fixture_corpus() + [modulating_piece()]
    thresholds = MemoryThresholds(*thresholds)
    assert_same_exports(build_memory([corpus[i] for i in order], PARAMS, thresholds),
                        build_memory(corpus, PARAMS, thresholds))


def test_medoid_counts_the_pairs_the_bound_prunes_inside_a_pattern():
    """Five pieces chain into one pattern, though the bound prunes pairs
    inside it.  Counted as absent, those pairs would make p1 the medoid."""
    symbol = {"X": "C:maj", "Y": "A:min"}
    corpus = [make_timeline([symbol[c] for c in word], piece_id=f"p{i}")
              for i, word in enumerate(["XXYXYY", "XYXXXY", "XYYXXY", "YYXXXX", "YYYYXY"])]
    params = SegmentationParams(kernel_size=4, min_len=4)
    graph = build_memory(corpus, params, MemoryThresholds(0.6, 0.6), scale=2.0)
    assert list(graph.patterns) == ["p2/seg/0"]
    assert len(graph.patterns["p2/seg/0"]) == 5
    shared = Warps()
    codes = shared.register_events([segment.events() for segment in graph.segments.values()])
    bounds = shared.bounds()[np.ix_(codes, codes)]
    assert (np.exp(-bounds / 2.0) < 0.6).any()
    assert_same_exports(graph, exhaustive_memory(corpus, params, 0.6, 0.6, 2.0))


def test_each_ordered_sequence_pair_is_warped_at_most_once(monkeypatch):
    import harmory.similarity as similarity

    warped = []

    def counting(a, b, *args, **kwargs):
        warped.append((tuple(a), tuple(b)))
        return _dtw(a, b, *args, **kwargs)

    monkeypatch.setattr(similarity, "_dtw", counting)
    graph = build_memory(fixture_corpus(), PARAMS)
    n = len(graph.segments)
    assert 0 < len(warped) < n * (n - 1) // 2
    assert len(warped) == len({tuple(sorted(pair)) for pair in warped})
    assert export_ntriples(graph) == (DATA / "memory_golden.nt").read_bytes()


@pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
def test_build_and_query_refuse_the_scales_dtw_refuses_before_any_work(monkeypatch, scale):
    graph = build_memory(fixture_corpus(), PARAMS)
    with pytest.raises(ValueError) as refused:
        _Dtw(scale)
    message = f"^{re.escape(str(refused.value))}$"
    monkeypatch.setattr(memory, "segment_timeline", None)  # never reached
    with pytest.raises(ValueError, match=message):
        build_memory(fixture_corpus(), PARAMS, scale=scale)
    monkeypatch.setattr(memory, "estimate_key", None)
    with pytest.raises(ValueError, match=message):
        query_similar(graph, PatternQuery(chords=(parse_chord("C:maj"),)), scale=scale)


def test_build_and_query_profile_their_sequences_in_one_pass(monkeypatch):
    """The build profiles every segment, and a query its probe and every
    medoid, in one ``key_relative_profiles`` pass."""
    import harmory.similarity as similarity
    import harmory.tps as tps

    calls = []
    profiles = tps.key_relative_profiles

    def counting(events):
        calls.append(events)
        return profiles(events)

    for module in (tps, similarity, memory):
        if hasattr(module, "key_relative_profiles"):
            monkeypatch.setattr(module, "key_relative_profiles", counting)
    graph = build_memory(fixture_corpus(), PARAMS)
    assert len(calls) == 1 < len(graph.segments)
    assert export_ntriples(graph) == (DATA / "memory_golden.nt").read_bytes()
    calls.clear()
    query_similar(graph, PatternQuery(chords=(parse_chord("C:maj"), parse_chord("G:maj"))))
    assert len(calls) == 1 < len(graph.patterns)


def test_one_warp_serves_both_orders_of_a_pair():
    """p1 meets the sequence that p0 and p2 share once from each side.  The
    backtrack meets an up/left tie there and keeps the shorter of its two
    traces, so both orders cost 22 over 5 cells, p0 and p2 tie as medoids,
    and the lower id wins."""
    shared = ["E:min", "E:min", "C:maj", "A:min", "C:maj"]
    corpus = [make_timeline(shared, piece_id="p0"),
              make_timeline(["A:min", "A:min", "G:maj", "C:maj"], piece_id="p1"),
              make_timeline(shared, piece_id="p2")]
    for a, b in ((corpus[0], corpus[1]), (corpus[1], corpus[0])):
        alignment = dtw_align(a, b)
        assert (alignment.cost, len(alignment.path)) == (22.0, 5)
    params = SegmentationParams(kernel_size=4, min_len=4)
    graph = build_memory(corpus, params, MemoryThresholds(0.4, 0.4))
    assert list(graph.patterns) == ["p0/seg/0"]
    assert_same_exports(graph, exhaustive_memory(corpus, params, 0.4, 0.4, 5.0))


def test_the_medoid_is_picked_by_an_exact_total():
    """p0/seg/0 and p1/seg/4 share a sequence and tie on an exact total;
    summed in id order, rounding puts p1/seg/4 ahead."""
    progression = ["C:maj", "A:min", "F:maj", "G:7"] * 2
    corpus = [make_timeline(progression, piece_id="p0"),
              make_timeline(progression + ["D:min", "G:7", "C:maj", "A:min", "F:maj", "G:maj",
                                           "C:maj", "C:maj"], piece_id="p1")]
    graph = build_memory(corpus, PARAMS, MemoryThresholds(0.3, 0.3), scale=2.0)
    assert graph.patterns["p0/seg/0"] == ("p0/seg/0", "p1/seg/0", "p1/seg/2", "p1/seg/4")


def sequence(segment):
    return tuple(key_relative_profiles(segment.events()))


@given(corpus=section_corpora(), theta_sim=st.sampled_from([0.3, 0.6, 0.9]),
       merge_step=st.sampled_from([0.0, 0.1]), scale=st.sampled_from([1.0, 2.0, 5.0]))
@settings(max_examples=40, deadline=None)
def test_no_twin_of_a_medoid_has_a_smaller_id(corpus, theta_sim, merge_step, scale):
    graph = build_memory(corpus, PARAMS, MemoryThresholds(theta_sim, theta_sim + merge_step),
                         scale)
    for medoid, members in graph.patterns.items():
        own = sequence(graph.segments[medoid])
        assert not [m for m in members if m < medoid and sequence(graph.segments[m]) == own]


@given(corpus=section_corpora(), copied=st.integers(0, 3),
       theta_sim=st.sampled_from([0.3, 0.6, 0.9]), merge_step=st.sampled_from([0.0, 0.1]))
@settings(max_examples=40, deadline=None)
def test_a_copied_piece_joins_the_patterns_of_its_original(corpus, copied, theta_sim,
                                                           merge_step):
    """A copy of a piece under an id that sorts last leaves the patterns
    of the other segments as they were, and each copy segment joins its
    original's pattern."""
    original = corpus[copied % len(corpus)]
    thresholds = MemoryThresholds(theta_sim, theta_sim + merge_step)
    graph = build_memory(corpus, PARAMS, thresholds)
    with_copy = build_memory(corpus + [replace(original, id="zz")], PARAMS, thresholds)
    copies = {seg_id for seg_id in with_copy.segments if seg_id.startswith("zz/")}
    assert sorted(tuple(m for m in members if m not in copies)
                  for members in with_copy.patterns.values()) == sorted(graph.patterns.values())
    pattern_of = {m: medoid for medoid, members in with_copy.patterns.items() for m in members}
    for seg_id in copies:
        assert pattern_of[seg_id] == pattern_of[seg_id.replace("zz/", f"{original.id}/", 1)]


# The import's line loop and the query's pricing as they were before each
# did its work once: exact oracles of the ones in harmory.memory.
ORACLE_TRIPLE = re.compile(r'^<([^>]*)> <([^>]*)> (?:<([^>]*)>|"((?:[^"\\]|\\.)*)") \.$')


def oracle_triples(text):
    """Each line matched a character of a literal at a time, its groups read
    one by one and every IRI unquoted.  It does not check the object's
    prefix, so it agrees with ``memory._triples`` only on graphs whose IRIs
    all lie under BASE."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        match = ORACLE_TRIPLE.match(raw)
        if not match or not (match.group(1).startswith(BASE)
                             and match.group(2).startswith(BASE)):
            raise GraphFormatError(f"line {lineno}: not a recognized triple")
        subject = unquote(match.group(1)[len(BASE):])
        predicate = match.group(2)[len(BASE):]
        obj_uri = match.group(3)
        obj = unquote(obj_uri[len(BASE):]) if obj_uri \
            else memory._unquote_literal(match.group(4))
        yield lineno, subject, predicate, obj


def oracle_query_similar(graph, query, scale=DEFAULT_SCALE):
    """Each medoid's events profiled and interned by a call of its own."""
    chords = [c for c in query.chords if not c.is_nochord]
    key = query.key or estimate_key(chords)
    probe_vocab, medoid_vocab = {}, {}
    probe = intern(key_relative_profiles((chord, key) for chord in chords), probe_vocab)
    medoids = {pattern_id: graph.segments[pattern_id] for pattern_id in sorted(graph.patterns)}
    codes = {pattern_id: intern(key_relative_profiles(medoid.events()), medoid_vocab)
             for pattern_id, medoid in medoids.items()}
    table = distance_table(probe_vocab, medoid_vocab)
    scores = {pattern_id: exp(-_dtw(probe, codes[pattern_id], table=table).normalized_cost
                              / scale) for pattern_id in medoids}
    top = sorted(scores, key=lambda pattern_id: (-scores[pattern_id], pattern_id))[:query.k]
    return [(pattern_id, scores[pattern_id],
             " ".join(map(render_chord, medoids[pattern_id].chords))) for pattern_id in top]


QUERIES = [PatternQuery(chords=tuple(map(parse_chord, progression.split())), key=key, k=k)
           for progression, key, k in [("C:maj", None, 9), ("C:maj A:min F:maj G:7", None, 3),
                                       ("G:7 C:maj", Key(7, "minor"), 2),
                                       ("D:min N G:7 C:maj", Key(0), 50)]]


def assert_import_and_queries_match_the_oracles(data: bytes) -> MemoryGraph:
    """The oracle's triples, the graph they build and the oracle's rows."""
    graph = import_ntriples(data)
    assert list(memory._triples(data.decode())) == list(oracle_triples(data.decode()))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(memory, "_triples", oracle_triples)
        assert import_ntriples(data) == graph
    for query in QUERIES:
        assert query_similar(graph, query) == oracle_query_similar(graph, query)
    return graph


@given(corpus=section_corpora(), theta_sim=st.sampled_from([0.3, 0.6, 0.9]))
@settings(max_examples=40, deadline=None)
def test_import_and_query_match_the_oracles_on_built_graphs(corpus, theta_sim):
    graph = build_memory(corpus, PARAMS, MemoryThresholds(theta_sim, theta_sim))
    assert_import_and_queries_match_the_oracles(export_ntriples(graph))


def test_import_and_query_match_the_oracles_on_an_edited_golden_graph():
    """CRLF endings, whitespace-only lines, needlessly percent-encoded ids
    and literals whose spaces are escaped line breaks read as the golden
    graph itself does."""
    golden = (DATA / "memory_golden.nt").read_bytes()
    lines = []
    for line in golden.decode().splitlines():
        iris, quote_, literal = line.removesuffix('" .').partition(' "')
        iris = iris.replace("alpha/", "%61lpha/").replace("seg/0", "seg%2F0")
        literal = literal.replace(" ", "\\n").replace("\\n", "\\r", 1)
        lines += [f'{iris} "{literal}" .' if quote_ else iris, " \t "]
    data = "\r\n".join(lines).encode()
    assert b"%61lpha" in data and b"seg%2F0" in data and b"\\n" in data and b"\\r" in data
    assert assert_import_and_queries_match_the_oracles(data) == import_ntriples(golden)


# Lines near a triple: IRIs in and out of the base, fields with brackets,
# quotes, escapes and percent signs, and right and wrong endings.
FIELDS = st.text(alphabet='a/%4>\\" n', max_size=6)
IRIS = st.builds("<{}{}>".format, st.sampled_from([BASE, "", BASE[:-2], "X" * len(BASE)]),
                 FIELDS)
LINES = st.builds("{} {} {}{}".format, IRIS, IRIS, IRIS | FIELDS.map('"{}"'.format),
                  st.sampled_from([" .", ".", " . ", ""]))


@given(LINES)
@settings(max_examples=500, deadline=None)
def test_triple_pattern_reads_lines_as_the_oracle_pattern_reads_them(line):
    """Where the old pattern matched and every IRI lies under BASE, the new
    one gives the same fields without BASE; elsewhere it does not match."""
    old = ORACLE_TRIPLE.match(line)
    new = memory._TRIPLE.match(line)
    if old and all(iri is None or iri.startswith(BASE) for iri in old.groups()[:3]):
        assert new.groups() == tuple(
            group[len(BASE):] if group is not None and i < 3 else group
            for i, group in enumerate(old.groups()))
    else:
        assert new is None


@pytest.mark.parametrize("obj", ["<XXXXXXXXXXXXpop00/seg/0>", "<>", "<urn:harmory>",
                                 "<http://example.org/pop00/seg/0>"])
def test_import_rejects_object_iris_outside_the_base(obj):
    golden = (DATA / "memory_golden.nt").read_bytes()
    line = f"<urn:harmory:gamma/seg/0> <urn:harmory:instanceOf> {obj} ."
    for at in (0, 7):
        lines = golden.decode().splitlines()
        lines.insert(at, line)
        with pytest.raises(GraphFormatError, match=rf"^line {at + 1}: not a recognized triple$"):
            import_ntriples("\n".join(lines).encode())


def test_an_escaped_backslash_before_n_reads_as_a_backslash_and_n():
    assert memory._unquote_literal(r"a\\nb") == "a\\nb"


@given(st.text(alphabet='ab"\\nr\n\r'))
@settings(max_examples=300, deadline=None)
def test_unquote_literal_reads_back_what_literal_writes(text):
    """The import reads the export's escape table backwards, in one pass."""
    assert memory._unquote_literal(memory._literal(text)[1:-1]) == text


GOLDEN_NT = (DATA / "memory_golden.nt").read_bytes()
GOLDEN_NT_LINES = GOLDEN_NT.decode().splitlines()


def test_a_repeated_triple_is_read_once():
    """An N-Triples graph is a set: the golden with every line doubled, and
    with one triple written again in another spelling, is the golden graph."""
    doubled = "".join(f"{line}\n{line}\n" for line in GOLDEN_NT_LINES)
    respelled = doubled + "<urn:harmory:%61lpha> <urn:harmory:hasSegment> " \
                          "<urn:harmory:alpha%2Fseg/0> .\n"
    golden = import_ntriples(GOLDEN_NT)
    for data in (doubled, respelled):
        graph = import_ntriples(data.encode())
        assert graph == golden
        assert export_ntriples(graph) == GOLDEN_NT


@given(order=st.permutations(range(len(GOLDEN_NT_LINES))),
       repeats=st.lists(st.tuples(st.integers(0, len(GOLDEN_NT_LINES) - 1),
                                  st.integers(0, 2 * len(GOLDEN_NT_LINES))), max_size=12))
@settings(max_examples=200, deadline=None)
def test_any_order_and_repeats_of_the_golden_lines_re_export_to_the_golden(order, repeats):
    lines = [GOLDEN_NT_LINES[i] for i in order]
    for line, at in repeats:
        lines.insert(at, GOLDEN_NT_LINES[line])
    assert export_ntriples(import_ntriples("\n".join(lines).encode())) == GOLDEN_NT


@pytest.mark.parametrize("line, second", [
    ('<urn:harmory:alpha/seg/0> <urn:harmory:chordSequence> "C:maj C:maj C:maj C:maj" .',
     '"C:maj C:maj C:maj G:maj"'),
    ('<urn:harmory:alpha/seg/0> <urn:harmory:keySequence> "C:maj C:maj C:maj C:maj" .',
     '"C:maj C:maj C:maj G:maj"'),
    ("<urn:harmory:beta/seg/0> <urn:harmory:instanceOf> <urn:harmory:alpha/seg/0> .",
     "<urn:harmory:beta/seg/0>"),
    ('<urn:harmory:sim/alpha/seg/0/gamma/seg/0> <urn:harmory:weight> "0.704688" .',
     '"0.704689"'),
], ids=["chordSequence", "keySequence", "instanceOf", "weight"])
def test_a_second_object_of_a_single_valued_predicate_is_an_error(line, second):
    """A subject has one chordSequence, keySequence, instanceOf and weight;
    a second, different object names its own line and the first one's."""
    subject, predicate, _ = line.split(" ", 2)
    conflicting = f"{subject} {predicate} {second} ."
    name, kind = subject[len("<urn:harmory:"):-1], predicate[len("<urn:harmory:"):-1]
    first = GOLDEN_NT_LINES.index(line) + 1
    for at, (later, earlier) in ((len(GOLDEN_NT_LINES), (len(GOLDEN_NT_LINES) + 1, first)),
                                 (0, (first + 1, 1))):
        lines = list(GOLDEN_NT_LINES)
        lines.insert(at, conflicting)
        with pytest.raises(GraphFormatError) as raised:
            import_ntriples("\n".join(lines).encode())
        assert str(raised.value) == \
            f"line {later}: a second {kind} of {name}, not the one of line {earlier}"


def triple_line(subject, predicate, obj):
    """A line of N-Triples under BASE; ``obj`` is a literal when quoted."""
    obj = obj if obj.startswith('"') else f"<{BASE}{obj}>"
    return f"<{BASE}{subject}> <{BASE}{predicate}> {obj} ."


# Edits of the golden graph that spell graphs build_memory cannot write,
# each with the error the import raises: (lines dropped, lines added at
# the end, a text replacement, message).  The golden's line 25 is the
# first added line.
GOLDEN_DEFECTS = {
    "segment-gap": ((), (), ("alpha/seg/1", "alpha/seg/2"),
                    "line 2: hasSegment alpha alpha/seg/2: segment 1 of alpha must be "
                    "alpha/seg/1"),
    "segment-in-no-pattern": (
        [triple_line("beta/seg/1", "instanceOf", "alpha/seg/1")], (), None,
        "segment beta/seg/1: a member of no pattern (instanceOf)"),
    "medoid-not-a-member": (
        [triple_line("alpha/seg/0", "instanceOf", "alpha/seg/0")], (), None,
        "line 14: instanceOf beta/seg/0 alpha/seg/0: pattern alpha/seg/0 must be keyed by "
        "its medoid, one of its members"),
    "reversed-edge": (
        (), [triple_line("gamma/seg/0", "similarTo", "alpha/seg/0"),
             triple_line("sim/gamma/seg/0/alpha/seg/0", "weight", '"0.500000"')], None,
        "line 25: similarTo gamma/seg/0 alpha/seg/0: one edge per pair, from the lower id, "
        "in pair order"),
    "self-loop": (
        (), [triple_line("alpha/seg/0", "similarTo", "alpha/seg/0"),
             triple_line("sim/alpha/seg/0/alpha/seg/0", "weight", '"1.000000"')], None,
        "line 25: similarTo alpha/seg/0 alpha/seg/0: one edge per pair, from the lower id, "
        "in pair order"),
    **{f"weight-{value}": ((), (), ('"0.704688"', f'"{value}"'),
                           f"line 8: weight of sim/alpha/seg/0/gamma/seg/0: {value} is not "
                           "in [0, 1]")
       for value in ("7.5", "nan", "-inf", "-0.5")},
    "next-segment-out-of-order": (
        (), [triple_line("alpha/seg/1", "nextSegment", "alpha/seg/0")], None,
        "line 25: nextSegment alpha/seg/1 alpha/seg/0: not the order of the hasSegment "
        "indices"),
    "next-segment-missing": (
        [triple_line("beta/seg/0", "nextSegment", "beta/seg/1")], (), None,
        "nextSegment beta/seg/0 beta/seg/1: missing"),
    "chord-sequence-of-a-piece": (
        (), [triple_line("alpha", "chordSequence", '"C:maj"')], None,
        "line 25: chordSequence of alpha: not a segment"),
    "key-sequence-of-a-pattern-node": (
        (), [triple_line("sim/alpha/seg/0/gamma/seg/0", "keySequence", '"C:maj"')], None,
        "line 25: keySequence of sim/alpha/seg/0/gamma/seg/0: not a segment"),
    "weight-of-no-edge": (
        (), [triple_line("sim/alpha/seg/0/beta/seg/0", "weight", '"0.500000"')], None,
        "line 25: weight of sim/alpha/seg/0/beta/seg/0: not the weight node of a similarTo "
        "edge"),
    "piece-id-is-a-segment-id": (
        (), [triple_line("alpha/seg/0", "hasSegment", "alpha/seg/0/seg/0"),
             triple_line("alpha/seg/0/seg/0", "chordSequence", '"C:maj"'),
             triple_line("alpha/seg/0/seg/0", "keySequence", '"C:maj"'),
             triple_line("alpha/seg/0/seg/0", "instanceOf", "alpha/seg/0/seg/0")], None,
        "line 1: hasSegment alpha alpha/seg/0: alpha/seg/0 is also a piece"),
    "piece-id-holds-seg": (
        (), [triple_line("alpha/seg/0/q", "hasSegment", "alpha/seg/0/q/seg/0"),
             triple_line("alpha/seg/0/q/seg/0", "chordSequence", '"C:maj"'),
             triple_line("alpha/seg/0/q/seg/0", "keySequence", '"C:maj"'),
             triple_line("alpha/seg/0/q/seg/0", "instanceOf", "alpha/seg/0/q/seg/0")], None,
        "line 25: hasSegment alpha/seg/0/q alpha/seg/0/q/seg/0: a piece id must not contain "
        "/seg/"),
    "bad-chord-token": ((), (), ('"C:maj C:maj C:maj A:min"', '"H:maj C:maj C:maj A:min"'),
                        "line 22: chordSequence of gamma/seg/0: token 1 'H:maj': position 0: "
                        "expected note letter A..G"),
    "no-chord-token": ((), (), ('"C:maj C:maj C:maj A:min"', '"C:maj N C:maj A:min"'),
                       "line 22: chordSequence of gamma/seg/0: token 2 'N': N, the no-chord, "
                       "is not a sounded chord"),
    "bad-key-token": ((), (), ('gamma/seg/0> <urn:harmory:keySequence> "C:maj C:maj C:maj C:maj"',
                               'gamma/seg/0> <urn:harmory:keySequence> "C:maj C:maj H:maj C:maj"'),
                      "line 24: keySequence of gamma/seg/0: token 3 'H:maj': not a note "
                      "letter: 'H'"),
    "no-piece": (GOLDEN_NT_LINES, (), None, "a memory graph needs a piece"),
    # Weights, keys and the spaces between tokens are read only as a build writes them.
    **{f"weight-written-{value}": ((), (), ('"0.704688"', f'"{value}"'),
                                   f"line 8: weight {value!r} is written {written!r}")
       for value, written in [("0.704_688", "0.704688"), (" 0.704688", "0.704688"),
                              ("7.04688e-1", "0.704688"), ("+0.704688", "0.704688"),
                              ("0.7046880", "0.704688"), ("-0.000000", "0.000000")]},
    **{f"key-sequence-{name}": ((), (), (
        'gamma/seg/0> <urn:harmory:keySequence> "C:maj C:maj C:maj C:maj"',
        f'gamma/seg/0> <urn:harmory:keySequence> "{literal}"'),
        f"line 24: keySequence of gamma/seg/0: {message}")
       for name, literal, message in [
           ("respelled", "C:maj B#:maj C:maj C:maj", "token 2 'B#:maj': a build writes 'C:maj'"),
           ("doubled-space", "C:maj  C:maj C:maj C:maj", "a build joins its tokens by one space"),
           ("leading-space", " C:maj C:maj C:maj C:maj", "a build joins its tokens by one space"),
           ("trailing-space", "C:maj C:maj C:maj C:maj ",
            "a build joins its tokens by one space")]},
    "chord-sequence-doubled-space": (
        (), (), ('"C:maj C:maj C:maj A:min"', '"C:maj C:maj  C:maj A:min"'),
        "line 22: chordSequence of gamma/seg/0: a build joins its tokens by one space"),
}


def golden_defect(name) -> bytes:
    dropped, added, replaced, _ = GOLDEN_DEFECTS[name]
    text = GOLDEN_NT.decode().replace(*replaced) if replaced else GOLDEN_NT.decode()
    return "".join(f"{line}\n" for line in text.splitlines() if line not in dropped) \
        .encode() + "".join(f"{line}\n" for line in added).encode()


@pytest.mark.parametrize("name", GOLDEN_DEFECTS)
def test_the_import_rejects_a_graph_that_build_cannot_write(name):
    with pytest.raises(GraphFormatError) as raised:
        import_ntriples(golden_defect(name))
    assert str(raised.value) == GOLDEN_DEFECTS[name][3]


@pytest.mark.parametrize("name", GOLDEN_DEFECTS)
def test_query_on_a_graph_that_build_cannot_write_is_a_usage_error(name, tmp_path, capsys):
    graph = tmp_path / "memory.nt"
    graph.write_bytes(golden_defect(name))
    assert main(["query", str(graph), "C:maj"]) == 2
    assert capsys.readouterr() == ("", f"error: {GOLDEN_DEFECTS[name][3]}\n")


def test_golden_defect_edits_leave_the_golden_lines_they_do_not_name():
    assert golden_defect("reversed-edge").startswith(GOLDEN_NT)
    assert len(golden_defect("segment-in-no-pattern").splitlines()) == len(GOLDEN_NT_LINES) - 1


# Graphs that no N-Triples text spells, built from the golden one.
GOLDEN_GRAPH = import_ntriples(GOLDEN_NT)
_pieces, _patterns = GOLDEN_GRAPH.pieces, GOLDEN_GRAPH.patterns
(_alpha_0, _alpha_1), (_gamma_0,) = _pieces["alpha"].segments, _pieces["gamma"].segments


@pytest.mark.parametrize("fields, message", [
    ({"pieces": {**_pieces, "delta": PieceInfo(None, None, ())}},
     "piece delta: needs a segment"),
    ({"pieces": {**_pieces, "delta": _pieces["gamma"]}},
     "hasSegment delta gamma/seg/0: segment 0 of delta must be delta/seg/0"),
    ({"pieces": {**_pieces, "alpha": PieceInfo(None, None,
                                               (_alpha_0, replace(_alpha_1, index=0)))}},
     "hasSegment alpha alpha/seg/0: segment 1 of alpha must be alpha/seg/1"),
    ({"pieces": {**_pieces, "gamma": PieceInfo(None, None, (replace(_gamma_0,
                                                                    keys=_gamma_0.keys[1:]),))}},
     "segment gamma/seg/0: needs one key per sounded chord, got 4 chords and 3 keys"),
    ({"patterns": {**_patterns, "gamma/seg/0": ("beta/seg/0", "gamma/seg/0")}},
     "instanceOf beta/seg/0 gamma/seg/0: beta/seg/0 is already a member of alpha/seg/0"),
    ({"patterns": {**_patterns, "gamma/seg/0": ("gamma/seg/0", "gamma/seg/0")}},
     "instanceOf gamma/seg/0 gamma/seg/0: gamma/seg/0 is already a member of gamma/seg/0"),
    ({"similar": GOLDEN_GRAPH.similar * 2},
     "similarTo alpha/seg/0 gamma/seg/0: one edge per pair, from the lower id, in pair order"),
    ({"similar": GOLDEN_GRAPH.similar + (("alpha/seg/0", "alpha/seg/1", 0.5),)},
     "similarTo alpha/seg/0 alpha/seg/1: one edge per pair, from the lower id, in pair order"),
], ids=["piece-without-segments", "piece-under-another-id", "segment-with-another-index",
        "a-key-short", "member-of-two-patterns", "member-twice", "edge-twice",
        "edges-out-of-order"])
def test_a_memory_graph_checks_what_no_text_spells(fields, message):
    with pytest.raises(GraphFormatError) as raised:
        replace(GOLDEN_GRAPH, **fields)
    assert str(raised.value) == message


def one_chord_segment(piece_id):
    return Segment(piece_id, 0, 0, 1, (parse_chord("C:maj"),), (Key.from_string("C:maj"),))


def test_a_piece_id_that_contains_seg_is_refused():
    """Were it allowed, the edges p/seg/0 -> q/seg/0/r/seg/0 and
    p/seg/0/q/seg/0 -> r/seg/0 would share one weight node."""
    ids = ["p", "p/seg/0/q", "q/seg/0/r", "r"]
    similar = (("p/seg/0", "q/seg/0/r/seg/0", 0.5), ("p/seg/0/q/seg/0", "r/seg/0", 0.25))
    assert memory.weight_node(*similar[0][:2]) == memory.weight_node(*similar[1][:2])
    with pytest.raises(GraphFormatError) as raised:
        MemoryGraph(pieces={i: PieceInfo(None, None, (one_chord_segment(i),)) for i in ids},
                    patterns={f"{i}/seg/0": (f"{i}/seg/0",) for i in ids}, similar=similar)
    assert str(raised.value) == \
        "hasSegment p/seg/0/q p/seg/0/q/seg/0: a piece id must not contain /seg/"


def test_build_rejects_a_piece_id_that_is_a_segment_id():
    corpus = [make_timeline(["C:maj"] * 4, piece_id="a"),
              make_timeline(["G:maj"] * 4, piece_id="a/seg/0")]
    with pytest.raises(GraphFormatError, match="^hasSegment a a/seg/0: a/seg/0 is also a piece$"):
        build_memory(corpus, PARAMS)


@pytest.mark.parametrize("ids", [["a", "a/seg/0"], ["a/seg/0", "a"]])
def test_a_piece_id_that_is_a_segment_id_is_refused_whatever_the_order_of_pieces(ids):
    """The graph indexes every piece's segments before it checks a piece."""
    with pytest.raises(GraphFormatError) as raised:
        MemoryGraph(pieces={i: PieceInfo(None, None, (one_chord_segment(i),)) for i in ids},
                    patterns={f"{i}/seg/0": (f"{i}/seg/0",) for i in ids}, similar=())
    assert str(raised.value) == "hasSegment a a/seg/0: a/seg/0 is also a piece"


def chord_corpora():
    """Pieces of drawn chords under drawn keys, or of shared sections."""
    pieces = st.lists(st.tuples(st.lists(chords(), min_size=1, max_size=10),
                                st.sampled_from(["C:maj", "A:min", "Eb:maj", "F#:min"])),
                      min_size=1, max_size=4)
    return pieces.map(lambda drawn: [
        make_timeline([render_chord(chord) for chord in piece], key=key, piece_id=f"p{i}")
        for i, (piece, key) in enumerate(drawn)]) | section_corpora()


def as_exported(graph: MemoryGraph) -> MemoryGraph:
    """The graph without titles and artists: a build stores each weight as
    both exports write it, so the import gives back its edges as they are."""
    return replace(graph, pieces={piece_id: piece._replace(title=None, artist=None)
                                  for piece_id, piece in graph.pieces.items()})


@given(corpus=chord_corpora(), theta_sim=st.sampled_from([0.05, 0.3, 0.6, 0.9]),
       merge_step=st.sampled_from([0.0, 0.1, 0.5]))
@settings(max_examples=60, deadline=None)
def test_a_built_graph_imports_as_itself_and_counts_its_lines(corpus, theta_sim, merge_step):
    """The import of a built graph's export is that graph, as far as the
    export writes it, and ``graph_stats`` counts the export's lines."""
    graph = build_memory(corpus, PARAMS, MemoryThresholds(theta_sim, theta_sim + merge_step))
    data = export_ntriples(graph)
    assert import_ntriples(data) == as_exported(graph)
    predicates = Counter(line.split(b" ")[1][len(BASE) + 1:-1].decode()
                         for line in data.splitlines())
    assert graph_stats(graph)["edges"] == {
        kind: predicates[kind] for kind in ("hasSegment", "nextSegment", "instanceOf",
                                            "similarTo")}
    assert predicates["weight"] == predicates["similarTo"]
