"""Cover-identification evaluation and measure benchmarking.

Cliques of covers come from a CSV with header ``piece_id,clique_id``.
Every piece in a clique of size two or more queries the rest of the
corpus; candidates are ranked by similarity score (ties by piece id) and
scored with mean average precision, precision at 1, and the mean rank of
the first relevant candidate.
"""

from __future__ import annotations

import csv
import io
import json
import random
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

from harmory.harte import FLAT_NAMES, Chord, parse_chord
from harmory.similarity import (MEASURES, _Dtw, _prepared, _Tpsd, compare_pieces,
                                corpus_similarity_matrix)
from harmory.timeline import (MAX_SPAN_BEATS, ChordEvent, KeySpan, Timeline, build_timeline,
                              corpus_ids)
from harmory.tps import KEYS, MAJOR_STEPS, MINOR_STEPS, Key


class CliqueError(ValueError):
    """Missing or unusable clique assignments."""


@dataclass(frozen=True)
class CliqueSet:
    mapping: dict[str, str]

    @classmethod
    def from_csv(cls, text: str) -> "CliqueSet":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise CliqueError("empty clique file") from None
        if header != ["piece_id", "clique_id"]:
            raise CliqueError("line 1: clique CSV must start with header 'piece_id,clique_id'")
        # A repeated row is read once; a second, different clique of a piece is an error.
        first: dict[str, tuple[str, int]] = {}  # piece -> (clique, line)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 2:
                raise CliqueError(f"line {line}: bad clique row {row!r}, need piece_id,clique_id")
            clique, first_line = first.setdefault(row[0], (row[1], line))
            if clique != row[1]:
                raise CliqueError(f"line {line}: a second clique {row[1]!r} of {row[0]}, "
                                  f"not {clique!r} of line {first_line}")
        return cls({piece_id: clique for piece_id, (clique, _) in first.items()})

    def clique_of(self, piece_id: str) -> str:
        if piece_id not in self.mapping:
            raise CliqueError(f"piece without clique: {piece_id}")
        return self.mapping[piece_id]


@dataclass(frozen=True)
class QueryResult:
    query_id: str
    average_precision: float
    first_relevant_rank: int
    top_hit: str
    top_relevant: bool


@dataclass(frozen=True)
class RankingMetrics:
    measure: str
    mean_average_precision: float
    precision_at_1: float
    mean_rank_first_relevant: float
    queries: tuple[QueryResult, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def to_table(self) -> str:
        rows = [("query", "AP", "first-rank", "top hit")]
        rows += [(q.query_id, f"{q.average_precision:.4f}",
                  str(q.first_relevant_rank), q.top_hit) for q in self.queries]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                 for row in rows]
        lines += ["", f"measure: {self.measure}",
                  f"MAP: {self.mean_average_precision:.4f}  P@1: {self.precision_at_1:.4f}  "
                  f"mean first-relevant rank: {self.mean_rank_first_relevant:.4f}"]
        return "\n".join(lines) + "\n"


def evaluate_covers(corpus: list[Timeline], cliques: CliqueSet, steps=_Dtw()) -> RankingMetrics:
    """Rank every clique member's covers among all other pieces by the
    measure whose step instance is ``steps``."""
    ids = [tl.id for tl in corpus]
    sizes = Counter(map(cliques.clique_of, ids))
    queries = [piece_id for piece_id in ids if sizes[cliques.clique_of(piece_id)] >= 2]
    if not queries:
        raise CliqueError("no clique of size >= 2 in the corpus")
    matrix_ids, matrix = corpus_similarity_matrix(corpus, steps)
    index = {piece_id: i for i, piece_id in enumerate(matrix_ids)}
    results = []
    for query_id in sorted(queries):
        qi = index[query_id]
        candidates = sorted((c for c in ids if c != query_id),
                            key=lambda c: (-matrix[qi, index[c]], c))
        clique = cliques.clique_of(query_id)
        ranks = [rank for rank, c in enumerate(candidates, 1) if cliques.clique_of(c) == clique]
        precision_sum = sum(hits / rank for hits, rank in enumerate(ranks, 1))
        results.append(QueryResult(query_id, precision_sum / len(ranks), ranks[0],
                                   candidates[0], ranks[0] == 1))
    return RankingMetrics(
        measure=steps.name,
        mean_average_precision=sum(r.average_precision for r in results) / len(results),
        precision_at_1=sum(r.top_relevant for r in results) / len(results),
        mean_rank_first_relevant=sum(r.first_relevant_rank for r in results) / len(results),
        queries=tuple(results),
    )


def comparison_counts(a: Timeline, b: Timeline, steps) -> int:
    """The exact number of elementary comparisons ``steps`` makes on the pair."""
    return steps.comparisons(*_prepared(steps, a, b))


def check_bench(names: list[str], repetitions: int) -> None:
    """The one check of bench's parameters: >= 3 repetitions, and each measure
    named at most once, since its steps would be timed under one name."""
    if repetitions < 3:
        raise ValueError(f"--repetitions must be an integer >= 3, got {repetitions}")
    if not set(names) <= MEASURES.keys() or len(set(names)) < len(names):
        raise ValueError(f"--measures must name each of {', '.join(sorted(MEASURES))} "
                         f"at most once, got {','.join(names)}")


def benchmark_measures(corpus: list[Timeline], measures=(_Dtw(), _Tpsd()),
                       repetitions: int = 5) -> dict:
    """Median wall-clock per pair over >= 3 repetitions of the full
    pairwise matrix, for each step instance of ``measures``, plus exact
    per-pair comparison counts, all counted before the first timing.
    Each repetition times the measures' passes in turn, reversed every
    other repetition."""
    check_bench([steps.name for steps in measures], repetitions)
    corpus_ids(corpus)
    if len(corpus) < 2:
        raise ValueError("benchmark needs at least two pieces")
    pairs = [(a, b) for i, a in enumerate(corpus) for b in corpus[i + 1:]]
    counts = {steps.name: [[a.id, b.id, comparison_counts(a, b, steps)] for a, b in pairs]
              for steps in measures}
    report: dict = {"pieces": len(corpus), "pairs": len(pairs),
                    "repetitions": repetitions, "measures": {}}
    times: dict = {steps.name: [] for steps in measures}
    for repetition in range(repetitions):
        for steps in measures[::-1] if repetition % 2 else measures:
            begin = time.perf_counter()
            for a, b in pairs:
                compare_pieces(steps, a, b)
            times[steps.name].append(time.perf_counter() - begin)
    for measure, timings in times.items():
        report["measures"][measure] = {
            "median_seconds_per_pair": statistics.median(timings) / len(pairs),
            "seconds_total_min": min(timings),
            "seconds_total_median": statistics.median(timings),
            "seconds_total_max": max(timings),
            "comparisons_total": sum(row[2] for row in counts[measure]),
            "comparisons_per_pair": counts[measure],
        }
    return report


BEATS_PER_EVENT = 4

# Diatonic triads on each scale degree, used by the synthetic generator.
_TRIAD_QUALITIES = {
    "major": ("maj", "min", "min", "maj", "maj", "min", "dim"),
    "minor": ("min", "dim", "aug", "min", "maj", "maj", "dim"),
}


def diatonic_triad(key: Key, degree: int) -> Chord:
    """Triad on the given scale degree (0-based) of the key."""
    steps = MAJOR_STEPS if key.mode == "major" else MINOR_STEPS
    root = (key.tonic + steps[degree % 7]) % 12
    return parse_chord(f"{FLAT_NAMES[root]}:{_TRIAD_QUALITIES[key.mode][degree % 7]}")


def synthetic_corpus(n_pieces: int = 16, total_beats: int = 256) -> list[Timeline]:
    """Deterministic random-walk progressions for benchmarking, one chord
    every ``BEATS_PER_EVENT`` beats."""
    n_events, most = total_beats // BEATS_PER_EVENT, MAX_SPAN_BEATS // BEATS_PER_EVENT
    if not 1 <= n_events <= most:  # checked before any event is built
        bound = (f">= {BEATS_PER_EVENT}, one event" if n_events < 1 else
                 f"< {(most + 1) * BEATS_PER_EVENT}, at most {most} events")
        raise ValueError(f"--synthetic-beats must be {bound} of {BEATS_PER_EVENT} beats, "
                         f"got {total_beats}")
    if n_pieces < 2:
        raise ValueError(f"--synthetic-pieces must be an integer >= 2, got {n_pieces}")
    corpus = []
    for p in range(n_pieces):
        rng = random.Random(0xA11C + p)
        key = KEYS[2 * (p % 12) + p % 2]  # major for even p, minor for odd
        degree = 0
        events = []
        for i in range(n_events):
            chord = diatonic_triad(key, degree)
            start = Fraction(i * BEATS_PER_EVENT)
            events.append(ChordEvent(start, Fraction(BEATS_PER_EVENT), chord))
            degree = (degree + rng.choice((1, 2, 3, 4, 5, 6))) % 7
        spans = [KeySpan(Fraction(0), Fraction(total_beats), key)]
        corpus.append(build_timeline(f"synthetic-{p:02d}", events, spans))
    return corpus
