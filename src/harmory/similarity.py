"""Harmonic similarity measures between chord timelines.

Three measures share the [0, 1] score convention (1 means identical):

* ``dtw``   dynamic time warping over the event grid, cell cost = Tonal
  Pitch Space distance, score = exp(-normalized_cost / scale);
* ``tpsd``  the classic beat-grid profile distance: minimum over cyclic
  shifts of the mean absolute difference of key-relative values, in
  exact numpy over blocks of shifts;
* ``lharp`` shared recurrent-pattern coverage, scored by the harmonic
  mean of the two pieces' covered fractions.

Events are compared key-relatively: each event's profile is moved so that
its governing key tonic is C before costing, which makes every measure
invariant under transposition of either piece.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import chain
from math import exp, inf
from typing import ClassVar, NamedTuple

import numpy as np

from harmory.timeline import (NON_NEGATIVE, POSITIVE, EmptyTimelineError, Timeline, at_least,
                              check_ranges, corpus_ids, encode_tps)
from harmory.tps import (BLOCK_CELLS, Profile, distance_table, fifths_distance, intern,
                         key_relative_profiles, key_relative_values)

DEFAULT_SCALE = 5.0


class Alignment(NamedTuple):
    """A monotone warping path with its summed and per-step cell cost."""

    path: tuple[tuple[int, int], ...]
    cost: float
    normalized_cost: float


@dataclass(frozen=True)
class LocalRegion:
    """A pair of covered intervals (half-open event ranges) with the
    cell costs along their alignment path."""

    interval_a: tuple[int, int]
    interval_b: tuple[int, int]
    step_costs: tuple[float, ...]


@dataclass(frozen=True)
class SimilarityReport:
    measure: str
    score: float
    raw: float
    params: dict
    local_regions: tuple[LocalRegion, ...] = ()

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


class PatternOccurrence(NamedTuple):
    """A recurrent n-gram: its invariant encoding and start positions."""

    key: tuple
    positions: tuple[int, ...]
    length: int


def key_relative_events(timeline: Timeline) -> list[Profile]:
    """The key-relative profiles of the sounded events under their governing keys."""
    return key_relative_profiles((chord, key) for _, chord, key in timeline.sounded())


def _dtw(ca: list[int], cb: list[int], band: int | None = None, *,
         table: list[list[float]]) -> Alignment:
    """Warp two event code sequences; cell (i, j) costs ``table[ca[i]][cb[j]]``."""
    n, m = len(ca), len(cb)
    width = max(n, m) if band is None else max(band, abs(n - m))
    # Rows i and i + 1 in one sweep of row i's band, so the loop's overhead is paid once
    # per two cells; row i + 1's band may start or end a column later.  Row n, of inf
    # costs, pairs an odd last row and, read as row -1, is inf: only (0, 0) starts at 0.
    acc = [[inf] * m for _ in range(n + 1)]
    for i in range(0, n, 2):
        above, upper, lower = acc[i - 1], acc[i], acc[i + 1]
        c1, c2 = table[ca[i]], table[ca[i + 1]] if i + 1 < n else [inf] * len(table[ca[i]])
        # Conditionals, not max and min: short warps pay per row.
        lo = i - width if i > width else 0
        hi = i + width + 1 if i + width < m else m
        up, diag1 = above[lo], above[lo - 1] if lo else inf if i else 0.0
        left1 = upper[lo] = c1[cb[lo]] + (diag1 if diag1 < up else up)
        left2 = lower[lo] = c2[cb[lo]] + left1 if i < width else inf
        diag1, diag2 = up, left1
        for j in range(lo + 1, hi):
            c, up = cb[j], above[j]
            best = diag1 if diag1 < up else up
            if left1 < best:
                best = left1
            left1 = upper[j] = c1[c] + best
            best = diag2 if diag2 < left1 else left1
            if left2 < best:
                best = left2
            left2 = lower[j] = c2[c] + best
            diag1, diag2 = up, left1
        if hi < m:
            lower[hi] = c2[cb[hi]] + (diag2 if diag2 < left2 else left2)
    # Where up and left tie, trace back both ways and keep the shorter path:
    # the two tie rules mirror each other, so its length does not depend on
    # the argument order.
    path, tied = _backtrack(acc, n, m, up_first=True)
    if tied:
        path = min(path, _backtrack(acc, n, m, up_first=False)[0], key=len)
    total = acc[n - 1][m - 1]
    return Alignment(path=tuple(path), cost=total, normalized_cost=total / len(path))


def _backtrack(acc, n: int, m: int, up_first: bool) -> tuple[list[tuple[int, int]], bool]:
    """The warping path to (n - 1, m - 1), traced back diagonally when that
    is cheapest or tied, else to the cheaper of up and left, or on their
    tie up when ``up_first`` and left otherwise; and whether they tied."""
    path, tied = [(n - 1, m - 1)], False
    i, j = n - 1, m - 1
    while i and j:
        diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up == left:
            tied = True
            i, j = (i - 1, j) if up_first else (i, j - 1)
        elif up < left:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path += [(i, k) for k in range(j - 1, -1, -1)] + [(k, 0) for k in range(i - 1, -1, -1)]
    path.reverse()
    return path, tied


def _bound_block(sequences: list[tuple[int, ...]], table) -> np.ndarray:
    """``lb[x, y] <= _dtw(sequences[x], sequences[y], table=table).normalized_cost``,
    one symmetric numpy matrix.  A warping path visits every row and column
    and both corner cells (one when both sequences have one code) in at
    most n + m - 1 steps, so ``lb`` is the largest of the summed row minima
    (each code of a at its cheapest cell to b), the summed column minima
    (the transposed row minima: the table is symmetric) and the corner
    costs, over n + m - 1.  This is the cascading LB_Kim / LB_Keogh idea of
    Rakthanmanon et al. (KDD 2012).  Table entries are half-integers, so
    every sum is exact, an entry depends on its pair alone, and ``lb > t``
    proves ``normalized_cost > t``."""
    count, size = len(sequences), len(table)
    if not count:
        return np.zeros((0, 0))
    # Code ``size`` pads the sequences to one width: every cell to it
    # costs inf, so it is never the cheapest, and its summed minimum is 0.
    grid = np.full((size + 1, size + 1), inf)
    grid[:size, :size] = table
    width = max(map(len, sequences))
    codes = np.array([[*seq, *[size] * (width - len(seq))] for seq in sequences])
    lengths = np.array([len(seq) for seq in sequences])
    first, last, single = codes[:, 0], codes[np.arange(count), lengths - 1], lengths == 1
    # nearest[c, y]: the cheapest cell from code c to a code of sequence y.
    nearest = grid[:, first]
    for column in codes.T[1:]:
        np.minimum(nearest, grid[:, column], out=nearest)
    nearest[size] = 0.0
    lb, rows = np.empty((count, count)), max(1, BLOCK_CELLS // codes.size)
    for start in range(0, count, rows):
        a = slice(start, start + rows)
        corners = grid[first[a, None], first] + np.where(
            single[a, None] & single, 0.0, grid[last[a, None], last])
        summed = nearest[codes[a]].sum(axis=1)
        lb[a] = np.maximum(summed, corners) / (lengths[a, None] + lengths - 1)
    # Mirrors add the column minima; a row already made symmetric reads the same.
    for start in range(0, count, rows):
        np.maximum(lb[start:start + rows], lb[:, start:start + rows].T, out=lb[start:start + rows])
    return lb


class Warps:
    """What one measure call shares over the pieces it prepares: their
    profile vocabulary, its distance table, the distinct code sequences
    registered, one block of lower bounds over them, and each unordered
    pair's warping cost, computed at most once.  The table and the block
    are built when first read, after the last piece is prepared (a later
    registration drops the block).  One lives for one call, so nothing it
    stores outlives the call."""

    def __init__(self):
        self.vocab, self.sequences, self._index, self._costs = {}, [], {}, {}
        self._table = self._bounds = None

    @property
    def table(self) -> list[list[float]]:
        if self._table is None:
            self._table = distance_table(self.vocab, self.vocab)
        return self._table

    def register(self, codes) -> int:
        """The index of the code sequence ``codes``, added if it is new."""
        if (codes := tuple(codes)) not in self._index:
            self._index[codes] = len(self.sequences)
            self.sequences.append(codes)
            self._bounds = None
        return self._index[codes]

    def register_events(self, event_lists: list) -> list[int]:
        """The index of each list of (chord, key) events' code sequence, all
        of them profiled and interned in one ``key_relative_profiles`` pass."""
        codes = intern(key_relative_profiles(chain.from_iterable(event_lists)), self.vocab)
        indices, end = [], 0
        for events in event_lists:
            start, end = end, end + len(events)
            indices.append(self.register(codes[start:end]))
        return indices

    def bounds(self) -> np.ndarray:
        """The ``_bound_block`` of the registered sequences."""
        if self._bounds is None:
            self._bounds = _bound_block(self.sequences, self.table)
        return self._bounds

    def cost(self, x: int, y: int, band: int | None = None) -> float:
        """The normalized ``_dtw`` cost of the sequences indexed by ``x`` and
        ``y``, warped once per unordered pair, in the order first asked (the
        cost is symmetric).  One call warps under one band."""
        key = (x, y) if x <= y else (y, x)
        if key not in self._costs:
            self._costs[key] = _dtw(self.sequences[x], self.sequences[y], band,
                                    table=self.table).normalized_cost
        return self._costs[key]


def _covered_runs(patterns) -> dict[int, tuple[int, int]]:
    """Each position the patterns' occurrences cover, mapped to the
    maximal run (a half-open range) of covered positions holding it."""
    runs: list[list[int]] = []
    for i in sorted({i for pattern in patterns for position in pattern.positions
                     for i in range(position, position + pattern.length)}):
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return {i: (start, stop) for start, stop in runs for i in range(start, stop)}


# Each measure is declared once, by its step class: ``name`` is the
# measure's, and the fields are its parameters.  ``prepare`` does a
# piece's own work once, into the ``Warps`` shared with every piece it
# meets; ``compare`` gives two prepared pieces' raw value, ``score`` its
# score, and ``explain`` the local regions, read by ``compare_pieces``
# alone; ``comparisons`` counts what ``compare`` does.


@dataclass(frozen=True)
class _Dtw:
    name: ClassVar[str] = "dtw"
    scale: float = field(default=DEFAULT_SCALE, metadata={"range": POSITIVE})
    band: int | None = field(default=None, metadata={
        "help": "Sakoe-Chiba band width for dtw",
        "range": ("an integer >= 0", lambda value: value is None or not value < 0)})
    __post_init__ = check_ranges

    def score(self, raw: float) -> float:
        """The similarity of a raw distance: dtw's cost, tpsd's mean."""
        return exp(-raw / self.scale)

    def comparisons(self, x: int, y: int, shared: Warps) -> int:
        """The cells ``_dtw`` fills: |i - j| <= its band's width."""
        n, m = len(shared.sequences[x]), len(shared.sequences[y])
        width = max(n, m) if self.band is None else max(self.band, abs(n - m))
        return sum(min(m, i + width + 1) - max(0, i - width) for i in range(n))

    def prepare(self, timeline: Timeline, shared: Warps) -> int:
        """The index of the piece's registered codes."""
        return shared.register(intern(key_relative_events(timeline), shared.vocab))

    def compare(self, x: int, y: int, shared: Warps) -> float:
        return shared.cost(x, y, self.band)

    def explain(self, a, b, shared: Warps) -> tuple[LocalRegion, ...]:
        return ()


@dataclass(frozen=True)
class _Tpsd:
    """Beat-grid profile distance, minimized over cyclic shifts of the
    shorter series (which is repeated to the longer length), in exact
    numpy over blocks of shifts, since the values are half-integers."""

    name: ClassVar[str] = "tpsd"
    scale: float = field(default=DEFAULT_SCALE, metadata={"range": POSITIVE})
    score, explain, __post_init__ = _Dtw.score, _Dtw.explain, check_ranges

    def comparisons(self, va, vb, shared: Warps) -> int:
        return len(va) * len(vb)

    def prepare(self, timeline: Timeline, shared: Warps):
        return np.array([v for v, _ in encode_tps(timeline, "beat").values])

    def compare(self, va, vb, shared: Warps) -> float:
        short, long_ = (va, vb) if len(va) <= len(vb) else (vb, va)
        n, length = len(short), len(long_)
        # Row s of the windows pairs long_[t] with short[(t + s) % n].  The
        # values are half-integers, so every sum is exact in any order.
        tiled = np.tile(short, length // n + 2)
        shifts = np.lib.stride_tricks.sliding_window_view(tiled, length)[:n]
        rows = max(1, BLOCK_CELLS // length)
        best = min(np.abs(shifts[s:s + rows] - long_).sum(axis=1).min()
                   for s in range(0, n, rows))
        return float(best) / length


@dataclass(frozen=True)
class _Lharp:
    """Pattern-coverage similarity.

    Patterns of the two pieces agree when the warping cost between their
    chord sequences stays within ``tau`` per step.  The score is the
    harmonic mean of the fractions of each piece covered by agreeing
    patterns, computed exactly.
    """

    name: ClassVar[str] = "lharp"
    tau: float = field(default=1.0, metadata={"help": "lharp pattern agreement threshold",
                                              "range": NON_NEGATIVE})
    n_min: int = field(default=2, metadata={"range": at_least(2)})
    n_max: int = 4

    def __post_init__(self):
        check_ranges(self)
        if self.n_max < self.n_min:
            raise ValueError(f"--n-max must be >= --n-min ({self.n_min}), got {self.n_max}")

    def comparisons(self, a, b, shared: Warps) -> int:
        """The pattern pairs ``compare`` bounds."""
        return len(a[1]) * len(b[1])

    def prepare(self, timeline: Timeline, shared: Warps):
        """The codes, and each pattern with the index of its code slice."""
        profiles = key_relative_events(timeline)
        codes = intern(profiles, shared.vocab)
        return codes, [(p, shared.register(codes[p.positions[0]:p.positions[0] + p.length]))
                       for p in extract_recurrent_patterns(profiles, self.n_min, self.n_max)]

    def score(self, raw: float) -> float:
        return raw

    def _agreeing(self, a, b, shared: Warps):
        """The agreeing pattern pairs, and each piece's covered runs."""
        (_, patterns_a), (_, patterns_b) = a, b
        # Only a pattern pair whose bound is within tau can agree.
        bounds = shared.bounds()[np.ix_([x for _, x in patterns_a], [y for _, y in patterns_b])]
        agreeing = [(patterns_a[x][0], patterns_b[y][0])
                    for x, y in zip(*(bounds <= self.tau).nonzero())
                    if shared.cost(patterns_a[x][1], patterns_b[y][1]) <= self.tau]
        return (agreeing, _covered_runs({p for p, _ in agreeing}),
                _covered_runs({q for _, q in agreeing}))

    def compare(self, a, b, shared: Warps) -> float:
        _, runs_a, runs_b = self._agreeing(a, b, shared)
        # With ca of na events covered in one piece and cb of nb in the
        # other, 2·fa·fb/(fa + fb) is this quotient of ints, correctly rounded.
        (ca, na), (cb, nb) = (len(runs_a), len(a[0])), (len(runs_b), len(b[0]))
        return 2 * ca * cb / (ca * nb + cb * na) if ca and cb else 0.0

    def explain(self, a, b, shared: Warps) -> tuple[LocalRegion, ...]:
        """Each region pairs the runs holding two agreeing patterns' first occurrences."""
        (ca, _), (cb, _), table = a, b, shared.table
        agreeing, runs_a, runs_b = self._agreeing(a, b, shared)
        regions = []
        for run_a, run_b in sorted({(runs_a[p.positions[0]], runs_b[q.positions[0]])
                                    for p, q in agreeing}):
            region_a, region_b = ca[run_a[0]:run_a[1]], cb[run_b[0]:run_b[1]]
            alignment = _dtw(region_a, region_b, table=table)
            steps = tuple(table[region_a[i]][region_b[j]] for i, j in alignment.path)
            regions.append(LocalRegion(run_a, run_b, steps))
        return tuple(regions)


MEASURES = {steps.name: steps for steps in (_Dtw, _Tpsd, _Lharp)}


def extract_recurrent_patterns(profiles: list[Profile], n_min: int = _Lharp.n_min,
                               n_max: int = _Lharp.n_max) -> list[PatternOccurrence]:
    """Hash every n-gram window, n_min <= n <= n_max, of a piece's
    key-relative profiles and keep encodings occurring at two or more
    (possibly overlapping) positions.

    A window's encoding pairs each event's key-relative value with the
    circle-of-fifths step from its key-relative root to the next event's
    inside the window; the last step is 0.  It is invariant under
    transposition of the piece.
    """
    _Lharp(n_min=n_min, n_max=n_max)
    values = key_relative_values(profiles)
    steps = [fifths_distance(p.root, q.root) for p, q in zip(profiles, profiles[1:])]
    found: dict[tuple, list[int]] = {}
    for n in range(n_min, min(n_max, len(profiles)) + 1):
        for start in range(len(profiles) - n + 1):
            encoded = tuple(zip(values[start:start + n], steps[start:start + n - 1] + [0]))
            found.setdefault((n, encoded), []).append(start)
    return [PatternOccurrence(key=encoded, positions=tuple(positions), length=n)
            for (n, encoded), positions in sorted(found.items())
            if len(positions) >= 2]


def _prepared(steps, a: Timeline, b: Timeline):
    """Both pieces prepared into one ``Warps``, and it."""
    shared = Warps()
    return steps.prepare(a, shared), steps.prepare(b, shared), shared


def compare_pieces(steps, a: Timeline, b: Timeline) -> SimilarityReport:
    """The report, with its regions, of the step instance ``steps`` on one pair."""
    prepared = _prepared(steps, a, b)
    raw = steps.compare(*prepared)
    return SimilarityReport(steps.name, steps.score(raw), raw, asdict(steps),
                            steps.explain(*prepared))


def dtw_align(a: Timeline, b: Timeline, band: int | None = None) -> Alignment:
    x, y, shared = _prepared(_Dtw(band=band), a, b)
    return _dtw(shared.sequences[x], shared.sequences[y], band, table=shared.table)


def tpsd(a: Timeline, b: Timeline, scale: float = DEFAULT_SCALE) -> SimilarityReport:
    return compare_pieces(_Tpsd(scale), a, b)


def lharp(a: Timeline, b: Timeline, tau: float = _Lharp.tau, n_min: int = _Lharp.n_min,
          n_max: int = _Lharp.n_max) -> SimilarityReport:
    return compare_pieces(_Lharp(tau, n_min, n_max), a, b)


def corpus_similarity_matrix(corpus: list[Timeline], steps=_Dtw()):
    """Score every unordered pair with the step instance ``steps``;
    returns (ids, matrix) with unit diagonal.  Each piece is prepared
    once, into one ``Warps`` for the corpus.  An error names its pair, and
    a piece's error the first pair that holds the piece."""
    ids, shared, prepared = corpus_ids(corpus), Warps(), []
    n = len(ids)
    matrix = np.eye(n)
    try:
        for k, timeline in enumerate(corpus):
            i, j = 0, max(k, 1)  # the first pair that holds piece k
            prepared.append(steps.prepare(timeline, shared))
        for i in range(n):
            for j in range(i + 1, n):
                raw = steps.compare(prepared[i], prepared[j], shared)
                matrix[i, j] = matrix[j, i] = steps.score(raw)
    except Exception as err:
        if n == 1:
            raise  # no pair holds the piece
        # An empty piece is a usage error: the command exits 2.
        kind = EmptyTimelineError if isinstance(err, EmptyTimelineError) else RuntimeError
        raise kind(f"{ids[i]} vs {ids[j]}: {err}") from err
    return ids, matrix


def matrix_to_csv(ids: list[str], matrix) -> str:
    lines = ["id," + ",".join(ids)]
    for piece_id, row in zip(ids, matrix):
        lines.append(piece_id + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
