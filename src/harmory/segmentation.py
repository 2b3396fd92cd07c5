"""Harmonic structure segmentation via self-similarity and novelty.

The self-similarity matrix holds ``1 - distance/max_distance`` over the
sounded events of a piece.  It is held as a table over the piece's
distinct (chord, key) profiles plus one code per event, and no n-by-n
array is ever built.  A checkerboard kernel slid along the diagonal
yields a novelty curve whose peaks become segment boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from harmory.harte import Chord
from harmory.timeline import FINITE, POSITIVE, Timeline, at_least, check_ranges
from harmory.tps import BLOCK_CELLS, Key, distance_table, intern, profile

# Grey level v as the text "<v> " zero-padded to four bytes, read as one
# little-endian word; ssm_to_pgm gathers these and drops the zero bytes.
_PGM_WORDS = np.array([int.from_bytes(f"{v} ".encode().ljust(4, b"\0"), "little")
                       for v in range(256)], dtype="<u4")


class KernelTooLargeError(ValueError):
    """Kernel size exceeds twice the matrix dimension."""


@dataclass(frozen=True)
class SegmentationParams:
    """Tuning knobs; the defaults are sensible for event-level charts."""

    kernel_size: int = field(default=8, metadata={"range": (
        "an even integer >= 2", lambda value: not (value < 2 or value % 2))})
    taper: float = field(default=1.0, metadata={"range": POSITIVE})
    peak_lambda: float = field(default=0.5, metadata={"range": FINITE})
    min_gap: int = field(default=2, metadata={"range": at_least(0)})
    min_len: int = field(default=2, metadata={"range": at_least(0)})
    __post_init__ = check_ranges


@dataclass(frozen=True)
class SSM:
    """Self-similarity over sounded events, values in [0, 1], held as
    table plus codes: ``table`` is the V-by-V similarity of the piece's V
    distinct (chord, key) profiles and ``codes[i]`` is event i's profile,
    so cell (i, j) is ``table[codes[i], codes[j]]``."""

    table: np.ndarray
    codes: np.ndarray

    @property
    def size(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class Segment:
    """A contiguous run of a piece's sounded events, each chord under its key."""

    piece_id: str
    index: int
    events: tuple[tuple[Chord, Key], ...]

    @property
    def id(self) -> str:
        return f"{self.piece_id}/seg/{self.index}"


def build_ssm(sounded: list[tuple[Chord, Key]]) -> SSM:
    """Pairwise chord similarity of a piece's ``Timeline.sounded()``
    pairs, each chord under its governing key, as the table over the
    piece's distinct profiles and each event's code.  Every code occurs,
    so the table's largest distance is the piece's."""
    vocab: dict = {}
    codes = intern([profile(chord, key) for chord, key in sounded], vocab)
    distances = np.array(distance_table(vocab, vocab))
    largest = distances.max()
    if largest == 0:
        largest = 1.0
    return SSM(table=1.0 - distances / largest, codes=np.array(codes, dtype=np.intp))


def checkerboard_kernel(kernel_size: int, taper: float) -> np.ndarray:
    """Sign-checkered Gaussian kernel centered between two cells."""
    half = kernel_size // 2
    offsets = np.arange(-half, half) + 0.5
    u, v = offsets[:, None], offsets
    return np.sign(u) * np.sign(v) * np.exp(-taper * (u**2 + v**2) / half**2)


def novelty(ssm: SSM, kernel_size: int = SegmentationParams.kernel_size,
            taper: float = SegmentationParams.taper) -> np.ndarray:
    """Checkerboard novelty along the diagonal, one value per boundary
    position i (the gap before event i); edges are zero-padded and
    negative responses are clamped to zero.  Each window is gathered from
    the SSM's table through the codes, padded with a sentinel code whose
    row and column are zero.  ``kernel_size`` and ``taper`` are checked
    as ``SegmentationParams`` checks them."""
    n = ssm.size
    SegmentationParams(kernel_size=kernel_size, taper=taper)
    if kernel_size > 2 * n:
        raise KernelTooLargeError(f"kernel {kernel_size} exceeds 2n = {2 * n}")
    half = kernel_size // 2
    kernel = checkerboard_kernel(kernel_size, taper)
    sentinel = len(ssm.table)
    table = np.zeros((sentinel + 1, sentinel + 1))
    table[:sentinel, :sentinel] = ssm.table
    codes = np.full(n + kernel_size, sentinel)
    codes[half:half + n] = ssm.codes
    # spans[i] holds the codes of the k events, padding included, that the
    # diagonal window at boundary i covers, and rows[i] their offsets into
    # the flat table.  Each gathered window's row sums its k*k contiguous
    # products in one reduction, as np.sum of one window does, so every
    # value is bit-identical to a per-window sum.
    spans = codes[np.arange(n)[:, None] + np.arange(kernel_size)]
    rows = spans * (sentinel + 1)
    cells = kernel_size * kernel_size
    block = max(1, BLOCK_CELLS // cells)
    values = np.empty(n)
    for i in range(0, n, block):
        stop = min(i + block, n)
        windows = table.take(rows[i:stop, :, None] + spans[i:stop, None, :])
        windows *= kernel
        windows.reshape(stop - i, cells).sum(axis=1, out=values[i:stop])
    np.clip(values, 0.0, None, out=values)
    return values


def pick_boundaries(curve: np.ndarray, peak_lambda: float = SegmentationParams.peak_lambda,
                    min_gap: int = SegmentationParams.min_gap) -> list[int]:
    """Strict local maxima of a novelty curve at least ``mean + peak_lambda
    * std`` high, greedily thinned to ``min_gap``; ties keep the lower
    index.  The trivial boundaries 0 and n are never returned."""
    n = len(curve)
    threshold = curve.mean() + peak_lambda * curve.std()
    candidates = [i for i in range(1, n - 1)
                  if curve[i - 1] < curve[i] > curve[i + 1] and curve[i] >= threshold]
    kept: list[int] = []
    for i in sorted(candidates, key=lambda i: (-curve[i], i)):
        if all(abs(i - j) >= min_gap for j in kept):
            kept.append(i)
    return sorted(kept)


class Segmentation(NamedTuple):
    """Everything one segmentation pass computed.

    ``kernel_size`` is the clamped kernel; ``curve``, the novelty values,
    is None for a single-event piece, which has no boundary positions.
    """

    ssm: SSM
    kernel_size: int
    curve: np.ndarray | None
    boundaries: list[int]
    segments: list[Segment]


def segment_timeline(timeline: Timeline,
                     params: SegmentationParams = SegmentationParams()) -> Segmentation:
    """Split a piece into segments of sounded events: SSM, novelty
    curve, boundaries, then segments, each computed once.

    The kernel is clamped to twice the number of sounded events so short
    pieces stay segmentable.  Segments shorter than ``min_len`` merge into
    the preceding segment (the first merges forward); a single-event piece
    is returned whole.
    """
    sounded = timeline.sounded()
    ssm = build_ssm(sounded)
    n = ssm.size
    kernel_size = min(params.kernel_size, 2 * n)
    if n == 1:
        curve = None
        boundaries: list[int] = []
    else:
        curve = novelty(ssm, kernel_size, params.taper)
        boundaries = pick_boundaries(curve, params.peak_lambda, params.min_gap)
    cuts = [0, *boundaries, n]
    # A short span joins the one before it; a short first span absorbs the
    # spans after it, so only a lone span can stay short.
    spans: list[tuple[int, int]] = []
    for a, b in zip(cuts, cuts[1:]):
        if spans and min(b - a, spans[-1][1] - spans[-1][0]) < params.min_len:
            spans[-1] = (spans[-1][0], b)
        else:
            spans.append((a, b))
    segments = [Segment(timeline.id, k, tuple(sounded[a:b])) for k, (a, b) in enumerate(spans)]
    return Segmentation(ssm, kernel_size, curve, boundaries, segments)


def ssm_to_pgm(ssm: SSM) -> bytes:
    """ASCII PGM (P2), maxval 255, cell value rounded half-up, as bytes.
    The table is rounded and range-checked, each distinct row's text is
    built once, and row i of the file is the text of row ``codes[i]``."""
    n = ssm.size
    levels = 255.0 * ssm.table
    levels += 0.5
    np.floor(levels, out=levels)
    if not ((levels >= 0) & (levels <= 255)).all():
        raise ValueError("SSM cells must lie in [0, 1] to be written as PGM")
    # take allocates in C order, so each row's words are its 4n bytes.
    text = _PGM_WORDS[levels.astype(np.uint8)].take(ssm.codes, axis=1).view(np.uint8)
    ends = text[:, -4:]  # each row's last word, whose separator ends the line
    ends[ends == ord(" ")] = ord("\n")
    rows = [row[row != 0].tobytes() for row in text]
    return b"".join([f"P2\n{n} {n}\n255\n".encode(), *(rows[c] for c in ssm.codes.tolist())])


def novelty_to_csv(curve: np.ndarray) -> str:
    lines = ["index,value"]
    lines += [f"{i},{x!r}" for i, x in enumerate(curve.tolist())]
    return "\n".join(lines) + "\n"


def boundaries_to_csv(boundaries: list[int]) -> str:
    return "\n".join(["boundary_index", *map(str, boundaries)]) + "\n"
