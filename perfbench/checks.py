"""Output checks.  Each returns a list of problems; an empty list passes.

They take plain values (bytes, lists, parsed text) so that the self-test
can plant a fault in an otherwise good output and see the check fire.
"""

from __future__ import annotations


def identical(name: str, reference: bytes, other: bytes) -> list[str]:
    if reference == other:
        return []
    at = next((i for i, (a, b) in enumerate(zip(reference, other)) if a != b),
              min(len(reference), len(other)))
    return [f"{name}: bytes differ from the reference at offset {at}"]


def symmetric(name: str, matrix: list[list[float]]) -> list[str]:
    """Scores of a measure in both directions must be exactly equal."""
    return [f"{name}: score[{i}][{j}]={matrix[i][j]!r} but score[{j}][{i}]={matrix[j][i]!r}"
            for i in range(len(matrix)) for j in range(i + 1, len(matrix))
            if matrix[i][j] != matrix[j][i]]


def invariant(name: str, pairs: list[tuple[float, float]]) -> list[str]:
    """(score, score with one piece transposed) pairs must be equal."""
    return [f"{name}: pair {k} scores {a!r} but {b!r} after transposition"
            for k, (a, b) in enumerate(pairs) if a != b]


def top_k(rows: list[dict]) -> list[tuple[str, float]]:
    return [(row["pattern"], round(row["score"], 6)) for row in rows]


def same_ranking(expected: list[tuple[str, float]], got: list[tuple[str, float]]) -> bool:
    """Query results agree when ids and scores to 6 decimals agree, in order."""
    return [(i, round(s, 6)) for i, s in expected] == [(i, round(s, 6)) for i, s in got]


def segmentation(name: str, n: int, pgm: str, boundaries_csv: str,
                 segments: list[dict]) -> list[str]:
    """PGM is n x n, boundaries lie inside (0, n), segments tile [0, n)."""
    problems = []
    tokens = pgm.split()
    if tokens[:4] != ["P2", str(n), str(n), "255"] or len(tokens) != 4 + n * n:
        problems.append(f"{name}: PGM is not a {n}x{n} P2 image")
    lines = boundaries_csv.split()
    if not lines or lines[0] != "boundary_index":
        problems.append(f"{name}: boundaries CSV lacks its header")
    bad = [b for b in lines[1:] if not 0 < int(b) < n]
    if bad:
        problems.append(f"{name}: boundaries outside (0, {n}): {bad}")
    cursor = 0
    for segment in segments:
        if segment["start_event"] != cursor or segment["end_event"] <= cursor:
            problems.append(f"{name}: segment {segment['id']} does not continue at {cursor}")
        cursor = segment["end_event"]
    if cursor != n:
        problems.append(f"{name}: segments end at {cursor}, not {n}")
    return problems
