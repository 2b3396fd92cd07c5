"""Self-test of the benchmark: report schema and output checks, not timings.

    python3 perfbench/selftest.py

Run from the root of a harmory checkout.  It runs every workload and
trace mode on tiny inputs and checks the result line against
BENCHMARK.json, and plants a fault for each output check and expects
the check to fire.  A run whose output check fails must exit 1 with
`correct: false`; a run in a directory without harmory's sources must
exit non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
from spans import dtw_cells

BENCHMARK = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def shrink() -> None:
    run.MIN_ITERATIONS, run.REPEATS = 1, 1
    run.Memory.CORPORA, run.Memory.PIECES, run.Memory.QUERIES = 2, 3, 4
    run.Covers.CLIQUES, run.Covers.SIMS = 4, 3
    run.Covers.GROUPS = {"dtw": (2, 2), "tpsd": (1, 2), "lharp": (1, 2)}
    run.Covers.EVENTS = 12
    run.Analyze.PIECES, run.Analyze.SEGMENTED, run.Analyze.EVENTS = 3, 1, 40


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def schema() -> None:
    for workload in BENCHMARK["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            name = workload["name"]
            code, lines = run_main(["--workload", name, "--seed", "3", "--seconds", "0",
                                    "--trace", str(trace)])
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and result["correct"], f"{name} trace={trace}: exit 0, correct")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys")
            expect(got == expected, f"{name} trace={trace}: metric names and units")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace={trace}: numeric values")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
                   and isinstance(result["failed"], int), f"{name} trace={trace}: op counts")


def dtw_cell_count() -> None:
    def brute(n, m, band):
        width = None if band is None else max(band, abs(n - m))
        return sum(1 for i in range(n) for j in range(m) if width is None or abs(i - j) <= width)

    expect(all(dtw_cells(n, m, band) == brute(n, m, band) for n in range(1, 8)
               for m in range(1, 8) for band in (None, 0, 1, 3)),
           "computed DTW cells match a brute-force count")


def planted_faults() -> None:
    expect(not checks.symmetric("m", [[1.0, 0.5], [0.5, 1.0]]), "symmetric matrix passes")
    expect(bool(checks.symmetric("m", [[1.0, 0.5], [0.5000001, 1.0]])),
           "asymmetric matrix is caught")
    expect(bool(checks.invariant("m", [(0.5, 0.5), (0.25, 0.2)])),
           "transposition-variant score is caught")

    work = run.CHECKOUT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        memory = run.Memory()
        memory.setup(5, work)
        session = run.Session()
        memory.batch(session)
        graph = (memory._out(0, 0) / "memory.nt").read_bytes()
        flipped = bytearray(graph)
        flipped[len(flipped) // 2] ^= 1
        expect(not checks.identical("memory.nt", graph, graph), "identical graph passes")
        expect(bool(checks.identical("memory.nt", graph, bytes(flipped))),
               "flipped byte in memory.nt is caught")

        rows = json.loads(session.call(["query", memory._out(0, 0) / "memory.nt",
                                        "C:maj F:maj G:maj C:maj", "-k", "3"])["stdout"])
        answer = checks.top_k(rows)
        expect(len(answer) == 3 and checks.same_ranking(answer, answer),
               "same query ranking passes")
        expect(not checks.same_ranking(answer, [answer[1], answer[0], answer[2]]),
               "reordered query result is caught")

        pgm = "P2\n2 2\n255\n255 0\n0 255\n"
        segments = [{"id": "p/seg/0", "start_event": 0, "end_event": 1},
                    {"id": "p/seg/1", "start_event": 1, "end_event": 2}]
        expect(not checks.segmentation("p", 2, pgm, "boundary_index\n1\n", segments),
               "tiling segmentation passes")
        expect(bool(checks.segmentation("p", 2, pgm, "boundary_index\n2\n", segments[:1])),
               "boundary at n and a gap in the tiling are caught")
        expect(bool(checks.segmentation("p", 3, pgm, "boundary_index\n1\n", segments)),
               "PGM of the wrong size is caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


class CorruptAnalyze(run.Analyze):
    """Analyze whose first segmentation output is corrupted after it is written."""

    def batch(self, session):
        result = super().batch(session)
        pgm = self.work / "seg0" / f"{self.pieces[0].id}.ssm.pgm"
        pgm.write_text(pgm.read_text().replace("P2", "P5", 1))
        return result


class CorruptCovers(run.Covers):
    """Covers whose first transposed piece is replaced by another piece, so
    that the transposition-invariance check fails."""

    def setup(self, seed, work):
        super().setup(seed, work)
        first, second = self.sample[:2]
        other = (self.work / "all" / f"{second}.chart").read_text()
        (self.work / "transposed" / f"{first}.chart").write_text(other)


def failing_run() -> None:
    for name, workload in (("analyze", CorruptAnalyze), ("covers", CorruptCovers)):
        run.WORKLOADS["corrupt"] = workload
        code, lines = run_main(["--workload", "corrupt", "--seed", "1", "--seconds", "0"])
        expect(code == 1 and json.loads(lines[-1])["correct"] is False,
               f"a failed {name} output check gives exit 1 and correct: false")
        del run.WORKLOADS["corrupt"]


def without_sources() -> None:
    bare = run.CHECKOUT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    here = Path(__file__).resolve().parent
    shutil.copytree(here, bare / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                               BENCHMARK["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without harmory sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    shrink()
    schema()
    dtw_cell_count()
    planted_faults()
    failing_run()
    without_sources()
    with contextlib.suppress(OSError):
        (run.CHECKOUT / ".perfbench_work").rmdir()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
