"""Record the next BENCH_<n>.json from perfbench runs of a checkout.

    python3 scripts/record_bench.py                      # this checkout
    python3 scripts/record_bench.py --checkout OTHER --out .
    python3 scripts/record_bench.py --parent HEAD         # and HEAD, pair by pair

For every workload that the checkout's BENCHMARK.json lists, it runs
`perfbench/run.py` unchanged from the checkout root: once per seed with
`--trace 0`, then once with `--trace 1`, for `run_seconds` each.  The
file holds, per workload, the median and interquartile range of each
gated (end-to-end) metric over the seeds, every run's result and named
detail, and the traced run's per-layer metrics.  Each median and each
per-layer value carries its ratio to the same entry of BENCH_<n-1>.json
in the output directory (null when there is none).  `n` is one more
than the largest recorded so far.

It also runs `harmory bench --synthetic` three times from the checkout
and keeps, under `pairwise`, each run's median seconds per pair of dtw
and of tpsd and their ratio.  Acceptance criterion 5 needs dtw's pair to
be the faster, so every ratio above 1 is the margin it holds by.

It records `sys.flags.dont_write_bytecode` of the interpreter that runs
it, which its runs share when the flag comes from PYTHONDONTWRITEBYTECODE.
While it is set no `.pyc` is written, so `setup_s` includes compiling
`src/harmory` from source.

`commit` is the checkout's HEAD.  `dirty` is true when `src`,
`perfbench`, `scripts` or BENCHMARK.json differ from it (an edit, or a
file not committed yet): the runs then measured a tree that `commit`
does not hold.

With `--parent REV` it also checks REV out, detached, with `git worktree`
into a temporary directory outside the checkout, and removes it when
done.  It then runs PAIRS pairs of plain runs per workload, one on each
tree, in the same session: each pair on the next of SEEDS, the change
(the checkout) first in even pairs and REV first in odd ones.  Under
`same_session` it keeps REV's commit, every pair run with the tree it
measured (`change` or `parent`), and for each gated metric both medians,
the parent's interquartile range and a verdict: `unresolved` when the
medians differ by no more than that range, else `better` or `worse`.
The per-layer metrics stay the checkout's traced run.  Every file from
BENCH_14 on holds `same_session` (tests/test_bench_files.py checks it),
so record the next one with `--parent`.

This script imports nothing from harmory: it measures the checkout only
through the benchmark's own command line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (21, 22, 23)
PAIRS = 10
# The paths whose edits change what a run measures.
MEASURED = ("src", "perfbench", "scripts", "BENCHMARK.json")


def perfbench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One run's result line with its named detail, and its metadata."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    described, result = json.loads(lines[-2]), json.loads(lines[-1])
    meta = described["meta"]
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "problems": meta["problems"], "detail": described["detail"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}, meta


def pairwise(checkout: Path) -> dict:
    """Each of three `harmory bench --synthetic` runs' median seconds per
    pair of dtw and of tpsd, and tpsd's over dtw's."""
    command = [sys.executable, "-m", "harmory", "bench", "--synthetic"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    record: dict[str, list[float]] = {"dtw": [], "tpsd": [], "tpsd_over_dtw": []}
    for _ in range(3):
        done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}:\n"
                             f"{done.stderr}")
        measures = json.loads(done.stdout)["measures"]
        dtw, tpsd = (measures[name]["median_seconds_per_pair"] for name in ("dtw", "tpsd"))
        record["dtw"].append(dtw)
        record["tpsd"].append(tpsd)
        record["tpsd_over_dtw"].append(tpsd / dtw)
    return record


def iqr(values: list[float]) -> float:
    """The distance between the first and third quartile, as perfbench
    reports spread."""
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def ratio(value: float, previous: dict | None, name: str, field: str):
    """``value`` over the same entry of the previous file, or None."""
    try:
        base = previous[name][field]
    except (KeyError, TypeError):
        return None
    return value / base if base else None


def recorded(out: Path) -> dict[int, Path]:
    return {int(m.group(1)): path for path in out.glob("BENCH_*.json")
            if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))}


def git(checkout: Path, *arguments: str) -> str:
    done = subprocess.run(["git", *arguments], cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: git {' '.join(arguments)} failed in {checkout}:\n"
                         f"{done.stderr}")
    return done.stdout


def commit_of(checkout: Path) -> tuple[str, bool]:
    """The checkout's HEAD commit, and whether ``MEASURED`` differs from it."""
    changed = git(checkout, "status", "--porcelain", "--", *MEASURED)
    return git(checkout, "rev-parse", "HEAD").strip(), bool(changed.strip())


@contextlib.contextmanager
def worktree(checkout: Path, rev: str):
    """``rev`` of the checkout's repository, checked out detached in a
    temporary directory outside the checkout, and removed on exit."""
    with tempfile.TemporaryDirectory(prefix="record_bench-") as scratch:
        path = Path(scratch) / "parent"
        git(checkout, "worktree", "add", "--detach", str(path), rev)
        try:
            yield path
        finally:
            git(checkout, "worktree", "remove", "--force", str(path))


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' medians, the parent's interquartile range, and whether
    the change is ``better``, ``worse`` or ``unresolved``: its median no
    further from the parent's than that range."""
    base, median, spread = statistics.median(parent), statistics.median(change), iqr(parent)
    if abs(median - base) <= spread:
        outcome = "unresolved"
    else:
        outcome = "better" if (median > base) == (better == "higher") else "worse"
    return {"parent_median": base, "change_median": median, "parent_iqr": spread,
            "verdict": outcome}


def same_session(checkout: Path, rev: str, spec: dict) -> dict:
    """PAIRS alternating pairs of plain runs per workload, on the checkout
    (``change``) and on ``rev`` (``parent``), and each gated metric's verdict."""
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {workload: [] for workload in workloads}
    with worktree(checkout, rev) as parent:
        trees = {"change": checkout, "parent": parent}
        commit = git(parent, "rev-parse", "HEAD").strip()
        for pair in range(PAIRS):
            seed = SEEDS[pair % len(SEEDS)]
            for workload in workloads:
                for tree in ("change", "parent") if pair % 2 == 0 else ("parent", "change"):
                    run, _ = perfbench(trees[tree], workload, seed, spec["run_seconds"], trace=0)
                    runs[workload].append({**run, "tree": tree, "pair": pair})
    compared = {}
    for workload, done in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            values = {tree: [run["metrics"][metric["name"]] for run in done if run["tree"] == tree]
                      for tree in ("parent", "change")}
            metrics[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                       **verdict(values["parent"], values["change"],
                                                 metric["better"])}
        compared[workload] = {"metrics": metrics, "runs": done}
    return {"parent_rev": rev, "parent_commit": commit, "pairs": PAIRS, "workloads": compared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the BENCH files (default: this checkout)")
    parser.add_argument("--parent", metavar="REV",
                        help=f"also run {PAIRS} same-session pairs a workload against REV")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    files = recorded(args.out)
    n = max(files, default=0) + 1
    before = json.loads(files[n - 1].read_text())["workloads"] if n > 1 else {}
    commit, dirty = commit_of(checkout)
    paired = same_session(checkout, args.parent, spec) if args.parent else None

    runs: dict[str, list[dict]] = {w["name"]: [] for w in spec["workloads"]}
    for seed in SEEDS:
        for workload in runs:
            run, meta = perfbench(checkout, workload, seed, seconds, trace=0)
            runs[workload].append(run)
    workloads = {}
    for workload, plain in runs.items():
        traced, _ = perfbench(checkout, workload, SEEDS[0], seconds, trace=1)
        previous = before.get(workload, {})
        gated = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]] for run in plain]
            median = statistics.median(values)
            gated[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"], "median": median,
                "iqr": iqr(values), "values": values,
                "ratio": ratio(median, previous.get("metrics"), metric["name"], "median")}
        layers = {}
        for metric in spec["per_layer"]:
            value = traced["metrics"][metric["name"]]
            layers[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"], "value": value,
                "ratio": ratio(value, previous.get("per_layer"), metric["name"], "value")}
        workloads[workload] = {"metrics": gated, "per_layer": layers,
                               "runs": plain, "traced_run": traced}
    record = {"n": n, "commit": commit, "dirty": dirty, "nproc": meta["nproc"],
              "python": meta["python"], "numpy": version("numpy"), "src_lines": meta["src_lines"],
              "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
              "seeds": list(SEEDS), "trace_seed": SEEDS[0], "run_seconds": seconds,
              "workloads": workloads, "pairwise": pairwise(checkout)}
    if args.parent:
        record["same_session"] = paired
    path = args.out / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
