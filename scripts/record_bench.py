"""Record the next BENCH_<n>.json from perfbench runs of a checkout.

    python3 scripts/record_bench.py                      # this checkout
    python3 scripts/record_bench.py --checkout OTHER --out .

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

This script imports nothing from harmory: it measures the checkout only
through the benchmark's own command line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (21, 22, 23)
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
        raise SystemExit(f"error: {checkout} is not a git checkout:\n{done.stderr}")
    return done.stdout


def commit_of(checkout: Path) -> tuple[str, bool]:
    """The checkout's HEAD commit, and whether ``MEASURED`` differs from it."""
    changed = git(checkout, "status", "--porcelain", "--", *MEASURED)
    return git(checkout, "rev-parse", "HEAD").strip(), bool(changed.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the BENCH files (default: this checkout)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    files = recorded(args.out)
    n = max(files, default=0) + 1
    before = json.loads(files[n - 1].read_text())["workloads"] if n > 1 else {}
    commit, dirty = commit_of(checkout)

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
    path = args.out / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
