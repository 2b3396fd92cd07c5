"""The committed BENCH_<n>.json records and the script that writes them.

Only the schema is checked: keys, units, numeric types, the numbering
and each ratio's consistency with the file before.  No timing is.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import shutil
import statistics
import subprocess
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(((int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                  if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))))
RUN_KEYS = {"seed", "trace", "correct", "attempted", "failed", "problems", "detail", "metrics"}


def number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def test_bench_files_are_numbered_from_one_without_gaps():
    assert RECORDS, "no BENCH_*.json committed"
    assert [n for n, _ in RECORDS] == list(range(1, len(RECORDS) + 1))


@pytest.mark.parametrize("n, path", RECORDS, ids=[path.name for _, path in RECORDS])
def test_bench_file_schema(n, path):
    record = json.loads(path.read_text())
    previous = json.loads(RECORDS[n - 2][1].read_text())["workloads"] if n > 1 else None
    # From BENCH_4 on, a record also holds the pairwise timings of criterion 5,
    # from BENCH_7 on whether the runs' interpreter wrote no bytecode,
    # from BENCH_10 on whether the measured tree differed from the commit,
    # and from BENCH_14 on, when recorded with --parent, the same-session
    # pairs that test_same_session_schema checks.
    assert set(record) == {"n", "commit", "nproc", "python", "numpy", "src_lines", "seeds",
                           "trace_seed", "run_seconds", "workloads",
                           *(["pairwise"] if n >= 4 else []),
                           *(["dont_write_bytecode"] if n >= 7 else []),
                           *(["dirty"] if n >= 10 else []),
                           *(["same_session"] if n >= 14 and "same_session" in record else [])}
    for name, first in (("dont_write_bytecode", 7), ("dirty", 10)):
        if n >= first:
            assert isinstance(record[name], bool)
    assert record["n"] == n
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    assert isinstance(record["nproc"], int) and record["nproc"] >= 1
    for name in ("python", "numpy"):
        assert re.fullmatch(r"\d+\.\d+\.\d+\S*", record[name])
    assert isinstance(record["src_lines"], int) and record["src_lines"] > 0
    seeds = record["seeds"]
    assert len(seeds) >= 3 and all(isinstance(seed, int) for seed in seeds)
    assert record["trace_seed"] in seeds
    assert record["run_seconds"] == SPEC["run_seconds"]
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, entry in record["workloads"].items():
        assert set(entry) == {"metrics", "per_layer", "runs", "traced_run"}
        for kind, field, names in (("metrics", "median", SPEC["end_to_end"]),
                                   ("per_layer", "value", SPEC["per_layer"])):
            assert set(entry[kind]) == {metric["name"] for metric in names}
            for metric in names:
                got = entry[kind][metric["name"]]
                assert (got["unit"], got["better"]) == (metric["unit"], metric["better"])
                assert number(got[field])
                base = previous[workload][kind][metric["name"]][field] if previous else 0
                if base:
                    assert got["ratio"] == pytest.approx(got[field] / base)
                else:
                    assert got["ratio"] is None
                if kind == "metrics":
                    assert set(got) == {"unit", "better", "median", "iqr", "values", "ratio"}
                    assert number(got["iqr"]) and got["iqr"] >= 0
                    assert len(got["values"]) == len(seeds)
                    assert all(map(number, got["values"]))
                else:
                    assert set(got) == {"unit", "better", "value", "ratio"}
        runs = entry["runs"]
        assert [run["seed"] for run in runs] == seeds
        for run in [*runs, entry["traced_run"]]:
            assert set(run) == RUN_KEYS
            assert isinstance(run["correct"], bool)
            assert all(isinstance(run[name], int) for name in ("attempted", "failed"))
            assert all(map(number, run["metrics"].values()))
        assert [run["trace"] for run in runs] == [0] * len(seeds)
        traced = entry["traced_run"]
        assert (traced["seed"], traced["trace"]) == (record["trace_seed"], 1)
    if n >= 4:
        timed = record["pairwise"]
        assert set(timed) == {"dtw", "tpsd", "tpsd_over_dtw"}
        assert len(timed["dtw"]) >= 3
        for name in ("dtw", "tpsd"):
            assert len(timed[name]) == len(timed["dtw"])
            assert all(number(value) and value > 0 for value in timed[name])
        assert timed["tpsd_over_dtw"] == pytest.approx(
            [tpsd / dtw for dtw, tpsd in zip(timed["dtw"], timed["tpsd"])])


def test_record_script_imports_nothing_from_harmory():
    tree = ast.parse((ROOT / "scripts" / "record_bench.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "harmory"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs a git executable")
def test_commit_of_reports_a_measured_file_edited_after_the_commit(tmp_path):
    spec = importlib.util.spec_from_file_location("record_bench",
                                                  ROOT / "scripts" / "record_bench.py")
    record_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record_bench)

    def git(*arguments):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
                               "commit.gpgsign=false", *arguments],
                              cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    source = tmp_path / "src" / "piece.py"
    source.parent.mkdir()
    source.write_text("one = 1\n")
    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD").strip()
    assert record_bench.commit_of(tmp_path) == (head, False)
    source.write_text("one = 2\n")
    assert record_bench.commit_of(tmp_path) == (head, True)


def load_record_bench():
    spec = importlib.util.spec_from_file_location("record_bench",
                                                  ROOT / "scripts" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD_BENCH = load_record_bench()
SESSIONS = [(n, path) for n, path in RECORDS if "same_session" in json.loads(path.read_text())]


@pytest.mark.parametrize("change, better, outcome", [
    ([16, 16, 16], "lower", "worse"),
    ([16, 16, 16], "higher", "better"),
    ([7, 8, 9], "lower", "better"),
    ([15, 15, 15], "lower", "unresolved"),  # the parent's IQR away: inside it
    ([9, 9, 9], "higher", "unresolved"),
])
def test_same_session_verdict_on_fixed_numbers(change, better, outcome):
    """The parent's median is 12 and its IQR 13.5 - 10.5 = 3."""
    assert RECORD_BENCH.verdict([14, 10, 12, 13, 11], change, better) == {
        "parent_median": 12, "change_median": statistics.median(change), "parent_iqr": 3.0,
        "verdict": outcome}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs a git executable")
def test_the_parent_worktree_is_removed_after_use(tmp_path):
    def git(*arguments):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
                               "commit.gpgsign=false", *arguments],
                              cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    source = tmp_path / "src" / "piece.py"
    source.parent.mkdir()
    source.write_text("one = 1\n")
    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "one")
    source.write_text("one = 2\n")
    with RECORD_BENCH.worktree(tmp_path, "HEAD") as parent:
        assert (parent / "src" / "piece.py").read_text() == "one = 1\n"
        assert tmp_path.resolve() not in parent.resolve().parents
        assert git("worktree", "list", "--porcelain").count("worktree ") == 2
    assert not parent.parent.exists()
    with pytest.raises(RuntimeError), RECORD_BENCH.worktree(tmp_path, "HEAD") as parent:
        raise RuntimeError
    assert not parent.parent.exists()
    assert git("worktree", "list", "--porcelain").count("worktree ") == 1
    assert source.read_text() == "one = 2\n"


@pytest.mark.parametrize("n, path", SESSIONS, ids=[path.name for _, path in SESSIONS])
def test_same_session_schema(n, path):
    """Pairs alternate which tree runs first, and each verdict is the one
    that the record's own runs give."""
    session = json.loads(path.read_text())["same_session"]
    assert set(session) == {"parent_rev", "parent_commit", "pairs", "workloads"}
    assert isinstance(session["parent_rev"], str) and session["parent_rev"]
    assert re.fullmatch(r"[0-9a-f]{40}", session["parent_commit"])
    pairs = session["pairs"]
    assert isinstance(pairs, int) and pairs >= 3
    assert set(session["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for entry in session["workloads"].values():
        assert set(entry) == {"metrics", "runs"}
        runs = entry["runs"]
        assert [(run["pair"], run["tree"]) for run in runs] == [
            (pair, tree) for pair in range(pairs)
            for tree in (("change", "parent") if pair % 2 == 0 else ("parent", "change"))]
        for run in runs:
            assert set(run) == RUN_KEYS | {"tree", "pair"}
            assert run["trace"] == 0 and isinstance(run["correct"], bool)
            assert all(isinstance(run[name], int) for name in ("attempted", "failed"))
            assert all(map(number, run["metrics"].values()))
        assert set(entry["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
        for metric in SPEC["end_to_end"]:
            name, better = metric["name"], metric["better"]
            values = {tree: [run["metrics"][name] for run in runs if run["tree"] == tree]
                      for tree in ("parent", "change")}
            assert entry["metrics"][name] == {
                "unit": metric["unit"], "better": better,
                **RECORD_BENCH.verdict(values["parent"], values["change"], better)}
