"""Benchmark of the harmory command line on seeded synthetic corpora.

Run from the root of a harmory checkout:

    python3 perfbench/run.py --workload memory --seed 1 --seconds 10 --trace 0

The benchmark writes its corpora under `.perfbench_work/` and drives the
CLI through `harmory.cli.main(argv)`.  Each CLI call runs in a child
forked from this process, which has imported harmory and run none of
it, so every timed call starts from the state a fresh `harmory` process
has after its imports (empty caches included) and pays no interpreter
start-up.  One child runs at a time, with at most two threads.

Every workload is a batch of distinct heavy commands run once per
iteration plus a closed loop, one client, over many distinct light
calls.  Each batch command and each distinct call is timed three times,
interleaved over the run.  The gated metrics use CPU time, the call's
process and its threads and children summed: on a shared virtual
machine the hypervisor takes the CPU away from a running call for tens
of milliseconds at a time, which lengthens its wall time but not its CPU
time.  The same machine at times runs the same code up to 1.7x faster,
in bursts of seconds, so a command's CPU cost is the largest of its
three timings, which almost always falls in the usual state; its wall
cost is their median.  Rates and percentiles are taken over many
distinct commands, so that no single input decides them.  The last
line of standard output is the JSON result; the line before it carries
the workload's own named metrics and the run's metadata.  With
`--trace 1` the same calls run untraced and then traced, and the result
holds the per-layer metrics that BENCHMARK.json names.  The exit code is 1 when an output check fails and
2 when the checkout has no harmory sources.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import checks
import corpus

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
IMPORTS = 2  # timed fresh imports after each batch
MIN_ITERATIONS = 3  # timings of each batch command
REPEATS = 3  # timings of each distinct call
TRACE_CALLS = 20  # distinct calls per traced pass


class Cost(NamedTuple):
    wall: float  # s
    cpu: float  # s, summed over threads and child processes


class ChildError(RuntimeError):
    pass


def in_child(fn, *args):
    """Run fn(*args) in a forked child; return (result, child's peak RSS in MB)."""
    # Keep this process's objects out of the child's garbage collections, so
    # that a call's cost does not grow with what the benchmark holds.
    gc.freeze()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            try:
                payload = {"ok": fn(*args)}
            except BaseException:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(payload, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    payload = json.loads(data) if data else {"error": f"child ended with status {status}"}
    if "error" in payload:
        raise ChildError(payload["error"])
    return payload["ok"], usage.ru_maxrss / 1024


def children_cpu_s() -> float:
    """CPU time of this process's reaped children, their threads included."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def cpu_s() -> float:
    """CPU time of this process, all its threads, and its reaped children."""
    return time.process_time() + children_cpu_s()


def _cli(argv: list[str], traced: bool) -> dict:
    from harmory.cli import main

    tracer = None
    if traced:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu = cpu_s()
        start = time.perf_counter()
        code = tracer.run_root(main, argv) if tracer else main(argv)
        wall = time.perf_counter() - start
        cpu = cpu_s() - cpu
    result = {"code": code, "wall": wall, "cpu": cpu,
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    if tracer:
        result["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                            "total_s": tracer.total_s, "inclusive_s": tracer.inclusive_s,
                            "counts": tracer.counts}
    return result


class Session:
    """Runs CLI calls, each in its own child, and keeps what they cost."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.wall = 0.0
        self.layers: list[dict] = []
        self.problems: list[str] = []

    def call(self, argv: list) -> dict:
        self.attempted += 1
        result, rss = in_child(_cli, [str(a) for a in argv], self.traced)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        self.wall += result["wall"]
        if self.traced:
            self.layers.append(result["layers"])
        if result["code"] != 0:
            self.failed += 1
            self.problems.append(f"harmory {' '.join(map(str, argv))} exited "
                                 f"{result['code']}: {result['stderr'].strip()}")
        return result


# --- workloads ---------------------------------------------------------
#
# Each workload keeps the reason it was chosen beside its definition.
# `setup` writes the inputs; `batch` runs one iteration's batch commands
# and returns their results, keyed by (kind, command), and the work units
# of each kind; `calls` lists the distinct calls of the closed loop;
# `record` keeps a call's output; `finish` checks outputs outside the
# timed region and returns the workload's own named metrics from the
# median cost of each batch command and of each distinct call.


class Memory:
    WHY = ("pop-form pieces: memory pair scoring dominates build --workers 2, "
           "then queries read the graph back through the same layer")
    # Each batch builds CORPORA distinct corpora of PIECES pieces; the
    # queries are split evenly between their graphs, so that no one graph's
    # size decides the latency.
    CORPORA, PIECES, POOL, QUERIES = 4, 6, 3, 100
    # Sections are at least four chords long, so the segmentation finds the
    # planted sections and the graph has the same size for every seed.
    SEGMENTATION = ["--min-len", "4", "--min-gap", "4"]

    def setup(self, seed: int, work: Path) -> None:
        self.work = work
        self.corpora = []
        for k in range(self.CORPORA):
            pieces = corpus.pop_corpus(f"{seed}-{k}", self.PIECES, self.POOL)
            corpus.write_charts(work / f"pop{k}", pieces)
            self.corpora.append(pieces)
        self.queries = [(k, query) for k, pieces in enumerate(self.corpora)
                        for query in corpus.pop_queries(f"{seed}-{k}", pieces,
                                                        self.QUERIES // self.CORPORA)]
        self.iterations = 0
        self.answers: list[tuple[int, list]] = []

    def _build(self, session: Session, k: int, out: Path, workers: int) -> dict:
        return session.call(["--quiet", "--out-dir", out, "build", self.work / f"pop{k}",
                             "--workers", workers, *self.SEGMENTATION])

    def _out(self, k: int, iteration: int) -> Path:
        return self.work / f"build{k}-{iteration}"

    def batch(self, session: Session) -> tuple[dict, dict]:
        results = {("build", k): self._build(session, k, self._out(k, self.iterations), 2)
                   for k in range(self.CORPORA)}
        self.iterations += 1
        return results, {"build": self.CORPORA * self.PIECES}

    def calls(self) -> list[tuple[object, list]]:
        return [(index, ["query", self._out(k, 0) / "memory.nt", q.progression]
                 + (["--key", q.key] if q.key else []))
                for index, (k, q) in enumerate(self.queries)]

    def record(self, tag, result: dict) -> None:
        if result["code"] == 0:
            self.answers.append((tag, checks.top_k(json.loads(result["stdout"]))))

    def finish(self, session: Session, batch: dict, calls: dict) -> dict:
        in_memory = []
        for k in range(self.CORPORA):
            reference = self.work / f"reference{k}"
            session.attempted += 1
            # Queries are ordered by corpus, so the answers line up with them.
            in_memory += in_child(_reference, str(self.work / f"pop{k}"), str(reference),
                                  self.SEGMENTATION,
                                  [(q.progression, q.key) for j, q in self.queries if j == k])[0]
            for name in ("memory.nt", "memory.json"):
                expected = (reference / name).read_bytes()
                for i in range(self.iterations):
                    out = self._out(k, i) / name
                    session.problems += checks.identical(f"{out.parent.name}/{name}",
                                                         expected, out.read_bytes())
        # The known key-loss defect of the N-Triples round trip: a query whose
        # top-k differs from the in-memory graph's counts as a failed op.
        mismatches = sum(not checks.same_ranking(in_memory[tag], got)
                         for tag, got in self.answers)
        session.failed += mismatches
        return {"build_s": sum(c.wall for c in batch.values()), **latency("query", calls),
                "query_roundtrip_mismatch_share": mismatches / max(len(self.answers), 1)}


def _reference(pop_dir: str, out_dir: str, segmentation: list, queries: list) -> list:
    """Run `build --workers 1` through the CLI, keeping the graph it builds,
    and return the top-k of every query on that in-memory graph."""
    import harmory.cli as cli
    from harmory.harte import parse_chord
    from harmory.memory import PatternQuery, query_similar
    from harmory.tps import Key

    build, graphs = cli.build_memory, []
    cli.build_memory = lambda *args, **kwargs: graphs.append(build(*args, **kwargs)) or graphs[-1]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--quiet", "--out-dir", out_dir, "build", pop_dir,
                         "--workers", "1", *segmentation])
    if code != 0:
        raise RuntimeError(f"reference build of {pop_dir} exited {code}")
    answers = []
    for progression, key in queries:
        query = PatternQuery(tuple(parse_chord(t) for t in progression.split()),
                             Key.from_string(key) if key else None, 5)
        answers.append([(i, round(s, 6)) for i, s, _ in query_similar(graphs[0], query)])
    return answers


class Covers:
    WHY = ("originals and transposed, substituted, re-timed covers: the dtw, tpsd and lharp "
           "kernels do the work, segmentation and memory none; all serial")
    CLIQUES, COVERS, EVENTS, SIMS = 12, 2, 32, 100
    # measure -> (groups, cliques per group).  Each group of consecutive
    # cliques is one distinct `eval-covers` call.  lharp costs ~75 ms of
    # CPU a pair against ~3 ms for dtw, so it gets fewer pairs; its six
    # cliques average out how much each seed's harmony repeats.
    GROUPS = {"dtw": (3, 4), "tpsd": (3, 4), "lharp": (3, 2)}
    # The `sim` loop compares pieces of two different lengths from these,
    # so that its latencies spread by input and its p90 is set by long
    # pairs more than by slow moments of the machine.
    SIM_EVENTS = range(16, 129, 8)
    # Pieces whose pairs are checked for symmetry and transposition invariance.
    INVARIANCE = {"dtw": 4, "tpsd": 4, "lharp": 2}

    def setup(self, seed: int, work: Path) -> None:
        pieces, rows = corpus.cover_corpus(seed, self.CLIQUES, self.COVERS, self.EVENTS)
        self.work = work
        corpus.write_charts(work / "all", pieces)
        self.sizes = {}
        per_clique = self.COVERS + 1
        for measure, (groups, cliques) in self.GROUPS.items():
            for g in range(groups):
                span = slice(g * cliques * per_clique, (g + 1) * cliques * per_clique)
                directory = work / f"{measure}{g}"
                corpus.write_charts(directory, pieces[span])
                corpus.write_cliques(directory / "cliques.csv", rows[span])
                self.sizes[(measure, g)] = cliques * per_clique
        rng = random.Random(f"sim-{seed}")
        sims = {events: [dataclasses.replace(p, id=f"n{events}{p.id}") for p in
                         corpus.cover_corpus(f"{seed}-{events}", 1, self.COVERS, events)[0]]
                for events in self.SIM_EVENTS}
        corpus.write_charts(work / "sims", [p for versions in sims.values() for p in versions])
        # Which lengths the pairs compare is the same on every seed; the
        # seed picks the harmony and the version of each length.
        lengths = random.Random("sim-lengths").sample(
            [(a, b) for a in self.SIM_EVENTS for b in self.SIM_EVENTS if a != b], self.SIMS)
        self.pairs = [(rng.choice(sims[a]).id, rng.choice(sims[b]).id) for a, b in lengths]
        sample = rng.sample(pieces, max(self.INVARIANCE.values()))
        self.sample = [p.id for p in sample]
        corpus.write_charts(work / "transposed",
                            [corpus.transposed(p, rng.randrange(1, 12)) for p in sample])
        self.maps: dict[tuple, set] = {key: set() for key in self.sizes}
        self.scores: dict[object, set] = {}

    def batch(self, session: Session) -> tuple[dict, dict]:
        results, work = {}, defaultdict(float)
        for (measure, g), size in self.sizes.items():
            directory = self.work / f"{measure}{g}"
            result = session.call(["eval-covers", directory, directory / "cliques.csv",
                                   "--measure", measure, "--workers", "1"])
            results[(measure, g)] = result
            if result["code"] == 0:
                self.maps[(measure, g)].add(
                    json.loads(result["stdout"])["mean_average_precision"])
            work[measure] += size * (size - 1) / 2
        return results, dict(work)

    def calls(self) -> list[tuple[object, list]]:
        directory = self.work / "sims"
        return [(pair, ["sim", directory / f"{pair[0]}.chart", directory / f"{pair[1]}.chart",
                        "--measure", "dtw"]) for pair in self.pairs]

    def record(self, tag, result: dict) -> None:
        if result["code"] == 0:
            self.scores.setdefault(tag, set()).add(json.loads(result["stdout"])["score"])

    def invariance(self, session: Session) -> list[str]:
        """Symmetry and transposition invariance of each measure, by `sim`
        calls on the sampled pieces.  A violation is a failed check, except
        dtw asymmetry, a known defect, which counts as one failed op each:
        the normalized cost divides by the length of a path whose
        backtracking breaks ties by direction.  Returns the dtw asymmetries."""
        known = []
        for measure, count in self.INVARIANCE.items():
            def score(directory, a, b):
                result = session.call(["sim", self.work / directory / f"{a}.chart",
                                       self.work / "all" / f"{b}.chart", "--measure", measure])
                return json.loads(result["stdout"])["score"] if result["code"] == 0 else None

            names = self.sample[:count]
            matrix = [[score("all", a, b) if a != b else 1.0 for b in names] for a in names]
            shifted = [(matrix[i][j], score("transposed", names[i], names[j]))
                       for i in range(count) for j in range(i + 1, count)]
            asymmetric = checks.symmetric(measure, matrix)
            if measure == "dtw":
                known += asymmetric
            else:
                session.problems += asymmetric
            session.problems += checks.invariant(measure, shifted)
        session.failed += len(known)
        return known

    def finish(self, session: Session, batch: dict, calls: dict) -> dict:
        for (measure, g), values in self.maps.items():
            if len(values) != 1:
                session.problems.append(f"eval-covers {measure}{g}: MAP differs across "
                                        f"iterations: {sorted(values)}")
        session.problems += [f"sim {a} {b}: scores differ across calls: {sorted(v)}"
                             for (a, b), v in self.scores.items() if len(v) != 1]
        detail: dict = {"dtw_asymmetries": self.invariance(session),
                        **latency("sim_dtw", calls)}
        for measure, (groups, _) in self.GROUPS.items():
            keys = [(measure, g) for g in range(groups)]
            pairs = sum(self.sizes[k] * (self.sizes[k] - 1) / 2 for k in keys)
            detail[f"{measure}_pairs_per_s"] = pairs / sum(batch[k].wall for k in keys)
            detail[f"map_{measure}"] = statistics.fmean(min(self.maps[k], default=0.0)
                                                        for k in keys)
        return detail


class Analyze:
    WHY = ("long modulating JAMS pieces with no-chords, sevenths and inversions: only "
           "segmentation (O(n^2) SSM) and TPS encoding do work")
    # The first SEGMENTED pieces are segmented in every batch; every piece
    # is a distinct call of the encode loop.
    PIECES, SEGMENTED, EVENTS = 100, 6, 256

    def setup(self, seed: int, work: Path) -> None:
        self.pieces = corpus.modulating_corpus(seed, self.PIECES, self.EVENTS)
        corpus.write_jams(work / "long", self.pieces)
        self.work = work
        self.iterations = 0
        self.outputs: dict[str, set] = {}

    def _path(self, piece) -> Path:
        return self.work / "long" / f"{piece.id}.jams.json"

    def batch(self, session: Session) -> tuple[dict, dict]:
        out = self.work / f"seg{self.iterations}"
        self.iterations += 1
        results = {("segment", piece.id): session.call(["--quiet", "--out-dir", out, "segment",
                                                        self._path(piece)])
                   for piece in self.pieces[:self.SEGMENTED]}
        return results, {"segment": sum(p.sounded() for p in self.pieces[:self.SEGMENTED])}

    def calls(self) -> list[tuple[object, list]]:
        return [(p.id, ["encode", self._path(p), "--grid", "beat"]) for p in self.pieces]

    def record(self, tag, result: dict) -> None:
        text = result["stdout"]
        self.outputs.setdefault(f"encode {tag}", set()).add((digest(text), text.count("\n")))

    def finish(self, session: Session, batch: dict, calls: dict) -> dict:
        segmented = self.pieces[:self.SEGMENTED]
        for piece in segmented:
            for k in range(self.iterations):
                out = self.work / f"seg{k}"
                files = [(out / f"{piece.id}.{s}").read_text()
                         for s in ("ssm.pgm", "boundaries.csv", "segments.json", "novelty.csv")]
                self.outputs.setdefault(f"segment {piece.id}", set()).add(digest("".join(files)))
                if k == 0:
                    session.problems += checks.segmentation(
                        piece.id, piece.sounded(), files[0], files[1],
                        json.loads(files[2])["segments"])
        for piece in self.pieces:
            beats = sum(d for _, d, _ in piece.events)
            for _, lines in self.outputs.get(f"encode {piece.id}", ()):
                if lines != beats + 1:
                    session.problems.append(f"encode {piece.id}: expected {beats} beat rows")
        session.problems += [f"{name}: output differs across calls"
                             for name, values in self.outputs.items() if len(values) != 1]
        seconds = sum(batch[("segment", p.id)].wall + calls[p.id].wall for p in segmented)
        return {"analyze_events_per_s": sum(p.sounded() for p in segmented) / seconds,
                **latency("encode", calls)}


WORKLOADS = {"memory": Memory, "covers": Covers, "analyze": Analyze}


# --- running -------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def latency(name: str, calls: dict, kind: str = "wall") -> dict:
    """p50 and p90 in ms over the distinct calls' costs of one kind."""
    values = [getattr(cost, kind) for cost in calls.values()]
    if len(values) < 2:
        return {}
    return {f"{name}_ms_p50": 1000 * statistics.median(values),
            f"{name}_ms_p90": 1000 * statistics.quantiles(values, n=10, method="inclusive")[8]}


def import_cpu_s() -> float:
    """CPU time of a fresh interpreter importing the CLI, as every `harmory`
    process does before it runs a command."""
    start = children_cpu_s()
    subprocess.run([sys.executable, "-c", "import harmory.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return children_cpu_s() - start


def iterate(workload, session: Session, seconds: float, iterations: int, repeats: int,
            limit: int | None = None, after_batch=None) -> tuple[dict, dict, dict]:
    """Alternate one batch with a chunk of the call loop until time is up, each
    batch command has run `iterations` times and each of the first `limit`
    distinct calls `repeats` times.  Returns the cost of each batch command
    and of each distinct call, and the work units of one batch."""
    batch_costs, call_costs = defaultdict(list), defaultdict(list)
    loop: list = []
    done = position = 0
    work: dict = {}
    start = time.perf_counter()

    def finished() -> bool:
        return (done >= iterations and position >= len(loop) * repeats
                and time.perf_counter() - start >= seconds)

    while not finished():
        results, work = workload.batch(session)
        done += 1
        for key, result in results.items():
            batch_costs[key].append(Cost(result["wall"], result["cpu"]))
        if after_batch:
            after_batch()
        loop = loop or workload.calls()[:limit]
        for _ in range(-(-len(loop) * repeats // iterations)):
            tag, argv = loop[position % len(loop)]
            position += 1
            result = session.call(argv)
            call_costs[tag].append(Cost(result["wall"], result["cpu"]))
            workload.record(tag, result)
    return command_costs(batch_costs), command_costs(call_costs), work


def command_costs(costs: dict) -> dict:
    """The median wall time and the largest CPU time of each command."""
    return {key: Cost(statistics.median(c.wall for c in values), max(c.cpu for c in values))
            for key, values in costs.items()}


def measure(workload, seconds: float) -> tuple[Session, dict]:
    session = Session()
    imports: list[float] = []
    batch, calls, work = iterate(workload, session, seconds, MIN_ITERATIONS, REPEATS,
                                 after_batch=lambda: imports.extend(
                                     import_cpu_s() for _ in range(IMPORTS)))
    detail = workload.finish(session, batch, calls)
    # Set-up is a fresh interpreter importing the CLI, timed as the
    # commands are: the largest CPU time of the imports spread over the run.
    metrics = {"setup_s": (max(imports), "s")}
    metrics.update((name, (value, "ms"))
                   for name, value in latency("call_cpu", calls, "cpu").items())
    # Work units per CPU second of each kind of batch command, and their
    # geometric mean, so that each kind weighs the same whatever it costs.
    rates = {kind: units / sum(c.cpu for key, c in batch.items() if key[0] == kind)
             for kind, units in work.items()}
    metrics["work_per_cpu_s"] = (statistics.geometric_mean(rates.values()), "1/s")
    detail.update(batch_s=sum(c.wall for c in batch.values()),
                  batch_cpu_s=sum(c.cpu for c in batch.values()),
                  work_units=work, work_per_cpu_s=rates, distinct_calls=len(calls))
    return session, {"metrics": metrics, "detail": detail}


def layer_metrics(layers: list[dict], passes: int) -> dict:
    """The per-layer metrics BENCHMARK.json names, summed over the traced
    calls, per pass.  A name is a layer and a field: `calls`; `s` and
    `self_s`, self time; `busy_s`, the span durations summed over threads;
    any other field is a computed count kept under the full name."""
    def total(kind: str, key: str) -> float:
        return sum(layer[kind].get(key, 0) for layer in layers) / passes

    kinds = {"calls": "calls", "s": "self_s", "self_s": "self_s", "busy_s": "total_s"}
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {}
    for metric in spec:
        name = metric["name"]
        if name.startswith("trace."):
            continue
        layer, field = name.rsplit(".", 1)
        value = total(kinds[field], layer) if field in kinds else total("counts", name)
        metrics[name] = (value, metric["unit"])
    return metrics


def trace(workload, seconds: float) -> tuple[Session, dict]:
    """One batch and TRACE_CALLS distinct calls untraced, then the same traced,
    until time is up; the difference in wall time is the tracing overhead.
    The detail gives the share of the traced wall time that the batch and
    each layer, callees included, took."""
    plain, traced = Session(), Session(traced=True)
    passes = 0
    batch: dict = {}
    calls: dict = {}
    traced_batch = 0.0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        batch, calls, _ = iterate(workload, plain, 0, 1, 1, TRACE_CALLS)
        traced_batch += sum(c.wall for c in iterate(workload, traced, 0, 1, 1,
                                                    TRACE_CALLS)[0].values())
        passes += 1
    merged = Session()
    for session in (plain, traced):
        merged.attempted += session.attempted
        merged.failed += session.failed
        merged.problems += session.problems
    detail = workload.finish(merged, batch, calls)
    metrics = layer_metrics(traced.layers, passes)
    self_sum = sum(value for name, (value, _) in metrics.items()
                   if name.endswith((".s", ".self_s")))
    wall = traced.wall / passes
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (plain.wall / passes, "s")
    metrics["trace.overhead_s"] = (wall - plain.wall / passes, "s")
    metrics["trace.self_sum_share"] = (self_sum / wall, "ratio")
    inclusive: dict = defaultdict(float)
    for layer in traced.layers:
        for name, value in layer["inclusive_s"].items():
            inclusive[name] += value
    shares = {name: round(value / traced.wall, 3) for name, value in
              sorted(inclusive.items(), key=lambda item: -item[1])
              if value >= 0.01 * traced.wall}
    detail.update(passes=passes, batch_share=round(traced_batch / traced.wall, 3),
                  inclusive_share=shares)
    return merged, {"metrics": metrics, "detail": detail}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "harmory").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "harmory" / "cli.py").is_file():
        print(f"error: no harmory sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # Pin numerical libraries to one thread before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harmory.cli  # noqa: F401  imported once; children inherit it unused

    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, work / "inputs")
        if args.trace:
            session, report = trace(workload, args.seconds)
        else:
            session, report = measure(workload, args.seconds)
            report["metrics"]["peak_rss_mb"] = (session.peak_rss_mb, "MB")
    except ChildError as err:
        print(f"error: a benchmark child failed:\n{err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    meta = {"workload": args.workload, "why": workload.WHY, "seed": args.seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "src_lines": src_lines(), "problems": session.problems}
    print(json.dumps({"detail": report["detail"], "meta": meta}))
    correct = not session.problems
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(report["metrics"].items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
