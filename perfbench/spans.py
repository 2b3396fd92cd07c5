"""Per-layer spans for the traced run, kept in memory and summed per layer.

Layers are harmory's own public functions.  `install` wraps each one by
replacing every module attribute (and every entry of a module-level dict,
such as `similarity.MEASURES`) that refers to it, so the program's
source is not touched and calls through any import path are seen.

Self time is wall time apportioned to the innermost open span: a span's
duration minus what its children cover.  While pool threads hold open
spans, the main thread only waits on them, so it is credited nothing and
each elapsed interval is split evenly between the busy threads.  The
self times of all layers therefore sum to the traced wall time even when
`build --workers 2` scores pairs on two threads.  A span's inclusive time
is its self time plus that of the spans it encloses on its thread, so
it is the share of the wall time the layer and its callees took.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# Layer name -> (module, attribute) of the function it wraps.
LAYERS = {
    "tps.chord_distance": ("harmory.tps", "chord_distance"),
    "harte.parse_chord": ("harmory.harte", "parse_chord"),
    "timeline.load": ("harmory.timeline", ("load_chart", "load_jams")),
    "timeline.build_timeline": ("harmory.timeline", "build_timeline"),
    "timeline.encode_tps": ("harmory.timeline", "encode_tps"),
    "timeline.estimate_key": ("harmory.timeline", "estimate_key"),
    "segmentation.build_ssm": ("harmory.segmentation", "build_ssm"),
    "segmentation.novelty": ("harmory.segmentation", "novelty"),
    "segmentation.pick_boundaries": ("harmory.segmentation", "pick_boundaries"),
    "segmentation.segment_timeline": ("harmory.segmentation", "segment_timeline"),
    "similarity.key_relative_events": ("harmory.similarity", "key_relative_events"),
    "similarity.dtw_kernel": ("harmory.similarity", "_dtw"),
    "similarity.tpsd": ("harmory.similarity", "tpsd"),
    "similarity.lharp": ("harmory.similarity", "lharp"),
    "memory.pair_score": ("harmory.memory", "_segment_score"),
    "memory.segment_to_timeline": ("harmory.memory", "segment_to_timeline"),
    "memory.export_ntriples": ("harmory.memory", "export_ntriples"),
    "memory.export_json": ("harmory.memory", "export_json"),
    "memory.import_ntriples": ("harmory.memory", "import_ntriples"),
    "memory.query_similar": ("harmory.memory", "query_similar"),
    "evaluation.evaluate_covers": ("harmory.evaluation", "evaluate_covers"),
}
# Functions observed without a span of their own: they only report the
# size of their result to the enclosing span, for the computed counts.
PROBES = {
    "patterns": ("harmory.similarity", "extract_recurrent_patterns"),
    "graph": ("harmory.memory", "build_memory"),
}
ROOT = "cli"


def dtw_cells(n: int, m: int, band: int | None) -> int:
    """Cells the DTW kernel fills: all n*m, or those within the band."""
    if band is None:
        return n * m
    width = max(band, abs(n - m))
    return sum(min(m - 1, i + width) - max(0, i - width) + 1
               for i in range(n) if i - width <= m - 1)


class _Frame:
    __slots__ = ("name", "start", "self_s", "child_s", "notes")

    def __init__(self, name: str, start: float):
        self.name, self.start, self.self_s, self.child_s, self.notes = name, start, 0.0, 0.0, []


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Frame]] = {}
        self._main = threading.get_ident()
        self._last = time.perf_counter()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _credit(self, now: float) -> None:
        busy = [stack[-1] for ident, stack in self._stacks.items()
                if stack and ident != self._main]
        if not busy:
            main = self._stacks.get(self._main)
            busy = [main[-1]] if main else []
        share = (now - self._last) / len(busy) if busy else 0.0
        for frame in busy:
            frame.self_s += share
        self._last = now

    def enter(self, name: str) -> None:
        with self._lock:
            now = time.perf_counter()
            self._credit(now)
            self._stacks.setdefault(threading.get_ident(), []).append(_Frame(name, now))

    def exit(self) -> _Frame:
        with self._lock:
            now = time.perf_counter()
            self._credit(now)
            stack = self._stacks[threading.get_ident()]
            frame = stack.pop()
            inclusive = frame.self_s + frame.child_s
            if stack:
                stack[-1].child_s += inclusive
            self.calls[frame.name] += 1
            self.self_s[frame.name] += frame.self_s
            self.total_s[frame.name] += now - frame.start
            self.inclusive_s[frame.name] += inclusive
            return frame

    def note(self, value: int) -> None:
        stack = self._stacks.get(threading.get_ident())
        if stack:
            stack[-1].notes.append(value)

    def run_root(self, fn, *args):
        self.enter(ROOT)
        try:
            return fn(*args)
        finally:
            self.exit()


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            frame = tracer.exit()
        _count(tracer, name, frame, args, kwargs, result)
        return result
    return wrapper


def _probe(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if name == "patterns":
            tracer.note(len(result))
        else:
            tracer.counts["memory.segments"] += len(result.segments)
            tracer.counts["memory.patterns"] += len(result.patterns)
            tracer.counts["memory.similar_edges"] += len(result.similar)
        return result
    return wrapper


def _count(tracer: Tracer, name: str, frame: _Frame, args, kwargs, result) -> None:
    """Computed work counts, derived from arguments and results."""
    counts = tracer.counts
    if name == "similarity.dtw_kernel":
        band = args[2] if len(args) > 2 else kwargs.get("band")
        counts[name + ".cells"] += dtw_cells(len(args[0]), len(args[1]), band)
    elif name == "similarity.tpsd" and len(frame.notes) == 2:
        counts[name + ".shift_cells"] += frame.notes[0] * frame.notes[1]
    elif name == "similarity.lharp" and len(frame.notes) == 2:
        counts[name + ".pattern_pairs"] += frame.notes[0] * frame.notes[1]
    elif name == "timeline.encode_tps":
        tracer.note(len(result.values))
    elif name == "segmentation.build_ssm":
        counts["segmentation.ssm_cells"] += result.size * (result.size - 1) // 2
    elif name in ("memory.export_ntriples", "memory.export_json"):
        data = result if isinstance(result, bytes) else result.encode("utf-8")
        counts[name + ".bytes"] += len(data)


def install(tracer: Tracer) -> None:
    """Wrap every layer and probe wherever harmory's modules refer to it."""
    replacements = {}
    for name, (module, attrs) in LAYERS.items():
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            fn = getattr(sys.modules[module], attr)
            replacements[id(fn)] = _span(tracer, name, fn)
    for name, (module, attr) in PROBES.items():
        fn = getattr(sys.modules[module], attr)
        replacements[id(fn)] = _probe(tracer, name, fn)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("harmory"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements:
                        value[key] = replacements[id(item)]
