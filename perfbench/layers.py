"""Layer spans recorded from outside the analyzer.

Each layer of ``src/repro/`` is timed by wrapping its public functions;
no code under ``src/`` changes.  A wrapper records one span per call
(name, start, end, parent) into per-thread arrays that stay in memory
until the run ends and are then written out (:meth:`Tracer.dump`) or
analysed in place (:func:`self_times`).

Callers often bind a layer function by name (``from .dfa import
determinise``), so :func:`install` rebinds every attribute of every
loaded ``repro`` module that refers to a wrapped function, not just the
attribute of the defining module.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
import threading
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, module, attribute path, measure) for every wrapped
#: callable.  ``measure(args, result)`` returns an integer stored with
#: the span (tokens lexed, bytes framed, lookup hit, paths changed).
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("rlang.determinise", "repro.rlang.dfa", "determinise", None),
    ("rlang.minimise", "repro.rlang.dfa", "minimise", None),
    ("rlang.product", "repro.rlang.ops", "product", None),
    ("shell.lex", "repro.shell.lexer", "tokenize", lambda a, r: len(r)),
    ("shell.parse", "repro.shell.parser", "parse", None),
    ("symex.eval", "repro.symex.engine", "Engine.run", None),
    ("symex.expand", "repro.symex.expansion", "expand_word_fields", None),
    ("symex.expand", "repro.symex.expansion", "expand_word", None),
    ("specs.lookup", "repro.specs.registry", "SpecRegistry.get",
     lambda a, r: 0 if r is None else 1),
    ("effects.graph", "repro.analysis.effects.graph", "build_effect_graph", None),
    ("effects.hazards", "repro.analysis.effects.hazards", "find_hazards", None),
    ("deps.analyze", "repro.analysis.deps", "analyze_dependencies", None),
    ("optimize.classify", "repro.analysis.optimize.classify",
     "classify_pipeline", None),
    ("optimize.build_plan", "repro.analysis.optimize.advisor", "build_plan", None),
    ("rtypes.infer", "repro.rtypes.infer", "check_pipeline", None),
    ("analysis.analyze", "repro.analysis.analyzer", "analyze", None),
    ("batch.run", "repro.analysis.batch", "run_batch", None),
    ("batch.run", "repro.analysis.optimize.advisor", "run_optimize_batch", None),
    ("cache.get", "repro.analysis.cache", "ResultCache.get", None),
    ("cache.put", "repro.analysis.cache", "ResultCache.put", None),
    ("report.render", "repro.analysis.report", "Report.render", None),
    ("report.codec", "repro.analysis.report", "Report.to_dict", None),
    ("report.codec", "repro.analysis.report", "Report.from_dict", None),
    ("incremental.session", "repro.analysis.incremental",
     "IncrementalSession.analyze", None),
    ("watch.scan", "repro.server.watch", "Watcher.scan",
     lambda a, r: len(r.changed)),
    ("daemon.handle", "repro.server.daemon", "AnalysisServer.handle_request", None),
    ("daemon.analyze", "repro.server.daemon", "AnalysisServer._op_analyze", None),
    ("daemon.optimize", "repro.server.daemon", "AnalysisServer._op_optimize", None),
    ("daemon.batch", "repro.server.daemon", "AnalysisServer._op_batch", None),
    ("protocol.codec", "repro.server.protocol", "encode", lambda a, r: len(r)),
    ("protocol.codec", "repro.server.protocol", "decode", lambda a, r: len(a[0])),
]

#: checker hook methods; every concrete checker's own definitions are
#: wrapped under ``checkers.hook``
CHECKER_HOOKS = (
    "on_command", "on_delete", "on_case_arm", "on_always_fails",
    "on_pipeline", "finish",
)

#: per-layer self-time metric -> the span names it sums.  Every span
#: name belongs to exactly one metric, so the metrics plus ``other``
#: account for all traced wall time.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "rlang.determinise_self_ms": ("rlang.determinise",),
    "rlang.minimise_self_ms": ("rlang.minimise",),
    "rlang.product_self_ms": ("rlang.product",),
    "shell.lex_self_ms": ("shell.lex",),
    "shell.parse_self_ms": ("shell.parse",),
    "symex.eval_self_ms": ("symex.eval",),
    "symex.expand_self_ms": ("symex.expand",),
    "specs.lookup_self_ms": ("specs.lookup",),
    "checkers.hook_self_ms": ("checkers.hook",),
    "effects.graph_self_ms": ("effects.graph",),
    "effects.hazards_self_ms": ("effects.hazards",),
    "deps.analyze_self_ms": ("deps.analyze",),
    "optimize.classify_self_ms": ("optimize.classify",),
    "optimize.build_plan_self_ms": ("optimize.build_plan",),
    "rtypes.infer_self_ms": ("rtypes.infer",),
    "analysis.analyze_self_ms": ("analysis.analyze",),
    "batch.run_self_ms": ("batch.run",),
    "cache.get_self_ms": ("cache.get",),
    "cache.put_self_ms": ("cache.put",),
    "report.render_self_ms": ("report.render",),
    "report.codec_self_ms": ("report.codec",),
    "incremental.session_self_ms": ("incremental.session",),
    "watch.scan_self_ms": ("watch.scan",),
    "daemon.handle_self_ms": (
        "daemon.handle", "daemon.analyze", "daemon.optimize", "daemon.batch",
    ),
    "protocol.codec_self_ms": ("protocol.codec",),
}


class Timeline:
    """The spans of one thread, as parallel integer arrays.

    ``parent`` indexes into the same timeline (-1 for a root); ``end``
    stays 0 while a span is open.
    """

    def __init__(self, tid: int):
        self.tid = tid
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")
        self.stack: List[int] = []


class Tracer:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.timelines: List[Timeline] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timeline(self) -> Timeline:
        timeline = getattr(self._local, "timeline", None)
        if timeline is None:
            timeline = Timeline(threading.get_ident())
            self._local.timeline = timeline
            with self._lock:
                self.timelines.append(timeline)
        return timeline

    def wrap(self, fn: Callable, name: str, measure: Optional[Callable] = None):
        span_id = self.name_id(name)
        clock = time.perf_counter_ns
        local = self._local
        make_timeline = self.timeline

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            timeline = getattr(local, "timeline", None) or make_timeline()
            stack = timeline.stack
            index = len(timeline.start)
            timeline.name.append(span_id)
            timeline.parent.append(stack[-1] if stack else -1)
            timeline.end.append(0)
            timeline.extra.append(0)
            stack.append(index)
            timeline.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                timeline.end[index] = clock()
                stack.pop()
            if measure is not None:
                timeline.extra[index] = measure(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (a JSON header line, then the
        raw arrays of each timeline).  A thread still running may append
        meanwhile; ``start`` is appended last, so its length bounds the
        complete rows of every column."""
        with self._lock:
            timelines = list(self.timelines)
        sizes = [len(t.start) for t in timelines]
        with open(path, "wb") as handle:
            header = {
                "names": list(self.names),
                "timelines": [
                    {"tid": t.tid, "spans": n} for t, n in zip(timelines, sizes)
                ],
            }
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for timeline, n in zip(timelines, sizes):
                for column in (
                    timeline.name, timeline.parent, timeline.start,
                    timeline.end, timeline.extra,
                ):
                    column[:n].tofile(handle)


def load(path: str) -> Tuple[List[str], List[Timeline]]:
    """Read a :meth:`Tracer.dump` file back."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        timelines = []
        for entry in header["timelines"]:
            timeline = Timeline(entry["tid"])
            for column in (
                timeline.name, timeline.parent, timeline.start,
                timeline.end, timeline.extra,
            ):
                column.fromfile(handle, entry["spans"])
            timelines.append(timeline)
    return header["names"], timelines


def _import_layers() -> None:
    for _, module, _, _ in TARGETS:
        importlib.import_module(module)
    importlib.import_module("repro.cli")
    importlib.import_module("repro.checkers")


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _all_subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every layer target and checker hook (idempotence is the
    caller's job: install once per process, before the first call)."""
    _import_layers()
    for span, module_name, path, measure in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(tracer.wrap(raw.__func__, span, measure)))
            else:
                setattr(owner, method, tracer.wrap(raw, span, measure))
        else:
            original = getattr(module, path)
            _rebind(original, tracer.wrap(original, span, measure))

    from repro.analysis.resilience import GuardedChecker
    from repro.checkers.base import Checker

    for cls in _all_subclasses(Checker):
        if cls is GuardedChecker:
            continue
        for hook in CHECKER_HOOKS:
            if hook in cls.__dict__:
                setattr(cls, hook, tracer.wrap(cls.__dict__[hook], "checkers.hook"))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


class SpanStats:
    """Per-span-name totals inside one measurement window."""

    def __init__(self):
        self.self_ns: Dict[str, int] = {}
        self.count: Dict[str, int] = {}
        self.extra: Dict[str, int] = {}
        #: full durations (ns) of spans wholly inside the window
        self.durations: Dict[str, List[int]] = {}
        #: per-span-name list of (start_ns, extra) for spans in the window
        self.starts: Dict[str, List[Tuple[int, int]]] = {}
        self.wall_ns = 0
        self.covered_ns = 0
        self.timelines = 0
        #: analyze calls made while a build_plan span was open
        self.verify_runs = 0

    def self_sum_ns(self) -> int:
        return sum(self.self_ns.values())


def self_times(
    names: List[str],
    timelines: Iterable[Timeline],
    window: Tuple[int, int],
) -> SpanStats:
    """Accumulate self time per span name over ``window`` (ns clock).

    A span's self time is its duration minus the time its children
    cover, both clipped to the window.  Independently, the union of all
    span intervals gives the covered time of each timeline; ``wall -
    covered`` is the ``other`` bucket.  With properly nested spans the
    self times sum to the covered time exactly, which is what the
    accounting check compares.
    """
    stats = SpanStats()
    lo, hi = window
    plan_id = names.index("optimize.build_plan") if "optimize.build_plan" in names else -2
    analyze_id = names.index("analysis.analyze") if "analysis.analyze" in names else -2
    for timeline in timelines:
        n = len(timeline.start)
        child_ns = [0] * n
        clipped = [0] * n
        in_plan = [False] * n
        intervals = []
        any_in_window = False
        for i in range(n):
            start = timeline.start[i]
            end = timeline.end[i] or hi
            a = start if start > lo else lo
            b = end if end < hi else hi
            parent = timeline.parent[i]
            name_id = timeline.name[i]
            in_plan[i] = name_id == plan_id or (parent >= 0 and in_plan[parent])
            if b <= a:
                continue
            any_in_window = True
            clipped[i] = b - a
            intervals.append((a, b))
            if parent >= 0:
                child_ns[parent] += b - a
        for i in range(n):
            if not clipped[i]:
                continue
            name = names[timeline.name[i]]
            stats.self_ns[name] = stats.self_ns.get(name, 0) + clipped[i] - child_ns[i]
            stats.count[name] = stats.count.get(name, 0) + 1
            stats.extra[name] = stats.extra.get(name, 0) + timeline.extra[i]
            stats.starts.setdefault(name, []).append(
                (timeline.start[i], timeline.extra[i])
            )
            if timeline.start[i] >= lo and 0 < timeline.end[i] <= hi:
                stats.durations.setdefault(name, []).append(
                    timeline.end[i] - timeline.start[i]
                )
            if timeline.name[i] == analyze_id and timeline.parent[i] >= 0 and in_plan[timeline.parent[i]]:
                stats.verify_runs += 1
        if not any_in_window:
            continue
        stats.timelines += 1
        stats.wall_ns += hi - lo
        intervals.sort()
        covered = 0
        cur_a, cur_b = intervals[0]
        for a, b in intervals[1:]:
            if a > cur_b:
                covered += cur_b - cur_a
                cur_a, cur_b = a, b
            elif b > cur_b:
                cur_b = b
        covered += cur_b - cur_a
        stats.covered_ns += covered
    return stats


def layer_self_ms(stats: SpanStats, ops: int) -> Dict[str, float]:
    """Every :data:`SELF_TIME_METRICS` entry plus ``other.self_ms``, in
    ms per op."""
    per_op = max(ops, 1)
    out = {}
    for metric, spans in SELF_TIME_METRICS.items():
        total = sum(stats.self_ns.get(span, 0) for span in spans)
        out[metric] = total / 1e6 / per_op
    out["other.self_ms"] = (stats.wall_ns - stats.covered_ns) / 1e6 / per_op
    return out


def unmapped_spans(stats: SpanStats) -> List[str]:
    """Span names recorded but missing from :data:`SELF_TIME_METRICS`."""
    mapped = {span for spans in SELF_TIME_METRICS.values() for span in spans}
    return sorted(set(stats.self_ns) - mapped)


def root_ns_within(
    timelines: Iterable[Timeline], intervals: Iterable[Tuple[int, int]]
) -> int:
    """Time (ns) the closed root spans of ``timelines`` spent inside the
    union of ``intervals`` ((start, end) ns pairs, which may overlap)."""
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [start for start, _ in merged]
    total = 0
    for timeline in timelines:
        for parent, start, end in zip(timeline.parent, timeline.start, timeline.end):
            if parent != -1 or not end:
                continue
            k = max(bisect.bisect_right(starts, start) - 1, 0)
            while k < len(merged) and merged[k][0] < end:
                overlap = min(end, merged[k][1]) - max(start, merged[k][0])
                if overlap > 0:
                    total += overlap
                k += 1
    return total
