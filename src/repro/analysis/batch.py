"""Corpus-scale batch analysis.

The paper's ahead-of-time framing (§2, §6) amortizes analysis across
whole script corpora; per-file independence makes that embarrassingly
parallel.  This driver accepts files, directories, and glob patterns,
fans the work out to a process pool, and consults the persistent
:mod:`~repro.analysis.cache` so unchanged files cost one hash + one
read on re-analysis instead of a symbolic execution.

The driver (:func:`run_kind`) is generic in what it computes per file:
a :class:`BatchKind` names the computation, its cache key and schema,
and its stand-ins for unreadable and quarantined files.  Analysis
(:data:`ANALYZE`, behind :func:`run_batch`) and optimization plans
(``OPTIMIZE`` in :mod:`.optimize.advisor`) are the two kinds, and
:func:`run_cached` is the same cache discipline for one script (the
daemon's single-file ops and ``repro-optimize FILE``).

Crash containment: each file is submitted to the pool as its own
future, so one file killing its worker (OOM, segfault in an extension,
``os._exit``) cannot take the rest of the batch with it.  A file whose
worker died is retried once inline under a *tightened*
:class:`~repro.analysis.resilience.ResourceBudget`; if the retry also
fails, the file is quarantined — it still gets a renderable report
carrying an ``analysis-quarantined`` diagnostic.  Degraded and
quarantined reports are never written to the result cache, so a later
run re-analyzes those files from scratch.

Counters (visible via ``--stats``), under the kind's prefix (``batch``
for analysis, ``optimize`` for plans): ``batch.files``,
``batch.cache.hit`` / ``batch.cache.miss`` / ``batch.cache.store``,
``batch.worker_failures`` / ``batch.retries`` / ``batch.quarantined``;
per-file seconds feed the ``batch.file_seconds`` histogram so the stats
table shows aggregate CPU time next to wall time (their ratio is the
realized parallel speedup).
"""

from __future__ import annotations

import glob as glob_mod
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..diag import Diagnostic, Severity
from ..obs import get_recorder
from .analyzer import analyze
from .cache import ResultCache, cache_key
from .report import Report
from .resilience import ResourceBudget, quarantine_diagnostic

#: extensions treated as shell scripts when scanning a directory
SCRIPT_EXTENSIONS = (".sh", ".bash")


@dataclass(frozen=True)
class BatchConfig:
    """The analyzer options one batch run applies to every file.

    Frozen + picklable (crosses the process-pool boundary) and
    fingerprintable (feeds the cache key, so flipping any option
    invalidates exactly the affected entries).
    """

    #: ``None`` models argv as unknown-at-entry (the default);
    #: an int asks for that many symbolic positional parameters
    n_args: Optional[int] = None
    #: concrete argument values (``--args a b c``); wins over ``n_args``
    args: Optional[Tuple[str, ...]] = None
    platform_targets: Optional[Tuple[str, ...]] = None
    include_lint: bool = False
    max_fork: int = 64
    max_loop: int = 2
    prune: bool = True
    races: bool = True
    #: resource limits (``--timeout`` / ``--max-states``).  Deliberately
    #: EXCLUDED from :meth:`fingerprint`: a completed report does not
    #: depend on how generous the budget was, and budget-exhausted
    #: (degraded) reports are never cached — so results computed under
    #: one budget are safely reusable under any other.
    timeout: Optional[float] = None
    max_states: Optional[int] = None

    def fingerprint(self) -> str:
        return (
            f"n_args={self.n_args};args={self.args};"
            f"platforms={self.platform_targets};"
            f"lint={self.include_lint};max_fork={self.max_fork};"
            f"max_loop={self.max_loop};prune={self.prune};races={self.races}"
        )

    def analyze_kwargs(self) -> dict:
        return {
            "n_args": self.n_args,
            "args": self.args,
            "platform_targets": self.platform_targets,
            "include_lint": self.include_lint,
            "max_fork": self.max_fork,
            "max_loop": self.max_loop,
            "prune": self.prune,
            "races": self.races,
        }

    def budget(self) -> Optional[ResourceBudget]:
        """The per-file budget this config implies, or None."""
        if self.timeout is None and self.max_states is None:
            return None
        return ResourceBudget(deadline=self.timeout, max_states=self.max_states)


@dataclass
class FileResult:
    """One analyzed file: its report plus how the result was obtained."""

    path: str
    report: Report
    cached: bool = False
    seconds: float = 0.0
    #: the worker died and the bounded inline retry failed too; the
    #: report is a stub carrying an ``analysis-quarantined`` diagnostic
    quarantined: bool = False


@dataclass
class BatchResult:
    """Per-file results (in input order) plus corpus-level accounting."""

    results: List[FileResult] = field(default_factory=list)
    hits: int = 0
    misses: int = 0

    @property
    def unsafe(self) -> bool:
        return any(r.report.unsafe for r in self.results)

    @property
    def degraded(self) -> bool:
        """At least one file's analysis did not fully complete."""
        return any(r.quarantined or r.report.degraded for r in self.results)

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        """Aggregated multi-file output: per-file headers plus a corpus
        summary line.  Deliberately free of cache/timing details so a
        fully-warm rerun is byte-identical to the cold run."""
        blocks = []
        errors = warnings = infos = flagged = degraded = 0
        for result in self.results:
            report = result.report
            errors += len(report.errors())
            warnings += len(report.warnings())
            infos += len(report.infos())
            if not report.ok:
                flagged += 1
            if result.quarantined or report.degraded:
                degraded += 1
            blocks.append(f"== {result.path} ==\n{report.render(min_severity)}")
        summary = (
            f"{len(self.results)} file(s) analyzed: {errors} error(s), "
            f"{warnings} warning(s), {infos} note(s); {flagged} file(s) flagged"
        )
        if degraded:
            summary += f"; {degraded} file(s) degraded"
        blocks.append(summary)
        return "\n\n".join(blocks)


def discover(inputs: Sequence[str]) -> List[str]:
    """Expand files, directories, and glob patterns into a sorted,
    deduplicated list of script paths.

    Explicit file arguments are always included; directories are walked
    recursively for ``*.sh`` / ``*.bash``; anything else is tried as a
    glob pattern.
    """
    found: List[str] = []
    for item in inputs:
        if os.path.isdir(item):
            for dirpath, dirnames, filenames in os.walk(item):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(SCRIPT_EXTENSIONS):
                        found.append(os.path.join(dirpath, name))
        elif os.path.isfile(item):
            found.append(item)
        else:
            found.extend(
                path
                for path in glob_mod.glob(item, recursive=True)
                if os.path.isfile(path)
            )
    seen = set()
    unique: List[str] = []
    for path in sorted(found):
        normal = os.path.normpath(path)
        if normal not in seen:
            seen.add(normal)
            unique.append(normal)
    return unique


@dataclass(frozen=True)
class BatchKind:
    """What a batch run computes per file, and how its results are
    cached and replaced when a file cannot be computed.

    :func:`run_kind` owns everything else (discover, read, cache, pool,
    retry, quarantine) and knows no kind in particular.  A kind crosses
    the process-pool boundary with every file, so its callables must be
    module-level functions.
    """

    #: counter prefix (``batch`` -> ``batch.cache.hit`` ...)
    prefix: str
    #: span around one whole run
    span: str
    #: ``(source, config, budget=None) -> dict``; ``budget`` replaces
    #: ``config.budget()`` (the tightened retry passes one)
    compute: Callable[..., dict]
    #: ``(source, config) -> str``: the cache key
    key: Callable[[str, BatchConfig], str]
    #: payload schema version a cache entry must carry
    schema: int
    #: the result class (:class:`Report` or ``OptimizePlan``): its
    #: ``from_dict`` / ``to_dict`` and ``degraded``
    result: type
    #: ``message -> dict``: the stand-in for an unreadable file
    read_error: Callable[[str], dict]
    #: ``(source, cause, retry_exc) -> dict``: the stand-in for a file
    #: whose tightened retry failed too
    quarantine: Callable[[str, BaseException, BaseException], dict]


class Outcome(NamedTuple):
    """One file of a :func:`run_kind` run."""

    path: str
    value: Any
    cached: bool = False
    seconds: float = 0.0
    quarantined: bool = False


def analyze_source(
    source: str, config: BatchConfig, budget: Optional[ResourceBudget] = None
) -> dict:
    """Analyze one script and return its serialized report."""
    return analyze(
        source,
        budget=budget if budget is not None else config.budget(),
        **config.analyze_kwargs(),
    ).to_dict()


def _analysis_key(source: str, config: BatchConfig) -> str:
    return cache_key(source, config.fingerprint())


def _read_error_report(message: str) -> dict:
    diagnostic = Diagnostic(
        code="read-error", message=message, severity=Severity.ERROR, always=True
    )
    return Report(source="", diagnostics=[diagnostic]).to_dict()


def _quarantined_report(
    source: str, cause: BaseException, retry: BaseException
) -> dict:
    return Report(
        source=source, diagnostics=[quarantine_diagnostic(cause, retry)]
    ).to_dict()


ANALYZE = BatchKind(
    prefix="batch",
    span="batch.run",
    compute=analyze_source,
    key=_analysis_key,
    schema=Report.SCHEMA_VERSION,
    result=Report,
    read_error=_read_error_report,
    quarantine=_quarantined_report,
)


def run_cached(
    kind: BatchKind,
    source: str,
    config: BatchConfig,
    cache: Optional[ResultCache],
) -> Tuple[dict, bool]:
    """One script through ``kind`` behind the result cache:
    ``(data, cached)``.  A hit is the stored dict as is; a fresh result
    is round-tripped through ``kind.result`` like the batch driver's, so
    both render identically."""
    rec = get_recorder()
    key = kind.key(source, config)
    data = _lookup(kind, cache, key, rec)
    if data is not None:
        return data, True
    data = kind.compute(source, config)
    value = kind.result.from_dict(data)
    _store(kind, cache, key, data, value, rec)
    return value.to_dict(), False


def _lookup(kind: BatchKind, cache, key: str, rec) -> Optional[dict]:
    if cache is None:
        return None
    data = cache.get(key, schema=kind.schema)
    rec.count(f"{kind.prefix}.cache.{'miss' if data is None else 'hit'}")
    return data


def _store(kind: BatchKind, cache, key: str, data: dict, value, rec) -> None:
    # incomplete results must not poison the cache: a cold rerun has to
    # recompute them from scratch
    if cache is not None and not value.degraded and cache.put(key, data):
        rec.count(f"{kind.prefix}.cache.store")


def _pool_worker(item: Tuple) -> Tuple[str, dict, float, Optional[dict]]:
    """Pool body: compute one file ``(path, source, config[, traced[,
    kind]])``, the analyze kind by default.  When the parent's recorder
    is live (``traced``), capture the worker-side metrics in a fresh
    recorder and ship the snapshot back as a dict (snapshots are the
    only metric type that crosses the process boundary — recorders
    don't pickle)."""
    path, source, config = item[:3]
    traced = item[3] if len(item) > 3 else False
    kind = item[4] if len(item) > 4 else ANALYZE
    if os.environ.get("REPRO_CHAOS"):
        # chaos plans ride the environment into pool workers (pickling
        # is by name, so parent-side monkeypatching can't reach here);
        # lazy import keeps the hot path free of the server package
        from ..server.chaos import chaos_point

        if chaos_point("worker.kill", source):
            os._exit(137)
    started = time.perf_counter()
    if not traced:
        data = kind.compute(source, config)
        return path, data, time.perf_counter() - started, None
    from ..obs import TraceRecorder, use_thread_recorder

    recorder = TraceRecorder()
    with use_thread_recorder(recorder):
        data = kind.compute(source, config)
    seconds = time.perf_counter() - started
    return path, data, seconds, recorder.snapshot().to_dict()


def _make_pool(jobs: int):
    """Pool factory (module-level so the robustness tests can substitute
    a pool whose workers die)."""
    import concurrent.futures as futures

    return futures.ProcessPoolExecutor(max_workers=jobs)


def run_kind(
    kind: BatchKind,
    inputs: Sequence[str],
    config: Optional[BatchConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    pool=None,
) -> Tuple[List[Outcome], int]:
    """Compute ``kind`` for every script reachable from ``inputs``:
    ``(outcomes in input order, files computed)``.

    ``jobs=None`` means ``os.cpu_count()``; ``cache=None`` disables
    caching.  ``pool`` is an optional *persistent* process-pool executor
    (the analysis server's): it is used instead of a per-run pool and
    left open for the caller to reuse and eventually shut down.  Results
    are always decoded from their serialized form — the pool and the
    cache both traffic in it — so cold, warm, parallel, and serial runs
    render identically.
    """
    config = config if config is not None else BatchConfig()
    if jobs is None:
        jobs = os.cpu_count() or 1
    rec = get_recorder()
    prefix = kind.prefix
    slots: List[Optional[Outcome]] = []
    pending: List[Tuple[int, str, str, str]] = []  # (slot, path, source, key)

    with rec.span(kind.span):
        for path in discover(inputs):
            rec.count(f"{prefix}.files")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                stand_in = kind.result.from_dict(kind.read_error(str(exc)))
                slots.append(Outcome(path, stand_in))
                continue
            key = kind.key(source, config)
            data = _lookup(kind, cache, key, rec)
            if data is not None:
                slots.append(Outcome(path, kind.result.from_dict(data), cached=True))
                continue
            slots.append(None)
            pending.append((len(slots) - 1, path, source, key))

        for (slot, path, _, key), (data, seconds, quarantined) in zip(
            pending, _drain(kind, pending, config, jobs, rec, pool)
        ):
            value = kind.result.from_dict(data)
            if not quarantined:
                _store(kind, cache, key, data, value, rec)
            rec.observe(f"{prefix}.file_seconds", seconds)
            slots[slot] = Outcome(path, value, False, seconds, quarantined)

    return [outcome for outcome in slots if outcome is not None], len(pending)


def _drain(
    kind: BatchKind,
    pending: List[Tuple[int, str, str, str]],
    config: BatchConfig,
    jobs: int,
    rec,
    pool=None,
) -> Iterator[Tuple[dict, float, bool]]:
    """Yield ``(data, seconds, quarantined)`` for every pending file in
    input order, using a process pool when it pays off and falling back
    to inline computation when pools are unavailable (restricted
    sandboxes)."""
    if not pending:
        return
    if pool is not None or (jobs > 1 and len(pending) > 1):
        try:
            results = _drain_pool(kind, pending, config, jobs, rec, pool)
        except (OSError, ImportError, RuntimeError):
            # no multiprocessing in this environment (sandboxed /dev/shm,
            # missing semaphores, broken pool): degrade to inline
            rec.count(f"{kind.prefix}.pool_unavailable")
        else:
            yield from results
            return
    for _, _, source, _ in pending:
        started = time.perf_counter()
        with rec.span(f"{kind.prefix}.file"):
            try:
                data = kind.compute(source, config)
            except Exception as exc:  # noqa: BLE001 — per-file isolation
                rec.count(f"{kind.prefix}.worker_failures")
                yield _retry_inline(kind, source, config, rec, exc)
                continue
        yield data, time.perf_counter() - started, False


def _drain_pool(
    kind: BatchKind,
    pending: List[Tuple[int, str, str, str]],
    config: BatchConfig,
    jobs: int,
    rec,
    pool=None,
) -> List[Tuple[dict, float, bool]]:
    """One future per file, so a dying worker only loses that file.

    When a worker is killed the pool breaks and every outstanding future
    raises; each affected file is then retried inline (bounded by a
    tightened budget) rather than lost.  Pool-*creation* errors
    propagate to :func:`_drain`'s inline fallback.
    """
    results: List[Tuple[dict, float, bool]] = []
    own_pool = pool is None
    executor = _make_pool(jobs) if own_pool else pool
    try:
        futures = [
            executor.submit(_pool_worker, (path, source, config, rec.enabled, kind))
            for _, path, source, _ in pending
        ]
        for future, (_, _, source, _) in zip(futures, pending):
            try:
                _, data, seconds, worker_metrics = future.result()
            except Exception as exc:  # noqa: BLE001 — BrokenProcessPool et al.
                rec.count(f"{kind.prefix}.worker_failures")
                results.append(_retry_inline(kind, source, config, rec, exc))
            else:
                if worker_metrics:
                    from ..obs import MetricsSnapshot

                    rec.absorb(MetricsSnapshot.from_dict(worker_metrics))
                results.append((data, seconds, False))
    finally:
        if own_pool:
            executor.shutdown()
    return results


def _retry_inline(
    kind: BatchKind,
    source: str,
    config: BatchConfig,
    rec,
    cause: BaseException,
) -> Tuple[dict, float, bool]:
    """Second (and last) chance for a file whose first attempt crashed:
    recompute inline under a tightened budget; quarantine on failure."""
    rec.count(f"{kind.prefix}.retries")
    budget = config.budget() or ResourceBudget()
    started = time.perf_counter()
    try:
        data = kind.compute(source, config, budget.tightened())
    except Exception as retry_exc:  # noqa: BLE001 — quarantine, don't abort
        rec.count(f"{kind.prefix}.quarantined")
        data = kind.quarantine(source, cause, retry_exc)
        return data, time.perf_counter() - started, True
    return data, time.perf_counter() - started, False


def run_batch(
    inputs: Sequence[str],
    config: Optional[BatchConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    pool=None,
) -> BatchResult:
    """Analyze every script reachable from ``inputs`` (see
    :func:`run_kind` for the parameters)."""
    outcomes, misses = run_kind(ANALYZE, inputs, config, jobs, cache, pool)
    results = [FileResult(*outcome) for outcome in outcomes]
    hits = sum(1 for result in results if result.cached)
    return BatchResult(results=results, hits=hits, misses=misses)
