"""The resident analysis daemon (``repro-served``).

The paper's just-in-time deployment — analyzing a script at the moment
it is about to run — needs answers at interactive latency, and a
one-shot CLI cannot deliver that: every invocation pays interpreter
start-up, spec-corpus loading, and DFA-cache warm-up before the first
byte of analysis.  The daemon pays those costs once and keeps the three
warm stores resident:

- the spec registry (command models) and its compiled min-DFAs,
- the rlang pattern caches built up by prior analyses,
- the persistent :class:`~repro.analysis.cache.ResultCache`, so an
  unchanged file costs one hash + one read — zero symbolic execution.

Requests arrive over a Unix socket as line-delimited JSON (see
:mod:`.protocol`); each connection is served on its own thread, and
batch requests fan out across a *persistent* process pool that
survives between requests.  Every request runs under a clamped
:class:`~repro.analysis.resilience.ResourceBudget` — a client may ask
for less time than the server cap, never more — so one pathological
script cannot wedge the daemon for other clients.

Observability (the production-service layer):

- **Request-scoped telemetry.**  Every request gets a request id and
  its own :class:`~repro.obs.TraceRecorder`, installed thread-locally
  so concurrent requests cannot contaminate each other; worker-side
  metric snapshots from the process pool are folded in, the request's
  snapshot is returned in the response envelope (``request_id``,
  ``elapsed_ms``, ``metrics``), and then absorbed into the server's
  totals — so per-request metrics always sum consistently into the
  ``stats`` op, and the long-lived recorder's memory stays bounded
  (snapshots carry no spans).
- **Structured ops log.**  ``--log-file`` appends one JSON object per
  event: request lifecycle (``request.accept`` / ``request.done`` /
  ``request.error`` / ``request.shed``), slow requests over
  ``--slow-ms`` (``request.slow``), watch-loop rescans and stat
  failures, budget clamps, and daemon start/stop.
- **Metrics exposition.**  The extended ``stats`` op reports uptime,
  request rates, per-op latency quantiles, cache hit rate, pool state,
  and clamp/shed/error counts; the ``metrics`` op serves the same
  totals in the Prometheus text format; ``repro-top`` renders either
  as a live console.
- **Load shedding.**  At most ``max_inflight`` requests run at once;
  excess requests are answered immediately with a structured shed
  error instead of queueing behind a saturated pool.

Fault tolerance (the crash-only layer, see :mod:`.supervise` and
:mod:`.chaos`):

- **Stale-socket takeover.**  Startup probes an existing socket file:
  a live daemon makes the bind fail loudly, a dead one is evicted with
  a ``server.socket_takeover`` event.
- **Pool rebuild.**  A batch whose worker died breaks the process
  pool; affected files are retried inline (or answered degraded) by
  the batch driver, and the pool is rebuilt eagerly before the
  response is sent (``server.pool_rebuilds``), so the *next* request
  never pays the rebuild.
- **Graceful drain.**  ``SIGTERM`` (or :meth:`AnalysisServer.drain`)
  stops accepting new requests — they get an immediate structured
  refusal — waits for in-flight requests up to a hard deadline, then
  stops the loop.  A drain that hits the deadline abandons the
  stragglers (``server.drain_forced``): crash-only means the hard stop
  is always safe.
- **Protocol hardening.**  Frames are read through
  :class:`~.protocol.FrameReader`: oversized or stalled partial frames
  are answered with an error envelope and the connection is closed;
  malformed JSON is answered without dropping the connection; a client
  that disappears mid-frame costs one counter, never a wedged thread.
"""

from __future__ import annotations

import itertools
import os
import socketserver
import threading
import time
from dataclasses import replace
from typing import List, Optional

from .. import __version__
from ..analysis.batch import ANALYZE, BatchConfig, _make_pool, run_batch, run_cached
from ..analysis.cache import ResultCache
from ..analysis.optimize.advisor import OPTIMIZE, run_optimize_batch
from ..analysis.resilience import clamped_budget
from ..obs import (
    MetricsSnapshot,
    NullOpsLogger,
    OpsLogger,
    TraceRecorder,
    get_recorder,
    use_recorder,
    use_thread_recorder,
)
from ..obs.export import prometheus_text
from . import protocol, supervise
from .chaos import chaos_delay
from .watch import Watcher

#: server-side ceilings for per-request budgets
DEFAULT_CAP_DEADLINE = 30.0
DEFAULT_CAP_STATES = 2_000_000

#: requests slower than this (wall-clock ms) get a ``request.slow``
#: log event and bump ``server.slow_requests``
DEFAULT_SLOW_MS = 1000.0

#: concurrent-request ceiling; excess requests are shed with a
#: structured error rather than queued behind a saturated pool
DEFAULT_MAX_INFLIGHT = 64

#: in-flight requests get this many seconds to finish when draining
#: before the hard stop abandons them
DEFAULT_DRAIN_DEADLINE = 5.0


def _kind(name):
    """``analyze`` / ``optimize`` -> (wire field, batch kind, batch
    runner).  The wire field is also the attribute holding each file's
    result in the runner's per-file results."""
    if name == "analyze":
        return "report", ANALYZE, run_batch
    if name == "optimize":
        return "plan", OPTIMIZE, run_optimize_batch
    raise ValueError(f"unknown batch kind: {name!r}")


class AnalysisServer:
    """The long-lived analysis service behind the socket.

    Owns the warm state (result cache, persistent process pool, the
    totals recorder, the ops log) and implements every protocol op as a
    method; the socket layer (:class:`_SocketServer`) is a thin
    threaded shell around :meth:`handle_request`.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        cap_deadline: float = DEFAULT_CAP_DEADLINE,
        cap_states: int = DEFAULT_CAP_STATES,
        recorder: Optional[TraceRecorder] = None,
        log: Optional[OpsLogger] = None,
        slow_ms: float = DEFAULT_SLOW_MS,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        frame_deadline: Optional[float] = protocol.DEFAULT_FRAME_DEADLINE,
        idle_timeout: Optional[float] = None,
        drain_deadline: float = DEFAULT_DRAIN_DEADLINE,
    ):
        self.socket_path = socket_path or protocol.default_socket_path()
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.cap_deadline = cap_deadline
        self.cap_states = cap_states
        self.recorder = recorder or TraceRecorder()
        self.log = log or NullOpsLogger()
        self.slow_ms = slow_ms
        self.max_inflight = max_inflight
        self.frame_deadline = frame_deadline
        self.idle_timeout = idle_timeout
        self.drain_deadline = drain_deadline
        self.started_at = time.monotonic()
        self.requests_served = 0
        self.inflight = 0
        self.draining = threading.Event()
        self._inflight_lock = threading.Lock()
        self._request_seq = itertools.count(1)
        self._pool = None
        self._pool_lock = threading.Lock()
        self._server: Optional[_SocketServer] = None
        self._watcher_stop = threading.Event()
        #: fragment-level incremental re-analysis in watch mode (the
        #: sub-100ms edit→report path); the session is built lazily on
        #: the first watch round so non-watch daemons pay nothing
        self._incremental_session = None

    # -- warm state ---------------------------------------------------------

    def warm(self) -> None:
        """Pay the cold-start costs up front: load the spec registry and
        run one trivial analysis so the shared DFA caches (spec patterns,
        common regexes) are built before the first request arrives."""
        from ..analysis import analyze
        from ..specs import default_registry

        with use_recorder(self.recorder):
            with self.recorder.span("server.warm"):
                default_registry()
                analyze("true\n")

    def _get_pool(self):
        """The persistent process pool, (re)created on demand.  A pool
        whose workers died is replaced rather than reused; ``jobs=1``
        means no pool (inline analysis), which also serves as the
        fallback in pool-less sandboxes."""
        if self.jobs <= 1:
            return None
        with self._pool_lock:
            pool = self._pool
            if pool is not None and getattr(pool, "_broken", False):
                pool.shutdown(wait=False)
                pool = self._pool = None
                self.recorder.absorb(
                    MetricsSnapshot(counters={"server.pool_rebuilds": 1})
                )
                self.log.warning("server.pool_rebuild")
            if pool is None:
                try:
                    pool = self._pool = _make_pool(self.jobs)
                except (OSError, ImportError, RuntimeError):
                    return None
            return pool

    def pool_alive(self) -> bool:
        """Whether a persistent pool currently exists and is usable."""
        with self._pool_lock:
            return self._pool is not None and not getattr(
                self._pool, "_broken", False
            )

    def _clamped(self, config: BatchConfig, request_id: Optional[str] = None) -> BatchConfig:
        """The request's config with its budget clamped to server caps;
        a request that asked for *more* than the cap is counted and
        logged (``budget.clamp``) so over-asking tenants are visible."""
        budget = clamped_budget(
            config.timeout,
            config.max_states,
            cap_deadline=self.cap_deadline,
            cap_states=self.cap_states,
        )
        over_deadline = (
            config.timeout is not None and config.timeout > self.cap_deadline
        )
        over_states = (
            config.max_states is not None and config.max_states > self.cap_states
        )
        if over_deadline or over_states:
            from ..obs import get_recorder

            get_recorder().count("server.budget_clamped")
            self.log.info(
                "budget.clamp",
                request_id=request_id,
                requested_timeout=config.timeout,
                requested_max_states=config.max_states,
                cap_deadline=self.cap_deadline,
                cap_states=self.cap_states,
            )
        return replace(
            config, timeout=budget.deadline, max_states=budget.max_states
        )

    # -- ops ----------------------------------------------------------------

    def _next_request_id(self) -> str:
        return f"{os.getpid():x}-{next(self._request_seq):06d}"

    def handle_request(self, message: dict) -> dict:
        """Dispatch one request; never raises (errors become responses).

        The whole request runs under its own thread-local recorder; the
        resulting snapshot rides back in the response envelope and is
        absorbed into the server totals, so client-visible per-request
        metrics and the ``stats`` op always agree.
        """
        op = message.get("op")
        request_id = self._next_request_id()
        started = time.perf_counter()
        self.requests_served += 1

        if self.draining.is_set():
            return self._refused_response(
                op,
                request_id,
                started,
                "server draining: not accepting new requests",
                counter="server.drain_refused",
                flag="draining",
            )
        with self._inflight_lock:
            shed = self.inflight >= self.max_inflight
            if not shed:
                self.inflight += 1
        if shed:
            return self._shed_response(op, request_id, started)

        delay = chaos_delay("server.delay", op or "")
        if delay:
            time.sleep(delay)

        request_recorder = TraceRecorder()
        self.log.debug("request.accept", request_id=request_id, op=op)
        error_text: Optional[str] = None
        result = None
        try:
            with use_thread_recorder(request_recorder):
                request_recorder.count("server.requests")
                request_recorder.count(f"server.op.{op or 'unknown'}")
                try:
                    if op == "ping":
                        result = self._op_ping()
                    elif op == "analyze":
                        with request_recorder.span("server.analyze"):
                            result = self._op_analyze(message, request_id)
                    elif op == "optimize":
                        with request_recorder.span("server.optimize"):
                            result = self._op_optimize(message, request_id)
                    elif op == "batch":
                        with request_recorder.span("server.batch"):
                            result = self._op_batch(message, request_id)
                    elif op == "stats":
                        result = self._op_stats()
                    elif op == "metrics":
                        result = self._op_metrics()
                    elif op == "shutdown":
                        self._initiate_shutdown()
                        result = {"stopping": True}
                    else:
                        request_recorder.count("server.errors")
                        error_text = f"unknown op: {op!r}"
                except Exception as exc:  # noqa: BLE001 — the daemon must survive
                    request_recorder.count("server.errors")
                    error_text = f"{type(exc).__name__}: {exc}"
                    self.log.error(
                        "request.error",
                        request_id=request_id,
                        op=op,
                        error=str(exc),
                        error_type=type(exc).__name__,
                    )
        finally:
            with self._inflight_lock:
                self.inflight -= 1

        elapsed_ms = (time.perf_counter() - started) * 1000.0
        request_recorder.observe("server.request_ms", elapsed_ms)
        request_recorder.observe(f"server.request_ms.{op or 'unknown'}", elapsed_ms)
        if elapsed_ms >= self.slow_ms:
            request_recorder.count("server.slow_requests")
            self.log.warning(
                "request.slow",
                request_id=request_id,
                op=op,
                elapsed_ms=round(elapsed_ms, 3),
                threshold_ms=self.slow_ms,
            )
        snapshot = request_recorder.snapshot()
        self.recorder.absorb(snapshot)

        if error_text is None:
            envelope = protocol.ok(result)
            self.log.info(
                "request.done",
                request_id=request_id,
                op=op,
                elapsed_ms=round(elapsed_ms, 3),
                cached=result.get("cached") if isinstance(result, dict) else None,
            )
        else:
            envelope = protocol.error(error_text)
        envelope["request_id"] = request_id
        envelope["elapsed_ms"] = elapsed_ms
        if message.get("telemetry", True):
            envelope["metrics"] = snapshot.to_dict()
        return envelope

    def _shed_response(self, op, request_id: str, started: float) -> dict:
        """Immediate structured refusal when the daemon is saturated."""
        self.log.warning(
            "request.shed",
            request_id=request_id,
            op=op,
            max_inflight=self.max_inflight,
        )
        return self._refused_response(
            op,
            request_id,
            started,
            f"server overloaded: {self.max_inflight} request(s) already in "
            "flight; retry later",
            counter="server.shed",
            flag="shed",
            log_event=None,  # already logged with shed-specific fields
        )

    def _refused_response(
        self,
        op,
        request_id: str,
        started: float,
        message: str,
        counter: str,
        flag: str,
        log_event: Optional[str] = "request.refused",
    ) -> dict:
        """One error envelope for a request the daemon will not run
        (shed under load, refused while draining) — still exactly one
        response, still carrying a request id."""
        self.recorder.absorb(
            MetricsSnapshot(counters={"server.requests": 1, counter: 1})
        )
        if log_event:
            self.log.warning(
                log_event, request_id=request_id, op=op, reason=flag
            )
        envelope = protocol.error(message)
        envelope["request_id"] = request_id
        envelope[flag] = True
        envelope["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
        return envelope

    def _op_ping(self) -> dict:
        return {
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
        }

    def _op_analyze(self, message: dict, request_id: Optional[str] = None) -> dict:
        """One script's report, by inline ``source`` or by ``path``."""
        return self._op_single("analyze", message, request_id)

    def _op_optimize(self, message: dict, request_id: Optional[str] = None) -> dict:
        """One script's optimization plan, by inline ``source`` or by
        ``path`` — the warm path for editor/JIT advisors."""
        return self._op_single("optimize", message, request_id)

    def _op_single(self, op: str, message: dict, request_id: Optional[str]) -> dict:
        """Cache lookup first; a hit returns the stored dict untouched,
        a fresh result is round-tripped so the response is
        byte-identical to the inline path."""
        field, kind, _ = _kind(op)
        source = message.get("source")
        if source is None:
            path = message.get("path")
            if not path:
                raise ValueError(f"{op} request needs 'source' or 'path'")
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        config = self._clamped(
            protocol.config_from_wire(message.get("config")), request_id
        )
        data, cached = run_cached(kind, source, config, self.cache)
        return {field: data, "cached": cached}

    def _op_batch(self, message: dict, request_id: Optional[str] = None) -> dict:
        """A corpus through the batch driver; ``kind`` (``analyze``, the
        default, or ``optimize``) picks what each file gets."""
        inputs = message.get("inputs")
        if not isinstance(inputs, list) or not inputs:
            raise ValueError("batch request needs a non-empty 'inputs' list")
        field, _, run = _kind(message.get("kind", "analyze"))
        config = self._clamped(
            protocol.config_from_wire(message.get("config")), request_id
        )
        batch = run(
            inputs,
            config=config,
            jobs=self.jobs,
            cache=self.cache,
            pool=self._get_pool(),
        )
        if self.jobs > 1 and not self.pool_alive():
            # a worker died under this batch and broke the pool; the
            # batch driver already retried the affected files inline —
            # rebuild eagerly so the *next* request never pays for it
            self._get_pool()
        return {
            "results": [
                {
                    "path": r.path,
                    field: getattr(r, field).to_dict(),
                    "cached": r.cached,
                    "quarantined": r.quarantined,
                    "seconds": r.seconds,
                }
                for r in batch.results
            ],
            "hits": batch.hits,
            "misses": batch.misses,
        }

    def _op_stats(self) -> dict:
        """The full operational picture: identity, uptime and rates,
        per-op latency quantiles, cache hit rate, pool and shed state,
        plus the raw metrics snapshot for programmatic consumers."""
        snapshot = self.recorder.snapshot()
        uptime = time.monotonic() - self.started_at
        hits = snapshot.counter("batch.cache.hit")
        misses = snapshot.counter("batch.cache.miss")
        lookups = hits + misses
        latency = {}
        prefix = "server.request_ms."
        for name, histogram in sorted(snapshot.histograms.items()):
            if not name.startswith(prefix):
                continue
            quantiles = histogram.quantiles()
            latency[name[len(prefix):]] = {
                "count": histogram.count,
                "mean_ms": histogram.mean,
                "p50_ms": quantiles["p50"],
                "p95_ms": quantiles["p95"],
                "p99_ms": quantiles["p99"],
                "max_ms": histogram.maximum,
            }
        return {
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": uptime,
            "requests": self.requests_served,
            "request_rate_rps": self.requests_served / uptime if uptime else 0.0,
            "errors": snapshot.counter("server.errors"),
            "shed": snapshot.counter("server.shed"),
            "slow_requests": snapshot.counter("server.slow_requests"),
            "budget_clamps": snapshot.counter("server.budget_clamped"),
            "pool_rebuilds": snapshot.counter("server.pool_rebuilds"),
            "protocol_errors": snapshot.counter("server.protocol_errors"),
            "socket_takeovers": snapshot.counter("server.socket_takeovers"),
            "restarts": snapshot.counter("server.restarts"),
            "draining": self.draining.is_set(),
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "slow_ms": self.slow_ms,
            "jobs": self.jobs,
            "pool_alive": self.pool_alive(),
            "cache": self.cache is not None,
            "cache_hit_rate": hits / lookups if lookups else None,
            "cache_hits": hits,
            "cache_misses": misses,
            "watch_rounds": snapshot.counter("server.watch_rounds"),
            "watch_stat_errors": snapshot.counter("watch.stat_errors"),
            "latency_ms": latency,
            "metrics": snapshot.to_dict(),
        }

    def _op_metrics(self) -> dict:
        """Server totals in the Prometheus text exposition format."""
        text = prometheus_text(
            self.recorder.snapshot(),
            gauges={
                "server.uptime_seconds": time.monotonic() - self.started_at,
                "server.inflight_requests": self.inflight,
                "server.max_inflight_requests": self.max_inflight,
                "server.pool_workers": self.jobs,
                "server.pool_alive": 1.0 if self.pool_alive() else 0.0,
            },
        )
        return {"text": text, "content_type": "text/plain; version=0.0.4"}

    # -- lifecycle ----------------------------------------------------------

    def _initiate_shutdown(self) -> None:
        """Stop the socket loop from a handler thread (shutdown() blocks
        until serve_forever returns, so it must not run on the handler)."""
        server = self._server
        if server is not None:
            threading.Thread(target=server.shutdown, daemon=True).start()

    def note_protocol_error(self, exc: Exception) -> None:
        """Account a wire-level fault (oversized/stalled/garbage frame)."""
        self.recorder.absorb(
            MetricsSnapshot(counters={"server.protocol_errors": 1})
        )
        self.log.warning(
            "request.protocol_error",
            error=str(exc),
            error_type=type(exc).__name__,
        )

    def drain(self, deadline: Optional[float] = None) -> bool:
        """Graceful stop: refuse new requests, wait for in-flight ones
        up to ``deadline`` seconds, then shut the loop down.  Returns
        False when the hard deadline abandoned stragglers (crash-only:
        the hard stop is always safe — no request is half-answered,
        its connection just closes)."""
        deadline = self.drain_deadline if deadline is None else deadline
        already = self.draining.is_set()
        self.draining.set()
        if not already:
            self.recorder.absorb(
                MetricsSnapshot(counters={"server.drains": 1})
            )
            self.log.info(
                "server.drain.start",
                inflight=self.inflight,
                deadline_s=deadline,
            )
        expires = time.monotonic() + deadline
        while self.inflight > 0 and time.monotonic() < expires:
            time.sleep(0.01)
        forced = self.inflight > 0
        if forced:
            self.recorder.absorb(
                MetricsSnapshot(counters={"server.drain_forced": 1})
            )
            self.log.warning(
                "server.drain.deadline",
                abandoned=self.inflight,
                deadline_s=deadline,
            )
        else:
            self.log.info("server.drain.done")
        self._initiate_shutdown()
        return not forced

    def _get_incremental_session(self, config: BatchConfig):
        """The long-lived fragment-summary session behind watch mode."""
        if self._incremental_session is None:
            from ..analysis.incremental import IncrementalSession

            self._incremental_session = IncrementalSession(config=config)
        return self._incremental_session

    def _watch_reanalyze(self, changed: List[str], config: BatchConfig) -> None:
        """Re-analyze changed files through the fragment memo, keeping
        the whole-file result cache warm with byte-identical payloads
        (the session guarantees replayed reports render exactly like a
        cold run, so clients cannot observe which path filled the
        cache)."""
        session = self._get_incremental_session(config)
        recorder = get_recorder()
        for path in changed:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError:
                # deleted between scan and read: the next scan reports it
                recorder.count("watch.stat_errors")
                continue
            report = session.analyze(source, path=path)
            if self.cache is not None and not report.degraded:
                self.cache.put(ANALYZE.key(source, config), report.to_dict())
            self.log.info(
                "watch.incremental",
                path=path,
                fragments_hit=session.last_hits,
                fragments_miss=session.last_misses,
                invalidated=session.last_invalidated,
            )

    def start_watcher(self, inputs: List[str], interval: float = 1.0) -> threading.Thread:
        """Watch mode: poll ``inputs`` for new/modified scripts and
        re-analyze them as they change, keeping the result cache warm so
        the *next* client request over those files is all cache hits.

        Re-analysis goes through the fragment-summary session: only
        function bodies whose source digest changed — plus their
        dependence-graph dependents — are re-explored, which is what
        makes the edit→report turnaround sub-100ms on warm summaries."""
        watcher = Watcher(inputs, log=self.log)

        def loop() -> None:
            while not self._watcher_stop.wait(interval):
                round_recorder = TraceRecorder()
                try:
                    with use_thread_recorder(round_recorder):
                        changed, deleted = watcher.scan()
                        for path in deleted:
                            if self._incremental_session is not None:
                                self._incremental_session.forget(path)
                        if changed:
                            round_recorder.count("server.watch_rounds")
                            round_recorder.count("server.watch_files", len(changed))
                            config = self._clamped(BatchConfig())
                            with round_recorder.span("server.watch"):
                                self._watch_reanalyze(changed, config)
                            self.log.info(
                                "watch.scan",
                                changed=len(changed),
                                paths=changed[:20],
                            )
                except Exception as exc:  # noqa: BLE001 — the watcher must outlive one bad round
                    round_recorder.count("watch.errors")
                    self.log.error(
                        "watch.error",
                        error=str(exc),
                        error_type=type(exc).__name__,
                    )
                snapshot = round_recorder.snapshot()
                if snapshot.counters or snapshot.histograms:
                    self.recorder.absorb(snapshot)

        thread = threading.Thread(target=loop, name="repro-watch", daemon=True)
        thread.start()
        return thread

    def serve_forever(self) -> None:
        """Bind the socket and serve until ``shutdown`` (op or signal).

        An existing socket file is probed first: a live daemon raises
        :class:`~.supervise.SocketInUse` instead of having its socket
        stolen; a dead daemon's leftover is evicted with a
        ``server.socket_takeover`` event."""
        parent = os.path.dirname(self.socket_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        supervise.ensure_socket_free(
            self.socket_path, log=self.log, recorder=self.recorder
        )
        self._server = _SocketServer(self.socket_path, self)
        self.log.info(
            "server.start",
            socket=self.socket_path,
            pid=os.getpid(),
            version=__version__,
            jobs=self.jobs,
            max_inflight=self.max_inflight,
        )
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def close(self) -> None:
        self._watcher_stop.set()
        server, self._server = self._server, None
        if server is not None:
            server.server_close()
            self.log.info(
                "server.stop",
                requests=self.requests_served,
                uptime_s=round(time.monotonic() - self.started_at, 3),
            )
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of request frame -> response frame.

    The exactly-one-envelope invariant lives here: every frame that
    parses gets exactly one response from ``handle_request`` (which
    never raises), and every wire-level fault gets either one error
    envelope (when the peer can still read) or a silent close (when it
    is gone) — never a hang, never a second answer.
    """

    def handle(self) -> None:
        service: AnalysisServer = self.server.service
        reader = protocol.FrameReader(self.connection)
        while True:
            try:
                frame = reader.read_frame(
                    idle_timeout=service.idle_timeout,
                    frame_deadline=service.frame_deadline,
                )
            except protocol.IdleTimeout:
                return  # nothing owed: the peer never started a request
            except (
                protocol.FrameTooLarge,
                protocol.PartialFrameTimeout,
            ) as exc:
                # answer, then close: the stream cannot be resynced
                service.note_protocol_error(exc)
                self._respond(protocol.error(str(exc)))
                return
            except protocol.TruncatedFrame as exc:
                service.note_protocol_error(exc)
                return  # the peer is gone; no envelope owed
            if frame is None:
                return  # clean close between frames
            try:
                message = protocol.decode(frame)
            except protocol.ProtocolError as exc:
                # malformed JSON: answer and keep serving — the stream
                # is resynced at the newline
                service.note_protocol_error(exc)
                if not self._respond(protocol.error(str(exc))):
                    return
                continue
            response = service.handle_request(message)
            if not self._respond(response):
                return
            if message.get("op") == "shutdown":
                return

    def _respond(self, envelope: dict) -> bool:
        """Write one response frame; False when the peer is gone."""
        try:
            self.wfile.write(protocol.encode(envelope))
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False


class _SocketServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    """Threaded Unix-socket server (composed by hand:
    ``ThreadingUnixStreamServer`` only exists on Python >= 3.12)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, socket_path: str, service: AnalysisServer):
        self.service = service
        super().__init__(socket_path, _Handler)


def serve(
    socket_path: Optional[str] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    cap_deadline: float = DEFAULT_CAP_DEADLINE,
    cap_states: int = DEFAULT_CAP_STATES,
    watch: Optional[List[str]] = None,
    interval: float = 1.0,
    recorder: Optional[TraceRecorder] = None,
    log: Optional[OpsLogger] = None,
    slow_ms: float = DEFAULT_SLOW_MS,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    frame_deadline: Optional[float] = protocol.DEFAULT_FRAME_DEADLINE,
    idle_timeout: Optional[float] = None,
    drain_deadline: float = DEFAULT_DRAIN_DEADLINE,
    supervised: bool = False,
    max_restarts: int = 5,
    install_signals: bool = False,
) -> AnalysisServer:
    """Build, warm, and run a daemon (the ``repro-served`` body).

    Blocks until shutdown; returns the server object (tests inspect it).

    ``supervised=True`` wraps the serving loop in a
    :class:`~.supervise.Supervisor`: a crash builds a *fresh* server
    but reuses the same on-disk cache, totals recorder, and ops logger,
    so the restarted daemon answers warm.  ``install_signals=True``
    (CLI only — must run on the main thread) maps ``SIGTERM`` to a
    graceful drain with the ``drain_deadline`` hard stop.
    """
    cache = None if no_cache else ResultCache(cache_dir)
    recorder = recorder or TraceRecorder()
    log = log or NullOpsLogger()
    warmed = threading.Event()

    def build() -> AnalysisServer:
        server = AnalysisServer(
            socket_path=socket_path,
            jobs=jobs,
            cache=cache,
            cap_deadline=cap_deadline,
            cap_states=cap_states,
            recorder=recorder,
            log=log,
            slow_ms=slow_ms,
            max_inflight=max_inflight,
            frame_deadline=frame_deadline,
            idle_timeout=idle_timeout,
            drain_deadline=drain_deadline,
        )
        if not warmed.is_set():
            server.warm()
            warmed.set()
        if watch:
            server.start_watcher(watch, interval=interval)
        holder["server"] = server
        return server

    holder: dict = {}
    if install_signals:
        import signal

        def _on_sigterm(signum, frame):
            server = holder.get("server")
            if server is not None:
                threading.Thread(
                    target=server.drain, daemon=True
                ).start()

        signal.signal(signal.SIGTERM, _on_sigterm)

    if supervised:
        supervisor = supervise.Supervisor(
            build, log=log, max_restarts=max_restarts
        )
        return supervisor.run()
    server = build()
    server.serve_forever()
    return server
