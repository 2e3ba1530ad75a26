"""The three workloads.  Each returns a :class:`Outcome`: per-op
samples, set-up times, peak RSS, failures, and (traced runs) the span
statistics and work counters the per-layer metrics come from."""

from __future__ import annotations

import collections
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import common
import corpus
import verdicts
from daemons import Daemon, LogTail, private_client

#: set-ups per end-to-end run; ``setup_s`` is their median
SETUPS = {"cold-corpus": 5, "daemon-warm": 3, "watch-edit": 5}
#: requests (daemon-warm) whose work counters must repeat exactly
COUNTER_REQUESTS = 60
#: untimed edits (watch-edit, traced runs) whose counters must repeat
COUNTER_EDITS = 8
#: daemon-warm's closed-loop connections, all in one client process
CONNECTIONS = 2
#: daemon-warm's ops, in equal shares: no traffic data exists to weigh
#: them, and an equal share lets a regression in any one of them show
OPS = ("analyze", "optimize", "batch")
#: files per daemon-warm ``batch`` request (an assumption, not measured)
BATCH_FILES = 4
#: daemon-warm's window is cut into slices this long; between two, with
#: no request in flight, the reference kernel runs
SLICE_S = 0.25
#: untimed requests per op before daemon-warm's window (more than the
#: daemon's 512-sample histogram reservoirs, so they are full)
WARMUP_PER_OP = 520
#: watch-mode poll interval handed to the daemon
WATCH_INTERVAL_S = 0.005
#: processes that re-analyze the edited texts cold after the window
VALIDATION_WORKERS = 2
#: a watch round slower than this counts as a failed edit
WATCH_TIMEOUT_S = 60.0

#: daemon counters that depend on timing (pings while starting, request
#: totals) rather than on the work, left out of the repeat check
VOLATILE_PREFIXES = ("server.",)


@dataclass
class Phase:
    """One measured window of one workload."""

    #: per-item latency in ms, in completion order (item = file,
    #: request or edit); the tail and the throughput come from these
    latencies: List[float] = field(default_factory=list)
    #: per-op latency in ms for the median, when an op is more than one
    #: item (cold-corpus: a whole corpus pass); None = ``latencies``
    op_latencies: Optional[List[float]] = None
    #: per-item host-speed factor (``common.KERNEL_REF_MS``); the gated
    #: timings are ``latency * speed``; empty = 1.0 (traced runs)
    speeds: List[float] = field(default_factory=list)
    #: time spent running the reference kernel inside the window
    pause_ns: int = 0
    #: (start, end) ns of each timed item, on the span clock
    intervals: List[Tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    window: Tuple[int, int] = (0, 0)
    counters: Dict[str, float] = field(default_factory=dict)
    spans: Optional[str] = None
    peak_rss_mb: float = 0.0
    #: workload-specific detail (per-file rows, per-op latencies, ...)
    detail: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.window[1] - self.window[0]) / 1e9

    @property
    def ops_per_s(self) -> float:
        """Items per second of the window less its kernel runs, scaled by
        the items' mean speed factor (weighted by their latencies)."""
        active_s = (self.window[1] - self.window[0] - self.pause_ns) / 1e9
        normalized = sum(self.normalized)
        factor = sum(self.latencies) / normalized if normalized else 1.0
        return len(self.latencies) / active_s * factor

    @property
    def normalized(self) -> List[float]:
        if not self.speeds:
            return list(self.latencies)
        return [latency * factor for latency, factor in zip(self.latencies, self.speeds)]


@dataclass
class Outcome:
    #: set-up times in s, normalized like the timed items, and raw
    setups: List[float] = field(default_factory=list)
    raw_setups: List[float] = field(default_factory=list)
    main: Optional[Phase] = None
    #: traced runs: the same workload untraced (overhead baseline)
    baseline: Optional[Phase] = None
    #: messages for failed ops (already counted in their phase) and for
    #: failed checks outside any op (counted in ``failed_checks``)
    messages: List[str] = field(default_factory=list)
    failed_checks: int = 0
    #: determinism findings about the program that fail no op
    findings: List[str] = field(default_factory=list)
    #: traced runs: (layers + other ms, traced wall ms, thread timelines)
    #: and (root span ms inside timed ops, timed op ms)
    accounting: Optional[Tuple[float, float, int, float, float]] = None

    def fail(self, message: str) -> None:
        self.failed_checks += 1
        self.messages.append(message)

    def add_setup(self, raw_s: float, factor: float) -> None:
        self.raw_setups.append(raw_s)
        self.setups.append(raw_s * factor)


class Context:
    def __init__(self, seed: int, seconds: float, trace: bool, work: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # traced runs measure layers, not the gated timings: no kernel
        self.calibrate = not trace
        self.work = work
        self.corpus = corpus.load_corpus(common.ROOT)
        self.answers = verdicts.load_answers()
        missing = sorted(set(self.corpus) ^ set(self.answers))
        if missing:
            raise RuntimeError(f"corpus and known answers disagree on {missing}")
        self.paths = corpus.write_corpus(self.corpus, os.path.join(work, "corpus"))

    def kernel(self) -> float:
        """The reference kernel's ms (the reference value, so a factor of
        1, in traced runs)."""
        return common.kernel_ms() if self.calibrate else common.KERNEL_REF_MS


def filter_counters(counters: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(VOLATILE_PREFIXES)
    }


def add_counters(total: Dict[str, float], metrics: dict, sign: int = 1) -> None:
    """Fold a metrics snapshot dict's work counters (and the sums of its
    ``rlang.*`` histograms) into ``total``."""
    for name, value in metrics.get("counters", {}).items():
        total[name] = total.get(name, 0) + sign * value
    for name, histogram in metrics.get("histograms", {}).items():
        if name.startswith("rlang."):
            key = name + ".sum"
            total[key] = total.get(key, 0) + sign * histogram["total"]


def compare_counters(a: Dict[str, float], b: Dict[str, float], outcome: Outcome) -> None:
    a, b = filter_counters(a), filter_counters(b)
    if a != b:
        diff = sorted(
            name for name in set(a) | set(b) if a.get(name) != b.get(name)
        )
        outcome.fail(
            "work counters differ between two runs of one seed: "
            + ", ".join(f"{n}={a.get(n)}/{b.get(n)}" for n in diff[:8])
        )


# ---------------------------------------------------------------------------
# cold-corpus
# ---------------------------------------------------------------------------


def _spawn_worker(ctx: Context, mode: str, seconds: float, tag: str, counter_pass: bool):
    """Run the corpus worker on :data:`common.WORK_CPU`; returns (raw
    set-up s, its speed factor, the worker's result)."""
    out = os.path.join(ctx.work, f"{tag}.json")
    argv = [
        sys.executable, os.path.join(common.HERE, "corpus_worker.py"),
        "--mode", mode, "--seed", str(ctx.seed), "--seconds", str(seconds),
        "--work", ctx.work, "--out", out, "--cpu", str(common.WORK_CPU),
    ]
    if counter_pass:
        argv.append("--counter-pass")
    if ctx.calibrate:
        argv.append("--calibrate")
    before = ctx.kernel()
    spawned = common.now_ns()
    process = subprocess.Popen(
        argv, cwd=common.ROOT, env=common.child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = common.wait_line(process, "READY")
        setup_s = (common.now_ns() - spawned) / 1e9
        if ready:
            # the worker waits for "go", so its CPU is idle here
            factor = common.speed(before, ctx.kernel())
            process.stdin.write("go\n")
        process.stdin.close()
        for _ in process.stdout:
            pass
    finally:
        common.stop(process, timeout=170.0)
    if not ready or process.returncode != 0:
        raise RuntimeError(f"corpus worker ({mode}) failed with exit code {process.returncode}")
    return setup_s, factor, (common.read_json(out) if mode != "setup" else None)


def _corpus_phase(data: dict) -> Phase:
    phase = Phase()
    phase.latencies = [a + p for _, a, p, _, _ in data["ops"]]
    phase.speeds = [factor for *_, factor in data["ops"]]
    phase.pause_ns = data["pause_ns"]
    phase.op_latencies = [(a + p) * 1000.0 for _, _, a, p in data["passes"]]
    phase.attempted = len(data["ops"])
    phase.failed = sum(1 for *_, ok, _ in data["ops"] if not ok)
    phase.intervals = [tuple(interval) for interval in data["intervals"]]
    phase.window = tuple(data["window"])
    phase.counters = data["counters"]
    phase.spans = data.get("spans")
    phase.peak_rss_mb = data["peak_rss_mb"]
    rows: Dict[str, List[Tuple[float, float]]] = {}
    for name, a_ms, p_ms, _, factor in data["ops"]:
        rows.setdefault(name, []).append((a_ms * factor, p_ms * factor))
    phase.detail = {
        "passes": data["passes"],
        "files": {
            name: (
                common.median([a for a, _ in samples]),
                common.median([p for _, p in samples]),
                len(samples),
            )
            for name, samples in sorted(rows.items())
        },
        "failures": data["failures"],
        "mismatches": data["mismatches"],
        "corpus_files": data["corpus_files"],
    }
    return phase


def cold_corpus(ctx: Context) -> Outcome:
    outcome = Outcome()
    if not ctx.trace:
        for i in range(SETUPS["cold-corpus"] - 1):
            setup_s, factor, _ = _spawn_worker(ctx, "setup", 0, f"setup{i}", False)
            outcome.add_setup(setup_s, factor)
        setup_s, factor, data = _spawn_worker(ctx, "untraced", ctx.seconds, "main", False)
        outcome.add_setup(setup_s, factor)
        outcome.main = _corpus_phase(data)
    else:
        half = ctx.seconds / 2
        _, _, base = _spawn_worker(ctx, "untraced", half, "baseline", True)
        setup_s, factor, data = _spawn_worker(ctx, "traced", half, "main", True)
        outcome.add_setup(setup_s, factor)
        outcome.baseline = _corpus_phase(base)
        outcome.main = _corpus_phase(data)
        compare_counters(base["counters"], data["counters"], outcome)
    for phase in (outcome.baseline, outcome.main):
        if phase is not None:
            outcome.messages.extend(phase.detail["failures"][:5])
            outcome.findings.extend(phase.detail["mismatches"])
    return outcome


# ---------------------------------------------------------------------------
# daemon-warm
# ---------------------------------------------------------------------------


def _references(ctx: Context) -> Dict[str, Tuple[str, str]]:
    """Inline cold renders per corpus file: (report render, plan
    render), each from a process with no analysis history (see
    ``corpus_worker.py --mode reference``), through the same batch
    entry points the CLI uses.  The daemon analyzes the whole corpus in
    one process, so a render that depends on analysis history shows up
    as a reply that differs from these."""
    out = os.path.join(ctx.work, "references.json")
    subprocess.run(
        [
            sys.executable, os.path.join(common.HERE, "corpus_worker.py"),
            "--mode", "reference", "--work", ctx.work, "--out", out,
        ],
        cwd=common.ROOT, env=common.child_env(), stdin=subprocess.DEVNULL,
        check=True, timeout=170.0,
    )
    return {
        name: (parts["report"]["render"], parts["plan"]["render"])
        for name, parts in common.read_json(out).items()
    }


def _served(answer: dict, analyzed: dict, planned: dict) -> Tuple[tuple, List[str]]:
    """Decode the daemon's cold ``analyze`` and ``optimize`` replies for
    a corpus file: ((report, report render, plan render), problems),
    where a problem is a degraded result or a verdict that disagrees
    with the file's known answer."""
    from repro.analysis.optimize import OptimizePlan
    from repro.analysis.report import Report

    report = Report.from_dict(analyzed["report"])
    plan = OptimizePlan.from_dict(planned["plan"])
    problems = verdicts.report_problems(answer, report)
    problems += verdicts.plan_problems(answer, plan)
    return (report, report.render(), plan.render()), problems


def _prime(daemon: Daemon, ctx: Context, refs, outcome: Outcome, phase: Phase):
    """Fill the daemon's result cache with every corpus file's report
    and plan (the cold misses happen here), then warm it up to its
    steady state: the daemon's totals keep a bounded reservoir per
    latency histogram, and a request costs more once the reservoirs of
    its op are full, so every op runs :data:`WARMUP_PER_OP` times before
    timing starts.  Returns what the daemon served per file, the
    results the timed replies are checked against.

    Each cold reply must be undegraded and agree with the file's known
    answer, or the priming check fails.  It is also compared with the
    reference render from a process with no analysis history (the
    daemon analyzes the corpus in reverse name order, the same for every
    seed): a render that depends on what the process analyzed before
    differs, and is reported as a determinism finding (and counted in
    ``determinism.render_mismatches``), as cold-corpus does for
    within-process render changes."""
    client = private_client(daemon.socket)
    names = sorted(ctx.corpus, reverse=True)
    served = {}
    try:
        for name in names:
            text = ctx.corpus[name]
            analyzed = client.request({"op": "analyze", "source": text})
            planned = client.request({"op": "optimize", "source": text})
            served[name], problems = _served(ctx.answers[name], analyzed, planned)
            if problems:
                outcome.fail(f"priming {name}: {'; '.join(problems)}")
            for kind, ref, now in zip(("report", "plan"), refs[name], served[name][1:]):
                if ref != now:
                    finding = (
                        f"{name}: daemon {kind} render differs from the render of a "
                        f"process with no analysis history: {common.render_diff(ref, now)}"
                    )
                    outcome.findings.append(finding)
                    phase.detail.setdefault("mismatches", []).append(finding)
        for i in range(WARMUP_PER_OP):
            name = names[i % len(names)]
            hits = [
                client.request({"op": op, "source": ctx.corpus[name]}).get("cached")
                for op in ("analyze", "optimize")
            ]
            batch = client.request(
                {"op": "batch", "inputs": [os.path.abspath(ctx.paths[name])]}
            )
            if not all(hits) or batch.get("misses"):
                outcome.fail(f"warm-up {name}: a request missed the warm cache")
                break
    finally:
        client.close()
    return served


def _op_sequence(ctx: Context, connection: int):
    """Endless seeded op mix for one connection: every block of three
    is one ``analyze``, one ``optimize`` and one ``batch`` request of
    :data:`BATCH_FILES` files (see ``rationale.json`` for why).  Each op
    walks seeded permutations of the corpus, so every file comes up
    equally often under every seed."""
    rng = random.Random(f"{ctx.seed}:conn{connection}")

    def cycle():
        while True:
            order = sorted(ctx.corpus)
            rng.shuffle(order)
            yield from order

    files = {op: cycle() for op in OPS}
    while True:
        block = list(OPS)
        rng.shuffle(block)
        for op in block:
            if op != "batch":
                yield op, next(files[op])
                continue
            batch: List[str] = []
            while len(batch) < BATCH_FILES:
                name = next(files[op])
                if name not in batch:  # a batch may span two permutations
                    batch.append(name)
            yield op, tuple(batch)


def _batch_problem(result: dict, expected: str) -> Optional[str]:
    """Check a raw ``batch`` result the way ``ServerClient.batch`` would
    present it (paths relative to the working directory)."""
    from repro.analysis.batch import BatchResult, FileResult
    from repro.analysis.report import Report

    batch = BatchResult(
        results=[
            FileResult(
                path=os.path.relpath(entry["path"]),
                report=Report.from_dict(entry["report"]),
                cached=entry.get("cached", False),
            )
            for entry in result.get("results", [])
        ]
    )
    if result.get("misses") or not all(r.cached for r in batch.results):
        return "batch missed the cache"
    if batch.degraded:
        return "degraded batch"
    if batch.render() != expected:
        return "batch not byte-identical to the daemon's cold replies"
    return None


def _closed_loop(daemon: Daemon, ctx: Context, served, seconds: float, phase: Phase) -> None:
    """:data:`CONNECTIONS` persistent connections, each sending its next
    request only after the previous reply, until the deadline.

    Every reply is checked.  The first reply for each (op, input) gets
    the full check: a cache hit, undegraded, and byte-identical to what
    the daemon served cold for the same input while priming (which
    :func:`_prime` checked against the known answers).  A later reply
    passes when it equals a reply that passed, which keeps the client's
    own CPU work, and so its interference with the measured round trips,
    small."""
    from repro.analysis.batch import BatchResult, FileResult
    from repro.analysis.optimize import OptimizePlan
    from repro.analysis.report import Report
    from repro.server.client import ServerError, ServerUnavailable

    def batch_reference(names: tuple) -> str:
        paths = sorted(os.path.normpath(ctx.paths[n]) for n in names)
        by_path = {os.path.normpath(ctx.paths[n]): served[n][0] for n in names}
        return BatchResult(
            results=[FileResult(path=path, report=by_path[path]) for path in paths]
        ).render()

    def full_check(op: str, target, result: dict) -> Optional[str]:
        if op == "batch":
            return _batch_problem(result, batch_reference(target))
        if not result.get("cached"):
            return f"{op} was not a cache hit"
        if op == "analyze":
            served_render, decoded = served[target][1], Report.from_dict(result["report"])
        else:
            served_render, decoded = served[target][2], OptimizePlan.from_dict(result["plan"])
        if decoded.degraded:
            return f"degraded {op} result"
        if decoded.render() != served_render:
            return f"{op} result not byte-identical to the daemon's cold reply"
        return None

    passed: Dict[tuple, dict] = {}
    passed_lock = threading.Lock()

    records: List[List] = [[] for _ in range(CONNECTIONS)]
    counters: Dict[str, float] = {}
    errors: collections.Counter = collections.Counter()
    window: dict = {"pause_ns": 0}
    #: the kernel's ms at each slice boundary
    kernels: List[float] = []

    def boundary() -> None:
        """Barrier action between slices, with no request in flight:
        time the kernel and open the next slice."""
        t = common.now_ns()
        kernels.append(ctx.kernel())
        now = common.now_ns()
        if "start" not in window:
            window["start"] = now
            window["deadline"] = now + int(seconds * 1e9)
        else:
            window["end"] = t
            if t < window["deadline"]:
                window["pause_ns"] += now - t
        window["done"] = t >= window["deadline"]
        window["slice_end"] = min(now + int(SLICE_S * 1e9), window["deadline"])

    barrier = threading.Barrier(CONNECTIONS, action=boundary)

    def connection(index: int) -> None:
        client = private_client(daemon.socket)
        client.connect()
        sequence = _op_sequence(ctx, index)
        out = records[index]
        try:
            # on the daemon's CPU, so that one speed factor covers the
            # whole round trip (split across two CPUs, whose speeds vary
            # independently, it spread twice as much across runs)
            with common.pinned(common.WORK_CPU):
                barrier.wait()
                while True:
                    slice_index = len(kernels) - 1
                    while common.now_ns() < window["slice_end"]:
                        out.append(one_request(index, client, sequence) + [slice_index])
                    barrier.wait()
                    if window["done"]:
                        break
        finally:
            client.close()

    def one_request(index: int, client, sequence) -> list:
        op, target = next(sequence)
        t0 = common.now_ns()
        problem = None
        try:
            if op == "batch":
                message = {
                    "op": "batch",
                    "inputs": [os.path.abspath(ctx.paths[n]) for n in target],
                }
            else:
                message = {"op": op, "source": ctx.corpus[target]}
            result = client.request(message)
        except (ServerError, ServerUnavailable) as exc:
            result, problem = None, f"{op} failed: {exc}"
        t1 = common.now_ns()
        if result is not None and result != passed.get((op, target)):
            problem = full_check(op, target, result)
            if problem is None:
                with passed_lock:
                    passed[(op, target)] = result
        if problem:
            errors[f"{op} {target}: {problem}"] += 1
        if index == 0 and len(records[0]) < COUNTER_REQUESTS and client.last_metrics:
            add_counters(counters, client.last_metrics)
        return [op, t0, t1, client.last_elapsed_ms or 0.0, problem is None]

    threads = [
        threading.Thread(target=connection, args=(i,), daemon=True)
        for i in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = sorted((r for out in records for r in out), key=lambda r: r[2])
    phase.latencies = [(t1 - t0) / 1e6 for _, t0, t1, _, _, _ in merged]
    phase.speeds = [common.speed(kernels[at], kernels[at + 1]) for *_, at in merged]
    phase.intervals = [(t0, t1) for _, t0, t1, _, _, _ in merged]
    phase.attempted = len(merged)
    phase.failed = sum(1 for _, _, _, _, ok, _ in merged if not ok)
    phase.window = (window["start"], window["end"])
    phase.pause_ns = window["pause_ns"]
    phase.counters = counters
    by_op: Dict[str, List[float]] = {}
    for (op, *_), latency in zip(merged, phase.normalized):
        by_op.setdefault(op, []).append(latency)
    phase.detail.update({
        "by_op": by_op,
        "client_wait_ms": [(t1 - t0) / 1e6 - elapsed for _, t0, t1, elapsed, _, _ in merged],
        "failures": [
            f"({count}x) {problem}" for problem, count in sorted(errors.items())
        ],
    })


def _daemon_phase(ctx: Context, refs, tag: str, trace: bool, seconds: float, outcome: Outcome):
    daemon = Daemon(ctx.work, tag, trace)
    phase = Phase()
    try:
        before = ctx.kernel()
        daemon.start()
        daemon.wait_ping()
        served = _prime(daemon, ctx, refs, outcome, phase)
        outcome.add_setup(
            (common.now_ns() - daemon.spawned_ns) / 1e9,
            common.speed(before, ctx.kernel()),
        )
        if seconds:
            _closed_loop(daemon, ctx, served, seconds, phase)
    finally:
        result = daemon.stop()
    phase.peak_rss_mb = result.get("peak_rss_mb", 0.0)
    phase.spans = result.get("spans")
    outcome.messages.extend(phase.detail.get("failures", ()))
    return phase


def daemon_warm(ctx: Context) -> Outcome:
    outcome = Outcome()
    refs = _references(ctx)
    if not ctx.trace:
        for i in range(SETUPS["daemon-warm"] - 1):
            _daemon_phase(ctx, refs, f"setup{i}", False, 0, outcome)
        outcome.main = _daemon_phase(ctx, refs, "main", False, ctx.seconds, outcome)
    else:
        half = ctx.seconds / 2
        outcome.baseline = _daemon_phase(ctx, refs, "baseline", False, half, outcome)
        outcome.main = _daemon_phase(ctx, refs, "main", True, half, outcome)
        compare_counters(outcome.baseline.counters, outcome.main.counters, outcome)
    return outcome


# ---------------------------------------------------------------------------
# watch-edit
# ---------------------------------------------------------------------------


class Watched:
    """A watch-mode daemon over its own copy of the watched files."""

    def __init__(self, ctx: Context, tag: str, trace: bool):
        self.dir = os.path.join(ctx.work, f"{tag}-watch")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.texts = dict(corpus.function_less(ctx.corpus))
        self.texts[corpus.GEN_NAME] = corpus.generated_script()
        for name, text in self.texts.items():
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        self.log_path = os.path.join(ctx.work, f"{tag}-ops.jsonl")
        self.daemon = Daemon(
            ctx.work, tag, trace,
            ["--watch", self.dir, "--interval", str(WATCH_INTERVAL_S),
             "--log-file", self.log_path],
        )
        self.log = LogTail(self.log_path)
        self.signatures: Dict[str, Tuple[int, int]] = {}
        self.staging = os.path.join(ctx.work, f"{tag}-staging.tmp")

    def start(self) -> float:
        """Spawn, first ping, then the priming scan; returns set-up s."""
        self.daemon.start()
        self.daemon.wait_ping()
        for name in self.texts:
            stat = os.stat(os.path.join(self.dir, name))
            self.signatures[name] = (stat.st_size, stat.st_mtime_ns)
        if not self.wait_scan(None)[0]:
            raise RuntimeError(
                f"daemon {self.daemon.tag} never logged its first watch scan: "
                + self.daemon.stderr_tail()
            )
        return (common.now_ns() - self.daemon.spawned_ns) / 1e9

    def wait_scan(self, name: Optional[str]) -> Tuple[bool, List[dict]]:
        """Wait for the ``watch.scan`` event of the round that picked up
        ``name`` (any round when None); returns (seen, incremental
        events of that round)."""
        deadline = common.now_ns() + int(WATCH_TIMEOUT_S * 1e9)
        incremental: List[dict] = []
        while common.now_ns() < deadline:
            for event in self.log.events():
                kind = event.get("event")
                if kind == "watch.incremental":
                    incremental.append(event)
                elif kind == "watch.scan":
                    paths = [os.path.basename(p) for p in event.get("paths", ())]
                    if name is None or name in paths:
                        return True, incremental
            if self.daemon.process.poll() is not None:
                break
            threading.Event().wait(0.001)
        return False, incremental

    def write(self, name: str, text: str) -> None:
        """Replace ``name`` atomically; its (size, mtime) signature
        always changes, so the watcher cannot miss the edit."""
        path = os.path.join(self.dir, name)
        with open(self.staging, "w", encoding="utf-8") as handle:
            handle.write(text)
        stat = os.stat(self.staging)
        if (stat.st_size, stat.st_mtime_ns) == self.signatures[name]:
            bumped = stat.st_mtime_ns + 1_000_000
            os.utime(self.staging, ns=(bumped, bumped))
            stat = os.stat(self.staging)
        os.replace(self.staging, path)
        self.signatures[name] = (stat.st_size, stat.st_mtime_ns)


def _edit(watched: Watched, client, plan: corpus.EditPlan) -> dict:
    from repro.server.client import ServerError, ServerUnavailable

    kind, name, text = plan.next()
    t0 = common.now_ns()
    watched.write(name, text)
    seen, incremental = watched.wait_scan(name)
    result = None
    if seen:
        try:
            result = client.request({"op": "analyze", "source": text})
        except (ServerError, ServerUnavailable):
            result = None
    t1 = common.now_ns()
    symex_runs = (client.last_metrics or {}).get("counters", {}).get("symex.runs", 0)
    return {
        "kind": kind, "name": name, "text": text, "t0": t0, "t1": t1,
        "seen": seen, "result": result, "symex_runs": symex_runs,
        "hits": sum(e.get("fragments_hit", 0) for e in incremental),
        "misses": sum(e.get("fragments_miss", 0) for e in incremental),
    }


def _cold_render(text: str) -> str:
    from repro.analysis import analyze
    from repro.analysis.report import Report

    return Report.from_dict(analyze(text).to_dict()).render()


def _validate_edits(ctx: Context, edits: List[dict]) -> Tuple[int, List[str]]:
    """Check every edit's report against an inline cold analysis of the
    same text.  This is the expensive part; it runs after the window,
    once the daemon has stopped, on :data:`VALIDATION_WORKERS` forked
    processes."""
    from repro.analysis.report import Report

    texts = [edit["text"] for edit in edits]
    pool = multiprocessing.get_context("fork").Pool(VALIDATION_WORKERS)
    try:
        cold_renders = pool.map(_cold_render, texts, chunksize=4)
    finally:
        pool.close()
        pool.join()
    failed = 0
    problems: List[str] = []
    for edit, cold_render in zip(edits, cold_renders):
        problem = None
        if not edit["seen"]:
            problem = "watch round never reported the edit"
        elif edit["result"] is None:
            problem = "analyze request failed"
        elif not edit["result"].get("cached") or edit["symex_runs"]:
            problem = "analyze after the watch round was not a zero-symex cache hit"
        else:
            served = Report.from_dict(edit["result"]["report"])
            if served.degraded:
                problem = "degraded report"
            elif served.render() != cold_render:
                problem = "report not byte-identical to the inline cold render"
            elif edit["name"] in ctx.answers:
                found = verdicts.report_problems(ctx.answers[edit["name"]], served)
                if found:
                    problem = "; ".join(found)
        if problem:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{edit['kind']} {edit['name']}: {problem}")
    return failed, problems


def _absorbed_stats(client, rounds: int) -> dict:
    """The daemon's metrics once its totals hold ``rounds`` watch rounds
    that changed files (a round's totals are absorbed just after its
    ``watch.scan`` log event)."""
    deadline = common.now_ns() + int(WATCH_TIMEOUT_S * 1e9)
    while True:
        metrics = client.request({"op": "stats"})["metrics"]
        done = metrics.get("counters", {}).get("server.watch_rounds", 0)
        if done >= rounds:
            if done > rounds:
                raise RuntimeError(f"{done} watch rounds, expected {rounds}")
            return metrics
        if common.now_ns() > deadline:
            raise RuntimeError(f"daemon absorbed {done} of {rounds} watch rounds")
        threading.Event().wait(0.002)


def _watch_setup(ctx: Context, watched: Watched, outcome: Outcome) -> None:
    before = ctx.kernel()
    setup_s = watched.start()
    outcome.add_setup(setup_s, common.speed(before, ctx.kernel()))


def _watch_phase(ctx: Context, tag: str, trace: bool, seconds: float, outcome: Outcome):
    """Edits run from :data:`common.CLIENT_CPU`; the daemon does the
    work on :data:`common.WORK_CPU`, so each edit takes that CPU's speed
    factor, from kernel runs just before and after it."""
    watched = Watched(ctx, tag, trace)
    plan = corpus.EditPlan(watched.texts, ctx.seed)
    edits: List[dict] = []
    counters: Dict[str, float] = {}
    pause_ns = 0
    try:
        with common.pinned(common.CLIENT_CPU):
            _watch_setup(ctx, watched, outcome)
            client = private_client(watched.daemon.socket)
            try:
                if ctx.trace:
                    add_counters(counters, _absorbed_stats(client, 1), -1)
                    for _ in range(COUNTER_EDITS):
                        edits.append(_edit(watched, client, plan))
                    add_counters(counters, _absorbed_stats(client, 1 + COUNTER_EDITS))
                    counters = {k: v for k, v in counters.items() if v}
                before = ctx.kernel()
                window_start = common.now_ns()
                deadline = window_start + int(seconds * 1e9)
                timed_from = len(edits)
                while common.now_ns() < deadline:
                    edits.append(_edit(watched, client, plan))
                    t = common.now_ns()
                    after = ctx.kernel()
                    pause_ns += common.now_ns() - t
                    edits[-1]["speed"] = common.speed(before, after)
                    before = after
                window_end = common.now_ns()
            finally:
                client.close()
    finally:
        result = watched.daemon.stop()
    failed, problems = _validate_edits(ctx, edits)
    outcome.messages.extend(problems)
    timed = edits[timed_from:]
    phase = Phase()
    phase.latencies = [(e["t1"] - e["t0"]) / 1e6 for e in timed]
    phase.speeds = [e["speed"] for e in timed]
    phase.pause_ns = pause_ns
    phase.intervals = [(e["t0"], e["t1"]) for e in timed]
    phase.attempted = len(edits)
    phase.failed = failed
    phase.window = (window_start, window_end)
    phase.counters = counters
    phase.peak_rss_mb = result.get("peak_rss_mb", 0.0)
    phase.spans = result.get("spans")
    kinds: Dict[str, List[float]] = {}
    for edit in timed:
        kinds.setdefault(edit["kind"], []).append(
            (edit["t1"] - edit["t0"]) / 1e6 * edit["speed"]
        )
    phase.detail = {
        "kinds": kinds,
        "edit_starts": [e["t0"] for e in timed],
        "fragment_hits": sum(e["hits"] for e in timed),
        "fragment_misses": sum(e["misses"] for e in timed),
    }
    return phase


def watch_edit(ctx: Context) -> Outcome:
    outcome = Outcome()
    if not ctx.trace:
        for i in range(SETUPS["watch-edit"] - 1):
            watched = Watched(ctx, f"setup{i}", False)
            try:
                with common.pinned(common.CLIENT_CPU):
                    _watch_setup(ctx, watched, outcome)
            finally:
                watched.daemon.stop()
        outcome.main = _watch_phase(ctx, "main", False, ctx.seconds, outcome)
    else:
        half = ctx.seconds / 2
        outcome.baseline = _watch_phase(ctx, "baseline", False, half, outcome)
        outcome.main = _watch_phase(ctx, "main", True, half, outcome)
        compare_counters(outcome.baseline.counters, outcome.main.counters, outcome)
    return outcome


WORKLOADS = {
    "cold-corpus": cold_corpus,
    "daemon-warm": daemon_warm,
    "watch-edit": watch_edit,
}
