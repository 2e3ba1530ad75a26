"""Helpers shared by the benchmark driver, its worker and its daemon
launcher: paths, statistics, host-speed calibration, and child-process
handling."""

from __future__ import annotations

import contextlib
import difflib
import gc
import json
import math
import os
import resource
import subprocess
import sys
import time
from typing import Dict, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
#: the checkout root: the benchmark lives one directory below it
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The analyzing process (corpus worker or daemon) runs pinned to
#: WORK_CPU, and so do daemon-warm's client connections, whose round
#: trips are the measured ops.  watch-edit's client only writes files
#: and polls the daemon's log: it runs on CLIENT_CPU (the same CPU on a
#: one-CPU machine), where its polling takes no time from the daemon.
_ALLOWED = sorted(os.sched_getaffinity(0))
WORK_CPU = _ALLOWED[-1]
CLIENT_CPU = _ALLOWED[0]

#: Gated timings are host-speed normalized: a timed span is multiplied
#: by KERNEL_REF_MS / (the reference kernel's ms on the CPU that did the
#: work, averaged over a run just before and just after the span).  On a
#: shared host each vCPU alternates between speed states independently
#: (the same work runs about 1.4x slower in one), often for longer than
#: a run, and the plain wall-clock figures spread beyond any allowed
#: bound across runs; the raw figures are printed beside the gated ones.
KERNEL_REF_MS = 5.0


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` (no install step)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the daemon and the analyzer must not find caches or sockets
    # outside the checkout
    for name in ("REPRO_CACHE_DIR", "REPRO_SERVER_SOCKET", "REPRO_CHAOS"):
        env.pop(name, None)
    return env


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def now_ns() -> int:
    """The span clock: CLOCK_MONOTONIC, shared by every process on the
    machine, so client and daemon timestamps compare directly."""
    return time.perf_counter_ns()


@contextlib.contextmanager
def pinned(cpu: int):
    """Run the calling thread on ``cpu`` only, then restore its mask."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def _reference_kernel() -> None:
    # interpreter, allocation and hashing work of the kind the analyzer
    # does (sets of small ints as keys, sorting), independent of it
    table: Dict[frozenset, int] = {}
    for i in range(2500):
        key = frozenset((i % 97, i % 89, (i * 7) % 83))
        table[key] = table.get(key, 0) + 1
    sorted(table.items(), key=lambda item: (item[1], sorted(item[0])))


def kernel_ms() -> float:
    """Time one run of the reference kernel on WORK_CPU (ms), with the
    garbage collector off so that the caller's heap does not count."""
    with pinned(WORK_CPU):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            _reference_kernel()
            return (time.perf_counter_ns() - start) / 1e6
        finally:
            if enabled:
                gc.enable()


def speed(before_ms: float, after_ms: float) -> float:
    """The factor that normalizes a span timed between two kernel runs."""
    return KERNEL_REF_MS / ((before_ms + after_ms) / 2.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def render_diff(before: str, now: str) -> str:
    """The first changed lines between two renders, on one line."""
    changed = [
        line for line in difflib.unified_diff(
            before.split("\n"), now.split("\n"), lineterm="", n=0
        )
        if line[:1] in "+-" and line[:3] not in ("+++", "---")
    ]
    return " | ".join(changed[:4])


def write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def stop(process: subprocess.Popen, timeout: float = 10.0) -> None:
    """Make sure ``process`` has ended: wait, then terminate, then kill."""
    if process.poll() is not None:
        return
    try:
        process.wait(timeout=timeout)
        return
    except subprocess.TimeoutExpired:
        pass
    process.terminate()
    try:
        process.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def wait_line(process: subprocess.Popen, expected: str) -> bool:
    """Read ``process`` stdout until a line equal to ``expected``
    (True) or end of file (False: the child failed and exited)."""
    for line in process.stdout:
        if line.strip() == expected:
            return True
    return False
