"""Start, reach and stop ``repro-served`` daemons for the benchmark."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Iterator, List, Optional

import common

LAUNCHER = os.path.join(common.HERE, "daemon_launcher.py")


def private_client(socket_path: str):
    """A client with its own breaker and no retries: every failure is
    the benchmark's to count, never hidden behind a retry."""
    from repro.server.client import CircuitBreaker, RetryPolicy, ServerClient

    return ServerClient(
        socket_path,
        connect_timeout=5.0,
        read_timeout=120.0,
        retry=RetryPolicy(retries=0),
        breaker=CircuitBreaker(threshold=1 << 30),
    )


class Daemon:
    """One ``repro-served`` process (through :mod:`daemon_launcher`),
    with one job (no process pool), its own cache and socket, pinned to
    :data:`common.WORK_CPU`.

    Paths are relative to the checkout root, which is every process's
    working directory (Unix socket paths must stay short)."""

    def __init__(self, work: str, tag: str, trace: bool, extra: Optional[List[str]] = None):
        self.tag = tag
        self.trace = trace
        self.socket = os.path.join(work, f"{tag}.sock")
        self.cache_dir = os.path.join(work, f"{tag}-cache")
        self.out = os.path.join(work, f"{tag}.json")
        self.stderr_path = os.path.join(work, f"{tag}.stderr")
        self.extra = list(extra or [])
        self.process: Optional[subprocess.Popen] = None
        self.spawned_ns = 0
        self.result: dict = {}

    def start(self) -> None:
        argv = [sys.executable, LAUNCHER, "--out", self.out, "--cpu", str(common.WORK_CPU)]
        if self.trace:
            argv.append("--trace")
        argv += [
            "--", "--socket", self.socket, "--jobs", "1",
            "--cache-dir", self.cache_dir,
        ] + self.extra
        self.spawned_ns = common.now_ns()
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                argv,
                cwd=common.ROOT,
                env=common.child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )

    def wait_ping(self, timeout: float = 60.0) -> None:
        """Poll until the daemon answers a ping."""
        from repro.server.client import ServerError, ServerUnavailable

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon {self.tag} exited: {self.stderr_tail()}")
            client = private_client(self.socket)
            try:
                client.ping(timeout=5.0)
                return
            except (ServerUnavailable, ServerError):
                time.sleep(0.005)
            finally:
                client.close()
        raise RuntimeError(f"daemon {self.tag} did not answer within {timeout}s")

    def stop(self) -> dict:
        """Ask for shutdown, wait for the process, return the launcher's
        record (peak RSS, span dump path)."""
        from repro.server.client import ServerError, ServerUnavailable

        if self.process is None:
            return {}
        if self.process.poll() is None:
            client = private_client(self.socket)
            try:
                client.shutdown()
            except (ServerUnavailable, ServerError):
                pass
            finally:
                client.close()
        common.stop(self.process, timeout=30.0)
        if os.path.exists(self.out):
            self.result = common.read_json(self.out)
        return self.result

    def stderr_tail(self) -> str:
        try:
            with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""


class LogTail:
    """Reads the events appended to a daemon's JSONL ops log."""

    def __init__(self, path: str):
        self.path = path
        self.offset = 0
        self._partial = ""

    def events(self) -> Iterator[dict]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
                self.offset = handle.tell()
        except FileNotFoundError:
            return
        text = self._partial + chunk
        lines = text.split("\n")
        self._partial = lines.pop()
        for line in lines:
            if line:
                yield json.loads(line)
