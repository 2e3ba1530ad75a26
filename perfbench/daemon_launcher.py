"""Run ``repro-served`` in this process, optionally with layer spans.

Usage: ``daemon_launcher.py --out FILE [--cpu N] [--trace] -- <repro-served
args>``.  With ``--cpu`` the process (every thread the daemon starts
inherits it) runs on CPU ``N`` only.

With ``--trace`` the layer wrappers of :mod:`layers` are installed
before the daemon starts, so daemon-side spans are recorded; either way
the daemon is the ``repro-served`` entry point (``repro.cli.main_served``)
and, when it stops, its peak RSS (and the span dump) land in ``FILE``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("served", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    if options.cpu is not None:
        os.sched_setaffinity(0, {options.cpu})
    served = options.served[1:] if options.served[:1] == ["--"] else options.served

    common.use_source_tree()
    tracer = None
    if options.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    from repro.cli import main_served

    code = main_served(served)
    result = {"exit_code": code, "peak_rss_mb": common.peak_rss_mb()}
    if tracer is not None:
        result["spans"] = options.out + ".spans"
        tracer.dump(result["spans"])
    common.write_json(options.out, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
