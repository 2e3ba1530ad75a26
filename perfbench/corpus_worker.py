"""The analyzing process of the ``cold-corpus`` workload.

Sets up like a cold ``repro-analyze``/``repro-optimize`` process (import,
``default_registry()``, one trivial analysis), prints ``READY``, waits
for a ``go`` line on stdin (the parent times the kernel on this
process's CPU in between), then runs seeded passes over the corpus until
the deadline.  With ``--calibrate`` the reference kernel runs between
files, and each file's times carry the speed factor of its CPU (see
``common.KERNEL_REF_MS``).  Each pass uses a fresh ``ResultCache`` and
analyzes, then plans, every file through the batch entry points, one
file per call so the seed sets the file order.  Every result is
checked against the known answers; a render that
differs from the process's first render of the same file is recorded
as a determinism finding.

``--mode reference`` instead writes the inline cold result of every
corpus file: after import, each file's ``run_batch`` and each file's
``run_optimize_batch`` run in a forked child of their own, so every
reference is what a fresh process with no analysis history returns.

Usage: ``corpus_worker.py --mode setup|untraced|traced|reference
--seed N --seconds S --work DIR --out FILE [--cpu N] [--calibrate]
[--counter-pass]``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def _in_child(job, out: str) -> None:
    """Run ``job()`` in a forked child that writes its JSON result to
    ``out``; the parent's analysis history stays empty."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            common.write_json(out, job())
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference child for {out} failed (status {status})")


def write_references(work: str, out: str) -> int:
    from repro.analysis.batch import run_batch
    from repro.analysis.optimize import run_optimize_batch

    corpus_dir = os.path.join(work, "corpus")
    refs = {}
    for name in sorted(os.listdir(corpus_dir)):
        path = os.path.join(corpus_dir, name)

        def report():
            return {"render": run_batch([path], jobs=1).results[0].report.render()}

        def plan():
            return {"render": run_optimize_batch([path], jobs=1).results[0].plan.render()}

        parts = {}
        for kind, job in (("report", report), ("plan", plan)):
            part = f"{out}.{kind}"
            _in_child(job, part)
            parts[kind] = common.read_json(part)
            os.remove(part)
        refs[name] = parts
    common.write_json(out, refs)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--mode", choices=["setup", "untraced", "traced", "reference"], required=True
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--work", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--counter-pass", action="store_true")
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--calibrate", action="store_true")
    options = parser.parse_args()
    if options.cpu is not None:
        os.sched_setaffinity(0, {options.cpu})

    common.use_source_tree()
    from repro.analysis import analyze
    from repro.specs import default_registry

    default_registry()
    if options.mode == "reference":
        return write_references(options.work, options.out)
    analyze("true\n")
    tracer = None
    if options.mode == "traced":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    print("READY", flush=True)
    sys.stdin.readline()
    if options.mode == "setup":
        return 0

    import corpus
    import verdicts
    from repro.analysis import batch as batch_mod
    from repro.analysis.cache import ResultCache
    from repro.analysis.optimize import advisor
    from repro.obs import TraceRecorder, use_recorder

    answers = verdicts.load_answers()
    corpus_dir = os.path.join(options.work, "corpus")
    names = sorted(os.listdir(corpus_dir))
    first_render = {}
    intervals = []
    failures = []
    mismatches = []

    def run_file(name: str, cache) -> tuple:
        path = os.path.join(corpus_dir, name)
        t0 = common.now_ns()
        analyzed = batch_mod.run_batch([path], jobs=1, cache=cache)
        t1 = common.now_ns()
        planned = advisor.run_optimize_batch([path], jobs=1, cache=cache)
        t2 = common.now_ns()
        report = analyzed.results[0].report
        plan = planned.results[0].plan
        problems = verdicts.report_problems(answers[name], report)
        problems += verdicts.plan_problems(answers[name], plan)
        if problems:
            failures.append(f"{name}: {'; '.join(problems)}")
        # byte-identity across passes: a finding about the program's
        # determinism, reported beside the known-answer verdict
        render = (report.render(), plan.render())
        first = first_render.setdefault(name, render)
        for kind, before, now in zip(("report", "plan"), first, render):
            if before != now:
                mismatches.append(
                    f"{name}: {kind} render differs from this process's first "
                    f"render of the file: {common.render_diff(before, now)}"
                )
        intervals.append([t0, t2])
        return (t1 - t0) / 1e6, (t2 - t1) / 1e6, not problems

    def fresh_cache(tag: str):
        root = os.path.join(options.work, f"cache-{os.getpid()}-{tag}")
        shutil.rmtree(root, ignore_errors=True)
        return root, ResultCache(root)

    # one untimed pass under the program's own recorder: its work
    # counters are deterministic and must repeat across processes
    counters = {}
    if options.counter_pass:
        root, cache = fresh_cache("counters")
        recorder = TraceRecorder()
        with use_recorder(recorder):
            for name in corpus.seeded_order(names, options.seed, "counters"):
                run_file(name, cache)
        shutil.rmtree(root, ignore_errors=True)
        snapshot = recorder.snapshot()
        counters = dict(snapshot.counters)
        for hist_name, histogram in snapshot.histograms.items():
            if hist_name.startswith("rlang."):
                counters[hist_name + ".sum"] = histogram.total

    del intervals[:]  # the counter pass is not timed

    def kernel() -> float:
        return common.kernel_ms() if options.calibrate else common.KERNEL_REF_MS

    ops = []
    passes = []
    pause_ns = 0
    before = kernel()
    window_start = common.now_ns()
    deadline = window_start + int(options.seconds * 1e9)
    index = 0
    while common.now_ns() < deadline:
        root, cache = fresh_cache(f"pass{index}")
        sums = [0.0, 0.0, 0.0, 0.0]  # analyze, plan: raw s, normalized s
        complete = True
        for name in corpus.seeded_order(names, options.seed, f"pass{index}"):
            if passes and common.now_ns() >= deadline:
                complete = False  # at least one whole pass always runs
                break
            a_ms, p_ms, ok = run_file(name, cache)
            t = common.now_ns()
            after = kernel()
            pause_ns += common.now_ns() - t
            factor = common.speed(before, after)
            before = after
            ops.append([name, a_ms, p_ms, ok, factor])
            for i, value in enumerate((a_ms, p_ms, a_ms * factor, p_ms * factor)):
                sums[i] += value / 1000.0
        window_end = common.now_ns()
        if complete:
            passes.append(sums)
        shutil.rmtree(root, ignore_errors=True)
        index += 1

    result = {
        "ops": ops,
        "intervals": intervals,
        "passes": passes,
        "window": [window_start, window_end],
        "pause_ns": pause_ns,
        "failures": failures,
        "mismatches": mismatches,
        "counters": counters,
        "peak_rss_mb": common.peak_rss_mb(),
        "corpus_files": len(names),
    }
    if tracer is not None:
        trace_path = options.out + ".spans"
        tracer.dump(trace_path)
        result["spans"] = trace_path
    common.write_json(options.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
