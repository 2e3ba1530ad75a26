"""E14: regular-language engine microbenchmarks.

The paper's pitch for regular formalisms (§3) includes "computational
efficiency"; this bench quantifies the core operations on the type
library's realistic languages.
"""

import statistics
import time

import pytest
from conftest import emit, emit_json

from repro.obs import TraceRecorder, use_recorder
from repro.rlang import Regex

LSB = r"(Distributor ID|Description|Release|Codename):\t.*"
LONGLIST = r"[bcdlps-][rwxsStT-]{9}\+?\s+[0-9]+\s+\S+\s+\S+\s+[0-9]+\s+.*"
URL = r"(https?|ftp)://[^\s]+"
PATH = r"/?([^/\n]*/)*[^/\n]+"
HEX = r"0x[0-9a-f]+.*"
#: mktemp's output language, as analysing examples/scripts/tempfile_lifecycle.sh
#: builds it (the line type of ``$(mktemp)``)
MKTEMP = r"/tmp/[A-Za-z0-9._-]*[A-Za-z0-9_-][A-Za-z0-9._-]*"

#: p50 bound for the glue concatenation below; the atom x edge subset
#: construction it replaced took ~73 ms, the indexed one ~1.7 ms (both on
#: a shared 2-vCPU x86-64 VM, Python 3.11)
GLUE_CONCAT_TARGET_MS = 15.0


@pytest.mark.parametrize(
    "name,pattern",
    [("lsb", LSB), ("longlist", LONGLIST), ("url", URL), ("path", PATH)],
)
def test_compile_cost(benchmark, name, pattern):
    benchmark(Regex.compile, pattern)


def test_intersection_cost(benchmark):
    lsb = Regex.compile(LSB)
    desc = Regex.compile("desc.*")
    result = benchmark(lambda: (lsb & desc).is_empty())
    assert result


def test_containment_cost(benchmark):
    narrow = Regex.literal("0x") + Regex.compile("[0-9a-f]+")
    wide = Regex.compile(HEX)
    assert benchmark(lambda: narrow <= wide)


def test_complement_cost(benchmark):
    url = Regex.compile(URL)
    comp = benchmark(lambda: ~url)
    assert comp.matches("not a url")


def test_equivalence_cost(benchmark):
    a = Regex.compile("(a|b)*abb")
    b = Regex.compile("(b|a)*abb")
    assert benchmark(lambda: a == b)


def test_quotient_cost(benchmark):
    path = Regex.compile(PATH)
    from repro.shell.glob import glob_to_regex

    slash_star = glob_to_regex("/*")
    quotient = benchmark(lambda: path.strip_suffix(slash_star))
    assert quotient.matches("")


def test_minimisation_cost(benchmark):
    pattern = Regex.compile("(a|b)*a(a|b){4}")
    mdfa = benchmark(lambda: __import__("repro.rlang", fromlist=["minimise"]).minimise(pattern.dfa))
    assert mdfa.n_states <= pattern.dfa.n_states


def test_operation_size_table():
    rows = []
    for name, pattern in [("lsb", LSB), ("longlist", LONGLIST), ("url", URL), ("path", PATH), ("hex", HEX)]:
        regex = Regex.compile(pattern)
        rows.append(
            f"{name:9} dfa={regex.dfa.n_states:4} states  "
            f"min={regex.min_dfa.n_states:4} states  "
            f"atoms={len(regex.dfa.atoms):3}"
        )
    emit("E14 (automata sizes for library types)", rows)


def test_glue_concat_cost():
    """The costliest automaton operation of tempfile_lifecycle.sh: the
    line type ``X(\\nX)*`` of mktemp's output, concatenated through
    ``concat_dfa``'s glue NFA, whose edges carry every atom of both DFAs
    plus their "other" complements."""
    name = Regex.compile(MKTEMP)
    rest = (Regex.literal("\n") + name).star()
    with use_recorder(TraceRecorder()) as recorder:
        result = name + rest
    assert result.matches("/tmp/tmp.abc\n/tmp/x")
    assert not result.matches("/tmp/a\n/etc/b")
    samples = []
    for _ in range(50):
        start = time.perf_counter()
        name + rest
        samples.append(time.perf_counter() - start)
    p50_ms = statistics.median(samples) * 1e3
    dfa_states = recorder.histogram("rlang.dfa_states").total
    emit(
        "E14 (glue concatenation, tempfile_lifecycle.sh)",
        [
            f"p50 {p50_ms:.3f}ms (bound {GLUE_CONCAT_TARGET_MS}ms)",
            f"dfa states {int(dfa_states)}, atoms {len(result.dfa.atoms)}",
        ],
    )
    emit_json(
        "rlang",
        {
            "ms_p50": round(p50_ms, 3),
            "target_ms": GLUE_CONCAT_TARGET_MS,
            "rlang.determinise_calls": recorder.counter("rlang.determinise_calls"),
            "rlang.dfa_states": int(dfa_states),
            "atoms": len(result.dfa.atoms),
        },
        section="glue_concat",
    )
    # work counters are deterministic: a change here is a change in the
    # automaton, not in timing
    assert recorder.counter("rlang.determinise_calls") == 1
    assert dfa_states == result.dfa.n_states == 71
    assert p50_ms < GLUE_CONCAT_TARGET_MS, (
        f"glue concatenation p50 {p50_ms:.2f}ms exceeds {GLUE_CONCAT_TARGET_MS}ms"
    )
