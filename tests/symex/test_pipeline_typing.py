"""The engine types each static pipeline once per run.

``rtypes.pipeline_checks`` counts every evaluation of a static pipeline
(one per state reaching it); ``rtypes.pipelines_typed`` counts the
typings actually computed.
"""

from repro.analysis import analyze
from repro.obs import TraceRecorder, use_recorder
from repro.rtypes import check_pipeline
from repro.rtypes.signatures import simple
from repro.shell import parse
from repro.symex import Engine

#: two unmergeable states reach the same static pipeline
FORKED = (
    "if [ -f /etc/flag ]; then MODE=a; else MODE=b; fi\n"
    "cat /etc/passwd | sort | uniq -c\n"
)


def _counters(run):
    recorder = TraceRecorder()
    with use_recorder(recorder):
        run()
    counters = recorder.snapshot().counters
    return (
        counters.get("rtypes.pipeline_checks", 0),
        counters.get("rtypes.pipelines_typed", 0),
    )


def test_pipeline_is_typed_once_per_run_and_checked_per_state():
    engine = Engine()
    ast = parse(FORKED)
    assert _counters(lambda: engine.run(ast)) == (2, 1)


def test_memo_resets_on_every_run():
    engine = Engine()
    ast = parse(FORKED)
    engine.run(ast)
    assert engine._pipeline_types
    # a second run on the same engine types the pipeline again
    assert _counters(lambda: engine.run(ast)) == (2, 1)


def test_memo_serves_the_types_a_fresh_typing_computes():
    engine = Engine()
    engine.run(parse(FORKED))
    (types,) = engine._pipeline_types.values()
    fresh = check_pipeline([["cat", "/etc/passwd"], ["sort"], ["uniq", "-c"]])
    assert types.output == fresh.output
    assert [issue.message for issue in types.issues] == [
        issue.message for issue in fresh.issues
    ]


def test_signature_overrides_bypass_the_memo():
    engine = Engine(
        signature_overrides={"sort": simple(".*", "[0-9]+")}
    )
    assert _counters(lambda: engine.run(parse(FORKED))) == (2, 2)
    assert not engine._pipeline_types


def test_type_annotations_are_typed_per_evaluation():
    source = "# @type frobnicate :: .* -> [0-9]+\n" + FORKED.replace(
        "cat /etc/passwd", "frobnicate"
    )
    checks, typed = _counters(lambda: analyze(source))
    assert checks == typed == 2
