"""A spec effect that contradicts established fs facts makes its clause
infeasible; it never escapes the engine as a crash.

``touch`` and ``chmod`` update an existing path of any kind: on a
directory they leave it a directory and succeed.
"""

import pytest

from repro.analysis import analyze
from repro.analysis.optimize import build_plan
from repro.fs import NodeKind
from repro.specs import (
    Clause,
    CommandSpec,
    Creates,
    PathKind,
    Sel,
    default_registry,
)
from repro.specs.registry import SpecRegistry
from repro.symex import Engine


def _node_kinds(result, path):
    kinds = set()
    for state in result.states:
        for node_id, record in state.fs.nodes.items():
            if state.fs.path_of(node_id) == path:
                kinds.add(record.kind)
    return kinds


@pytest.mark.parametrize("update", ["touch d", "chmod 755 d", "touch -m d"])
def test_updating_a_directory_keeps_it_a_directory(update):
    source = f"mkdir d\n{update}\n"
    result = Engine().run_script(source)
    assert _node_kinds(result, "<v-1>/d") == {NodeKind.DIR}
    report = analyze(source)
    assert not report.degraded
    assert not report.has("internal-error")
    assert not report.has("always-fails")


def test_touching_a_directory_does_not_degrade_the_plan():
    plan = build_plan("mkdir d\ntouch d\nls /tmp\n")
    assert not plan.degraded


def test_redirect_into_a_directory_still_conflicts():
    report = analyze("mkdir d\necho hi > d\n")
    assert report.has("redirect-conflict")


def test_an_effect_contradiction_makes_its_clause_infeasible():
    # a spec that creates its operand without requiring the parent: the
    # effect itself contradicts a deleted parent
    registry = SpecRegistry()
    registry.register(default_registry().get("rm"))
    registry.register(
        CommandSpec(
            name="mkfile",
            min_operands=1,
            clauses=[
                Clause(effects=(Creates(Sel.EACH, PathKind.FILE),), exit_code=0)
            ],
        )
    )
    result = Engine(registry=registry).run_script("rm -r /d\nmkfile /d/f\n")
    assert result.states
    assert all(state.status != 0 for state in result.states)
