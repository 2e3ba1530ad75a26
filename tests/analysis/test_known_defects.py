"""Known analyzer defects, pinned until a fix lands.

Each test states the correct behaviour and is a strict xfail: a fix
makes it pass, which fails the suite until the marker is removed.
"""

import pytest

from repro.analysis import analyze
from repro.analysis.optimize import build_plan


def _races(source):
    return [d.code for d in analyze(source).diagnostics if d.code.startswith("race-")]


@pytest.mark.xfail(
    strict=True,
    reason="Engine._prune's merge key omits fs state: the guard's "
    "mkdir branch merges into the branch that skipped it",
)
def test_guarded_mkdir_orders_the_write_below_it():
    plan = build_plan("[ -d /out ] || mkdir /out\necho x > /out/f\nls /tmp\n")
    assert any(
        (dep["src"], dep["dst"]) == (0, 1) for dep in plan.dependencies
    )
    assert all(not {0, 1} <= set(group.commands) for group in plan.groups)


def test_unguarded_touch_races_with_a_concurrent_read():
    assert "race-read-write" in _races("touch /c &\ncat /c &\nwait\n")


@pytest.mark.xfail(
    strict=True,
    reason="Engine._prune's merge key omits fs state: the guarded "
    "touch's effect is merged away",
)
def test_guarded_touch_races_with_a_concurrent_read():
    assert "race-read-write" in _races("[ -e /c ] || touch /c &\ncat /c &\nwait\n")


@pytest.mark.xfail(
    strict=True,
    reason="the race detector does not count the parent directory a "
    "write needs as a read",
)
def test_write_below_a_concurrent_mkdir_is_a_race():
    assert _races("mkdir d & echo hi > d/f & wait\n")
