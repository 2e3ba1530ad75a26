"""Regression coverage for the deps.py blind spots the optimizer relies
on: compound-command event attribution, env-var def/use through command
substitutions and compound forms, the WAR variable edge, and budgeted
(degrading, never raising) dependence analysis."""

import itertools
import os

from repro.analysis.deps import _vars_of, analyze_dependencies
from repro.analysis.resilience import ResourceBudget
from repro.shell import parse


def _vars(source):
    return _vars_of(parse(source))


class TestCompoundAttribution:
    """Events raised inside compound bodies must be attributed to the
    enclosing top-level command, yielding the same dependence edges a
    flat command would."""

    def test_if_body_write_orders_later_read(self):
        graph = analyze_dependencies(
            'if [ -f /etc/flag ]; then echo hi > /tmp/x; fi\ncat /tmp/x\n'
        )
        assert graph.must_precede(0, 1)
        assert any(d.kind == "flow" for d in graph.dependencies)

    def test_brace_group_write_orders_later_read(self):
        graph = analyze_dependencies(
            '{ echo a > /tmp/x; echo b > /tmp/y; }\ncat /tmp/x\n'
        )
        assert graph.must_precede(0, 1)

    def test_for_body_write_orders_later_read(self):
        graph = analyze_dependencies(
            'for f in /tmp/a /tmp/b; do touch $f; done\ncat /tmp/a\n'
        )
        # the loop body touches /tmp/a; the later cat reads it: the
        # write inside the loop must be attributed to command 0
        assert graph.must_precede(0, 1)
        assert any(d.kind == "flow" for d in graph.dependencies)

    def test_independent_compound_commands_stay_unordered(self):
        graph = analyze_dependencies(
            'if [ -f /a ]; then echo 1 > /tmp/p; fi\n'
            'if [ -f /b ]; then echo 2 > /tmp/q; fi\n'
        )
        assert (0, 1) in graph.independent_pairs()


class TestVarTracking:
    def test_cmdsub_defs_do_not_escape(self):
        uses, defs = _vars('X=$(Y=5; echo a)')
        assert defs == {"X"}
        assert "Y" not in defs

    def test_cmdsub_uses_propagate(self):
        uses, defs = _vars('X=$(cat $SRC)')
        assert "SRC" in uses
        assert defs == {"X"}

    def test_assignment_via_cmdsub_creates_dependency(self):
        graph = analyze_dependencies('LIST=$(ls $DIR)\necho $LIST\n')
        assert graph.must_precede(0, 1)
        assert any(
            d.kind == "var" and "$LIST" in d.via for d in graph.dependencies
        )

    def test_for_loop_var_and_word_uses(self):
        uses, defs = _vars('for f in $INPUTS; do echo $f; done')
        assert "INPUTS" in uses
        assert "f" in defs

    def test_read_builtin_defines(self):
        _, defs = _vars('read NAME')
        assert "NAME" in defs

    def test_export_assignment_defines(self):
        _, defs = _vars('export PATH=/bin')
        assert "PATH" in defs

    def test_case_subject_is_a_use(self):
        uses, _ = _vars('case $MODE in a) echo 1;; esac')
        assert "MODE" in uses

    def test_compound_redirect_target_is_a_use(self):
        uses, _ = _vars('if true; then echo x; fi > $OUT')
        assert "OUT" in uses

    def test_param_default_assignment_defines(self):
        _, defs = _vars('echo ${COLOR:=red}')
        assert "COLOR" in defs

    def test_war_edge_read_then_redefine(self):
        graph = analyze_dependencies('echo $V > /tmp/a\nV=2\n')
        assert graph.must_precede(0, 1)
        assert any("write-after-read" in d.via for d in graph.dependencies)


class TestBudgetedDeps:
    def test_exhausted_budget_degrades_not_raises(self):
        graph = analyze_dependencies(
            "mkdir /a\ntouch /a/x\ntouch /a/y\nrm /a/x\n",
            budget=ResourceBudget(max_states=1),
        )
        assert graph.degraded
        assert graph.degraded_reason
        assert "degraded" in graph.render()

    def test_degraded_graph_is_conservative(self):
        """Commands past the budget trip point go external: they are
        ordered after everything, never reordered on missing evidence."""
        graph = analyze_dependencies(
            "touch /tmp/a\ntouch /tmp/b\ntouch /tmp/c\n",
            budget=ResourceBudget(max_states=1),
        )
        tripped = [e.index for e in graph.effects if e.external]
        assert tripped, "budget of 1 state must trip"
        for index in tripped:
            for other in range(len(graph.effects)):
                if other != index:
                    assert graph.must_precede(
                        min(index, other), max(index, other)
                    )

    def test_ample_budget_matches_unbudgeted(self):
        source = "mkdir -p /d\necho a > /d/f\ncat /d/f\n"
        free = analyze_dependencies(source)
        budgeted = analyze_dependencies(
            source, budget=ResourceBudget(deadline=30.0, max_states=100_000)
        )
        assert not budgeted.degraded
        shape = lambda g: sorted(
            (d.src, d.dst, d.kind) for d in g.dependencies
        )
        assert shape(budgeted) == shape(free)


class TestHistoryIndependence:
    """Symbolic fs node ids come from a process-global counter, so the
    ids a script's analysis sees depend on what the process analyzed
    before.  The dependence witnesses (and the plan that renders them)
    must not."""

    SCRIPT = os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "scripts",
        "fragment_pipeline.sh",
    )

    def test_plan_render_is_the_same_at_every_node_id_offset(self, monkeypatch):
        from repro.analysis.optimize import run_optimize_batch
        from repro.fs import model

        renders = set()
        for offset in (100, 101, 103, 104, 111, 1000, 12345):
            monkeypatch.setattr(model, "_node_ids", itertools.count(offset))
            result = run_optimize_batch([self.SCRIPT], jobs=1).results[0]
            renders.add(result.plan.render())
        assert len(renders) == 1

    def test_witness_node_is_the_same_at_every_node_id_offset(self, monkeypatch):
        from repro.fs import model

        with open(self.SCRIPT, encoding="utf-8") as handle:
            source = handle.read()
        vias = set()
        for offset in (100, 101, 103, 104, 1000):
            monkeypatch.setattr(model, "_node_ids", itertools.count(offset))
            graph = analyze_dependencies(source)
            nodes = [
                int(d.via.split()[1]) - offset
                for d in graph.dependencies
                if d.via.startswith("node ")
            ]
            vias.add(tuple(nodes))
        assert len(vias) == 1


class TestPlanConfig:
    """The plan's dependence analysis models the configured arguments
    and engine limits, as the race gate's analyses do."""

    SOURCE = 'mkdir "$1"\necho hi > "$2/f"\nls /tmp\n'

    def test_concrete_args_reach_the_dependence_analysis(self):
        graph = analyze_dependencies(self.SOURCE, args=("d", "d"))
        assert (0, 1, "flow") in [
            (d.src, d.dst, d.kind) for d in graph.dependencies
        ]

    def test_plan_orders_commands_that_share_an_argument(self):
        from repro.analysis.batch import BatchConfig
        from repro.analysis.optimize import build_plan

        plan = build_plan(self.SOURCE, BatchConfig(args=("d", "d")))
        assert {"src": 0, "dst": 1, "kind": "flow", "via": "node n0"} in (
            plan.dependencies
        )
        assert all(
            not {0, 1} <= set(group.commands) for group in plan.groups
        )

    def test_engine_limits_reach_the_dependence_analysis(self, monkeypatch):
        from repro.analysis import deps
        from repro.analysis.batch import BatchConfig
        from repro.analysis.optimize import build_plan

        seen = []

        class Recording(deps.Engine):
            def __init__(self, **kwargs):
                seen.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(deps, "Engine", Recording)
        build_plan(
            "echo a > /x\n",
            BatchConfig(max_fork=7, max_loop=3, prune=False),
        )
        assert seen and all(
            (kw["max_fork"], kw["max_loop"], kw["prune"]) == (7, 3, False)
            for kw in seen
        )


class TestOperandIdentityAcrossClauses:
    """A spec command's path operand names one fs node on every clause
    branch.  ``mkdir /f`` succeeding makes ``cat /f`` contradict (no
    read on that path); the dependence shows only because the branch
    where ``mkdir`` failed reads the same node the other branch wrote."""

    def _edges(self, source):
        return [(d.src, d.dst, d.kind) for d in analyze_dependencies(source).dependencies]

    def test_read_after_mkdir_of_the_same_path(self):
        assert (0, 1, "flow") in self._edges("mkdir /f\ncat /f\n")

    def test_redirect_after_mkdir_of_the_same_path(self):
        assert (0, 1, "output") in self._edges("mkdir /f\necho x > /f\n")

    def test_symbolic_operand(self):
        assert (0, 1, "flow") in self._edges('mkdir "$1"\ncat "$1"\n')
