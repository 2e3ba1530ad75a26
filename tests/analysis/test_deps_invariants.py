"""Invariants that let the dependence analysis run its engine without
checkers: checkers only observe states, so dropping them changes no
event, no node identity, no dependence edge and no plan byte.

Symbolic variable ids and fs node ids come from process-global
counters, so every comparison renumbers them in first-appearance order.
"""

import glob
import os
import re

import pytest

from repro.analysis.deps import (
    CommandEffects,
    DependencyGraph,
    _READS,
    _WRITES,
    _assigned_functions,
    _derive_dependencies,
    _is_builtin_name,
    _render_command,
    _vars_of,
    analyze_dependencies,
)
from repro.analysis.difftest.gen import generate
from repro.analysis.optimize import advisor, build_plan
from repro.checkers import default_checkers
from repro.shell import parse
from repro.shell.ast import Sequence as SeqNode, SimpleCommand, walk
from repro.symex import Engine
from repro.symex.engine import _assigned_names

from ..symex.test_paper_examples import FIG1, FIG2, FIG3, FIG5

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "scripts")


def _inputs():
    inputs = {}
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.sh"))):
        with open(path, encoding="utf-8") as handle:
            inputs[os.path.basename(path)] = handle.read()
    inputs.update(FIG1=FIG1, FIG2=FIG2, FIG3=FIG3, FIG5=FIG5)
    # safe seed 20: an idempotence guard that allocated fs nodes in the
    # state it observed changed node identity, and with it a deps edge
    for seed, safe in ((20, True), (14, True), (1, True), (0, False)):
        inputs[f"gen-{seed}-{'safe' if safe else 'unsafe'}"] = generate(
            seed, safe=safe
        )
    return inputs


INPUTS = _inputs()


class _Renumber:
    """First-appearance renumbering of node ids and ``<vN>`` roots."""

    def __init__(self):
        self.nodes = {}
        self.vids = {}

    def node(self, node_id):
        if node_id is None:
            return None
        return self.nodes.setdefault(node_id, len(self.nodes))

    def path(self, path):
        def repl(match):
            if match.group(1) == "-1":  # the unknown-cwd root is fixed
                return match.group(0)
            return f"<v{self.vids.setdefault(match.group(1), len(self.vids))}>"

        return re.sub(r"<v(-?\d+)>", repl, path or "")


def _event_logs(source, checkers):
    result = Engine(checkers=checkers).run(parse(source))
    renumber = _Renumber()
    return [
        [
            (event.op.name, renumber.path(event.path), renumber.node(event.node))
            for event in state.fs.log
        ]
        for state in result.states
    ]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_checkers_do_not_change_events_or_node_identity(name):
    source = INPUTS[name]
    assert _event_logs(source, default_checkers()) == _event_logs(source, [])


def _per_state_dependencies(source, n_args=0, budget=None, **_config):
    """The dependence analysis as it ran with the full checker catalog:
    the same per-state loop, default checkers, its own parses."""
    ast = parse(source)
    commands = list(ast.commands) if isinstance(ast, SeqNode) else [ast]
    engine = Engine(checkers=default_checkers())
    engine.script_assigned = _assigned_names(ast)
    states = [engine.initial_state(n_args=n_args)]
    effects = []
    for index, command in enumerate(commands):
        uses, defs = _vars_of(command)
        effect = CommandEffects(
            index=index,
            source=_render_command(command, source),
            var_uses=uses,
            var_defs=defs,
        )
        next_states = []
        for state in states:
            mark = len(state.fs.log)
            for result in engine.eval(command, state):
                for event in result.fs.log.since(mark):
                    if event.node is None:
                        continue
                    if event.op in _WRITES:
                        effect.writes.add(event.node)
                        parent = result.fs.nodes[event.node].parent
                        while parent is not None:
                            effect.reads.add(parent)
                            parent = result.fs.nodes[parent].parent
                    elif event.op in _READS:
                        effect.reads.add(event.node)
                next_states.append(result)
        effect.external = any(
            isinstance(sub, SimpleCommand)
            and sub.name is not None
            and engine.registry.get(sub.name) is None
            and not _is_builtin_name(sub.name)
            and sub.name not in _assigned_functions(parse(source))
            for sub in walk(command)
        )
        effects.append(effect)
        states = next_states[: engine.max_fork]
    return DependencyGraph(effects, _derive_dependencies(effects))


def _edges(graph):
    return [(dep.src, dep.dst, dep.kind) for dep in graph.dependencies]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_dependencies_match_the_per_state_loop_with_checkers(name):
    source = INPUTS[name]
    assert _edges(analyze_dependencies(source)) == _edges(
        _per_state_dependencies(source)
    )


@pytest.mark.parametrize(
    "name", sorted(name for name in INPUTS if not name.startswith("gen-"))
)
def test_plan_render_matches_the_per_state_loop_with_checkers(
    name, monkeypatch
):
    source = INPUTS[name]
    current = build_plan(source).render()
    monkeypatch.setattr(
        advisor, "analyze_dependencies", _per_state_dependencies
    )
    assert build_plan(source).render() == current

