"""Known-answer checks for reports and plans (see known_answers.json)."""

from __future__ import annotations

import json
import os
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def load_answers() -> Dict[str, dict]:
    with open(os.path.join(HERE, "known_answers.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)["files"]


def report_problems(answer: dict, report) -> List[str]:
    """Why ``report`` disagrees with its known answer (empty if it
    agrees).  A degraded or internal-error report always disagrees."""
    problems = []
    if report.degraded:
        problems.append("report is degraded")
    if "unsafe" in answer and report.unsafe != answer["unsafe"]:
        problems.append(f"unsafe={report.unsafe}, expected {answer['unsafe']}")
    for code, modality in answer["must"]:
        always = modality == "always"
        if not any(d.code == code and d.always == always for d in report.diagnostics):
            problems.append(f"missing {code} ({modality})")
    for code in answer["must_not"]:
        if report.has(code):
            problems.append(f"unexpected {code}")
    return problems


def plan_problems(answer: dict, plan) -> List[str]:
    """Why ``plan`` disagrees with the intent recorded for its script."""
    problems = []
    if plan.degraded:
        problems.append(f"plan is degraded: {plan.degraded_reason}")
    expected = answer.get("plan", {})
    verified = [sorted(group.commands) for group in plan.groups if group.verified]
    for group in expected.get("groups", ()):
        if sorted(group) not in verified:
            problems.append(f"no verified &-group {group}")
    classes = {
        stage.text: stage.klass
        for pipeline in plan.pipelines
        for stage in pipeline.stages
    }
    for text, cls in expected.get("stage_classes", {}).items():
        if classes.get(text) != cls:
            problems.append(f"stage {text!r} is {classes.get(text)}, expected {cls}")
    edges = {
        (plan.commands[dep["src"]], plan.commands[dep["dst"]])
        for dep in plan.dependencies
        if dep["kind"] == "flow"
    }
    for src, dst in expected.get("flow_edges", ()):
        if (src, dst) not in edges:
            problems.append(f"no flow dependence {src} -> {dst}")
    return problems
