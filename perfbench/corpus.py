"""The benchmark corpus and the seeded inputs built from it.

The corpus is ``examples/scripts/*.sh`` plus the paper's Figs 1, 2, 3
and 5 (the ``FIG*`` strings of ``benchmarks/conftest.py``).  The seed
only orders and edits these inputs; it never selects which scripts
run, so every seed measures the same work.
"""

from __future__ import annotations

import ast
import glob
import os
import random
from typing import Dict, List, Tuple

FIGURES = ("FIG1", "FIG2", "FIG3", "FIG5")


def _figures(root: str) -> Dict[str, str]:
    """The ``FIG*`` constants of ``benchmarks/conftest.py``, evaluated
    from the module's syntax tree (importing it would need pytest)."""
    path = os.path.join(root, "benchmarks", "conftest.py")
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    values: Dict[str, str] = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id.startswith("FIG")):
            continue
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            values[target.id] = value.value
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "replace"
            and isinstance(value.func.value, ast.Name)
        ):
            base = values[value.func.value.id]
            old, new = (ast.literal_eval(arg) for arg in value.args)
            values[target.id] = base.replace(old, new)
    missing = [name for name in FIGURES if name not in values]
    if missing:
        raise RuntimeError(f"{path}: missing figure(s) {', '.join(missing)}")
    return {name: values[name] for name in FIGURES}


def load_corpus(root: str) -> Dict[str, str]:
    """Corpus file name -> script text, in sorted name order."""
    scripts = sorted(glob.glob(os.path.join(root, "examples", "scripts", "*.sh")))
    if not scripts:
        raise RuntimeError(f"no example scripts under {root}/examples/scripts")
    corpus: Dict[str, str] = {}
    for path in scripts:
        with open(path, "r", encoding="utf-8") as handle:
            corpus[os.path.basename(path)] = handle.read()
    for name, text in _figures(root).items():
        corpus[name.lower() + ".sh"] = text
    return corpus


def write_corpus(corpus: Dict[str, str], directory: str) -> Dict[str, str]:
    """Write every corpus file into ``directory``; name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in corpus.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path
    return paths


def seeded_order(names: List[str], seed: int, salt: str) -> List[str]:
    order = sorted(names)
    random.Random(f"{seed}:{salt}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# watch-edit inputs
# ---------------------------------------------------------------------------

#: functions in the generated script; each body is one non-forking
#: grep|cut|sed|sort -g pipeline, so cold analysis stays linear in it
GEN_FUNCTIONS = 8
GEN_NAME = "pipeline_gen.sh"


def generated_script() -> str:
    parts = ["#!/bin/sh", "# generated: one non-forking pipeline per function"]
    for i in range(GEN_FUNCTIONS):
        parts.append(
            f"stage_{i}() {{\n"
            f"  grep 'key{i}=' /var/log/app{i}.log | cut -d= -f2 "
            f"| sed 's/^v0//' | sort -g > /srv/out/stage{i}.txt\n"
            f"}}"
        )
    parts.append("\n".join(f"stage_{i}" for i in range(GEN_FUNCTIONS)))
    return "\n".join(parts) + "\n"


def function_less(corpus: Dict[str, str]) -> Dict[str, str]:
    """The example scripts that define no shell function."""
    return {
        name: text
        for name, text in corpus.items()
        if not name.startswith("fig") and "() {" not in text
    }


#: the four edit kinds in every block of eight edits, run in a seeded
#: order, so the shares are exact: 1/2 generated-script same-line
#: edits, 1/4 generated-script line inserts, 1/8 each for the examples.  The median then lies in the
#: middle of the same-line edits (the ones fragment reuse exists for)
#: and the p90 in the middle of the inserts, never in the gap between
#: two kinds.  The edited function, insertion point and example file
#: cycle the same way.
EDIT_BLOCK = (
    ("gen-same-line",) * 4 + ("gen-insert-line",) * 2 + ("ex-same-line", "ex-insert-line")
)


class EditPlan:
    """The seeded sequence of edits applied to the watched directory.

    Edits are cumulative (each one changes the file's current text) and
    every edited text is new, so the daemon never sees a text twice.

    - *same-line* edits change one literal without moving any line:
      the ``sed 's/^vN//'`` literal of one function of the generated
      script, or the revision tag on an example's header comment line;
    - *line-inserting* edits add a comment line: before one function
      of the generated script (every later fragment moves), or inside
      an example's header comment block.
    """

    def __init__(self, texts: Dict[str, str], seed: int):
        self.texts = dict(texts)
        self.rng = random.Random(f"{seed}:edits")
        self.examples = sorted(name for name in texts if name != GEN_NAME)
        self.revision = 0
        self._cycles: Dict[str, List] = {}

    def _cycle(self, key: str, items: List):
        """The next item of a seeded permutation of ``items``, refilled
        when exhausted: every item comes up equally often, so the work
        per edit has the same distribution under every seed."""
        pending = self._cycles.get(key)
        if not pending:
            pending = self._cycles[key] = list(items)
            self.rng.shuffle(pending)
        return pending.pop()

    def next(self) -> Tuple[str, str, str]:
        """(kind, file name, new text) of the next edit."""
        self.revision += 1
        rev = self.revision
        kind = self._cycle("kind", EDIT_BLOCK)
        if kind.startswith("gen"):
            name = GEN_NAME
            fn = self._cycle(kind, range(GEN_FUNCTIONS))
        else:
            name = self._cycle(kind, self.examples)
        lines = self.texts[name].split("\n")
        if kind == "gen-same-line":
            marker = f"key{fn}="
            for i, line in enumerate(lines):
                if marker in line and "sed 's/^v" in line:
                    head, tail = line.split("sed 's/^v", 1)
                    lines[i] = head + f"sed 's/^v{rev}" + tail[tail.index("//"):]
                    break
        elif kind == "gen-insert-line":
            at = lines.index(f"stage_{fn}() {{")
            lines.insert(at, f"# note {rev}")
        elif kind == "ex-same-line":
            at = _header_comment(lines)
            base = lines[at].split(" [rev ", 1)[0]
            lines[at] = f"{base} [rev {rev}]"
        else:
            at = _header_comment(lines)
            lines.insert(at + 1, f"# note {rev}")
        text = "\n".join(lines)
        self.texts[name] = text
        return kind, name, text


def _header_comment(lines: List[str]) -> int:
    """Index of the first comment line after the shebang."""
    for i, line in enumerate(lines[1:], start=1):
        if line.startswith("#"):
            return i
    raise ValueError("script has no header comment line")
