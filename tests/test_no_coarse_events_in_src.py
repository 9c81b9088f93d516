"""Every event the package publishes describes its change edge by edge.

``ViewEvent.coarse`` stays in the frozen wire format (schema v1), and
the decoding consumers refuse an event that sets it, but no module of
``src/repro`` makes one: nothing passes ``coarse=`` when it builds or
copies an event (``ViewEvent(...)``, ``cls(...)``,
``dataclasses.replace(...)``) and nothing assigns ``.coarse``.  The one
exception is the decoder, ``ViewEvent.from_dict`` in
``repro/views/events.py``, which reads the flag off the wire.  The scan
reads syntax trees, so a mention in a docstring or comment is fine.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BUILDERS = {"ViewEvent", "cls", "replace"}
ALLOWED = {("repro/views/events.py", "from_dict")}


def coarse_writes(source: str) -> list[tuple[int, str]]:
    """``(line, enclosing function)`` of every ``coarse=`` keyword given
    to an event builder and every assignment to ``.coarse``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in BUILDERS and any(
                keyword.arg == "coarse" for keyword in node.keywords
            ):
                found.append((node.lineno, function))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(target, ast.Attribute) and target.attr == "coarse"
                for target in targets
            ):
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_scan_finds_every_write():
    source = (
        "def publish(reason):\n"
        "    return ViewEvent(generation=1, coarse=True, reason=reason)\n"
        "def widen(event):\n"
        "    event.coarse = True\n"
        "    return dataclasses.replace(event, coarse=False)\n"
        "'''ViewEvent(coarse=True)'''  # ViewEvent(coarse=True)\n"
        "ok = ViewEvent(generation=2).coarse\n"
        "class E:\n"
        "    @classmethod\n"
        "    def from_dict(cls, payload):\n"
        "        return cls(coarse=payload['coarse'])\n"
    )
    assert coarse_writes(source) == [
        (2, "publish"), (4, "widen"), (5, "widen"), (11, "from_dict"),
    ]


def test_only_the_decoder_sets_coarse():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = []
    decoders = []
    for path in modules:
        name = path.relative_to(SRC.parent).as_posix()
        for line, function in coarse_writes(path.read_text(encoding="utf-8")):
            if (name, function) in ALLOWED:
                decoders.append(name)
            else:
                offenders.append(f"{name}:{line} (in {function or 'module'})")
    assert not offenders, offenders
    assert decoders == ["repro/views/events.py"]  # the exception is still live
