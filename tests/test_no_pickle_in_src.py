"""No module of the package can deserialize code: ``src/repro`` imports
none of ``pickle``, ``marshal`` or ``shelve``.

Every byte the library writes to disk and reads back (snapshots, WAL
checkpoints, segments, the manifest) is JSON, so a hostile file can at
worst fail to decode.  The scan reads each module's syntax tree, so a
mention in a docstring or comment is fine and an import anywhere — top
level, inside a function, ``from pickle import loads``,
``__import__("pickle")`` — is not.
"""

from __future__ import annotations

import ast
from pathlib import Path

FORBIDDEN = {"pickle", "marshal", "shelve"}
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def forbidden_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` of every import of a forbidden module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif (  # __import__("pickle"), importlib.import_module("pickle")
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("__import__", "import_module")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names = [str(node.args[0].value)]
        else:
            continue
        for name in names:
            if name.split(".")[0] in FORBIDDEN:
                found.append((node.lineno, name))
    return sorted(found)


def test_the_scan_finds_every_import_form():
    source = (
        "import os, pickle\n"
        "def f():\n"
        "    from marshal import loads\n"
        "import shelve as s\n"
        "'''import pickle'''  # import pickle\n"
        "loads = __import__('pickle').loads\n"
        "importlib.import_module('marshal')\n"
    )
    assert forbidden_imports(source) == [
        (1, "pickle"), (3, "marshal"), (4, "shelve"), (6, "pickle"),
        (7, "marshal"),
    ]


def test_src_imports_no_pickle_marshal_or_shelve():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in forbidden_imports(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders
