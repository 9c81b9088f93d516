"""Every import in ``src/repro`` points down the paper's pipeline.

The paper's framework (Fig. 3) is a pipeline — validate → XPath on the
DAG → ΔX→ΔV → ΔV→ΔR → Δ(M,L) — and the package is layered along it.
:data:`LAYERS` declares one layer per module, bottom to top.  A module
may import its own layer and the layers below; an import of a higher
layer fails, one inside a function included (it runs, so it depends).
An ``if TYPE_CHECKING:`` block is excluded: it never runs.  A cycle
between modules fails too, even inside one layer.

The table is per module where a package straddles layers: ``atg.model``
sits under ``views`` (the store is typed by the ATG), ``atg.publisher``
beside it (publishing builds a store), and ``atg.incremental`` (§3.3's
reverse pipeline, which runs Δ(M,L)) in the ``core`` layer, at the path
``benchmarks/e2e/trace.py`` pins.  A name covers the module or package
it names and everything inside it, unless a longer name covers that.
The ``Layer map`` table of ``docs/architecture.md`` lists the same
layers.

The same graph decides what belongs in ``src/``: every module outside
``repro.baselines`` (the references tests compare against) has a
*product caller* — another such module, or a runnable file under
``examples/`` or ``scripts/`` — unless it is an entry point or listed
in :data:`NO_PRODUCT_CALLER` with its reason.  Code that only tests or
the paper's experiments (``benchmarks/paper``) run lives beside them.

The scan reads syntax trees, so it cannot see the order package
``__init__`` modules run in; CI imports every module first, in a fresh
interpreter, for that.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Bottom to top; names are relative to ``repro`` (``repro`` is the
#: package itself, ``__main__`` every ``python -m`` entry point).
LAYERS = (
    ("errors", "metrics", "_version"),
    ("relational",),
    ("xmltree", "ops"),
    ("xpath",),
    ("dtd",),
    ("atg.model",),
    ("views", "atg.publisher", "atg"),
    ("workloads",),
    ("sat",),
    ("relview",),
    ("index",),
    ("core", "atg.incremental"),
    ("subscribe", "changefeed"),
    ("wal",),
    ("replica",),
    ("service",),
    ("baselines",),
    ("bench", "apply", "repro", "__main__"),
)

_LAYER = {name: level for level, names in enumerate(LAYERS) for name in names}

#: Product modules with no product caller, each with the reason it stays.
NO_PRODUCT_CALLER = {
    "repro.core.explain": "only tests call it; ROADMAP item 5 gives it a "
    "caller or deletes it",
    "repro.sat.walksat": "benchmarks/e2e/trace.py pins walksat_solve at this "
    "path; tests' reference_solve runs the paper's solver through it",
    "repro.replica.snapshot": "benchmarks/e2e/trace.py patches Snapshot.capture "
    "at this path",
}

#: Where a caller outside ``src/repro`` counts: the runnable files.
CALLER_DIRS = ("examples", "scripts")


def module_name(path: Path, src: Path = SRC) -> str:
    """``repro.a.b`` for ``src/repro/a/b.py`` (a package by its ``__init__``)."""
    parts = list(path.relative_to(src.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module: str) -> int | None:
    """The declared layer of ``module`` (``None`` when undeclared)."""
    if module.endswith(".__main__"):
        return _LAYER["__main__"]
    if module == "repro":
        return _LAYER["repro"]
    parts = module.split(".")[1:]
    for end in range(len(parts), 0, -1):
        level = _LAYER.get(".".join(parts[:end]))
        if level is not None:
            return level
    return None


def _typing_only(tree: ast.AST) -> set[int]:
    """``id`` of every node inside an ``if TYPE_CHECKING:`` body."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for stmt in node.body:
                skip.update(id(inner) for inner in ast.walk(stmt))
    return skip


def imports_of(
    module: str, source: str, modules: set[str], package: bool = False
) -> list[tuple[int, str, str]]:
    """``(line, target, name)`` of every runtime import of a ``repro`` module.

    ``from P import x`` targets ``P.x`` when that is a module, else ``P``
    with ``name`` ``x``; every other import has ``name`` ``""``.
    Relative imports resolve against ``module`` (a package's ``__init__``
    when ``package``).
    """
    tree = ast.parse(source)
    skip = _typing_only(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            targets = [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module.split(".")
                anchor = anchor[: len(anchor) - node.level + package]
                base = ".".join(anchor + ([base] if base else []))
            targets = [
                (f"{base}.{alias.name}", "")
                if f"{base}.{alias.name}" in modules else (base, alias.name)
                for alias in node.names
            ]
        else:
            continue
        for target, name in targets:
            if target.split(".")[0] == "repro":
                found.append((node.lineno, target, name))
    return sorted(set(found))


def module_paths(src: Path = SRC) -> dict[str, Path]:
    """Every module of ``src`` → its file."""
    return {module_name(path, src): path for path in sorted(src.rglob("*.py"))}


def edges_of(
    module: str, path: Path, paths: dict[str, Path]
) -> list[tuple[int, str, str]]:
    """``(line, module, name)`` of the ``repro`` modules ``path`` imports."""
    edges = []
    for line, target, name in imports_of(
        module, path.read_text(encoding="utf-8"), set(paths),
        package=path.name == "__init__.py",
    ):
        while target not in paths:  # `import repro.x.name` of a non-module
            target, name = target.rpartition(".")[0], ""
        edges.append((line, target, name))
    return edges


def import_graph(src: Path = SRC) -> dict[str, list[tuple[int, str, str]]]:
    """Every module of ``src`` → ``(line, module, name)`` of its repro imports."""
    paths = module_paths(src)
    return {module: edges_of(module, path, paths) for module, path in paths.items()}


def upward_imports(graph) -> list[str]:
    """One line per import of a higher layer, or of an undeclared module."""
    found = []
    for module, edges in graph.items():
        if layer_of(module) is None:
            found.append(f"{module}: not in LAYERS")
        for line, target, *_ in edges:
            if (layer_of(target) or 0) > (layer_of(module) or 0):
                found.append(
                    f"{module}:{line} -> {target} (layer "
                    f"{layer_of(module)} imports layer {layer_of(target)})"
                )
    return found


def cycles(graph) -> list[list[str]]:
    """The strongly connected components with more than one module
    (or an import of itself), each sorted (Tarjan, iteratively)."""
    succ = {m: sorted({edge[1] for edge in edges}) for m, edges in graph.items()}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found = []
    for root in sorted(succ):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            child = next(children, None)
            if child is not None:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in succ[node]:
                    found.append(sorted(component))
    return sorted(found)


def only_reexports(source: str) -> bool:
    """Whether a module is nothing but a docstring, imports and ``__all__``."""
    return all(
        isinstance(stmt, (ast.Import, ast.ImportFrom))
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        or (
            isinstance(stmt, ast.Assign)
            and [ast.unparse(t) for t in stmt.targets] == ["__all__"]
        )
        for stmt in ast.parse(source).body
    )


def is_entry_point(module: str) -> bool:
    """``repro`` itself, ``python -m repro.apply`` and every ``__main__``."""
    return module in ("repro", "repro.apply") or module.endswith(".__main__")


def uncalled(graph, packages: set[str], silent: set[str], outside=None) -> list[str]:
    """The modules of ``graph`` outside ``repro.baselines`` nothing calls.

    A name imported from a package (one of ``packages``) resolves to
    the module its ``__init__`` took it from, through every re-export.
    ``silent`` are the packages whose ``__init__`` only re-exports: it
    calls nothing and holds nothing to call.  ``outside`` adds callers
    from outside ``src`` (the files of :data:`CALLER_DIRS`).  A module
    of ``repro.baselines`` is not a caller, and neither is a module of
    itself; entry points need no caller.
    """
    exported = {
        (package, name): target
        for package in packages
        for _, target, name in graph[package]
        if name
    }
    called = set()
    for caller, edges in [*graph.items(), *(outside or {}).items()]:
        if caller in silent or layer_of(caller) == _LAYER["baselines"]:
            continue
        for _, target, name in edges:
            while (target, name) in exported:
                target = exported[target, name]
            if target != caller:
                called.add(target)
    return sorted(
        module for module in graph
        if module not in called
        and module not in silent
        and not is_entry_point(module)
        and layer_of(module) != _LAYER["baselines"]
    )


def test_the_scan_resolves_every_import_form():
    modules = {"repro", "repro.sat", "repro.sat.encode", "repro.core", "repro.core.topo"}
    source = (
        "from typing import TYPE_CHECKING\n"
        "import os, repro.core.topo\n"
        "from repro.sat import encode, CNF\n"
        "from . import topo\n"
        "if TYPE_CHECKING:\n"
        "    from repro.index import build_index\n"
        "else:\n"
        "    import repro.errors\n"
        "def f():\n"
        "    from repro import __version__\n"
        "'''import repro.service'''  # import repro.service\n"
    )
    assert imports_of("repro.core.plan", source, modules) == [
        (2, "repro.core.topo", ""), (3, "repro.sat", "CNF"),
        (3, "repro.sat.encode", ""), (4, "repro.core.topo", ""),
        (8, "repro.errors", ""), (10, "repro", "__version__"),
    ]
    assert imports_of("repro.core", "from .topo import X", modules, package=True) == [
        (1, "repro.core.topo", "X")
    ]


def test_layer_of_takes_the_longest_declared_name():
    assert layer_of("repro.atg") < layer_of("repro.atg.incremental")
    assert layer_of("repro.atg.model") < layer_of("repro.atg.publisher")
    assert layer_of("repro.atg.incremental") == layer_of("repro.core.updater")
    assert layer_of("repro.replica.__main__") == layer_of("repro") == len(LAYERS) - 1
    assert layer_of("repro.nowhere") is None


def test_an_upward_or_undeclared_module_is_reported():
    graph = {
        "repro.sat.encode": [(32, "repro.relview.symbolic"), (33, "repro.sat.cnf")],
        "repro.nowhere": [],
    }
    assert upward_imports(graph) == [
        "repro.sat.encode:32 -> repro.relview.symbolic (layer 8 imports layer 9)",
        "repro.nowhere: not in LAYERS",
    ]


def test_cycles_finds_every_component():
    graph = {
        "a": [(1, "b")], "b": [(1, "c")], "c": [(1, "a")],
        "d": [(1, "d")], "e": [(1, "a")],
    }
    assert cycles(graph) == [["a", "b", "c"], ["d"]]


def test_a_caller_is_found_through_reexports():
    graph = {
        "repro.p": [(1, "repro.p.a", "f"), (2, "repro.p.b", "g")],
        "repro.p.a": [],
        "repro.p.b": [],
        "repro.q": [(1, "repro.p", "f")],
        "repro.baselines.r": [(1, "repro.p.b", "")],
        "repro.q.__main__": [],
    }
    # p only re-exports (not a caller of b); a baseline is no caller.
    assert uncalled(graph, {"repro.p"}, {"repro.p"}) == ["repro.p.b", "repro.q"]
    outside = {"examples/x.py": [(3, "repro.q", ""), (4, "repro.p", "g")]}
    assert uncalled(graph, {"repro.p"}, {"repro.p"}, outside) == []
    # A package with code of its own calls what it imports, and a name
    # it defines resolves to it.
    graph["repro.q"] = [(1, "repro.p", "h")]
    assert uncalled(graph, {"repro.p"}, set()) == ["repro.q"]


def test_only_reexports_reads_the_module_body():
    assert only_reexports('"""Doc."""\nfrom a import b\n__all__ = ["b"]\n')
    assert not only_reexports("from a import b\ndef f():\n    return b\n")


def test_every_product_module_has_a_product_caller():
    paths = module_paths()
    packages = {m for m, path in paths.items() if path.name == "__init__.py"}
    silent = {
        m for m in packages
        if only_reexports(paths[m].read_text(encoding="utf-8"))
    }
    outside = {
        path.relative_to(ROOT).as_posix(): edges_of(
            ".".join(path.relative_to(ROOT).with_suffix("").parts), path, paths
        )
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    found = uncalled(import_graph(), packages, silent, outside)
    assert found == sorted(NO_PRODUCT_CALLER), (
        "a module of src/repro with no product caller belongs beside its "
        "callers (tests, benchmarks/paper) or in NO_PRODUCT_CALLER with its "
        f"reason: {sorted(set(found) - set(NO_PRODUCT_CALLER))}; listed but "
        f"called: {sorted(set(NO_PRODUCT_CALLER) - set(found))}"
    )


def test_no_module_imports_a_higher_layer():
    graph = import_graph()
    assert len(graph) > 90
    found = upward_imports(graph)
    assert not found, "\n".join(found)


def test_no_module_level_cycle():
    found = cycles(import_graph())
    assert not found, "\n".join(" ".join(component) for component in found)


def test_the_architecture_doc_lists_the_same_layers():
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text.split("## Layer map", 1)[1].split("\n## ", 1)[0]
    rows = [
        line.split("|") for line in section.splitlines()
        if re.match(r"\| \d+ \|", line)
    ]
    documented = {int(row[1]): set(re.findall(r"`([\w.]+)`", row[2])) for row in rows}
    assert documented == {
        level: set(names) for level, names in enumerate(LAYERS)
    }
