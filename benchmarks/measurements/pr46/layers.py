"""The layering scan of tests/test_layers.py over another checkout.

    python3 layers.py CHECKOUT

Prints the upward imports and module cycles of CHECKOUT/src/repro
against this tree's layer table, then the package-level strongly
connected components (the root package, which re-exports everything,
left out).
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path.insert(0, str(ROOT / "tests"))
import test_layers as layers  # noqa: E402

graph = layers.import_graph(Path(sys.argv[1]) / "src" / "repro")
print("upward imports:")
print("\n".join(layers.upward_imports(graph)) or "none")
print("module cycles:")
for component in layers.cycles(graph):
    print(len(component), "modules:", " ".join(component))


def package(module):
    return module.split(".")[1] if "." in module else "repro"


packages = {}
for module, edges in graph.items():
    if package(module) != "repro":
        packages.setdefault(package(module), []).extend(
            (line, package(target)) for line, target in edges
            if package(target) not in (package(module), "repro")
        )
print("package-level components:", layers.cycles(packages))
