"""In-process timings and work of reads with a ``//`` inside a filter.

    python3 filter_reads.py CHECKOUT [--sizes 300 1000 3000] [--best-of 7]

Runs against CHECKOUT's ``src/``.  For each ``synthetic:N`` (seed 42)
it publishes the view once, takes the first
``//cnode[key=A]//cnode[key=B]`` pair of ``make_query_set`` (count 16)
and evaluates four shapes with ``DagXPathEvaluator.evaluate`` at rest:
the three of the timing table and the work-bound shape.  Each row gives
the best of ``--best-of`` insert-mode evaluations (``gc.collect()``
first), the ``store.children_of`` calls one evaluation makes, |L|,
|desc-or-self(cnode A)|, and a digest of targets, ``Ep`` and ``S`` in
both modes, so two checkouts can be compared line by line.

Last, it prints ``S`` in delete mode for three paths ending in ``//``
on a hand-built view where every node has one parent (so every correct
``S`` is empty), with ``M`` and with ``reach=None``.
"""
import argparse
import gc
import hashlib
import pathlib
import re
import sys
from time import perf_counter
from types import SimpleNamespace

SHAPES = (
    "cnode[key={a} and .//key={b}]",
    "//cnode[.//key={b}]",
    "cnode/sub/cnode[sub//key={b}]",
    "//cnode[key={a}]//cnode[.//key={b}]",
)

TREE_DTD = """
<!ELEMENT root (cnode*)>
<!ELEMENT cnode (key, sub)>
<!ELEMENT sub (cnode*)>
<!ELEMENT key (#PCDATA)>
"""


def digest(evaluator, path):
    parts = []
    for mode in ("insert", "delete"):
        result = evaluator.evaluate(path, mode)
        parts.append((result.targets, result.ep, sorted(result.side_effects)))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:12]


def tree_store(ViewStore, parse_dtd):
    """root → 2 cnodes → sub → 2 cnodes → sub → 2 cnodes: no sharing."""
    store = ViewStore(SimpleNamespace(dtd=parse_dtd(TREE_DTD)))
    serial = iter(range(10**6))

    def child(parent, element, *sem):
        node = store.intern(element, (*sem, next(serial)))[0]
        store.add_edge(parent, node)
        return node

    def cnodes(parent, depth):
        for _ in range(2):
            node = child(parent, "cnode")
            child(node, "key", "1")
            if depth:
                cnodes(child(node, "sub"), depth - 1)

    store.root_id = store.intern("root", ())[0]
    cnodes(store.root_id, 2)
    return store


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--sizes", type=int, nargs="+", default=[300, 1000, 3000])
    parser.add_argument("--best-of", type=int, default=7)
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from repro.atg.publisher import publish_store
    from repro.core.dag_eval import DagXPathEvaluator
    from repro.core.topo import TopoOrder
    from repro.dtd.parser import parse_dtd
    from repro.index import build_index
    from repro.views.store import ViewStore
    from repro.workloads.queries import make_query_set
    from repro.workloads.synthetic import SyntheticConfig, build_synthetic
    from repro.xpath.parser import parse_xpath

    print(f"checkout {checkout}")
    print("shape | N | ms (best) | children_of | |L| | |desc-or-self(A)| | digest")
    for size in args.sizes:
        dataset = build_synthetic(SyntheticConfig(n_c=size, seed=42))
        store = publish_store(dataset.atg, dataset.db)
        topo = TopoOrder.from_store(store)
        evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
        a, b = next(
            re.findall(r"key=(\d+)", query)
            for query in make_query_set(dataset, count=16)
            if re.fullmatch(r"//cnode\[key=\d+\]//cnode\[key=\d+\]", query)
        )
        anchors = evaluator.evaluate(parse_xpath(f"//cnode[key={a}]")).targets
        region = set(anchors) | store.descendants_of(anchors)
        for shape in SHAPES:
            path = parse_xpath(shape.format(a=a, b=b))
            best = float("inf")
            for _ in range(args.best_of):
                gc.collect()
                start = perf_counter()
                evaluator.evaluate(path)
                best = min(best, perf_counter() - start)
            calls = []
            children_of = store.children_of
            store.children_of = lambda node: calls.append(node) or children_of(node)
            evaluator.evaluate(path)
            store.children_of = children_of
            print(
                f"{shape} | {size} | {best * 1e3:.3f} | {len(calls)} | "
                f"{len(topo)} | {len(region)} | {digest(evaluator, path)}"
            )

    store = tree_store(ViewStore, parse_dtd)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    print("no sharing, delete mode: path | S with M | S with reach=None")
    for text in ("cnode/sub//", "//sub//", "cnode[sub]/sub//"):
        path = parse_xpath(text)
        found = [
            sorted(DagXPathEvaluator(store, topo, index).evaluate(path, "delete").side_effects)
            for index in (reach, None)
        ]
        print(f"{text} | {found[0]} | {found[1]}")


if __name__ == "__main__":
    main()
