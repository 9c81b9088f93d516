"""One function per paper artifact: Fig. 10(b), Fig. 11(a)–(h), Table 1
and the ablations A-1–A-5.

Each function is pure measurement: it builds its dataset(s), runs the
workload, and returns structured rows; ``print_report=True`` renders the
paper-shaped table.  Absolute numbers are environment-bound; the *shape*
(linearity, class ordering, crossovers) is what the ``benchmarks/test_*``
modules assert against the paper.
"""

from __future__ import annotations

import time
from typing import Sequence

from benchmarks.paper.harness import PhaseAccumulator, format_table
from repro.atg.publisher import publish_tree
from repro.baselines.minimal import (
    minimal_deletion_exact,
    minimal_deletion_greedy,
)
from repro.baselines.naive_reach import squaring_reachability
from repro.baselines.recompute import recompute_structures
from repro.baselines.set_index import SetReachabilityIndex
from repro.core.maintenance import load_structures
from repro.index import BitsetReachabilityIndex
from repro.ops import DeleteOp, InsertOp
from repro.service import ViewConfig, ViewService, open_view
from repro.relview.delete import expand_view_deletions, translate_deletions
from repro.workloads.queries import make_workload
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xmltree.tree import tree_size
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree

DEFAULT_SIZES = (300, 1000, 3000)
CLASSES = ("W1", "W2", "W3")


def _updater_for(n_c: int, seed: int = 42) -> tuple[ViewService, object]:
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(
            side_effects="propagate",
            strict=False,
        ),
    )
    return service, dataset


# ---------------------------------------------------------------------------
# Fig. 10(b): dataset statistics
# ---------------------------------------------------------------------------


def fig10b_dataset_stats(
    sizes: Sequence[int] = DEFAULT_SIZES, print_report: bool = True
) -> list[dict]:
    """#C subtrees vs DAG size, |M|, |L|, sharing rate per |C|."""
    rows = []
    for n_c in sizes:
        updater, dataset = _updater_for(n_c)
        store = updater.store
        cnodes = [n for n in store.nodes() if store.type_of(n) == "cnode"]
        shared = sum(1 for n in cnodes if store.in_degree(n) > 1)
        tree_nodes = None
        if n_c <= 300:
            try:
                tree_nodes = tree_size(
                    publish_tree(dataset.atg, dataset.db, max_nodes=2_000_000)
                )
            except Exception:
                tree_nodes = None
        rows.append(
            {
                "C": n_c,
                "published_c": len(cnodes),
                "dag_nodes": store.num_nodes,
                "dag_edges": store.num_edges,
                "tree_nodes": tree_nodes,
                "shared_c_pct": 100.0 * shared / max(1, len(cnodes)),
                "M_pairs": len(updater.reach),
                "L_len": len(updater.topo),
            }
        )
    if print_report:
        print(
            format_table(
                ["|C|", "#C-nodes", "DAG nodes", "DAG edges", "tree nodes",
                 "shared C %", "|M|", "|L|"],
                [
                    [r["C"], r["published_c"], r["dag_nodes"], r["dag_edges"],
                     r["tree_nodes"] if r["tree_nodes"] is not None else "-",
                     round(r["shared_c_pct"], 1), r["M_pairs"], r["L_len"]]
                    for r in rows
                ],
                title="Fig. 10(b): dataset statistics",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 11(a)-(f): update performance vs database size
# ---------------------------------------------------------------------------


def fig11_series(
    kind: str,
    classes: Sequence[str] = CLASSES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    ops_per_class: int = 10,
    print_report: bool = True,
) -> list[dict]:
    """Fig. 11(a)-(c) (kind='delete') / (d)-(f) (kind='insert').

    Per (class, |C|): summed phase times over the class's operations,
    broken into (a) XPath evaluation, (b) translation+execution,
    (c) maintenance — the paper's three constituents.
    """
    rows = []
    for cls in classes:
        for n_c in sizes:
            updater, dataset = _updater_for(n_c)
            ops = make_workload(dataset, kind, cls, count=ops_per_class)
            acc = PhaseAccumulator()
            for op in ops:
                acc.add(updater.apply(op))
            row = {"class": cls, "C": n_c, "kind": kind, **acc.as_row()}
            rows.append(row)
    if print_report:
        label = "deletion" if kind == "delete" else "insertion"
        print(
            format_table(
                ["class", "|C|", "(a) xpath", "(b) translate", "(c) maintain",
                 "total", "ops", "accepted"],
                [
                    [r["class"], r["C"], r["xpath_s"], r["translate_s"],
                     r["maintain_s"], r["total_s"], r["ops"], r["accepted"]]
                    for r in rows
                ],
                title=f"Fig. 11 ({label}s): runtime vs |C| per workload class",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 11(g): varying |r[[p]]| / |Ep(r)|
# ---------------------------------------------------------------------------


def fig11g_vary_selectivity(
    n_c: int = 1000,
    fanouts: Sequence[int] = (1, 2, 4, 8),
    print_report: bool = True,
) -> list[dict]:
    """Runtime as the number of selected nodes grows, fixed |C| and ST.

    Deletions: |Ep(r)| grows; insertions: |r[[p]]| grows.  The paths use
    a disjunctive filter matching ``fanout`` distinct keys.
    """
    rows = []
    for kind in ("delete", "insert"):
        for fanout in fanouts:
            updater, dataset = _updater_for(n_c)
            if kind == "delete":
                # A shared cnode with ≥ fanout parents: deleting it from
                # //sub yields |Ep(r)| ≈ its in-degree.
                key = _key_with_indegree(updater, fanout)
                if key is None:
                    continue
                path = f"//sub/cnode[key={key}]"
                outcome = updater.apply(DeleteOp(path))
                selected = outcome.stats.get("ep_edges", 0)
            else:
                keys = _keys_with_children(updater, dataset, fanout)
                if len(keys) < fanout:
                    continue
                filt = " or ".join(f"key={k}" for k in keys[:fanout])
                child_key = _existing_key(dataset)
                row_c = dataset.db.table("C").get((child_key,))
                path = f"//cnode[{filt}]/sub"
                outcome = updater.apply(
                    InsertOp(path, "cnode", (child_key, row_c[4]))
                )
                selected = len(outcome.targets)
            acc = PhaseAccumulator()
            acc.add(outcome)
            rows.append(
                {
                    "kind": kind,
                    "fanout": fanout,
                    "selected": selected,
                    "accepted": outcome.accepted,
                    **acc.as_row(),
                }
            )
    if print_report:
        print(
            format_table(
                ["kind", "fanout", "|r[[p]]|", "xpath", "translate",
                 "maintain", "ok"],
                [
                    [r["kind"], r["fanout"], r["selected"], r["xpath_s"],
                     r["translate_s"], r["maintain_s"], r["accepted"]]
                    for r in rows
                ],
                title="Fig. 11(g): varying |r[[p]]| / |Ep(r)| at fixed |C|",
            )
        )
    return rows


def _keys_with_children(updater, dataset, want: int) -> list[int]:
    """Keys of published cnodes that have sub-children, layer-0 first."""
    store = updater.store
    out = []
    for node in sorted(store.nodes()):
        if store.type_of(node) != "sub":
            continue
        if store.children_of(node):
            out.append(store.sem_of(node)[0])
        if len(out) >= want * 3:
            break
    return out


def _key_with_indegree(updater, want: int) -> int | None:
    """Key of a published cnode with at least ``want`` sub-parents.

    Falls back to the highest-in-degree cnode when no node reaches the
    requested fan-in.
    """
    store = updater.store
    candidates: list[tuple[int, int]] = []  # (degree, key)
    for node in sorted(store.nodes()):
        if store.type_of(node) != "cnode":
            continue
        degree = sum(
            1 for p in store.parents_of(node) if store.type_of(p) == "sub"
        )
        if degree >= 1:
            candidates.append((degree, store.sem_of(node)[0]))
    if not candidates:
        return None
    # Exact fan-in when available, else the closest from above, else the
    # largest available.
    exact = [k for d, k in candidates if d == want]
    if exact:
        return exact[0]
    above = sorted((d, k) for d, k in candidates if d > want)
    if above:
        return above[0][1]
    return max(candidates)[1]


def _existing_key(dataset) -> int:
    """A bottom-layer (leaf) key: tiny ST(A,t), no cycle risk."""
    return max(dataset.passing)


# ---------------------------------------------------------------------------
# Fig. 11(h): varying |ST(A, t)|
# ---------------------------------------------------------------------------


def _stored_subtree_size(store, root: int) -> tuple[int, int]:
    """|N_A| and |E_A| of the subtree DAG stored under ``root``."""
    nodes = {root} | store.descendants_of([root])
    return len(nodes), sum(len(store.children_of(n)) for n in nodes)


def fig11h_vary_subtree(
    n_c: int = 1000,
    print_report: bool = True,
    under_leaf: bool = False,
) -> list[dict]:
    """Runtime vs size of the inserted subtree, |r[[p]]| = |Ep(r)| = 1.

    Inserting an existing cnode whose subtree hangs deeper in the layer
    hierarchy yields progressively larger ``ST(A, t)`` — layer-7 nodes
    are leaves (small ST), layer-1 nodes root large subtree DAGs.

    The insertion point is one fixed ``sub``.  By default it is a
    layer-0 one, which already reaches every inserted cnode, so the
    insert adds no pair to ``M`` (``pairs_added``, the growth of |M|, is
    0) and Δ(M,L) has nothing to write.  ``under_leaf=True`` takes a
    leaf-layer ``sub`` that reaches none of them instead, so the insert
    adds ``anc*(target) × ST`` pairs.
    """
    rows = []
    updater, dataset = _updater_for(n_c)
    layers = dataset.config.layers
    store = updater.store
    by_layer: dict[int, list[int]] = {}
    for node in sorted(store.nodes()):
        if store.type_of(node) != "cnode":
            continue
        key = store.sem_of(node)[0]
        by_layer.setdefault(dataset.layer_of[key], []).append(key)
    inserted = {
        layer: by_layer[layer][0]
        for layer in range(layers - 1, 0, -1)
        if by_layer.get(layer)
    }
    inserted_nodes = [
        node for node in store.nodes()
        if store.type_of(node) == "cnode"
        and store.sem_of(node)[0] in inserted.values()
    ]
    target_key = None
    for node in sorted(store.nodes()):
        if store.type_of(node) != "sub":
            continue
        key = store.sem_of(node)[0]
        if not under_leaf:
            if dataset.layer_of[key] == 0:
                target_key = key
                break
        elif dataset.layer_of[key] == layers - 1 and not any(
            node == n or updater.reach.is_ancestor(n, node)
            for n in inserted_nodes
        ):
            target_key = key
            break
    assert target_key is not None
    path = f"{'//' if under_leaf else ''}cnode[key={target_key}]/sub"
    for layer, key in inserted.items():
        sem = (key, dataset.db.table("C").get((key,))[4])
        updater_fresh, dataset_fresh = _updater_for(n_c)
        pairs_before = len(updater_fresh.reach)
        # |ST| is the stored subtree under the inserted cnode, walked
        # here outside the timed op: the insert itself never walks it.
        st_nodes, st_edges = _stored_subtree_size(
            updater_fresh.store, updater_fresh.store.lookup("cnode", sem)
        )
        outcome = updater_fresh.apply(InsertOp(path, "cnode", sem))
        acc = PhaseAccumulator()
        acc.add(outcome)
        rows.append(
            {
                "layer": layer,
                "st_nodes": st_nodes,
                "st_edges": st_edges,
                "pairs_added": len(updater_fresh.reach) - pairs_before,
                "accepted": outcome.accepted,
                **acc.as_row(),
            }
        )
    if print_report:
        print(
            format_table(
                ["layer", "|ST| nodes", "|ST| edges", "ΔM pairs", "xpath",
                 "translate", "maintain", "ok"],
                [
                    [r["layer"], r["st_nodes"], r["st_edges"],
                     r["pairs_added"], r["xpath_s"], r["translate_s"],
                     r["maintain_s"], r["accepted"]]
                    for r in rows
                ],
                title="Fig. 11(h): varying |ST(A,t)| at |r[[p]]|=1",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table 1: incremental maintenance vs recomputation
# ---------------------------------------------------------------------------


def table1_incremental_vs_recompute(
    sizes: Sequence[int] = DEFAULT_SIZES,
    ops: int = 5,
    print_report: bool = True,
) -> list[dict]:
    """Maintenance seconds (incremental insert / delete) vs recompute."""
    rows = []
    for n_c in sizes:
        updater, dataset = _updater_for(n_c)
        ins = make_workload(dataset, "insert", "W2", count=ops)
        inc_insert = 0.0
        for op in ins:
            outcome = updater.apply(op)
            inc_insert += outcome.timings.get("maintain", 0.0)
        dels = make_workload(dataset, "delete", "W2", count=ops)
        inc_delete = 0.0
        for op in dels:
            outcome = updater.apply(op)
            inc_delete += outcome.timings.get("maintain", 0.0)
        timings = recompute_structures(updater.store)
        rows.append(
            {
                "C": n_c,
                "incremental_insert_s": inc_insert,
                "incremental_delete_s": inc_delete,
                "recompute_L_s": timings.topo_seconds * ops,
                "recompute_M_s": timings.reach_seconds * ops,
            }
        )
    if print_report:
        print(
            format_table(
                ["|C|", "incr insert", "incr delete", "recompute L",
                 "recompute M"],
                [
                    [r["C"], r["incremental_insert_s"],
                     r["incremental_delete_s"], r["recompute_L_s"],
                     r["recompute_M_s"]]
                    for r in rows
                ],
                title=f"Table 1: incremental vs recomputation ({ops} ops)",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def ablation_reach(
    sizes: Sequence[int] = (300, 1000), print_report: bool = True
) -> list[dict]:
    """A-1: Algorithm Reach vs semi-naive transitive closure."""
    rows = []
    for n_c in sizes:
        updater, _ = _updater_for(n_c)
        store = updater.store
        t0 = time.perf_counter()
        _, reach = load_structures(store)
        t1 = time.perf_counter()
        squared = squaring_reachability(store)
        t2 = time.perf_counter()
        assert reach.equals(squared)
        rows.append(
            {
                "C": n_c,
                "reach_s": t1 - t0,
                "squaring_s": t2 - t1,
                "pairs": len(reach),
            }
        )
    if print_report:
        print(
            format_table(
                ["|C|", "Reach (s)", "semi-naive (s)", "|M|"],
                [[r["C"], r["reach_s"], r["squaring_s"], r["pairs"]] for r in rows],
                title="A-1: Algorithm Reach vs semi-naive closure",
            )
        )
    return rows


def ablation_index_backends(
    sizes: Sequence[int] = (300, 1000), print_report: bool = True
) -> list[dict]:
    """A-5: Algorithm Reach on the index and on its set-based reference.

    Per |C| and class: build time and the resulting |M| (identical by
    construction — the lockstep tests enforce it).  The end-to-end
    comparison that settled the choice is in ``docs/index-backends.md``.
    """
    rows = []
    for n_c in sizes:
        updater, _ = _updater_for(n_c)
        for cls in (BitsetReachabilityIndex, SetReachabilityIndex):
            reach = cls()
            t0 = time.perf_counter()
            reach.recompute(updater.store, updater.topo)
            t1 = time.perf_counter()
            rows.append(
                {
                    "C": n_c,
                    "index": cls.__name__,
                    "reach_s": t1 - t0,
                    "pairs": len(reach),
                }
            )
    if print_report:
        print(
            format_table(
                ["|C|", "index", "Reach (s)", "|M|"],
                [[r["C"], r["index"], r["reach_s"], r["pairs"]] for r in rows],
                title="A-5: the reachability index and its reference",
            )
        )
    return rows


def ablation_dag_vs_tree(
    sizes: Sequence[int] = (100, 300, 1000),
    path: str = "//cnode[key=7]//cnode",
    print_report: bool = True,
) -> list[dict]:
    """A-2: DAG evaluation vs uncompressed-tree evaluation."""
    rows = []
    for n_c in sizes:
        updater, dataset = _updater_for(n_c)
        t0 = time.perf_counter()
        dag_result = updater.xpath(path)
        t1 = time.perf_counter()
        try:
            tree = publish_tree(dataset.atg, dataset.db, max_nodes=2_000_000)
            t2 = time.perf_counter()
            tree_nodes = evaluate_on_tree(parse_xpath(path), tree)
            t3 = time.perf_counter()
            tree_size_val: object = tree_size(tree)
            tree_publish = t2 - t1
            tree_eval = t3 - t2
            tree_hits = len(tree_nodes)
        except Exception:
            # The unfolded tree blew past the node budget: the paper's
            # "at times even exponentially smaller" claim in action.
            tree_size_val = ">2M (blowup)"
            tree_publish = float("nan")
            tree_eval = float("nan")
            tree_hits = -1
        rows.append(
            {
                "C": n_c,
                "dag_nodes": updater.store.num_nodes,
                "tree_nodes": tree_size_val,
                "dag_eval_s": t1 - t0,
                "tree_publish_s": tree_publish,
                "tree_eval_s": tree_eval,
                "dag_hits": len(dag_result.targets),
                "tree_hits": tree_hits,
            }
        )
    if print_report:
        print(
            format_table(
                ["|C|", "DAG nodes", "tree nodes", "DAG eval", "tree eval",
                 "tree publish"],
                [
                    [r["C"], r["dag_nodes"], r["tree_nodes"], r["dag_eval_s"],
                     r["tree_eval_s"], r["tree_publish_s"]]
                    for r in rows
                ],
                title="A-2: DAG vs uncompressed tree",
            )
        )
    return rows


def ablation_chain_depth(
    depths: Sequence[int] = (50, 150, 300), print_report: bool = True
) -> list[dict]:
    """A-4: sensitivity to recursion depth (prerequisite chains)."""
    from repro.workloads.chains import build_chain

    rows = []
    for depth in depths:
        atg, db = build_chain(depth=depth, students=1)
        t0 = time.perf_counter()
        updater = open_view(
            atg, db,
            config=ViewConfig(side_effects="propagate", strict=False),
        )
        t1 = time.perf_counter()
        result = updater.xpath(f"//course[cno=K{depth - 1:04d}]")
        t2 = time.perf_counter()
        outcome = updater.apply(DeleteOp(
            f"//course[cno=K{max(0, depth - 2):04d}]//student[ssn=T000]"
        ))
        rows.append(
            {
                "depth": depth,
                "build_s": t1 - t0,
                "deep_query_s": t2 - t1,
                "deep_update_s": outcome.total_time,
                "M_pairs": len(updater.reach),
                "hit": len(result.targets),
            }
        )
    if print_report:
        print(
            format_table(
                ["depth", "build (s)", "deep query (s)", "deep update (s)",
                 "|M|"],
                [
                    [r["depth"], r["build_s"], r["deep_query_s"],
                     r["deep_update_s"], r["M_pairs"]]
                    for r in rows
                ],
                title="A-4: recursion-depth sensitivity (chains)",
            )
        )
    return rows


def ablation_minimal_delete(
    n_c: int = 300, ops: int = 5, print_report: bool = True
) -> list[dict]:
    """A-3: Algorithm delete vs minimal deletion (greedy and exact)."""
    updater, dataset = _updater_for(n_c)
    dels = make_workload(dataset, "delete", "W2", count=ops)
    rows = []
    for op in dels:
        # Ep(r) is an update's: the paper-level evaluation computes it.
        result = updater.updater.evaluate_xpath(op.path)
        if not result.targets:
            continue
        from repro.core.translate import xdelete

        delta_v = xdelete(updater.store, result)
        deletions = expand_view_deletions(
            updater.registry, updater.store, updater.db, delta_v
        )
        t0 = time.perf_counter()
        plan = translate_deletions(updater.registry, updater.db, deletions)
        t1 = time.perf_counter()
        greedy = minimal_deletion_greedy(updater.registry, updater.db, deletions)
        t2 = time.perf_counter()
        try:
            exact = minimal_deletion_exact(
                updater.registry, updater.db, deletions
            )
            exact_n = len(exact) if exact is not None else -1
        except ValueError:
            exact = None
            exact_n = -1
        t3 = time.perf_counter()
        rows.append(
            {
                "path": op.path,
                "algorithm_delete_n": len(plan.delta_r),
                "greedy_n": len(greedy) if greedy is not None else -1,
                "exact_n": exact_n,
                "algorithm_delete_s": t1 - t0,
                "greedy_s": t2 - t1,
                "exact_s": t3 - t2,
            }
        )
    if print_report:
        print(
            format_table(
                ["|ΔR| alg.delete", "|ΔR| greedy", "|ΔR| exact",
                 "alg (s)", "greedy (s)", "exact (s)"],
                [
                    [r["algorithm_delete_n"], r["greedy_n"], r["exact_n"],
                     r["algorithm_delete_s"], r["greedy_s"], r["exact_s"]]
                    for r in rows
                ],
                title="A-3: Algorithm delete vs minimal deletion",
            )
        )
    return rows
