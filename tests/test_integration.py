"""Integration tests: long mixed update sequences on the synthetic data,
cross-module consistency, and the baselines."""

import random

from repro.atg.publisher import publish_tree
from repro.baselines.naive_reach import squaring_reachability
from repro.baselines.recompute import recompute_structures
from repro.core.updater import XMLViewUpdater
from repro.workloads.queries import make_workload
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xmltree.tree import tree_size
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree
from repro.ops import DeleteOp, InsertOp


class TestMixedSequences:
    def test_long_mixed_sequence(self, synthetic_updater):
        updater, dataset = synthetic_updater
        rng = random.Random(99)
        accepted = 0
        for i in range(60):
            subs = [
                n
                for n in updater.store.nodes()
                if updater.store.type_of(n) == "sub"
                and updater.store.children_of(n)
            ]
            if rng.random() < 0.5 and subs:
                sub = rng.choice(subs)
                parent_key = updater.store.sem_of(sub)[0]
                child = rng.choice(updater.store.children_of(sub))
                child_key = updater.store.sem_of(child)[0]
                out = updater.apply_op(DeleteOp(
                    f"//cnode[key={parent_key}]/sub/cnode[key={child_key}]"
                ))
            else:
                all_subs = [
                    n
                    for n in updater.store.nodes()
                    if updater.store.type_of(n) == "sub"
                ]
                parent_key = updater.store.sem_of(rng.choice(all_subs))[0]
                row = None
                while row is None:
                    key = rng.randrange(1, dataset.config.n_c + 1)
                    row = dataset.db.table("C").get((key,))
                out = updater.apply_op(InsertOp(
                    f"//cnode[key={parent_key}]/sub", "cnode", (key, row[4])
                ))
            accepted += out.accepted
        assert accepted > 10
        assert updater.check_consistency() == []

    def test_workload_classes_end_to_end(self, synthetic_updater):
        updater, dataset = synthetic_updater
        for cls in ("W1", "W2", "W3"):
            for op in make_workload(dataset, "delete", cls, count=2):
                updater.apply_op(op)
            for op in make_workload(dataset, "insert", cls, count=2):
                updater.apply_op(op)
        assert updater.check_consistency() == []

    def test_incremental_structures_survive_sequence(self, synthetic_updater):
        updater, dataset = synthetic_updater
        ops = make_workload(dataset, "delete", "W2", count=3)
        for op in ops:
            updater.apply_op(op)
        fresh = recompute_structures(updater.store)
        assert updater.reach.equals(fresh.reach)


class TestBaselines:
    def test_tree_updater_matches_dag_counts(self):
        dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
        updater = XMLViewUpdater(dataset.atg, dataset.db)
        tree = publish_tree(dataset.atg, dataset.db)
        assert tree_size(tree) >= updater.store.num_nodes
        dag_hits = len(updater.evaluate_xpath("//cnode").targets)
        tree_hits = len(
            {n.identity for n in evaluate_on_tree(parse_xpath("//cnode"), tree)}
        )
        assert dag_hits == tree_hits

    def test_tree_republish_reflects_base_update(self):
        dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
        key = min(dataset.top_level)
        path = parse_xpath(f"cnode[key={key}]")
        before = len(evaluate_on_tree(path, publish_tree(dataset.atg, dataset.db)))
        assert before == 1
        dataset.db.table("C").delete_by_key((key,))
        assert evaluate_on_tree(path, publish_tree(dataset.atg, dataset.db)) == []

    def test_squaring_matches_reach_on_synthetic(self):
        dataset = build_synthetic(SyntheticConfig(n_c=60, seed=8))
        updater = XMLViewUpdater(dataset.atg, dataset.db)
        assert updater.reach.equals(squaring_reachability(updater.store))

    def test_recompute_structures_report(self):
        dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
        updater = XMLViewUpdater(dataset.atg, dataset.db)
        timings = recompute_structures(updater.store)
        assert timings.total_seconds > 0
        assert timings.reach.equals(updater.reach)


class TestBenchHarnessSmoke:
    def test_fig10b(self):
        from benchmarks.paper.experiments import fig10b_dataset_stats

        rows = fig10b_dataset_stats(sizes=(60,), print_report=False)
        assert rows[0]["C"] == 60
        assert rows[0]["dag_nodes"] > 0
        assert rows[0]["M_pairs"] > 0

    def test_fig11_delete(self):
        from benchmarks.paper.experiments import fig11_series

        rows = fig11_series(
            "delete", classes=("W2",), sizes=(60,), ops_per_class=2,
            print_report=False,
        )
        assert rows and rows[0]["total_s"] > 0

    def test_fig11_insert(self):
        from benchmarks.paper.experiments import fig11_series

        rows = fig11_series(
            "insert", classes=("W2",), sizes=(60,), ops_per_class=2,
            print_report=False,
        )
        assert rows and rows[0]["ops"] == 2

    def test_fig11g(self):
        from benchmarks.paper.experiments import fig11g_vary_selectivity

        rows = fig11g_vary_selectivity(
            n_c=60, fanouts=(1, 2), print_report=False
        )
        assert len(rows) >= 2

    def test_fig11h(self):
        from benchmarks.paper.experiments import fig11h_vary_subtree

        rows = fig11h_vary_subtree(n_c=60, print_report=False)
        assert rows
        sizes = [r["st_nodes"] for r in rows]
        assert sizes == sorted(sizes)  # deeper layers root smaller STs

    def test_table1(self):
        from benchmarks.paper.experiments import table1_incremental_vs_recompute

        rows = table1_incremental_vs_recompute(
            sizes=(60,), ops=2, print_report=False
        )
        assert rows[0]["recompute_M_s"] > 0

    def test_ablations(self):
        from benchmarks.paper.experiments import (
            ablation_dag_vs_tree,
            ablation_minimal_delete,
            ablation_reach,
        )

        assert ablation_reach(sizes=(60,), print_report=False)
        assert ablation_dag_vs_tree(sizes=(40,), print_report=False)
        assert ablation_minimal_delete(n_c=60, ops=2, print_report=False)
