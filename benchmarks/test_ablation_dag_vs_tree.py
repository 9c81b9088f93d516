"""Ablation A-2: DAG-compressed processing vs the uncompressed tree.

Paper claims: the DAG is often much (even exponentially) smaller than the
tree, and the two-pass DAG evaluator visits each stored edge O(|p|) times
versus the tree evaluator touching every unfolded occurrence.
"""

import pytest

from conftest import fresh_updater
from repro.atg.publisher import publish_tree
from repro.xmltree.tree import tree_size
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree

N_C = 120
PATH = "//cnode[sub/cnode]"


@pytest.fixture(scope="module")
def env():
    updater, dataset = fresh_updater(N_C)
    tree = publish_tree(dataset.atg, dataset.db, max_nodes=2_000_000)
    return updater, dataset, tree


def test_dag_eval(benchmark, env):
    updater, _, _ = env
    result = benchmark(updater.evaluate_xpath, PATH)
    assert result.targets


def test_tree_eval(benchmark, env):
    _, _, tree = env
    path = parse_xpath(PATH)
    nodes = benchmark(evaluate_on_tree, path, tree)
    assert nodes


def test_compression_factor(env):
    updater, _, tree = env
    assert tree_size(tree) > 2 * updater.store.num_nodes


def test_same_answers(env):
    updater, _, tree = env
    dag_ids = {
        (updater.store.type_of(t), updater.store.sem_of(t))
        for t in updater.evaluate_xpath(PATH).targets
    }
    tree_ids = {n.identity for n in evaluate_on_tree(parse_xpath(PATH), tree)}
    assert dag_ids == tree_ids


def test_tree_republish_cost(benchmark, env):
    """The no-incrementality baseline: full republish after an update."""
    _, dataset, _ = env
    benchmark(publish_tree, dataset.atg, dataset.db, max_nodes=2_000_000)
