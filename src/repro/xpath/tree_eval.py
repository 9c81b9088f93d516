"""XPath evaluation on (uncompressed) XML trees.

This is the reference evaluator: node-at-a-time, recursive, no indexes.
It serves two purposes:

- ground truth for the two-pass DAG evaluator
  (:mod:`repro.core.dag_eval`) — after unfolding a DAG to a tree, both
  must select the same set of ``(type, $A)`` node identities;
- the engine behind the uncompressed-tree baseline (over
  :func:`repro.atg.publisher.publish_tree`) used in the ablation
  benchmarks.
"""

from __future__ import annotations

from repro.xmltree.tree import XMLNode
from repro.xpath.ast import (
    DescendantStep,
    ExistsPath,
    FAnd,
    FNot,
    FOr,
    Filter,
    FilterStep,
    LabelStep,
    LabelTest,
    ValueEq,
    WildcardStep,
    XPath,
)


def evaluate_on_tree(path: XPath, root: XMLNode) -> list[XMLNode]:
    """All nodes reached by ``path`` starting at ``root`` (document order)."""
    nodes, _ = evaluate_on_tree_with_parents(path, root)
    return nodes


def evaluate_on_tree_with_parents(
    path: XPath, root: XMLNode
) -> tuple[list[XMLNode], list[tuple[XMLNode | None, XMLNode]]]:
    """Evaluate ``path``; also return the parent edges used by the last step.

    The second component is the tree analogue of the paper's ``Ep(r)``:
    for each selected node ``v``, the pair ``(u, v)`` where ``p`` reaches
    ``v`` through parent ``u`` (``None`` if ``v`` is the root itself).
    """
    # Context: list of (parent_or_None, node) pairs, deduplicated per step.
    context: list[tuple[XMLNode | None, XMLNode]] = [(None, root)]
    for step in path.steps:
        next_context: list[tuple[XMLNode | None, XMLNode]] = []
        seen: set[tuple[int, int]] = set()

        def push(parent: XMLNode | None, node: XMLNode) -> None:
            key = (id(parent), id(node))
            if key not in seen:
                seen.add(key)
                next_context.append((parent, node))

        if isinstance(step, LabelStep):
            for _, node in _unique_nodes(context):
                for child in node.children:
                    if child.tag == step.label:
                        push(node, child)
        elif isinstance(step, WildcardStep):
            for _, node in _unique_nodes(context):
                for child in node.children:
                    push(node, child)
        elif isinstance(step, DescendantStep):
            for parent, node in _unique_nodes(context):
                push(parent, node)  # self
                _descend(node, push)
        elif isinstance(step, FilterStep):
            for parent, node in context:
                if _eval_filter(step.filter, node):
                    push(parent, node)
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown step {step!r}")
        context = next_context
    nodes: list[XMLNode] = []
    seen_nodes: set[int] = set()
    for _, node in context:
        if id(node) not in seen_nodes:
            seen_nodes.add(id(node))
            nodes.append(node)
    return nodes, context


def _unique_nodes(
    context: list[tuple[XMLNode | None, XMLNode]]
) -> list[tuple[XMLNode | None, XMLNode]]:
    """Deduplicate context by node (keep first parent), preserving order."""
    seen: set[int] = set()
    out: list[tuple[XMLNode | None, XMLNode]] = []
    for parent, node in context:
        if id(node) not in seen:
            seen.add(id(node))
            out.append((parent, node))
    return out


def _descend(node: XMLNode, push) -> None:
    for child in node.children:
        push(node, child)
        _descend(child, push)


def _eval_filter(filt: Filter, node: XMLNode) -> bool:
    if isinstance(filt, LabelTest):
        return node.tag == filt.label
    if isinstance(filt, ExistsPath):
        return bool(evaluate_on_tree(filt.path, node))
    if isinstance(filt, ValueEq):
        if not filt.path.steps:
            return node.value() == filt.value
        reached = evaluate_on_tree(filt.path, node)
        return any(n.value() == filt.value for n in reached)
    if isinstance(filt, FAnd):
        return all(_eval_filter(p, node) for p in filt.parts)
    if isinstance(filt, FOr):
        return any(_eval_filter(p, node) for p in filt.parts)
    if isinstance(filt, FNot):
        return not _eval_filter(filt.part, node)
    raise TypeError(f"unknown filter {filt!r}")
