"""Static DTD validation of XML view updates (paper, Section 2.4).

Before touching any data, an update ``insert (A, t) into p`` /
``delete p`` is validated at the *schema* level: the XPath ``p`` is
evaluated over the DTD graph to find the element types it can reach, and
the update is rejected unless every affected production has the form
``parent → child*`` — the only form under which adding/removing one child
preserves DTD conformance.  The check runs in ``O(|p|·|D|²)``.

Value filters cannot be refuted statically, so they are ignored
(over-approximation: never rejects a valid update).  ``label() = A``
tests *are* applied, since they are purely structural.
"""

from __future__ import annotations

from functools import lru_cache

from repro.dtd.model import DTD
from repro.errors import ValidationError
from repro.xpath.ast import (
    DescendantStep,
    FAnd,
    Filter,
    FilterStep,
    LabelStep,
    LabelTest,
    WildcardStep,
    XPath,
)

#: Schema evaluations a validator keeps: one per distinct path shape it
#: sees, bounded like the evaluator's compiled programs.
_REACHABLE_CACHE_SIZE = 1024


class StaticValidator:
    """Schema-level evaluator/validator bound to one DTD."""

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        # The DTD and a parsed path are immutable, and constants are
        # ignored, so each path shape is evaluated once per validator.
        self._reachable = lru_cache(maxsize=_REACHABLE_CACHE_SIZE)(
            self._evaluate
        )

    # -- schema-level XPath evaluation --------------------------------------------

    def reachable_types(
        self, path: XPath
    ) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
        """Evaluate ``path`` on the DTD graph.

        Returns ``(final_types, last_edges)`` where ``final_types`` are
        the element types the path may reach, and ``last_edges`` the
        ``(parent_type, child_type)`` pairs through which the final types
        may be reached (the schema analogue of ``Ep(r)``).  Computed once
        per shape (:attr:`XPath.shape`: the path up to its constants) and
        shared by every later validation of it, hence frozen.
        """
        return self._reachable(path if path.shape is None else path.shape)

    def _evaluate(
        self, path: XPath
    ) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
        states: set[str] = {self.dtd.root}
        last_edges: set[tuple[str, str]] = set()
        for step in path.steps:
            if isinstance(step, LabelStep):
                next_states: set[str] = set()
                last_edges = set()
                for state in states:
                    for child in self.dtd.child_types(state):
                        if child == step.label:
                            next_states.add(child)
                            last_edges.add((state, child))
                states = next_states
            elif isinstance(step, WildcardStep):
                next_states = set()
                last_edges = set()
                for state in states:
                    for child in self.dtd.child_types(state):
                        next_states.add(child)
                        last_edges.add((state, child))
                states = next_states
            elif isinstance(step, DescendantStep):
                closure: set[str] = set()
                for state in states:
                    closure |= self.dtd.reachable_types(state)
                # Every DTD edge into a closure member is a candidate.
                last_edges = {
                    (parent, child)
                    for parent, child in self.dtd.edges()
                    if child in closure and parent in closure
                }
                # Self matches carry no new edge; keep the closure states.
                states = closure
            elif isinstance(step, FilterStep):
                refined = self._refine_by_labels(states, step.filter)
                last_edges = {(p, c) for p, c in last_edges if c in refined}
                states = refined
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown step {step!r}")
            if not states:
                break
        return frozenset(states), frozenset(last_edges)

    def _refine_by_labels(self, states: set[str], filt: Filter) -> set[str]:
        """Apply structural ``label()=A`` tests; other filters are kept."""
        if isinstance(filt, LabelTest):
            return {s for s in states if s == filt.label}
        if isinstance(filt, FAnd):
            out = set(states)
            for part in filt.parts:
                out = self._refine_by_labels(out, part)
            return out
        return states

    # -- update validation -----------------------------------------------------------

    def validate_insert(self, path: XPath, subtree_type: str) -> frozenset[str]:
        """Validate ``insert (subtree_type, t) into path``.

        Returns the possible parent types; raises
        :class:`ValidationError` if the insertion cannot conform to the
        DTD under any of them.
        """
        if subtree_type not in self.dtd.productions:
            raise ValidationError(
                f"insert of unknown element type {subtree_type!r}"
            )
        parents, _ = self.reachable_types(path)
        if not parents:
            raise ValidationError(
                f"path {path} reaches no element type in the DTD"
            )
        bad = [p for p in parents if not self.dtd.is_star_child(p, subtree_type)]
        if bad:
            raise ValidationError(
                f"inserting a {subtree_type!r} child under type(s) "
                f"{sorted(bad)} violates the DTD: production is not "
                f"'{subtree_type}*'"
            )
        return parents

    def validate_delete(self, path: XPath) -> frozenset[tuple[str, str]]:
        """Validate ``delete path``.

        Returns the possible ``(parent_type, child_type)`` pairs; raises
        :class:`ValidationError` if removing a reached child can violate
        the DTD.
        """
        targets, last_edges = self.reachable_types(path)
        if not targets:
            raise ValidationError(
                f"path {path} reaches no element type in the DTD"
            )
        if self.dtd.root in targets:
            raise ValidationError("cannot delete the document root")
        bad = [
            (parent, child)
            for parent, child in last_edges
            if not self.dtd.is_star_child(parent, child)
        ]
        if bad:
            raise ValidationError(
                f"deleting child(ren) {sorted(bad)} violates the DTD: "
                "production is not of the form 'child*'"
            )
        return last_edges

    def validate_replace(
        self, path: XPath, subtree_type: str
    ) -> frozenset[tuple[str, str]]:
        """Validate ``replace path with (subtree_type, t)``.

        The reached children must be deletable *and* the new subtree
        type must be insertable under every possible parent the path can
        reach through — both sides of the composite, checked statically.
        """
        last_edges = self.validate_delete(path)
        if subtree_type not in self.dtd.productions:
            raise ValidationError(
                f"replace with unknown element type {subtree_type!r}"
            )
        bad = sorted(
            parent
            for parent, _ in last_edges
            if not self.dtd.is_star_child(parent, subtree_type)
        )
        if bad:
            raise ValidationError(
                f"replacing with a {subtree_type!r} child under type(s) "
                f"{bad} violates the DTD: production is not "
                f"'{subtree_type}*'"
            )
        return last_edges


def validate_update(
    dtd: DTD, path: XPath, kind: str, subtree_type: str | None = None
):
    """Convenience wrapper: validate an insert (needs ``subtree_type``) or
    delete against ``dtd``.  Returns the affected types/edges."""
    validator = StaticValidator(dtd)
    if kind == "insert":
        if subtree_type is None:
            raise ValidationError("insert validation requires the subtree type")
        return validator.validate_insert(path, subtree_type)
    if kind == "delete":
        return validator.validate_delete(path)
    raise ValidationError(f"unknown update kind {kind!r}")
