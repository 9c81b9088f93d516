"""Edge-view SPJ definitions over the base relations (paper, Section 2.3).

For every starred ATG rule ``A → B*`` with query ``$B ← Q($A)``, the
*edge view* ``Q_edge_A_B`` characterizes all derivable parent→child
edges: it is ``Q`` closed over its parameters (the parameter columns are
projected out instead of bound) and made *key-preserving* by additionally
projecting every base relation's primary key.

The closed form answers two questions the Section-4 translation needs:

- which base tuples derive a given edge (the deletable sources
  ``Sr(Q, t)`` of Algorithm delete) — read directly off the projected
  keys;
- which view tuples reference a given base tuple (the side-effect test) —
  the same query evaluated with the key columns ``fixed``.

Each view's :class:`SPJQuery` is built once, in :func:`_close_rule`; every
later question is ``view.query.evaluate(db, fixed=[...])``.

The paper's own formulation joins the derived ``gen_A`` table to restrict
parents to published ones; we instead close over *all* potential parents
and let reachability (the DAG store + garbage collection) decide what is
published.  This is equivalent for translation purposes — deleting a base
tuple removes the edge under every potential parent, which is exactly the
paper's side-effect semantics — and keeps every view a pure SPJ query
over base relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atg.model import ATG, QueryRule
from repro.errors import ATGError
from repro.relational.conditions import And, Col, Eq, Param, Predicate
from repro.relational.database import Database
from repro.relational.query import SPJQuery, QueryResult


@dataclass
class EdgeView:
    """The key-preserving SPJ view of one starred DTD edge.

    Attributes
    ----------
    parent_type / child_type:
        The DTD edge this view codes.
    query:
        Closed-form SPJ query.  Output layout:
        ``p_<param>...`` (parent parameter columns, in ``param_names``
        order), then the child's semantic-attribute columns, then
        ``k_<alias>_<attr>...`` key columns for every base occurrence.
    param_names:
        Parent-signature column names the original rule was
        parameterized by.
    child_columns:
        The child's semantic-attribute signature.
    key_layout:
        ``alias → (relation, [(output_index, attr), ...])`` describing
        where each base occurrence's key lives in an output row.
    """

    parent_type: str
    child_type: str
    query: SPJQuery
    param_names: tuple[str, ...]
    child_columns: tuple[str, ...]
    key_layout: dict[str, tuple[str, list[tuple[int, str]]]]

    # -- row accessors ------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"edge_{self.parent_type}_{self.child_type}"

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def n_child(self) -> int:
        return len(self.child_columns)

    def visible(self, row: tuple) -> tuple[tuple, tuple]:
        """Split a view row into (parent params, child sem)."""
        return (
            tuple(row[: self.n_params]),
            tuple(row[self.n_params : self.n_params + self.n_child]),
        )

    def source_key(self, row: tuple, alias: str) -> tuple:
        """Primary key of the base tuple ``alias`` contributed to ``row``."""
        _, slots = self.key_layout[alias]
        return tuple(row[i] for i, _ in slots)

    def sources(self, row: tuple) -> list[tuple[str, str, tuple]]:
        """Deletable source of a view row: ``[(relation, alias, key), ...]``.

        This is ``Sr(Q, t)`` of the paper (Fig. 9) — under key
        preservation each base occurrence's contributing tuple is
        identified by its key inside ``t``.
        """
        return [
            (relation, alias, self.source_key(row, alias))
            for alias, (relation, _) in sorted(self.key_layout.items())
        ]

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, db: Database) -> QueryResult:
        """All derivable edges (full rows, including key columns)."""
        return self.query.evaluate(db)

    def matching_rows(
        self, db: Database, parent_params: tuple, child_sem: tuple
    ) -> list[tuple]:
        """View rows whose visible part equals the given edge."""
        project = self.query.project
        fixed = [(project[i][1], value) for i, value in enumerate(parent_params)]
        fixed += [
            (project[self.n_params + i][1], value)
            for i, value in enumerate(child_sem)
        ]
        return self.query.evaluate(db, fixed=fixed).rows

    def rows_referencing(
        self, db: Database, alias: str, key: tuple
    ) -> list[tuple]:
        """View rows whose ``alias`` occurrence is the base tuple ``key``."""
        _, slots = self.key_layout[alias]
        fixed = [(Col(alias, attr), value) for (_, attr), value in zip(slots, key)]
        return self.query.evaluate(db, fixed=fixed).rows


class EdgeViewRegistry:
    """All edge views of one ATG, indexed by (parent type, child type)."""

    def __init__(self, atg: ATG, views: dict[tuple[str, str], EdgeView]):
        self.atg = atg
        self._views = views
        # (view name, schemas) -> Algorithm insert's per-view skeleton
        # and the programs it prepares (repro.relview.insert._Skeleton),
        # built on first use.
        self.skeletons: dict[tuple, object] = {}

    def view(self, parent_type: str, child_type: str) -> EdgeView:
        try:
            return self._views[(parent_type, child_type)]
        except KeyError:
            raise ATGError(
                f"no edge view for {parent_type}->{child_type} "
                "(only starred edges have views)"
            ) from None

    def has_view(self, parent_type: str, child_type: str) -> bool:
        return (parent_type, child_type) in self._views

    def views(self) -> list[EdgeView]:
        return [self._views[k] for k in sorted(self._views)]


def build_registry(atg: ATG, db: Database) -> EdgeViewRegistry:
    """Derive the closed-form edge view for every starred ATG rule."""
    views: dict[tuple[str, str], EdgeView] = {}
    for rule in atg.query_rules():
        views[(rule.parent, rule.child)] = _close_rule(atg, db, rule)
    return EdgeViewRegistry(atg, views)


def _close_rule(atg: ATG, db: Database, rule: QueryRule) -> EdgeView:
    query = rule.query
    params = sorted(query.params())
    # Locate, for every parameter, the base columns it is equated with.
    param_cols: dict[str, list[Col]] = {p: [] for p in params}
    kept: list[Predicate] = []
    for conjunct in query.where.conjuncts():
        param_name, col = _param_equality(conjunct)
        if param_name is not None:
            if col is None:
                raise ATGError(
                    f"rule {rule.parent}->{rule.child}: parameter "
                    f"{param_name!r} used in a non-equality or "
                    "constant comparison; cannot close over it"
                )
            param_cols[param_name].append(col)
        else:
            kept.append(conjunct)
    project: list[tuple[str, Col]] = []
    for param in params:
        cols = param_cols[param]
        if not cols:
            raise ATGError(
                f"rule {rule.parent}->{rule.child}: parameter {param!r} "
                "never constrained by an equality"
            )
        project.append((f"p_{param}", cols[0]))
        for other in cols[1:]:
            kept.append(Eq(cols[0], other))
    for name, col in query.project:
        project.append((name, col))
    key_layout: dict[str, tuple[str, list[tuple[int, str]]]] = {}
    for relation, alias in query.tables:
        schema = db.schema(relation)
        slots: list[tuple[int, str]] = []
        for attr in schema.key:
            out_name = f"k_{alias}_{attr}"
            slots.append((len(project), attr))
            project.append((out_name, Col(alias, attr)))
        key_layout[alias] = (relation, slots)
    closed = SPJQuery(
        f"Qedge_{rule.parent}_{rule.child}",
        query.tables,
        project,
        And(*kept) if kept else And(),
    )
    return EdgeView(
        parent_type=rule.parent,
        child_type=rule.child,
        query=closed,
        param_names=tuple(params),
        child_columns=atg.signature(rule.child),
        key_layout=key_layout,
    )


def _param_equality(pred: Predicate) -> tuple[str | None, Col | None]:
    """Detect ``Col = Param`` / ``Param = Col`` conjuncts."""
    if not isinstance(pred, Eq):
        # A Param inside any other predicate is unsupported for closing.
        for term in getattr(pred, "left", None), getattr(pred, "right", None):
            if isinstance(term, Param):
                return term.name, None
        return None, None
    left, right = pred.left, pred.right
    if isinstance(left, Param) and isinstance(right, Col):
        return left.name, right
    if isinstance(right, Param) and isinstance(left, Col):
        return right.name, left
    if isinstance(left, Param) or isinstance(right, Param):
        name = left.name if isinstance(left, Param) else right.name
        return name, None
    return None, None
