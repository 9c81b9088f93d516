"""The evaluation dataset of Section 5: relations C, F, H (and CU).

The paper's generator (reconstructed from its prose):

- ``C(c1, ..., c16)`` with key ``c1``; ``F(f1, ..., f16)`` with
  ``|F| = |C|`` and ``dom(f1) = dom(c1)``; attributes ``c2..c4`` /
  ``f2..f4`` control how many C ⋈ F pairs survive the join filter;
- ``H(h1, h2)`` with ``|H| ≈ 3·|C|`` (about three child edges per
  course) and ``h1 < h2`` (the hierarchy is acyclic);
- ``CU`` is a 100M-tuple universe guaranteeing that ``h2`` always joins.
  **Substitution:** we draw ``h2`` from C's own key space instead of
  materializing CU — the only property the paper uses is that the join
  never dangles, which holds by construction (see DESIGN.md §5).

The recursive view (Fig. 10(a)): the root lists *top-level* C nodes; a C
node's ``sub`` recursively embeds the C nodes reachable through ``H``,
each guarded by the C ⋈ F filter::

    π_{c1,f1,h1,h2}( σ_{c1=f1 ∧ f1=h1 ∧ h2=c'1 ∧ c2=f2 ∧ c3=f3 ∧ c4=f4}
                     (C × F × H × CU) )

Sharing (the paper reports 31.4% of C instances shared) arises when two
parents pick the same child; the generator uses a layered key space so
the DAG has bounded depth and sharing is controllable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.atg.model import ATG, ProjectionRule, QueryRule
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError
from repro.relational.conditions import And, Col, Const, Eq, Param
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema

SYNTHETIC_DTD_TEXT = """
<!ELEMENT root (cnode*)>
<!ELEMENT cnode (key, val, sub)>
<!ELEMENT sub (cnode*)>
<!ELEMENT key (#PCDATA)>
<!ELEMENT val (#PCDATA)>
"""


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic generator.

    ``n_c`` is |C| (the size the paper reports); the other defaults are
    chosen to land near the paper's statistics (≈3 H edges per C tuple,
    ≈31% shared C instances, most C ⋈ F pairs surviving).
    """

    n_c: int = 1000
    seed: int = 42
    layers: int = 8
    children_per_node: float = 3.0
    pass_rate: float = 0.85
    """Fraction of C tuples whose F partner satisfies the join filter."""
    share_bias: float = 0.3
    """Probability a child edge targets the 'popular' slice of the next
    layer (drives subtree sharing up)."""
    popular_fraction: float = 0.25
    top_fraction: float = 1.0
    """Fraction of layer-0 nodes flagged top-level (root children)."""
    universe_fraction: float = 0.4
    """Fraction of H edges whose h2 lands in the CU universe outside C
    (the paper's 100M-tuple CU absorbed most edges; such edges dangle
    w.r.t. the published view).  Calibrated so ~31% of published C
    instances are shared, matching Fig. 10(b)."""

    def __post_init__(self) -> None:
        if self.n_c < 2:
            raise ReproError(
                f"a synthetic dataset needs n_c >= 2 (two layers of one "
                f"C tuple), got {self.n_c!r}"
            )
        if self.n_c < self.layers * 2:
            self.layers = max(2, self.n_c // 2)


def synthetic_schemas() -> list[RelationSchema]:
    I, S = AttrType.INT, AttrType.STR
    c_cols = [("c1", I), ("c2", I), ("c3", I), ("c4", I), ("c5", S), ("c6", I)]
    c_cols += [(f"c{i}", I) for i in range(7, 17)]
    f_cols = [("f1", I), ("f2", I), ("f3", I), ("f4", I), ("f5", S), ("f6", I)]
    f_cols += [(f"f{i}", I) for i in range(7, 17)]
    return [
        RelationSchema("C", c_cols, ["c1"]),
        RelationSchema("F", f_cols, ["f1"]),
        RelationSchema("H", [("h1", I), ("h2", I)], ["h1", "h2"]),
    ]


def synthetic_atg() -> ATG:
    """The recursive ATG over C, F, H (Fig. 10(a))."""
    dtd = parse_dtd(SYNTHETIC_DTD_TEXT)
    join_filter = [
        Eq(Col("c", "c1"), Col("f", "f1")),
        Eq(Col("c", "c2"), Col("f", "f2")),
        Eq(Col("c", "c3"), Col("f", "f3")),
        Eq(Col("c", "c4"), Col("f", "f4")),
    ]
    q_root = SPJQuery(
        "Qroot_cnode",
        [("C", "c"), ("F", "f")],
        [("c1", Col("c", "c1")), ("c5", Col("c", "c5"))],
        And(*join_filter, Eq(Col("c", "c6"), Const(1))),
    )
    q_sub = SPJQuery(
        "Qsub_cnode",
        [("H", "h"), ("C", "c"), ("F", "f")],
        [("c1", Col("c", "c1")), ("c5", Col("c", "c5"))],
        And(
            Eq(Col("h", "h1"), Param("c1")),
            Eq(Col("h", "h2"), Col("c", "c1")),
            *join_filter,
        ),
    )
    signatures = {
        "root": (),
        "cnode": ("c1", "c5"),
        "key": ("c1",),
        "val": ("c5",),
        "sub": ("c1",),
    }
    rules = [
        QueryRule("root", "cnode", q_root),
        ProjectionRule("cnode", "key", ("c1",)),
        ProjectionRule("cnode", "val", ("c5",)),
        ProjectionRule("cnode", "sub", ("c1",)),
        QueryRule("sub", "cnode", q_sub),
    ]
    return ATG(dtd, signatures, rules)


@dataclass
class SyntheticDataset:
    """A generated instance plus bookkeeping the workloads need."""

    config: SyntheticConfig
    atg: ATG
    db: Database
    layer_of: dict[int, int] = field(default_factory=dict)
    passing: set[int] = field(default_factory=set)
    """C keys whose F partner satisfies the join filter."""
    top_level: set[int] = field(default_factory=set)


def build_synthetic(config: SyntheticConfig | None = None) -> SyntheticDataset:
    """Generate a dataset; deterministic for a given config."""
    config = config or SyntheticConfig()
    rng = random.Random(config.seed)
    db = Database("synthetic")
    for schema in synthetic_schemas():
        db.create_table(schema)
    dataset = SyntheticDataset(config, synthetic_atg(), db)

    n = config.n_c
    layers = config.layers
    layer_size = n // layers

    def layer(key: int) -> int:
        return min((key - 1) // layer_size, layers - 1)

    # --- C and F -----------------------------------------------------------
    for key in range(1, n + 1):
        lay = layer(key)
        dataset.layer_of[key] = lay
        passing = rng.random() < config.pass_rate
        top = lay == 0 and rng.random() < config.top_fraction
        if passing:
            dataset.passing.add(key)
        if top and passing:
            dataset.top_level.add(key)
        c2, c3, c4 = rng.randrange(100), rng.randrange(100), rng.randrange(100)
        payload = f"v{key % 97}"
        filler_c = tuple(rng.randrange(1000) for _ in range(10))
        db.insert(
            "C",
            (key, c2, c3, c4, payload, 1 if top else 0, *filler_c),
        )
        # F partner: equal join columns iff `passing`.
        f2 = c2 if passing else c2 + 1
        filler_f = tuple(rng.randrange(1000) for _ in range(10))
        db.insert("F", (key, f2, c3, c4, f"w{key % 89}", 0, *filler_f))

    # --- H: layered child edges with a popularity bias -----------------------
    for key in range(1, n + 1):
        lay = dataset.layer_of[key]
        if lay >= layers - 1:
            continue  # bottom layer: leaves
        next_lo = (lay + 1) * layer_size + 1
        next_hi = min((lay + 2) * layer_size, n)
        if next_lo > next_hi:
            continue
        span = next_hi - next_lo + 1
        popular_hi = next_lo + max(1, int(span * config.popular_fraction)) - 1
        n_children = _poissonish(rng, config.children_per_node)
        chosen: set[int] = set()
        for _ in range(n_children):
            if rng.random() < config.universe_fraction:
                # CU edge: h2 beyond C's key space; always joins CU in
                # the paper, never joins C here -> filtered in the view.
                child = rng.randint(n + 1, 2 * n + 1000)
            elif rng.random() < config.share_bias:
                child = rng.randint(next_lo, popular_hi)
            else:
                child = rng.randint(next_lo, next_hi)
            if child > key:  # h1 < h2 by layered construction
                chosen.add(child)
        for child in sorted(chosen):
            db.insert("H", (key, child))
    return dataset


def _poissonish(rng: random.Random, mean: float) -> int:
    """Small-integer child count with the given mean (2/3/4-ish spread)."""
    base = int(mean)
    frac = mean - base
    count = base + (1 if rng.random() < frac else 0)
    # ±1 jitter, clamped at 0
    jitter = rng.choice((-1, 0, 0, 1))
    return max(0, count + jitter)
