"""Property-based tests (hypothesis) for the core invariants.

- Algorithm Reach equals the transitive-closure oracle on random DAGs;
- the topological order invariant holds on random DAGs and after swaps;
- DAG XPath evaluation equals tree evaluation after unfolding;
- DPLL agrees with brute force on small random CNFs;
- the atom-clause encoder is sound and complete over finite domains, the
  paper's finite abstraction of INT variables (the reference in
  ``tests/uncompiled.py``) is exact, and so is the insertion
  translator's equality-domain solve over INT and BOOL unknowns;
- random update sequences keep the incremental state consistent with a
  fresh republish (the ΔX(T) = σ(ΔR(I)) invariant).
"""

from __future__ import annotations

import itertools

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atg.publisher import publish_store, unfold_to_tree
from repro.core.dag_eval import DagXPathEvaluator
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import UpdateRejectedError
from repro.relational.schema import AttrType
from repro.relview.insert import InsertionPlan, _solve
from repro.relview.symbolic import Derivation
from repro.sat.atoms import AtomVC, AtomVV, SymVar
from repro.sat.cnf import CNF
from repro.sat.dpll import dpll_solve
from repro.sat.encode import encode_formula
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree
from repro.ops import DeleteOp, InsertOp
from uncompiled import FreshToken, build_domains

# ---------------------------------------------------------------------------
# Random DAG stores (via the registrar schema: prereq edges over courses)
# ---------------------------------------------------------------------------


@st.composite
def prereq_dags(draw):
    """A random acyclic prereq relation over up to 8 courses."""
    n = draw(st.integers(min_value=2, max_value=8))
    edges = set()
    for child in range(1, n):
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=child - 1),
                max_size=2,
                unique=True,
            )
        )
        for parent in parents:
            edges.add((parent, child))
    return n, sorted(edges)


def store_from_dag(n, edges):
    atg, db = build_registrar(populate=False)
    for i in range(n):
        db.insert("course", (f"C{i:02d}", f"t{i}", "CS"))
    for parent, child in edges:
        db.insert("prereq", (f"C{parent:02d}", f"C{child:02d}"))
    return publish_store(atg, db)


@given(prereq_dags())
@settings(max_examples=40, deadline=None)
def test_reach_matches_networkx_on_random_dags(dag):
    n, edges = dag
    store = store_from_dag(n, edges)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    graph = nx.DiGraph()
    graph.add_nodes_from(store.nodes())
    for node in store.nodes():
        for child in store.children_of(node):
            graph.add_edge(node, child)
    assert set(reach.pairs()) == set(nx.transitive_closure(graph).edges())


@given(prereq_dags())
@settings(max_examples=40, deadline=None)
def test_topo_invariant_on_random_dags(dag):
    n, edges = dag
    store = store_from_dag(n, edges)
    topo = TopoOrder.from_store(store)
    for node in store.nodes():
        for child in store.children_of(node):
            assert topo.position(child) < topo.position(node)


PATH_POOL = [
    "course",
    "//course",
    "course/prereq/course",
    "//course[prereq/course]",
    "//course[not(prereq/course)]",
    "course//cno",
    "//*[label()=prereq]",
    "course[cno=C00]//course",
    "//course[cno=C01 or cno=C02]",
]


@given(prereq_dags(), st.sampled_from(PATH_POOL))
@settings(max_examples=60, deadline=None)
def test_dag_eval_matches_tree_eval(dag, path_text):
    n, edges = dag
    store = store_from_dag(n, edges)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    evaluator = DagXPathEvaluator(store, topo, reach)
    path = parse_xpath(path_text)
    dag_ids = sorted(
        (store.type_of(t), store.sem_of(t))
        for t in evaluator.evaluate(path).targets
    )
    tree = unfold_to_tree(store)
    tree_ids = sorted({n_.identity for n_ in evaluate_on_tree(path, tree)})
    assert dag_ids == tree_ids


# ---------------------------------------------------------------------------
# SAT layer
# ---------------------------------------------------------------------------


@st.composite
def small_cnfs(draw):
    n_vars = draw(st.integers(min_value=1, max_value=5))
    n_clauses = draw(st.integers(min_value=1, max_value=10))
    clauses = []
    for _ in range(n_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = tuple(
            draw(st.integers(min_value=1, max_value=n_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        )
        clauses.append(clause)
    return n_vars, clauses


@given(small_cnfs())
@settings(max_examples=80, deadline=None)
def test_dpll_agrees_with_bruteforce(instance):
    n_vars, clauses = instance
    cnf = CNF()
    for clause in clauses:
        cnf.add_clause(clause)
    cnf.num_vars = max(cnf.num_vars, n_vars)
    model = dpll_solve(cnf)
    brute = any(
        cnf.is_satisfied_by({i + 1: bits[i] for i in range(cnf.num_vars)})
        for bits in itertools.product(
            [False, True], repeat=cnf.num_vars
        )
    )
    assert (model is not None) == brute
    if model is not None:
        assert cnf.is_satisfied_by(model)


@st.composite
def atom_clauses(draw, variables, constants):
    """0–5 clauses of 0–3 ``(atom, positive)`` literals."""

    def atom():
        if draw(st.booleans()):
            return AtomVC(
                draw(st.sampled_from(variables)), draw(st.sampled_from(constants))
            )
        a, b = draw(st.lists(st.sampled_from(variables), min_size=2, max_size=2))
        return AtomVV(a, b)

    return [
        tuple(
            (atom(), draw(st.booleans()))
            for _ in range(draw(st.integers(min_value=0, max_value=3)))
        )
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    ]


def clauses_hold(clauses, valuation):
    def atom_holds(atom):
        if isinstance(atom, AtomVC):
            return valuation[atom.var] == atom.const
        return valuation[atom.a] == valuation[atom.b]

    return all(
        any(atom_holds(atom) == positive for atom, positive in clause)
        for clause in clauses
    )


_VARS = [SymVar("r", (name,), "a", AttrType.STR) for name in "xyz"]
_DOMAINS = {v: ("a", "b", "c") for v in _VARS}


@given(atom_clauses(_VARS, "abcd"))  # "d" lies outside every domain
@settings(max_examples=80, deadline=None)
def test_encoder_sound_and_complete(clauses):
    cnf, decode = encode_formula(clauses, _DOMAINS)
    model = dpll_solve(cnf)
    brute = any(
        clauses_hold(clauses, dict(zip(_VARS, values)))
        for values in itertools.product("abc", repeat=3)
    )
    assert (model is not None) == brute
    if model is not None:
        assert clauses_hold(clauses, decode(model))


_INT_VARS = [SymVar("r", (k,), "n", AttrType.INT) for k in range(4)]


@given(atom_clauses(_INT_VARS, (1, 2, 3)))
@settings(max_examples=80, deadline=None)
def test_finite_abstraction_is_exact(clauses):
    """Over the integers, the clauses are satisfiable iff they are over the
    constants plus one extra integer per variable, iff DPLL finds a model
    on ``build_domains``' domains; a model, its fresh tokens made
    distinct integers, satisfies every clause."""
    atoms = [atom for clause in clauses for atom, _ in clause]
    domains = build_domains(atoms)
    variables = [v for v in _INT_VARS if v in domains]
    universe = (1, 2, 3, *range(100, 100 + len(variables)))
    brute = any(
        clauses_hold(clauses, dict(zip(variables, values)))
        for values in itertools.product(universe, repeat=len(variables))
    )
    cnf, decode = encode_formula(clauses, domains)
    model = dpll_solve(cnf)
    assert (model is not None) == brute
    if model is not None:
        tokens: dict = {}
        concrete = {
            var: tokens.setdefault(value, 100 + len(tokens))
            if isinstance(value, FreshToken)
            else value
            for var, value in decode(model).items()
        }
        assert clauses_hold(clauses, concrete)


_BOOL_VARS = [SymVar("r", (k,), "f", AttrType.BOOL) for k in range(2)]


@st.composite
def insert_constraints(draw):
    """Algorithm insert's two clause kinds over INT and BOOL unknowns:
    0–4 positive units and 0–3 side effects of 1–3 negated atoms."""

    def atom():
        variables, constants = draw(st.sampled_from(
            [(_INT_VARS[:3], (1, 2, 3)), (_BOOL_VARS, (False, True))]
        ))
        if draw(st.booleans()):
            return AtomVC(
                draw(st.sampled_from(variables)), draw(st.sampled_from(constants))
            )
        a, b = draw(st.lists(st.sampled_from(variables), min_size=2, max_size=2))
        return AtomVV(a, b) if a != b else AtomVC(a, constants[0])

    units = draw(st.lists(st.builds(atom), max_size=4))
    side_effects = draw(st.lists(
        st.lists(st.builds(atom), min_size=1, max_size=3), max_size=3
    ))
    return units, side_effects


@given(insert_constraints())
@settings(max_examples=120, deadline=None)
def test_equality_domain_solve_is_exact(constraint):
    """Units plus negated clauses are satisfiable over the integers and
    the booleans iff ``_solve`` accepts; the minimal model it returns —
    every unbound non-BOOL class its own fresh integer, an unbound BOOL
    class ``False`` unless the residue chose — satisfies every clause."""
    units, negated = constraint
    clauses = [((atom, True),) for atom in units] + [
        tuple((atom, False) for atom in atoms) for atoms in negated
    ]
    variables = [*_INT_VARS[:3], *_BOOL_VARS]
    universes = [(1, 2, 3, 100, 101, 102)] * 3 + [(False, True)] * 2
    brute = any(
        clauses_hold(clauses, dict(zip(variables, values)))
        for values in itertools.product(*universes)
    )
    try:
        classes = _solve(
            units, [Derivation("v", (), tuple(atoms)) for atoms in negated],
            InsertionPlan(),
        )
    except UpdateRejectedError:
        classes = None
    if classes is None:
        assert not brute  # DPLL is complete
        return
    assert brute
    fresh: dict = {}
    valuation = {}
    for var in variables:
        root = classes.find(var)
        if root in classes.value:
            valuation[var] = classes.value[root]
        elif var.attr_type is AttrType.BOOL:
            valuation[var] = False
        else:
            valuation[var] = fresh.setdefault(root, 100 + len(fresh))
    assert clauses_hold(clauses, valuation)


# ---------------------------------------------------------------------------
# End-to-end: random update sequences keep the state consistent
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=1, max_value=60),
            st.integers(min_value=1, max_value=60),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_update_sequences_stay_consistent(ops):
    dataset = build_synthetic(SyntheticConfig(n_c=60, seed=13))
    updater = XMLViewUpdater(
        dataset.atg,
        dataset.db,
        side_effect_policy=SideEffectPolicy.PROPAGATE,
        strict=False,
    )
    for kind, a, b in ops:
        if kind == "insert":
            row = dataset.db.table("C").get((b,))
            if row is None:
                continue
            updater.apply_op(InsertOp(f"//cnode[key={a}]/sub", "cnode", (b, row[4])))
        else:
            updater.apply_op(DeleteOp(f"//cnode[key={a}]/sub/cnode[key={b}]"))
    assert updater.check_consistency() == []
