"""Fresh values in ΔR: numbered per updater, never already in the column.

Insertion translation (Section 4.3) decodes a model's "anything else"
tokens to values outside the active domain.  The sequence that numbers
them belongs to the updater, so a view's ΔR does not depend on what
another view in the process did first, and a value is checked against
its column, so a recovered service does not mint one it already holds.
"""

from repro import InsertOp, ViewConfig, open_view
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

NEW_PREREQ = InsertOp("course[cno=CS650]/prereq", "course", ("CS902", "Other"))


def delta_r_rows(outcome):
    return [(op.kind, op.relation, op.row) for op in outcome.delta_r]


def depts(db):
    return {row[2] for row in db.table("course").rows()}


def minted_depts(outcome):
    return [op.row[2] for op in outcome.delta_r if op.relation == "course"]


def test_two_services_give_the_same_delta_r_in_either_order():
    deltas = {}
    for order in (("a", "b"), ("b", "a")):
        services = {name: open_view(*build_registrar()) for name in order}
        for name in order:
            deltas[order, name] = tuple(delta_r_rows(services[name].apply(NEW_PREREQ)))
    (delta,) = set(deltas.values())
    assert ("insert", "course", ("CS902", "Other", "zz_fresh_1")) in delta


def test_synthetic_new_key_insert_is_order_free():
    def service():
        dataset = build_synthetic(SyntheticConfig(n_c=120, seed=1))
        return dataset, open_view(dataset.atg, dataset.db)

    (dataset, a), (_, b) = service(), service()
    op = InsertOp(
        f"//cnode[key={min(dataset.top_level)}]/sub", "cnode", (127, "fresh")
    )
    rows_a = delta_r_rows(a.apply(op))
    rows_b = delta_r_rows(b.apply(op))
    assert rows_a and rows_a == rows_b
    assert a.check_consistency() == [] and b.check_consistency() == []


def test_recovered_service_mints_a_value_its_column_lacks(tmp_path):
    wal_dir = str(tmp_path / "wal")
    atg, db = build_registrar()
    writer = open_view(atg, db, config=ViewConfig(wal_dir=wal_dir))
    assert minted_depts(writer.apply(NEW_PREREQ)) == ["zz_fresh_1"]
    writer.close()

    atg2, db2 = build_registrar()
    recovered = open_view(atg2, db2, config=ViewConfig(wal_dir=wal_dir))
    held = depts(db2)
    assert "zz_fresh_1" in held
    again = InsertOp("course[cno=CS650]/prereq", "course", ("CS903", "Again"))
    (dept,) = minted_depts(recovered.apply(again))
    assert dept.startswith("zz_fresh_") and dept not in held
    assert recovered.check_consistency() == []
    recovered.close()
