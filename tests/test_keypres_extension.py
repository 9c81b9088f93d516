"""Tests for make_key_preserving and the alternation content model."""

from repro.atg.model import ATG, ProjectionRule, QueryRule
from repro.atg.publisher import publish_store
from repro.dtd.parser import parse_dtd
from repro.relational.conditions import Col, Eq
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.baselines.keypres import is_key_preserving, make_key_preserving
from repro.workloads.registrar import build_registrar


class TestMakeKeyPreserving:
    def test_already_preserving_is_identity(self):
        _, db = build_registrar()
        query = SPJQuery(
            "q",
            [("course", "c")],
            [("cno", Col("c", "cno"))],
        )
        assert make_key_preserving(query, db) is query

    def test_widens_projection(self):
        _, db = build_registrar()
        query = SPJQuery(
            "q3",
            [("enroll", "e"), ("student", "s")],
            [("ssn", Col("s", "ssn")), ("name", Col("s", "name"))],
            Eq(Col("e", "ssn"), Col("s", "ssn")),
        )
        # e's key (ssn, cno): ssn covered via closure, cno missing.
        assert not is_key_preserving(query, db)
        widened = make_key_preserving(query, db)
        assert is_key_preserving(widened, db)
        assert "__kp_e_cno" in widened.output_names

    def test_widened_query_same_visible_rows(self):
        _, db = build_registrar()
        query = SPJQuery(
            "q3",
            [("enroll", "e"), ("student", "s")],
            [("ssn", Col("s", "ssn")), ("name", Col("s", "name"))],
            Eq(Col("e", "ssn"), Col("s", "ssn")),
        )
        widened = make_key_preserving(query, db)
        narrow = {r[:2] for r in widened.evaluate(db).rows}
        assert narrow == set(query.evaluate(db).rows)
        # The widened view distinguishes S02's two enrollments.
        assert len(widened.evaluate(db).rows) > len(query.evaluate(db).rows)


class TestAlternation:
    """An ATG over an alternation production: payment → cash + card."""

    def _atg_db(self):
        db = Database()
        db.create_table(
            RelationSchema(
                "payment",
                [
                    ("pid", AttrType.STR),
                    ("cash_amount", AttrType.STR),
                    ("card_number", AttrType.STR),
                ],
                ["pid"],
            )
        )
        # A payment is cash XOR card; the unused column is None-encoded
        # as the empty string and mapped to None by the rule convention.
        db.insert_all(
            "payment",
            [("p1", "100", ""), ("p2", "", "4321")],
        )
        dtd = parse_dtd(
            """
            <!ELEMENT doc (payment*)>
            <!ELEMENT payment (cash | card)>
            <!ELEMENT cash (#PCDATA)>
            <!ELEMENT card (#PCDATA)>
            """
        )
        q = SPJQuery(
            "Qdoc_payment",
            [("payment", "p")],
            [
                ("pid", Col("p", "pid")),
                ("cash", Col("p", "cash_amount")),
                ("card", Col("p", "card_number")),
            ],
        )
        atg = ATG(
            dtd,
            {
                "doc": (),
                "payment": ("pid", "cash", "card"),
                "cash": ("cash",),
                "card": ("card",),
            },
            [
                QueryRule("doc", "payment", q),
                ProjectionRule("payment", "cash", ("cash",)),
                ProjectionRule("payment", "card", ("card",)),
            ],
        )
        return atg, db

    def test_publish_smoke(self):
        # The simplified alternation semantics picks the first declared
        # alternative whose projected tuple has no None cells; with the
        # empty-string encoding both project fine, so the first (cash)
        # wins — document the behaviour.
        atg, db = self._atg_db()
        store = publish_store(atg, db)
        payments = [
            n for n in store.nodes() if store.type_of(n) == "payment"
        ]
        assert len(payments) == 2
        for p in payments:
            child_types = [store.type_of(c) for c in store.children_of(p)]
            assert len(child_types) == 1  # exactly one alternative
