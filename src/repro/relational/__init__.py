"""In-memory relational engine substrate.

The paper assumes a relational DBMS that hosts both the published base
database ``I`` and the relational coding ``V`` of the DAG-compressed XML
view.  This package implements the part of such a DBMS the paper's
algorithms rely on:

- typed relation schemas with primary keys (:mod:`repro.relational.schema`),
- keyed tables with one equality probe over self-building hash indexes
  (:mod:`repro.relational.database`),
- select-project-join (SPJ) queries with equi-join planning, parameters and
  provenance-tracking evaluation (:mod:`repro.relational.query`),
- SQL text generation and a SQLite bridge for on-disk storage
  (:mod:`repro.relational.sqlgen`, :mod:`repro.relational.sqlite_backend`).
"""

from repro.relational.schema import AttrType, Attribute, RelationSchema
from repro.relational.conditions import (
    And,
    Col,
    Const,
    Eq,
    Ge,
    Gt,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Param,
    Predicate,
    TRUE,
)
from repro.relational.database import Database, Table, DeltaOp, RelationalDelta
from repro.relational.query import SPJQuery, QueryResult

__all__ = [
    "AttrType",
    "Attribute",
    "RelationSchema",
    "And",
    "Col",
    "Const",
    "Eq",
    "Ge",
    "Gt",
    "Le",
    "Lt",
    "Ne",
    "Not",
    "Or",
    "Param",
    "Predicate",
    "TRUE",
    "Database",
    "Table",
    "DeltaOp",
    "RelationalDelta",
    "SPJQuery",
    "QueryResult",
]
