"""repro — Updating Recursive XML Views of Relations.

A full reproduction of Choi, Cong, Fan & Viglas (ICDE 2007 / JCST 2008):
schema-directed XML publishing via attribute translation grammars (ATGs),
DAG compression of recursively defined XML views stored in relations,
XPath evaluation on DAGs with side-effect detection, translation of XML
view updates to relational view updates, and SPJ view update processing
under key preservation (PTIME deletions, SAT-based insertions).

Quickstart::

    from repro import DeleteOp, InsertOp, ViewConfig, open_view
    from repro.workloads.registrar import build_registrar

    atg, db = build_registrar()
    service = open_view(atg, db)
    print(service.xml_tree())

    # One-shot apply:
    service.apply(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))

    # Or two-phase — preview ΔV/ΔR first, then commit (or abort):
    plan = service.plan(InsertOp(".", "course", ("CS700", "Theory")))
    print(plan.delta_r)
    plan.commit()

    # Live results and the public event stream:
    sub = service.subscribe("course[cno=CS650]/prereq/course")
    sub.result(); sub.delta()          # full set / (added, removed) per commit
    feed = service.changefeed()        # replayable JSON events
                                       # (see docs/event-schema.md)

    # Read replicas (see docs/replication.md):
    snap = service.snapshot()          # durable artifact; snap.save(path)
    replica = ReplicaView(atg, service)
    replica.bootstrap()                # snapshot + gapless changefeed attach
    replica.wait_for(snap.generation)  # read-your-generation fencing
    replica.xpath("course[cno=CS650]/prereq/course")
"""

from repro._version import __version__
from repro.atg import ATG, ProjectionRule, QueryRule, publish_store, publish_tree
from repro.core import (
    DagXPathEvaluator,
    PlanState,
    SideEffectPolicy,
    TopoOrder,
    UpdateOutcome,
    UpdatePlan,
    XMLViewUpdater,
)
from repro.ops import (
    BaseUpdateOp,
    DeleteOp,
    InsertOp,
    ReplaceOp,
    UpdateOperation,
    op_from_dict,
    op_from_json,
    ops_from_jsonl,
)
from repro.service import RWLock, ViewConfig, ViewService, open_view
from repro.subscribe import (
    SCHEMA_VERSION,
    EdgeRecord,
    NodeRecord,
    Subscription,
    SubscriptionRegistry,
    ViewEvent,
)
from repro.replica import (
    SNAPSHOT_SCHEMA_VERSION,
    ReplicaView,
    Snapshot,
)
from repro.changefeed import ChangefeedConsumer, ChangefeedHub, ReplayBuffer
from repro.dtd import DTD, parse_dtd
from repro.index import (
    BitsetReachabilityIndex,
    ReachabilityIndex,
    build_index,
)
from repro.errors import (
    ChangefeedError,
    EventDecodeError,
    ReplayGapError,
    ReplicaDivergedError,
    ReplicaError,
    ReplicaStaleError,
    ReproError,
    ServiceClosedError,
    SideEffectError,
    SnapshotError,
    SnapshotMismatchError,
    SnapshotSchemaError,
    UpdateRejectedError,
    ValidationError,
)
from repro.relational import (
    AttrType,
    Database,
    RelationSchema,
    SPJQuery,
)
from repro.views import ViewStore, build_registry
from repro.xpath import parse_xpath


__all__ = [
    "ATG",
    "ProjectionRule",
    "QueryRule",
    "publish_store",
    "publish_tree",
    "DagXPathEvaluator",
    "SideEffectPolicy",
    "TopoOrder",
    "UpdateOutcome",
    "UpdatePlan",
    "PlanState",
    "XMLViewUpdater",
    "UpdateOperation",
    "InsertOp",
    "DeleteOp",
    "ReplaceOp",
    "BaseUpdateOp",
    "op_from_dict",
    "op_from_json",
    "ops_from_jsonl",
    "open_view",
    "ViewService",
    "ViewConfig",
    "RWLock",
    "Subscription",
    "SubscriptionRegistry",
    "SCHEMA_VERSION",
    "ViewEvent",
    "EdgeRecord",
    "NodeRecord",
    "ChangefeedConsumer",
    "ChangefeedHub",
    "ReplayBuffer",
    "Snapshot",
    "SNAPSHOT_SCHEMA_VERSION",
    "ReplicaView",
    "ChangefeedError",
    "EventDecodeError",
    "ReplayGapError",
    "ReplicaError",
    "ReplicaStaleError",
    "ReplicaDivergedError",
    "SnapshotError",
    "SnapshotSchemaError",
    "SnapshotMismatchError",
    "ReachabilityIndex",
    "BitsetReachabilityIndex",
    "build_index",
    "DTD",
    "parse_dtd",
    "ReproError",
    "ServiceClosedError",
    "SideEffectError",
    "UpdateRejectedError",
    "ValidationError",
    "AttrType",
    "Database",
    "RelationSchema",
    "SPJQuery",
    "ViewStore",
    "build_registry",
    "parse_xpath",
    "__version__",
]
