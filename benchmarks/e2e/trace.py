"""Layer attribution from outside: spans around ``repro``'s entry points.

Nothing under ``src/`` knows about this file.  :data:`ENTRY_POINTS` is
the one table of public entry points per layer (the layers are the
``src/repro`` packages); :class:`Tracer` replaces each with a thin
recording wrapper — class attributes on the owning class, module
functions on the defining module *and* on every loaded ``repro.*``
module that bound the same object by name (``core/updater.py`` does
``from repro.core.translate import xdelete, xinsert``).  An entry point
that no longer resolves raises :class:`TraceError`: a renamed function
must fail the traced run, never silently drop its layer.

Each call records one span ``(entry, start, end, parent, op_id, size,
phase)`` in memory; nothing is written or aggregated until the run is over.  A
span's *self time* is its duration minus the part its child spans
cover, so the self times of one op's spans sum to the duration of its
``service`` root span and every layer's share is its own code only.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


class TraceError(RuntimeError):
    """An entry point in :data:`ENTRY_POINTS` does not resolve."""


def _rows(result) -> int:
    return len(result)


#: ``(layer, module, qualified name[, sizer])``.  ``Class.method`` names
#: are patched on the class, bare names on the module(s).  The optional
#: sizer turns the call's result into the span's ``size`` (a work count
#: measured where the work happens).
ENTRY_POINTS = (
    ("service", "repro.service.facade", "ViewService.apply"),
    ("service", "repro.service.facade", "ViewService.xpath"),
    ("ops", "repro.ops.algebra", "op_from_dict"),
    ("xpath", "repro.xpath.parser", "parse_xpath"),
    ("dtd", "repro.dtd.validate", "StaticValidator.validate_insert"),
    ("dtd", "repro.dtd.validate", "StaticValidator.validate_delete"),
    ("dtd", "repro.dtd.validate", "StaticValidator.validate_replace"),
    ("core.updater", "repro.core.updater", "XMLViewUpdater.plan"),
    ("core.updater", "repro.core.updater", "UpdatePlan.commit"),
    ("core.dag_eval", "repro.core.dag_eval", "DagXPathEvaluator.evaluate"),
    ("core.dag_eval", "repro.core.dag_eval",
     "DagXPathEvaluator.evaluate_from"),
    ("core.translate", "repro.core.translate", "xinsert"),
    ("core.translate", "repro.core.translate", "xdelete"),
    ("atg", "repro.atg.publisher", "publish_store"),
    ("atg", "repro.atg.publisher", "publish_subtree"),
    ("atg", "repro.atg.incremental", "propagate_base_update"),
    ("relview.insert", "repro.relview.insert", "translate_insertions"),
    ("relview.delete", "repro.relview.delete", "expand_view_deletions"),
    ("relview.delete", "repro.relview.delete", "translate_deletions"),
    ("sat", "repro.sat.encode", "encode_formula"),
    ("sat", "repro.sat.walksat", "walksat_solve"),
    ("sat", "repro.sat.dpll", "dpll_solve"),
    ("relational", "repro.relational.query", "SPJQuery.evaluate", _rows),
    ("relational", "repro.relational.database", "Database.apply"),
    ("views", "repro.views.store", "ViewStore.apply"),
    ("views", "repro.views.registry", "EdgeView.rows_referencing"),
    ("views", "repro.views.registry", "EdgeView.matching_rows"),
    ("core.maintenance", "repro.core.maintenance", "maintain_insert"),
    ("core.maintenance", "repro.core.maintenance", "maintain_delete"),
    ("index", "repro.index", "build_index"),
    ("subscribe", "repro.subscribe.engine",
     "SubscriptionRegistry.apply_batched"),
    ("subscribe", "repro.subscribe.engine", "SubscriptionRegistry.handle"),
    ("subscribe", "repro.subscribe.engine",
     "SubscriptionRegistry.subscribe"),
    ("changefeed", "repro.changefeed.hub", "ChangefeedHub.stage"),
    ("changefeed", "repro.changefeed.hub", "ChangefeedHub.deliver"),
    ("wal", "repro.wal.log", "WriteAheadLog.append"),
    ("wal", "repro.wal.log", "WriteAheadLog.write_checkpoint"),
    ("wal", "repro.wal.recover", "recover_state"),
    ("replica", "repro.replica.snapshot", "Snapshot.capture"),
    ("replica", "repro.replica.view", "ReplicaView.from_snapshot"),
)

#: Layers in pipeline order (every one gets self-time metrics).
LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: Run phases; the worker switches them between client calls, so no span
#: straddles two.
PHASES = ("setup", "loop", "post")


def entry_name(entry) -> str:
    """``layer:Qualified.name`` — the span name written to the JSONL."""
    return f"{entry[0]}:{entry[2]}"


class Tracer:
    """Installs the wrappers and holds the spans of one process."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self.phase = "setup"
        self._stack = [-1]
        self._origin = perf_counter()

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; raises :class:`TraceError` on a miss."""
        for index, entry in enumerate(ENTRY_POINTS):
            module_name, qualname = entry[1], entry[2]
            sizer = entry[3] if len(entry) > 3 else None
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                raise TraceError(
                    f"trace entry point {entry_name(entry)}: cannot import "
                    f"{module_name} ({exc})"
                ) from exc
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            kind = type(raw)
            target = raw.__func__ if kind in (classmethod, staticmethod) else raw
            if not callable(target):
                raise TraceError(
                    f"trace entry point {entry_name(entry)} does not "
                    f"resolve in {module_name}"
                )
            wrapper = self._wrap(target, index, sizer)
            if owner_name:
                setattr(
                    owner, attr,
                    kind(wrapper) if kind in (classmethod, staticmethod)
                    else wrapper,
                )
                continue
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is target:
                        setattr(other, alias, wrapper)

    def _wrap(self, fn, index: int, sizer):
        spans, stack, clock = self.spans, self._stack, perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            me = len(spans)
            spans.append(None)  # reserve the slot: children refer to it
            stack.append(me)
            size = -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[me] = (
                    index, start, end, parent, self.op_id, size, self.phase
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # -- phases ------------------------------------------------------------------

    def begin(self, phase: str) -> None:
        """Spans recorded from now on belong to ``phase``."""
        self.phase = phase
        self.op_id = -1

    # -- results -----------------------------------------------------------------

    def aggregate(self) -> dict:
        """``{phase: {entry: [calls, total_s, self_s, size_sum]}}``."""
        child_time = [0.0] * len(self.spans)
        for _index, start, end, parent, _op, _size, _phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = {phase: {} for phase in PHASES}
        for position, span in enumerate(self.spans):
            index, start, end, _parent, _op, size, phase = span
            row = totals[phase].setdefault(
                entry_name(ENTRY_POINTS[index]), [0, 0.0, 0.0, 0]
            )
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[position]
            row[3] += max(size, 0)
        return totals

    def write_jsonl(self, handle, stream: int) -> None:
        """Append every span as one JSON line (times relative to the
        tracer's creation; ``parent`` is a span ``id`` within ``stream``)."""
        for position, span in enumerate(self.spans):
            index, start, end, parent, op_id, size, phase = span
            entry = ENTRY_POINTS[index]
            record = {
                "stream": stream,
                "id": position,
                "layer": entry[0],
                "name": entry[2],
                "phase": phase,
                "start": start - self._origin,
                "end": end - self._origin,
                "parent": parent,
                "op_id": op_id,
            }
            if size >= 0:
                record["size"] = size
            handle.write(json.dumps(record) + "\n")


def merge_aggregates(parts: list[dict]) -> dict:
    """Sum :meth:`Tracer.aggregate` results of several processes."""
    merged: dict = {phase: {} for phase in PHASES}
    for part in parts:
        for phase, entries in part.items():
            for name, row in entries.items():
                into = merged[phase].setdefault(name, [0, 0.0, 0.0, 0])
                for slot, value in enumerate(row):
                    into[slot] += value
    return merged
