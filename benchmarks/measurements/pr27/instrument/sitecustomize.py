"""Instrumentation for `../work.py` (not part of src/): put this directory
and a checkout's src/ on PYTHONPATH and every Python process of a benchmark
run appends one JSON line of Δ(M,L)insert work counters to $MAINTAIN_COUNTS at
exit.

Counted, per `maintain_insert` call (an insert's, a replace's, a batch
flush's or a base update's ΔM repair): the calls of each insert-side bulk
operation of the bitset index (`extend_ancestors`, `add_cross_pairs`,
`add_anc_closure_pairs` on a checkout that has them, `add_closure_below`
on one that has it), the row writes they make (stores into the ancestor
or descendant row dict of `M`), the pairs they add, and the size of the
subtree (`subtree.all_nodes`, `subtree.new_nodes`)."""
import atexit, collections, json, os

try:
    import repro.atg.incremental as incremental
    import repro.core.updater as updater
    from repro.index.bitset import BitsetReachabilityIndex as Index
except ImportError:  # a process without src/ on its path: nothing to count
    Index = None

if Index is not None and os.environ.get("MAINTAIN_COUNTS"):
    counts = collections.Counter()
    state = {"inside": False}

    class Rows(dict):
        """A row dict that counts stores made inside `maintain_insert`."""

        def __setitem__(self, key, value):
            if state["inside"]:
                counts["row writes"] += 1
            super().__setitem__(key, value)

        def pop(self, key, *default):
            if state["inside"]:
                counts["row writes"] += 1
            return super().pop(key, *default)

    def rows_of(index):
        if type(index._anc) is not Rows:
            index._anc, index._desc = Rows(index._anc), Rows(index._desc)

    for name in ("extend_ancestors", "add_cross_pairs",
                 "add_anc_closure_pairs", "add_closure_below"):
        original = getattr(Index, name, None)
        if original is None:
            continue

        def counted(self, *args, _original=original, _name=name):
            counts[f"{_name} calls"] += 1
            added = _original(self, *args)
            if added == 0:
                counts[f"{_name} calls adding 0 pairs"] += 1
            return added

        setattr(Index, name, counted)

    def wrap(module):
        original = module.maintain_insert

        def maintain_insert(store, topo, reach, subtree, targets, *rest, **kw):
            if isinstance(reach, Index):
                rows_of(reach)
            counts["inserts"] += 1
            counts["subtree nodes (all_nodes)"] += len(subtree.all_nodes)
            counts["new nodes"] += len(subtree.new_nodes)
            if not subtree.new_nodes:
                counts["inserts with no new node"] += 1
            state["inside"] = True
            try:
                report = original(store, topo, reach, subtree, targets, *rest, **kw)
            finally:
                state["inside"] = False
            counts["pairs added"] += report.added_pairs
            return report

        module.maintain_insert = maintain_insert

    wrap(updater)
    wrap(incremental)

    @atexit.register
    def _dump():
        if counts:
            with open(os.environ["MAINTAIN_COUNTS"], "a", encoding="utf-8") as out:
                out.write(json.dumps(counts, sort_keys=True) + "\n")
