"""Per-call timers over the Δ(M,L) entry points and L's mutators, one checkout.

    python3 maint_calls.py CHECKOUT [WORKLOAD] [REPEAT] [top]

Replays every stream of WORKLOAD's e2e pool (default ``mixed``; the
checkout's own ``benchmarks/e2e`` streams) in this process against
CHECKOUT's ``src/``, REPEAT times (default 3), one service per stream
and ``gc.collect()`` before each timed loop, and prints the fastest
pass of each timer in ms: ``maintain_delete`` / ``maintain_insert``,
``TopoOrder``'s mutators and ``sort_nodes``, and the bitset index's
bulk operations (whichever of ``retain_below`` / ``retain_ancestors``
the checkout has), plus the whole loop.  With ``top`` only the two
maintenance entry points are wrapped, so the loop time is not inflated
by per-call timers.  A nested call is counted in its caller's timer too.
"""
import sys, json, gc, pathlib, time, collections
checkout = pathlib.Path(sys.argv[1]).resolve()
wl = sys.argv[2] if len(sys.argv) > 2 else "mixed"
reps = int(sys.argv[3]) if len(sys.argv) > 3 else 3
sys.path.insert(0, str(checkout / "benchmarks" / "e2e")); sys.path.insert(0, str(checkout / "src"))
import workloads
import repro.core.maintenance as M, repro.core.updater as U, repro.atg.incremental as I
from repro.core.topo import TopoOrder
from repro.index import BitsetReachabilityIndex as B
from repro.index._bits import Region
from repro import ViewConfig, open_view
from repro.workloads import named_workload
ms = collections.Counter()
def wrap(owner, name, key, mods=()):
    orig = getattr(owner, name, None)
    if orig is None: return
    def f(*a, **k):
        t = time.perf_counter()
        try: return orig(*a, **k)
        finally: ms[key] += time.perf_counter() - t
    setattr(owner, name, f)
    for m in mods: setattr(m, name, f)
wrap(M, "maintain_delete", "delete", (U, I))
wrap(M, "maintain_insert", "insert", (U, I))
inner = "top" not in sys.argv
for n in () if not inner else ("remove_many", "insert_at", "insert_front", "swap", "sort_nodes"):
    wrap(TopoOrder, n, "L." + n)
for n in () if not inner else ("retain_below", "retain_ancestors", "add_closure_below"):
    wrap(B, n, "M." + n)
w = workloads.by_name(wl)
streams = []
for s in range(w.pool):
    path, _ = workloads.ensure_stream(w, s)
    with open(path) as h:
        header = json.loads(h.readline()); streams.append((header, [json.loads(l) for l in h]))
best = {}
for r in range(reps):
    ms.clear(); total = 0
    for header, calls in streams:
        atg, db = named_workload(header["params"]["workload"])
        svc = open_view(atg, db, config=ViewConfig(strict=False))
        gc.collect()
        t = time.perf_counter()
        for c in calls:
            if c["op"] == "read": svc.xpath(c["path"])
            else: svc.apply(c)
        total += time.perf_counter() - t
    ms["loop"] = total
    for k, v in ms.items(): best[k] = min(v, best.get(k, v))
for k in sorted(best): print(f"{k:22s} {best[k]*1000:9.1f} ms")
