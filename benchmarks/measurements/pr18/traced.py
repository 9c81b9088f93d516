"""Scratch: one traced parent/change run per workload (`run.measure` with a
trace path, via ../pr16/pairs.py), printing the per-layer metrics ISSUE 18
says must not move."""
import pathlib, sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "pr16"))
import pairs

KEYS = ["changefeed.events_per_commit", "subscribe.full_refresh_per_commit",
        "subscribe.self_ms_per_op", "changefeed.self_ms_per_op",
        "subscribe.ms_per_commit", "service.lock_hold_ms_per_commit",
        "trace.attributed_share"]
seed = int(sys.argv[1])
for w in sys.argv[2:]:
    res = {side: pairs.measure(co, w, seed, trace=f"/root/scratch/trace_{side}_{w}.jsonl")
           for side, co in (("A", pairs.PARENT), ("B", pairs.CHANGE))}
    a, b = res["A"], res["B"]
    print(w, "correct", a["correct"], b["correct"], "failed", a["failed"], b["failed"],
          "digests identical:", a["digests"] == b["digests"], "streams", len(a["digests"]))
    for k in KEYS:
        print("   %-40s %10.4f -> %10.4f" % (k, a["metrics"][k]["value"], b["metrics"][k]["value"]))
