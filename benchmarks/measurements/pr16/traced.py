import json, sys, pathlib
sys.path.insert(0, "/root/scratch")
import pairs
seed = int(sys.argv[1])
keys = ["core.dag_eval.evals_per_op", "core.dag_eval.ms_per_eval", "core.dag_eval.self_share", "core.dag_eval.self_ms_per_op",
        "xpath.self_share", "subscribe.inclusive_share", "subscribe.full_refresh_per_commit", "trace.overhead_ratio", "trace.attributed_share"]
for w in sys.argv[2:]:
    res = {}
    for side, co in (("A", pairs.PARENT), ("B", pairs.CHANGE)):
        res[side] = pairs.measure(co, w, seed, trace=f"/root/scratch/trace_{side}_{w}.jsonl")
    a, b = res["A"], res["B"]
    print(w, "correct", a["correct"], b["correct"], "digests identical:", a["digests"] == b["digests"], "streams", len(a["digests"]))
    for k in keys:
        print("   %-38s %10.4f -> %10.4f" % (k, a["metrics"][k]["value"], b["metrics"][k]["value"]))
