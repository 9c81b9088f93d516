"""Hash every subscription's action after every commit over generated
streams, single ops and batched, to compare two checkouts' decisions.

    python3 action_trace.py CHECKOUT

Per stream (32 standing subscriptions from the header, ``key_skew``
0.8): the streams are applied in ``service.apply`` groups of the batch
size shown (1 = one op per commit), and after each commit every
subscription's ``(skips, full_refreshes, coarse_fallbacks, result)`` is
fed to one SHA-256.  Prints, per stream, the hash prefix, the totals and
the ``seed_members`` calls; two checkouts decide alike when the lines
are equal.  On the first line, the decision the engine calls and, on
the pinned churn stream of ``tests/test_subscriptions.py``, the walks
of it and the walks that answered yes.
"""
import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(sys.argv[1]).resolve() / "src"))
from repro.bench.workload_gen import WorkloadSpec, generate_ops, make_header  # noqa: E402
from repro.core.dag_eval import DagXPathEvaluator  # noqa: E402
from repro.service import ViewConfig, open_view  # noqa: E402
from repro.subscribe import engine  # noqa: E402
from repro.workloads import named_workload  # noqa: E402

STREAMS = [  # workload, pattern, ops, batch size, seed
    ("synthetic:120", "churn", 60, 1, 7),
    ("synthetic:120", "churn", 60, 8, 7),
    ("synthetic:300", "mixed", 80, 1, 3),
    ("synthetic:300", "mixed", 80, 8, 3),
    ("synthetic:200", "dense_dag", 80, 1, 5),
    ("synthetic:200", "replace_storm", 60, 4, 11),
]

name = "affects" if hasattr(engine, "affects") else "first_affected_step"
decide = getattr(engine, name)
walks = [0, 0]


def counted(*args):
    answer = decide(*args)
    walks[0] += 1
    walks[1] += bool(answer) if name == "affects" else answer is not None
    return answer


setattr(engine, name, counted)
seeds = [0]
seed_members = DagXPathEvaluator.seed_members


def counted_seed_members(self, *args):
    seeds[0] += 1
    return seed_members(self, *args)


DagXPathEvaluator.seed_members = counted_seed_members
for number, (workload, pattern, ops, size, seed) in enumerate(STREAMS):
    spec = WorkloadSpec(workload=workload, ops=ops, seed=seed, pattern=pattern,
                        key_skew=0.8, subscriptions=32)
    atg, db = named_workload(workload)
    service = open_view(atg, db, config=ViewConfig(strict=False))
    subs = [service.subscribe(p) for p in make_header(spec)["subscriptions"]]
    digest = hashlib.sha256()
    stream = list(generate_ops(spec))
    walks[:] = [0, 0]
    seeds[0] = 0
    for start in range(0, len(stream), size):
        group = stream[start:start + size]
        service.apply(group if size > 1 else group[0])
        digest.update(repr([
            (sub.stats["skips"], sub.stats["full_refreshes"],
             sub.stats["coarse_fallbacks"], sub.result())
            for sub in subs
        ]).encode())
    stats = service.subscriptions.stats()
    if number == 0:
        print(f"{name}: pinned churn stream, {walks[0]} walks, "
              f"{walks[1]} answered yes")
    print(f"{workload} {pattern} batch {size}: {digest.hexdigest()[:16]} "
          f"skips {stats['skips']} full {stats['full_refreshes']} "
          f"coarse {stats['coarse_fallbacks']} seed_members {seeds[0]}")
