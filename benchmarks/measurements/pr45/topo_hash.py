"""Hash `L` after every op, with ΔR and the store digest, over 20 streams.

    python3 topo_hash.py CHECKOUT

Streams: 5 patterns x `synthetic:200:1` / `synthetic:600:2` x batch size
1 and 4, 120 ops each, key skew 0.8, seed 0.  A batch of 4 goes through
one `service.apply([...])` (one update session), so `L` is hashed after
each flush.  Prints one line per stream (its hash, and whether
`check_consistency()` is empty at the end) and the hash of all of them;
two checkouts that print the same last line left the same `L` after
every op.
"""
import hashlib
import json
import sys

sys.path.insert(0, sys.argv[1] + "/src")

from repro import ViewConfig, open_view  # noqa: E402
from repro.bench.workload_gen import PATTERNS, WorkloadSpec, generate_ops  # noqa: E402
from repro.workloads import named_workload  # noqa: E402


def stream_hash(workload: str, pattern: str, batch: int) -> tuple[str, bool]:
    spec = WorkloadSpec(workload=workload, ops=120, seed=0, pattern=pattern,
                        key_skew=0.8, batch_size=batch)
    ops = list(generate_ops(spec))
    atg, db = named_workload(workload)
    service = open_view(atg, db, config=ViewConfig(strict=False))
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for start in range(0, len(ops), batch):
        group = ops[start:start + batch]
        outcomes = service.apply(group) if batch > 1 else [service.apply(group[0])]
        for outcome in outcomes:
            digest.update(repr(outcome.to_dict(include_deltas=True)["delta_r"]).encode())
        digest.update(repr(service.updater.topo.as_list()).encode())
        digest.update(service.store.digest().encode())
    return digest.hexdigest()[:16], service.check_consistency() == []


def main() -> None:
    total = hashlib.sha256()
    for workload in ("synthetic:200:1", "synthetic:600:2"):
        for pattern in PATTERNS:
            for batch in (1, 4):
                h, consistent = stream_hash(workload, pattern, batch)
                total.update(h.encode())
                print(f"{workload:16} {pattern:14} batch={batch} {h} consistent={consistent}",
                      flush=True)
    print("all 20 streams:", total.hexdigest()[:16])


if __name__ == "__main__":
    main()
