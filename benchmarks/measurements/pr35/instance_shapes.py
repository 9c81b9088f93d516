"""What Algorithm insert's solve stage is handed, per workload, one checkout.

    python3 instance_shapes.py CHECKOUT

Replays every write of the four e2e pools (the checkout's own
``benchmarks/e2e`` streams, generated into its cache on first use)
against CHECKOUT's ``src/`` and wraps ``repro.relview.insert._solve``
from outside, whichever signature it has: ``(clauses, solver, plan)``
(clauses of ``(atom, positive)``) or ``(units, side_effects, solver,
plan)`` (positive unit atoms and side-effect derivations).  Per solve it
records the number of positive units and of negated clauses, whether a
clause mixes signs or is positive with more than one atom (neither
should occur), whether any atom mentions a BOOL unknown, whether the
solve rejected (returned ``None`` or raised), and the CNF size the plan
reports (``num_vars`` / ``num_clauses``: the whole constraint's CNF,
or only the BOOL residue's).  Prints one table per workload and the
most common (units, negated) shapes.
"""
import collections
import json
import pathlib
import sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")


def atoms_of(atom_list):
    for atom in atom_list:
        yield from ((atom.var,) if hasattr(atom, "var") else (atom.a, atom.b))


def main():
    checkout = pathlib.Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    import repro.relview.insert as insert
    from repro import ViewConfig, open_view
    from repro.relational.schema import AttrType
    from repro.workloads import named_workload

    records = []
    active = [False]  # off while a stream is generated (a shadow updater)
    solve = insert._solve

    def wrapped(*args):
        if not active[0]:
            return solve(*args)
        plan = args[-1]
        if len(args) == 3:
            clauses = args[0]
            units = [clause[0][0] for clause in clauses
                     if len(clause) == 1 and clause[0][1]]
            negated = [[atom for atom, _ in clause] for clause in clauses
                       if all(not positive for _, positive in clause)]
            odd = len(clauses) - len(units) - len(negated)
        else:
            units = list(args[0])
            negated = [list(derivation.atoms) for derivation in args[1]]
            odd = 0
        every = [*units, *(atom for clause in negated for atom in clause)]
        record = {
            "units": len(units), "negated": len(negated), "odd": odd,
            "bool": any(var.attr_type is AttrType.BOOL for var in atoms_of(every)),
            "rejected": True, "vars": 0, "cnf_clauses": 0,
        }
        records.append(record)
        result = solve(*args)
        record.update(rejected=result is None, vars=plan.num_vars,
                      cnf_clauses=plan.num_clauses)
        return result

    insert._solve = wrapped
    print(f"checkout {checkout.name}: solves handed to _solve, per workload")
    for name in WORKLOADS:
        workload = workloads.by_name(name)
        records.clear()
        for stream in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, stream)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                calls = [json.loads(line) for line in handle]
            atg, db = named_workload(header["params"]["workload"])
            service = open_view(atg, db, config=ViewConfig(strict=False))
            active[0] = True
            for call in calls:
                if call["op"] != "read":
                    service.apply(call)
            active[0] = False
        shapes = collections.Counter((r["units"], r["negated"]) for r in records)
        cnf = collections.Counter((r["vars"], r["cnf_clauses"]) for r in records)
        print(f"== {name} ({workload.pool} streams)")
        print(f"   solves {len(records):,d}; no clause "
              f"{sum(r['units'] + r['negated'] == 0 for r in records):,d}; "
              f"units only {sum(r['units'] > 0 and not r['negated'] for r in records):,d}; "
              f"with negated clauses {sum(r['negated'] > 0 for r in records):,d}; "
              f"other clause kinds {sum(r['odd'] for r in records):,d}; "
              f"BOOL unknown {sum(r['bool'] for r in records):,d}; "
              f"rejected {sum(r['rejected'] for r in records):,d}")
        print("   (units, negated) shapes: " + ", ".join(
            f"{shape}: {count:,d}" for shape, count in shapes.most_common(6)))
        print("   CNF (vars, clauses) reported: " + ", ".join(
            f"{shape}: {count:,d}" for shape, count in cnf.most_common(4)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
