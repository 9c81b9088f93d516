"""Scale-parameterized workload generation: ``repro-bench generate``.

Every benchmark and soak run used to hand-roll its own op stream; this
module makes workloads first-class *artifacts* instead (modeled on the
adaptive-hashmap-studio workload inventory — scale-parameterized files
whose provenance rides with the data).  A generated stream is JSONL:

- line 1 is a **provenance header** — a JSON object whose
  ``"workload_stream"`` key carries the format version, plus the seed,
  the full parameter set, the generating command line and the library
  version.  ``python -m repro.apply`` recognizes and consumes the
  header; :func:`regenerate_from_header` rebuilds the *entire* stream
  byte-for-byte from nothing but this line, so any artifact on disk is
  reproducible from its own first record;
- every following line is one typed operation of :mod:`repro.ops`
  (``insert`` / ``delete`` / ``replace``), directly consumable by
  ``python -m repro.apply`` and ``service.apply``.

Tunable axes (all recorded in the header):

- **scale** — the dataset (``synthetic[:n_c[:seed]]``) and the op count;
- **key skew** — a Zipf(s) distribution over live target keys
  (``--key-skew 0`` is uniform; 1.2 is a heavy hot-set);
- **read/write ratio and subscriptions** — the header carries derived
  XPath ``queries`` and ``subscriptions`` lists so a soak/bench harness
  can stand up readers and standing subscriptions matching the stream
  (the op lines stay pure writes: the apply CLI has no read op);
- **batch shape** — ``batch_size`` tells the harness how many
  consecutive ops to group per ``service.batch()`` write scope;
- **adversarial patterns** — named generators stressing a specific
  subsystem (:data:`PATTERNS`): ``deep_chain`` (ever-deeper insertion
  chains — recursion depth, |M| growth), ``dense_dag`` (sharing inserts
  onto a popular hot-set — DAG density, closure fan-out), ``churn``
  (insert/delete cycling — GC, id reuse, WAL growth), ``replace_storm``
  (delete+re-attach composites on skewed targets), and the default
  ``mixed`` blend.

Determinism is a hard contract (golden-tested): one shared
:class:`random.Random`, sorted containers everywhere, no dict-order or
hash dependence — the same header always yields the same bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from typing import Iterator, TextIO

from repro._version import __version__
from repro.errors import ReproError
from repro.workloads import synthetic_config
from repro.workloads.queries import make_query_set
from repro.workloads.synthetic import build_synthetic

#: Format version of the provenance header (bump on layout changes).
STREAM_VERSION = 1

#: The named op-stream shapes the generator understands.
PATTERNS = ("mixed", "deep_chain", "dense_dag", "churn", "replace_storm")

#: New keys start this far above the dataset's key space, so generated
#: inserts never collide with seeded C keys.
NEW_KEY_OFFSET = 5000

#: ``deep_chain`` restarts from a fresh anchor after this many links
#: (unbounded chains would make every later op depend on one node).
CHAIN_RESTART = 12

#: ``churn`` deletes the oldest of its own inserts once this many are
#: outstanding (keeps the live set near-constant while ids cycle).
CHURN_LAG = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """Every knob of one generated stream (the header's ``params``)."""

    workload: str = "synthetic:300"
    ops: int = 100
    seed: int = 42
    pattern: str = "mixed"
    key_skew: float = 0.0
    read_ratio: float = 0.0
    batch_size: int = 1
    subscriptions: int = 0
    new_key_fraction: float = 0.2

    def __post_init__(self):
        synthetic_config(self.workload)  # a name the generator can build
        if self.ops < 0:
            raise ReproError(f"ops must be >= 0, got {self.ops!r}")
        if self.pattern not in PATTERNS:
            raise ReproError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )
        if self.key_skew < 0:
            raise ReproError(
                f"key_skew must be >= 0, got {self.key_skew!r}"
            )
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ReproError(
                f"read_ratio must be in [0, 1], got {self.read_ratio!r}"
            )
        if self.batch_size < 1:
            raise ReproError(
                f"batch_size must be >= 1, got {self.batch_size!r}"
            )
        if self.subscriptions < 0:
            raise ReproError(
                f"subscriptions must be >= 0, got {self.subscriptions!r}"
            )
        if not 0.0 <= self.new_key_fraction <= 1.0:
            raise ReproError(
                f"new_key_fraction must be in [0, 1], "
                f"got {self.new_key_fraction!r}"
            )

    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        """Decode :meth:`to_dict` output; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(f"unknown WorkloadSpec field(s): {unknown}")
        return cls(**payload)


def parse_header_line(line: str) -> dict | None:
    """The provenance header, if ``line`` is one; ``None`` otherwise.

    A header is a JSON object carrying the ``"workload_stream"`` key.
    Anything else — op lines, malformed JSON — returns ``None`` so
    callers fall through to their normal per-line handling.
    """
    stripped = line.strip()
    if not stripped.startswith("{") or '"workload_stream"' not in stripped:
        return None
    try:
        payload = json.loads(stripped)
    except ValueError:
        return None
    if isinstance(payload, dict) and "workload_stream" in payload:
        return payload
    return None


class _Zipf:
    """Zipf(s) rank sampling with a cached CDF.

    ``pick(rng, n)`` returns a rank in ``[0, n)``; rank 0 is the
    hottest.  The CDF is recomputed only when ``n`` changes (the live
    key set grows/shrinks by one per churn op), keeping generation
    O(ops · log n) amortized.
    """

    def __init__(self, s: float):
        self.s = s
        self._n = -1
        self._cdf: list[float] = []

    def pick(self, rng, n: int) -> int:
        if n <= 1:
            return 0
        if self.s <= 0.0:
            return rng.randrange(n)
        if n != self._n:
            total = 0.0
            cdf = []
            for rank in range(n):
                total += 1.0 / (rank + 1) ** self.s
                cdf.append(total)
            self._n, self._cdf = n, cdf
        point = rng.random() * self._cdf[-1]
        return min(bisect_left(self._cdf, point), n - 1)


class _StreamState:
    """Mutable generation state shared by all pattern generators."""

    def __init__(self, spec: WorkloadSpec, dataset):
        import random

        from repro.core.updater import XMLViewUpdater

        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.zipf = _Zipf(spec.key_skew)
        self.sim = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
        """A shadow of the view the stream targets.  Every emitted op is
        applied here before the next one is generated, so the live-key
        pool tracks what the consumer's view will actually contain —
        ``dataset.passing`` over-approximates it (a passing key with no
        surviving ancestor chain never materializes as a ``cnode``),
        and deletes cascade to unshared descendants the generator could
        not otherwise see."""
        self.alive = self._keys_in_view()
        """Live C keys, kept sorted (zipf rank 0 = first key — stable,
        deterministic hot set); refreshed from :attr:`sim` per op."""
        self.payloads = {}
        """Payload strings of keys *this stream* introduced (seeded keys
        read theirs from the dataset)."""
        self._dataset = dataset
        self.next_new = dataset.config.n_c + NEW_KEY_OFFSET

    def _keys_in_view(self) -> list[int]:
        """Keys of every ``cnode`` the published view currently shows."""
        result = self.sim.evaluate_xpath("//cnode")
        sem = self.sim.store.node_sem
        return sorted(sem[node][0] for node in result.targets)

    def advance(self, op: dict) -> bool:
        """Apply ``op`` to the shadow view and refresh the key pool.

        Returns whether the shadow accepted it.  Rejected candidates
        (e.g. a sharing insert that would close a cycle) are *dropped*
        from the stream — every emitted op applies cleanly against a
        fresh view, which is what makes soak/bench accounting exact —
        and the refresh keeps later ops aimed at nodes that exist.
        """
        from repro.ops import op_from_dict

        outcome = self.sim.apply_op(op_from_dict(op))
        self.alive = self._keys_in_view()
        if not self.alive:
            raise ReproError(
                "workload generation emptied the view of cnode keys; "
                "use a larger dataset or fewer destructive ops"
            )
        return outcome.accepted

    def payload_of(self, key: int) -> str:
        if key in self.payloads:
            return self.payloads[key]
        row = self._dataset.db.table("C").get((key,))
        return row[4] if row is not None else f"w{key}"

    def pick_key(self) -> int:
        """A zipf-skewed live key."""
        return self.alive[self.zipf.pick(self.rng, len(self.alive))]

    def fresh_key(self, index: int) -> int:
        key = self.next_new
        self.next_new += 1
        self.payloads[key] = f"w{index}"
        return key

    def add_alive(self, key: int) -> None:
        if not self.alive or self.alive[-1] < key:
            self.alive.append(key)
        else:
            position = bisect_left(self.alive, key)
            if position >= len(self.alive) or self.alive[position] != key:
                self.alive.insert(position, key)

    def drop_alive(self, key: int) -> None:
        position = bisect_left(self.alive, key)
        if position < len(self.alive) and self.alive[position] == key:
            del self.alive[position]

    # -- op constructors ----------------------------------------------------------

    def insert_under(self, parent: int, child: int) -> dict:
        return {
            "op": "insert",
            "path": f"//cnode[key={parent}]/sub",
            "element": "cnode",
            "sem": [child, self.payload_of(child)],
        }

    def delete_key(self, key: int) -> dict:
        self.drop_alive(key)
        return {"op": "delete", "path": f"//cnode[key={key}]"}

    def replace_key(self, key: int, replacement: int) -> dict:
        self.drop_alive(key)
        self.add_alive(replacement)
        return {
            "op": "replace",
            "path": f"//cnode[key={key}]",
            "element": "cnode",
            "sem": [replacement, self.payload_of(replacement)],
        }


def _ops_mixed(state: _StreamState) -> Iterator[dict]:
    spec, rng = state.spec, state.rng
    for index in itertools.count():
        roll = rng.random()
        target = state.pick_key()
        if roll < 0.45:
            if rng.random() < spec.new_key_fraction:
                child = state.fresh_key(index)
                state.add_alive(child)
            else:
                child = state.pick_key()
            yield state.insert_under(target, child)
        elif roll < 0.70:
            yield state.delete_key(target)
        else:
            if rng.random() < spec.new_key_fraction:
                replacement = state.fresh_key(index)
            else:
                replacement = state.pick_key()
            yield state.replace_key(target, replacement)


def _ops_deep_chain(state: _StreamState) -> Iterator[dict]:
    tip: int | None = None
    for index in itertools.count():
        if tip is None or index % CHAIN_RESTART == 0:
            tip = state.pick_key()
        child = state.fresh_key(index)
        state.add_alive(child)
        yield state.insert_under(tip, child)
        tip = child


def _ops_dense_dag(state: _StreamState) -> Iterator[dict]:
    # Share a small hot set of children under many parents: every op
    # adds an edge, few ops add nodes — density climbs, GC never runs.
    rng = state.rng
    hot = state.alive[: max(4, len(state.alive) // 16)]
    for index in itertools.count():
        child = hot[state.zipf.pick(rng, len(hot))]
        parent = state.pick_key()
        if parent == child:
            parent = state.alive[
                (bisect_left(state.alive, child) + 1) % len(state.alive)
            ]
        yield state.insert_under(parent, child)


def _ops_churn(state: _StreamState) -> Iterator[dict]:
    outstanding: list[int] = []
    for index in itertools.count():
        if len(outstanding) >= CHURN_LAG:
            yield state.delete_key(outstanding.pop(0))
            continue
        child = state.fresh_key(index)
        state.add_alive(child)
        outstanding.append(child)
        yield state.insert_under(state.pick_key(), child)


def _ops_replace_storm(state: _StreamState) -> Iterator[dict]:
    for index in itertools.count():
        target = state.pick_key()
        if state.rng.random() < max(state.spec.new_key_fraction, 0.5):
            replacement = state.fresh_key(index)
        else:
            replacement = state.pick_key()
        yield state.replace_key(target, replacement)


_PATTERN_FNS = {
    "mixed": _ops_mixed,
    "deep_chain": _ops_deep_chain,
    "dense_dag": _ops_dense_dag,
    "churn": _ops_churn,
    "replace_storm": _ops_replace_storm,
}


def _resolve_dataset(workload: str):
    return build_synthetic(synthetic_config(workload))


def make_header(spec: WorkloadSpec, argv: list[str] | None = None) -> dict:
    """The provenance header record for ``spec``.

    Carries everything :func:`regenerate_from_header` needs (the
    ``params``), plus pure provenance — the generating command line and
    library version — and the derived read-side artifacts: the XPath
    ``queries`` a harness should issue as reads (scaled by
    ``read_ratio``) and the ``subscriptions`` it should keep standing.
    """
    dataset = _resolve_dataset(spec.workload)
    derived = max(spec.subscriptions, 4 if spec.read_ratio > 0 else 0)
    paths = make_query_set(dataset, count=derived, seed=spec.seed)
    return {
        "workload_stream": STREAM_VERSION,
        "seed": spec.seed,
        "params": spec.to_dict(),
        "argv": list(argv) if argv is not None else [],
        "version": __version__,
        "subscriptions": paths[: spec.subscriptions],
        "queries": paths,
    }


def generate_ops(spec: WorkloadSpec) -> Iterator[dict]:
    """The op records of ``spec``'s stream (header not included).

    Exactly ``spec.ops`` records, every one *accepted* by the shadow
    view — candidates the shadow rejects (cycle-closing sharing
    inserts, mostly) are silently regenerated, with a deterministic
    attempt cap as a runaway guard.
    """
    state = _StreamState(spec, _resolve_dataset(spec.workload))
    source = _PATTERN_FNS[spec.pattern](state)
    emitted = 0
    budget = spec.ops * 10 + 100
    while emitted < spec.ops:
        budget -= 1
        if budget < 0:
            raise ReproError(
                f"workload generation stalled: {emitted}/{spec.ops} "
                f"accepted ops after exhausting the attempt budget "
                f"(pattern {spec.pattern!r} keeps producing rejected "
                f"candidates)"
            )
        op = next(source)
        if state.advance(op):
            emitted += 1
            yield op


def generate_records(
    spec: WorkloadSpec, argv: list[str] | None = None
) -> Iterator[dict]:
    """The full stream: provenance header first, then every op."""
    yield make_header(spec, argv=argv)
    yield from generate_ops(spec)


def regenerate_from_header(header: dict) -> Iterator[dict]:
    """Rebuild a stream, byte-identical, from its own header record.

    The header is re-emitted *verbatim* (so provenance fields like the
    recorded command line and library version round-trip even across
    versions), then the ops are regenerated from ``header["params"]``.
    """
    if header.get("workload_stream") != STREAM_VERSION:
        raise ReproError(
            f"unsupported workload stream version "
            f"{header.get('workload_stream')!r} "
            f"(this library writes version {STREAM_VERSION})"
        )
    yield dict(header)
    yield from generate_ops(WorkloadSpec.from_dict(header["params"]))


def write_stream(records, out: TextIO) -> int:
    """Serialize records as JSONL (sorted keys); returns lines written."""
    count = 0
    for record in records:
        out.write(json.dumps(record, sort_keys=True) + "\n")
        count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``repro-bench generate ...``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench generate",
        description="Generate a reproducible op-stream JSONL workload "
        "(pipe into `python -m repro.apply -`).",
    )
    parser.add_argument(
        "--workload", default="synthetic:300",
        help="dataset to generate against: synthetic[:n_c[:seed]] "
        "(default: synthetic:300)",
    )
    parser.add_argument(
        "--ops", type=int, default=100,
        help="number of op records to emit (default: 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="RNG seed; the same seed and parameters always produce "
        "byte-identical output (default: 42)",
    )
    parser.add_argument(
        "--pattern", choices=PATTERNS, default="mixed",
        help="op-stream shape (default: mixed)",
    )
    parser.add_argument(
        "--key-skew", type=float, default=0.0, dest="key_skew",
        help="Zipf exponent over live target keys; 0 = uniform "
        "(default: 0)",
    )
    parser.add_argument(
        "--read-ratio", type=float, default=0.0, dest="read_ratio",
        help="fraction of harness operations that should be reads; "
        "recorded in the header with derived query paths (default: 0)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=1, dest="batch_size",
        help="ops per service.batch() write scope for harnesses that "
        "batch; recorded in the header (default: 1)",
    )
    parser.add_argument(
        "--subscriptions", type=int, default=0,
        help="standing subscription count; the header carries that "
        "many derived XPath paths (default: 0)",
    )
    parser.add_argument(
        "--new-key-fraction", type=float, default=0.2,
        dest="new_key_fraction",
        help="fraction of inserts/replaces introducing brand-new keys "
        "(exercises the SAT translation; default: 0.2)",
    )
    parser.add_argument(
        "--out", default="-",
        help="output path, or '-' for stdout (default: '-')",
    )
    args = parser.parse_args(argv)
    try:
        spec = WorkloadSpec(
            workload=args.workload,
            ops=args.ops,
            seed=args.seed,
            pattern=args.pattern,
            key_skew=args.key_skew,
            read_ratio=args.read_ratio,
            batch_size=args.batch_size,
            subscriptions=args.subscriptions,
            new_key_fraction=args.new_key_fraction,
        )
        recorded = ["generate", *(argv if argv is not None else [])]
        # Every record first: a run that fails writes nothing at all.
        records = list(generate_records(spec, argv=recorded))
        if args.out == "-":
            count = write_stream(records, sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                count = write_stream(records, handle)
    except (ReproError, OSError) as exc:  # OSError: ``--out`` cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"generated {count - 1} op(s) (+1 header) "
        f"[pattern={spec.pattern} seed={spec.seed} "
        f"workload={spec.workload}]"
        + ("" if args.out == "-" else f" -> {args.out}"),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
