"""Tests for the workload generator (``repro-bench generate``).

The contract under test:

- **determinism** — the same :class:`WorkloadSpec` always yields the
  same bytes, and :func:`regenerate_from_header` rebuilds a stream
  byte-for-byte from nothing but its own first line (golden-tested
  against ``tests/data/workload_golden.jsonl``);
- **validity** — every emitted op is accepted by a fresh view of the
  stream's workload (the generator simulates the stream against a
  shadow view, so cascade deletes cannot strand later ops);
- **shape** — each named pattern produces its advertised op mix, zipf
  skew concentrates targets, and the header carries the derived
  read-side artifacts (queries, subscriptions) plus full provenance.
"""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.workload_gen import (
    PATTERNS,
    STREAM_VERSION,
    WorkloadSpec,
    generate_ops,
    generate_records,
    make_header,
    parse_header_line,
    regenerate_from_header,
    write_stream,
)
from repro.errors import ReproError
from repro.service import ViewConfig, open_view
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

GOLDEN = pathlib.Path(__file__).parent / "data" / "workload_golden.jsonl"

SMALL = dict(workload="synthetic:60", ops=20, seed=7)


def render(spec: WorkloadSpec, argv=None) -> str:
    buf = io.StringIO()
    write_stream(generate_records(spec, argv=argv), buf)
    return buf.getvalue()


class TestSpec:
    def test_round_trip(self):
        spec = WorkloadSpec(**SMALL, pattern="churn", key_skew=0.9)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_raises(self):
        with pytest.raises(ReproError, match="unknown WorkloadSpec"):
            WorkloadSpec.from_dict({"ops": 1, "bogus": True})

    @pytest.mark.parametrize(
        "bad",
        [
            {"ops": -1},
            {"pattern": "nope"},
            {"key_skew": -0.1},
            {"read_ratio": 1.5},
            {"batch_size": 0},
            {"subscriptions": -2},
            {"new_key_fraction": 2.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ReproError):
            WorkloadSpec(**bad)


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        spec = WorkloadSpec(**SMALL, pattern="mixed", key_skew=1.1)
        argv = ["generate", "--seed", "7"]
        assert render(spec, argv) == render(spec, argv)

    def test_different_seed_different_ops(self):
        a = WorkloadSpec(**{**SMALL, "seed": 1})
        b = WorkloadSpec(**{**SMALL, "seed": 2})
        assert list(generate_ops(a)) != list(generate_ops(b))

    def test_regenerate_from_header_is_byte_identical(self):
        spec = WorkloadSpec(**SMALL, pattern="replace_storm")
        original = render(spec, argv=["generate", "--x"])
        header = json.loads(original.splitlines()[0])
        buf = io.StringIO()
        write_stream(regenerate_from_header(header), buf)
        assert buf.getvalue() == original

    def test_golden_stream_regenerates_byte_identically(self):
        # The committed artifact must be reproducible from its own
        # header — across sessions, machines and (because the header is
        # re-emitted verbatim) library versions.
        golden = GOLDEN.read_text()
        header = json.loads(golden.splitlines()[0])
        buf = io.StringIO()
        write_stream(regenerate_from_header(header), buf)
        assert buf.getvalue() == golden

    def test_unsupported_stream_version_raises(self):
        header = make_header(WorkloadSpec(**SMALL))
        header["workload_stream"] = STREAM_VERSION + 1
        with pytest.raises(ReproError, match="unsupported workload stream"):
            list(regenerate_from_header(header))


class TestHeader:
    def test_provenance_fields(self):
        from repro import __version__

        spec = WorkloadSpec(**SMALL, subscriptions=3, read_ratio=0.5)
        header = make_header(spec, argv=["generate", "--ops", "20"])
        assert header["workload_stream"] == STREAM_VERSION
        assert header["seed"] == spec.seed
        assert header["argv"] == ["generate", "--ops", "20"]
        assert header["version"] == __version__
        assert WorkloadSpec.from_dict(header["params"]) == spec

    def test_derived_read_side(self):
        spec = WorkloadSpec(**SMALL, subscriptions=2, read_ratio=0.25)
        header = make_header(spec)
        assert len(header["subscriptions"]) == 2
        assert len(header["queries"]) >= 2
        assert all(isinstance(q, str) for q in header["queries"])

    def test_no_reads_no_queries(self):
        header = make_header(WorkloadSpec(**SMALL))
        assert header["queries"] == []
        assert header["subscriptions"] == []

    def test_parse_header_line(self):
        header = make_header(WorkloadSpec(**SMALL))
        line = json.dumps(header, sort_keys=True)
        assert parse_header_line(line) == header
        assert parse_header_line('{"op": "delete", "path": "x"}') is None
        assert parse_header_line("not json at all") is None
        assert parse_header_line("") is None


@pytest.mark.parametrize("pattern", PATTERNS)
class TestPatterns:
    def test_streams_apply_cleanly(self, pattern):
        spec = WorkloadSpec(
            workload="synthetic:60", ops=25, seed=11, pattern=pattern,
            key_skew=1.0,
        )
        ops = list(generate_ops(spec))
        assert len(ops) == spec.ops
        dataset = build_synthetic(SyntheticConfig(n_c=60, seed=42))
        service = open_view(
            dataset.atg, dataset.db, config=ViewConfig(strict=False)
        )
        outcomes = [service.apply(op) for op in ops]
        assert all(o.accepted for o in outcomes), [
            o.reason for o in outcomes if not o.accepted
        ]
        assert service.check_consistency() == []

    def test_op_mix(self, pattern):
        spec = WorkloadSpec(
            workload="synthetic:60", ops=30, seed=5, pattern=pattern
        )
        kinds = {op["op"] for op in generate_ops(spec)}
        expected = {
            "mixed": {"insert", "delete", "replace"},
            "deep_chain": {"insert"},
            "dense_dag": {"insert"},
            "churn": {"insert", "delete"},
            "replace_storm": {"replace"},
        }[pattern]
        assert kinds <= expected
        assert "insert" in kinds or pattern == "replace_storm"


class TestSkew:
    def test_zipf_concentrates_targets(self):
        def spread(skew):
            spec = WorkloadSpec(
                workload="synthetic:120", ops=60, seed=3,
                pattern="dense_dag", key_skew=skew,
            )
            targets = [op["path"] for op in generate_ops(spec)]
            return len(set(targets))

        # A heavy zipf reuses hot parents; uniform spreads across the
        # whole pool.  Distinct-path counts must reflect that.
        assert spread(1.5) < spread(0.0)


class TestCLI:
    @pytest.mark.parametrize(
        "workload", ["synthetic:-3", "synthetic:1", "synthetic:abc", "bom"]
    )
    def test_unbuildable_workload_exits_2_before_writing(
        self, workload, tmp_path, capsys
    ):
        from repro.bench.workload_gen import main

        out = tmp_path / "stream.jsonl"
        assert main(["--workload", workload, "--ops", "3"]) == 2
        assert main(["--workload", workload, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        assert captured.err.count("error: ") == 2
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("workload", ["synthetic:10", "synthetic:16"])
    def test_a_stream_that_fails_midway_writes_nothing(
        self, workload, tmp_path, capsys
    ):
        """The ``mixed`` deletes empty these views of keys a few ops in:
        the run fails with nothing on stdout and no file, not with a
        truncated stream behind a valid header."""
        from repro.bench.workload_gen import main

        out = tmp_path / "stream.jsonl"
        args = ["--workload", workload, "--ops", "3"]
        assert main(args) == 2
        assert main([*args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        assert captured.err.count("emptied the view of cnode keys") == 2

    def _generate(self, tmp_path, *extra):
        out = tmp_path / "stream.jsonl"
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.bench", "generate",
                "--workload", "synthetic:60", "--ops", "10",
                "--seed", "3", "--out", str(out), *extra,
            ],
            capture_output=True,
            text=True,
            cwd=str(pathlib.Path(__file__).parent.parent),
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 0, result.stderr
        return out

    def test_generate_writes_header_plus_ops(self, tmp_path):
        out = self._generate(tmp_path)
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        header = parse_header_line(lines[0])
        assert header is not None
        assert header["params"]["ops"] == 10
        for line in lines[1:]:
            assert parse_header_line(line) is None
            assert json.loads(line)["op"] in {"insert", "delete", "replace"}

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        first = self._generate(tmp_path).read_bytes()
        second = self._generate(tmp_path).read_bytes()
        assert first == second

    def test_apply_consumes_header(self, tmp_path):
        stream = self._generate(tmp_path)
        from repro.apply import run

        out = io.StringIO()
        code = run(stream.read_text().splitlines(), out=out)
        assert code == 0
        text = out.getvalue()
        assert "provenance header consumed" in text
        assert "'synthetic:60'" in text  # workload taken from the header
        assert "10 accepted, 0 rejected" in text
