"""End-to-end tests for the ``python -m repro.apply`` CLI.

Exercises op deserialization from JSON-lines all the way through the
service: apply mode, dry-run (plan-only) mode, JSON output mode, the
named-workload resolver, and the failure exit codes.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.apply import main, run

OPS = [
    '{"op": "delete", "path": "course[cno=CS650]/prereq/course[cno=CS320]"}',
    '{"op": "insert", "path": "course[cno=CS650]/prereq", '
    '"element": "course", "sem": ["CS500", "Operating Systems"]}',
    '{"op": "base_update", "ops": '
    '[["insert", "course", ["CS800", "Quantum", "CS"]]]}',
]


@pytest.fixture
def ops_file(tmp_path):
    path = tmp_path / "ops.jsonl"
    path.write_text("# demo ops\n" + "\n".join(OPS) + "\n")
    return path


class TestRun:
    def test_apply_summary(self, capsys):
        code = run(iter(OPS), workload="registrar")
        out = capsys.readouterr().out
        assert code == 0
        assert "3 op(s) applied against 'registrar'" in out
        assert "3 accepted, 0 rejected" in out
        assert "consistency OK" in out

    def test_rejections_reported_not_fatal(self, capsys):
        lines = ['{"op": "delete", "path": "course[cno=NOPE]"}']
        code = run(iter(lines), workload="registrar")
        out = capsys.readouterr().out
        assert code == 0
        assert "REJECTED" in out and "selects no node" in out

    def test_plan_only_leaves_view_untouched(self, capsys):
        code = run(iter(OPS), workload="registrar", plan_only=True)
        out = capsys.readouterr().out
        assert code == 0
        assert "planned (dry run)" in out
        # The registrar view starts with 30 nodes; a dry run keeps them.
        assert "view now 30 nodes" in out

    def test_json_output_is_outcome_dicts(self, capsys):
        code = run(iter(OPS), workload="registrar", as_json=True)
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        payloads = [json.loads(line) for line in lines]
        assert [p["kind"] for p in payloads] == [
            "delete", "insert", "base_update",
        ]
        assert all(p["accepted"] for p in payloads)
        # include_deltas mode embeds the full op lists.
        assert payloads[0]["delta_r"]["ops"] == [
            ["delete", "prereq", ["CS650", "CS320"]]
        ]

    def test_synthetic_workload_with_propagate(self, capsys):
        lines = ['{"op": "delete", "path": "//cnode[key=7]"}']
        code = run(iter(lines), workload="synthetic:60", policy="propagate")
        assert code == 0
        assert "1 accepted" in capsys.readouterr().out

    def test_stats_reports_generation_and_buffer(self, capsys):
        code = run(iter(OPS), workload="registrar", show_stats=True)
        out = capsys.readouterr().out
        assert code == 0
        assert "index backend: bitset; |M| = " in out  # benchmark provenance
        # Snapshot-freshness line: the feed attaches lazily, so nothing
        # is retained yet and the replay floor sits at the head.
        # Three ops, three generations (a typed base update advances
        # the generation by one, like any other op).
        assert "generation: 3; changefeed buffer: 0/256 event(s) retained" \
            in out
        assert "replay floor 3" in out

    def test_snapshot_flag_writes_loadable_artifact(self, tmp_path, capsys):
        from repro.replica import Snapshot

        path = tmp_path / "view.json.gz"
        code = run(iter(OPS), workload="registrar", snapshot_path=str(path))
        out = capsys.readouterr().out
        assert code == 0
        assert "snapshot: generation 3," in out
        assert str(path) in out
        snapshot = Snapshot.load(path)
        assert snapshot.generation == 3
        assert snapshot.num_nodes > 0


MIXED_LINES = [
    '{"op": "delete", "path": "course[cno=CS650]/prereq/course[cno=CS320]"}',
    "this is not json",
    '{"op": "insert", "path": ".", "element": "course", '
    '"sem": ["CS700", "Theory"]}',
]


class TestMalformedLines:
    """Regression: a malformed line mid-stream used to abort the run
    without the failing line number, leaving the caller unable to tell
    which earlier ops had already been applied."""

    def test_stop_on_error_reports_line_and_partial_summary(self, capsys):
        code = run(iter(MIXED_LINES), workload="registrar")
        captured = capsys.readouterr()
        assert code == 2
        assert "bad input: line 2:" in captured.err
        # The op before the bad line stayed applied and is summarized.
        assert "1 op(s) applied" in captured.out
        assert "stopped at line 2" in captured.out
        assert "consistency OK" in captured.out

    def test_keep_going_processes_the_rest(self, capsys):
        code = run(iter(MIXED_LINES), workload="registrar",
                   stop_on_error=False)
        captured = capsys.readouterr()
        assert code == 2  # still nonzero: input was malformed
        assert "bad input: line 2:" in captured.err
        assert "2 op(s) applied" in captured.out
        assert "1 malformed line(s) skipped" in captured.out

    def test_line_numbers_count_comments_and_blanks(self, capsys):
        lines = ["# comment", "", MIXED_LINES[0], "{broken"]
        code = run(iter(lines), workload="registrar")
        captured = capsys.readouterr()
        assert code == 2
        assert "bad input: line 4:" in captured.err

    def test_clean_stream_still_exits_zero(self, capsys):
        assert run(iter(OPS), workload="registrar") == 0

    def test_main_flags(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(MIXED_LINES) + "\n")
        assert main([str(path), "--stop-on-error"]) == 2
        assert "stopped at line 2" in capsys.readouterr().out
        assert main([str(path), "--keep-going"]) == 2
        assert "2 op(s) applied" in capsys.readouterr().out

    def test_flags_are_mutually_exclusive(self, tmp_path, capsys):
        path = tmp_path / "ops.jsonl"
        path.write_text(MIXED_LINES[0] + "\n")
        with pytest.raises(SystemExit):
            main([str(path), "--stop-on-error", "--keep-going"])

    def test_retired_backend_flag_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ops.jsonl"
        path.write_text(MIXED_LINES[0] + "\n")
        with pytest.raises(SystemExit) as usage:
            main([str(path), "--backend", "sets"])
        assert usage.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestMain:
    def test_file_input(self, ops_file, capsys):
        assert main([str(ops_file), "--workload", "registrar"]) == 0
        assert "3 accepted" in capsys.readouterr().out

    def test_plan_only_flag(self, ops_file, capsys):
        code = main([str(ops_file), "--plan-only"])
        assert code == 0
        assert "dry run" in capsys.readouterr().out

    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"op": "delete"\n')
        assert main([str(bad)]) == 2
        assert "bad input" in capsys.readouterr().err

    def test_deeply_nested_line_is_bad_input(self, tmp_path):
        """A line nested past the JSON decoder's recursion limit is
        malformed input like any other: reported, exit status 2, no
        traceback."""
        bad = tmp_path / "deep.jsonl"
        bad.write_text("[" * 200_000 + "\n")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.apply", "--keep-going", str(bad)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "bad input: line 1:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_op_kind_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"op": "upsert", "path": "x"}\n')
        assert main([str(bad)]) == 2
        assert "unknown operation kind" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, ops_file, capsys):
        assert main([str(ops_file), "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workload", ["synthetic:-3", "synthetic:1", "chain:0", "chain:-2"]
    )
    def test_unbuildable_workload_exits_2(self, ops_file, capsys, workload):
        assert main([str(ops_file), "--workload", workload]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and ">= " in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["/no/such/file.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err
