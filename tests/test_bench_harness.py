"""Tests for the benchmark harness utilities."""

from benchmarks.paper.harness import PhaseAccumulator, format_table
from repro.core.updater import UpdateOutcome


def outcome(accepted=True, **timings):
    out = UpdateOutcome(kind="delete", accepted=accepted)
    out.timings.update(timings)
    return out


class TestPhaseAccumulator:
    def test_phase_mapping(self):
        acc = PhaseAccumulator()
        acc.add(
            outcome(
                validate=0.1,
                xpath=0.2,
                translate_v=0.3,
                translate_r=0.4,
                apply=0.5,
                maintain=0.6,
            )
        )
        assert abs(acc.xpath - 0.3) < 1e-9
        assert abs(acc.translate - 1.2) < 1e-9
        assert abs(acc.maintain - 0.6) < 1e-9
        assert abs(acc.total - 2.1) < 1e-9
        assert abs(acc.foreground - 1.5) < 1e-9

    def test_counts(self):
        acc = PhaseAccumulator()
        acc.add(outcome(accepted=True))
        acc.add(outcome(accepted=False))
        assert acc.count == 2
        assert acc.accepted == 1
        assert acc.rejected == 1

    def test_as_row(self):
        acc = PhaseAccumulator()
        acc.add(outcome(xpath=1.0))
        row = acc.as_row()
        assert row["ops"] == 1
        assert row["xpath_s"] == 1.0


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["a", "bee"], [[1, 2.5], [30, 0.00001]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bee" in lines[1]
        assert "---" in lines[2]
        assert len(lines) == 5

    def test_float_formats(self):
        text = format_table(["x"], [[0.0], [0.12345], [1e-6]])
        assert "0" in text
        assert "0.1234" in text or "0.1235" in text
        assert "e-06" in text

    def test_strings_pass_through(self):
        text = format_table(["x"], [["hello"]])
        assert "hello" in text


class TestUpdateOutcome:
    def test_total_and_foreground(self):
        out = outcome(xpath=1.0, maintain=2.0)
        assert out.total_time == 3.0
        assert out.foreground_time == 1.0
