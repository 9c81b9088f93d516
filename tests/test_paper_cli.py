"""The command lines around the paper report.

``python -m benchmarks.paper`` refuses a flag it does not know before
any experiment runs, and ``repro-bench`` has one mode, ``generate``.
Every experiment is patched to raise, so a command line that starts
the report fails at once instead of running it for minutes.
"""

import sys

import pytest

#: The CSV stems one report writes, one per paper artifact.
ARTIFACTS = (
    "fig10b", "fig11_deletions", "fig11_insertions", "fig11g", "fig11h",
    "table1", "ablation_reach", "ablation_index_backends",
    "ablation_dag_vs_tree", "ablation_minimal_delete", "ablation_chain_depth",
)


def _refuse(*args, **kwargs):
    raise AssertionError("the report started")


@pytest.fixture
def no_report(monkeypatch):
    """No module path can start the report: the installed package's old
    experiment module is unimportable."""
    monkeypatch.setitem(sys.modules, "repro.bench.experiments", None)


@pytest.fixture
def experiments(no_report, monkeypatch):
    """``benchmarks.paper.experiments`` with every experiment raising."""
    from benchmarks.paper import experiments

    for name in dir(experiments):
        if name.startswith(("fig", "table", "ablation")):
            monkeypatch.setattr(experiments, name, _refuse)
    return experiments


@pytest.mark.parametrize("argv", [["--quik"], ["--quick", "--csv"], ["quick"]])
def test_report_rejects_what_it_does_not_know(experiments, argv, capsys):
    from benchmarks.paper.__main__ import main

    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 2
    assert "usage: python -m benchmarks.paper" in capsys.readouterr().err


def test_report_writes_one_csv_per_artifact(
    experiments, monkeypatch, tmp_path, capsys
):
    from benchmarks.paper.__main__ import main

    for name in dir(experiments):
        if name.startswith(("fig", "table", "ablation")):
            monkeypatch.setattr(
                experiments, name, lambda *args, **kwargs: [{"rows": 1}]
            )
    assert main(["--quick", "--csv", str(tmp_path)]) == 0
    assert sorted(path.stem for path in tmp_path.iterdir()) == sorted(ARTIFACTS)


@pytest.mark.parametrize("argv", [[], ["--quick"], ["--quick", "--csv", "out"]])
def test_repro_bench_has_one_mode(no_report, argv, capsys):
    from repro.bench.__main__ import main

    assert main(argv) == 2
    assert "python -m benchmarks.paper" in capsys.readouterr().err
