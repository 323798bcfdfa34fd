"""The two-tree harness of the evidence scripts, `scripts/benchpairs.py`."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import benchpairs  # noqa: E402


def test_compare_counts_ties_for_neither_side():
    runs = {"before": [2.0, 3.0, 4.0, 5.0], "after": [1.0, 3.0, 5.0, 4.0]}
    out = benchpairs.compare(runs, lambda value: value)
    assert out["after_lower"] == "2/4"
    assert out["before"]["median"] == 3.5
    assert out["after"]["median"] == 3.5
    assert out["change"] == 0.0
    assert benchpairs.compare({"before": [4.0], "after": [3.0]},
                              lambda value: value)["change"] == -0.25


def test_summary_of_one_value_is_that_value_three_times():
    assert benchpairs.summary([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5,
                                         "runs": [0.5]}


def test_pair_loop_alternates_which_side_runs_first(capsys):
    order = []

    def measure(side, pair):
        order.append((pair, side))
        return {"pair": pair}

    runs = benchpairs.alternate(3, measure, lambda run: f"run {run['pair']}")
    assert order == [(0, "before"), (0, "after"), (1, "after"),
                     (1, "before"), (2, "before"), (2, "after")]
    assert runs == {side: [{"pair": 0}, {"pair": 1}, {"pair": 2}]
                    for side in ("before", "after")}
    assert capsys.readouterr().err.splitlines() == [
        "pair 0 before: run 0", "pair 0 after: run 0", "pair 1 after: run 1",
        "pair 1 before: run 1", "pair 2 before: run 2", "pair 2 after: run 2"]


def test_run_returns_stdout_seconds_and_peak_memory(tmp_path):
    stdout, seconds, rss_mb = benchpairs.run(tmp_path, [
        "-c", "import os, sys; print(os.environ['OMP_NUM_THREADS'], "
              "sys.path[1])"])
    assert stdout.split() == ["1", str(tmp_path / "src")]
    assert seconds > 0 and rss_mb > 0


def test_failing_child_stops_the_run_with_its_exit_code_and_stderr(tmp_path):
    with pytest.raises(SystemExit) as stop:
        benchpairs.run(tmp_path, [
            "-c", "import sys; sys.stderr.write('no inputs here'); "
                  "sys.exit(3)"])
    message = str(stop.value)
    assert str(tmp_path) in message
    assert "exited 3" in message
    assert "no inputs here" in message


def test_f_tail_cold_train_keeps_the_train_childs_peak_memory(tmp_path,
                                                               monkeypatch):
    import bench_f_tail
    children = []

    def run(tree, argv):
        children.append(argv[:2])
        return "", 1.5, 111.0

    monkeypatch.setattr(benchpairs, "run", run)
    monkeypatch.setattr(benchpairs, "run_worker", lambda *_: {
        "calls": 7, "f_tail_s": 0.1, "scipy_fdtrc_s": 0.2,
        "max_rss_mb": 222.0})
    args = SimpleNamespace(trees={"before": tmp_path})
    result = bench_f_tail.measure(args, tmp_path, "before", 0)
    assert children == [["-m", "surrokit"]]
    assert (tmp_path / "before-0").is_dir()
    assert result == {"calls": 7, "f_tail_s": 0.1, "scipy_fdtrc_s": 0.2,
                      "wall_s": 1.5, "max_rss_mb": 111.0}
