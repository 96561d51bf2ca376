"""CLI tests (drive main() directly, checking stdout and files)."""

import functools
import json

import pytest

from repro.check.invariants import InvariantChecker
from repro.cli import SWEEPS, main
from repro.experiments.faults_sweep import format_faults_sweep, run_faults_sweep


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "multiprio" in out and "intel-v100" in out


def test_run_cholesky_two_schedulers(capsys):
    code = main(
        ["run", "--app", "cholesky", "--size", "6", "--tile", "512",
         "--machine", "intel-v100", "--scheduler", "multiprio", "eager"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "multiprio" in out and "eager" in out
    assert "makespan" in out


def test_run_fmm_with_gantt(capsys):
    code = main(
        ["run", "--app", "fmm", "--particles", "3000", "--height", "3",
         "--scheduler", "multiprio", "--gantt"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "|" in out  # gantt rows


def test_run_sparseqr(capsys):
    code = main(
        ["run", "--app", "sparseqr", "--matrix", "cat_ears_4_4",
         "--scale", "0.01", "--scheduler", "multiprio"]
    )
    assert code == 0
    assert "cat_ears_4_4" in capsys.readouterr().out


def test_chrome_trace_output(tmp_path, capsys):
    prefix = str(tmp_path / "trace")
    code = main(
        ["run", "--app", "cholesky", "--size", "4", "--tile", "512",
         "--scheduler", "eager", "--chrome-trace", prefix]
    )
    assert code == 0
    path = tmp_path / "trace.eager.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_csv_trace_output(tmp_path, capsys):
    prefix = str(tmp_path / "trace")
    code = main(
        ["run", "--app", "lu", "--size", "3", "--tile", "512",
         "--scheduler", "eager", "--csv-trace", prefix]
    )
    assert code == 0
    assert (tmp_path / "trace.eager.csv").read_text().startswith("tid,")


@pytest.mark.parametrize("name", ["table2", "fig3"])
def test_light_experiments(name, capsys):
    assert main(["experiment", name]) == 0
    assert capsys.readouterr().out.strip()


def test_run_with_submission_window(capsys):
    code = main(
        ["run", "--app", "cholesky", "--size", "4", "--tile", "512",
         "--scheduler", "eager", "--window", "2"]
    )
    assert code == 0
    assert "makespan" in capsys.readouterr().out


def test_window_defaults_to_unbounded():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["run", "--app", "cholesky", "--scheduler", "eager"]
    )
    assert args.window is None


def test_stream_experiment(tmp_path, capsys):
    report = tmp_path / "stream.json"
    code = main(
        ["experiment", "stream", "--n-jobs", "2", "--rates", "60",
         "--schedulers", "multiprio", "--json", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fairness" in out and "multiprio" in out
    doc = json.loads(report.read_text())
    assert doc["experiment"] == "stream"
    (row,) = doc["rows"]
    assert row["scheduler"] == "multiprio"
    assert 0.0 < row["fairness"] <= 1.0
    assert len(row["jobs"]) == 2
    assert all("slowdown" in j and "latency_us" in j for j in row["jobs"])


def test_cluster_experiment(tmp_path, capsys):
    report = tmp_path / "cluster.json"
    code = main(
        ["experiment", "cluster", "--nodes", "2",
         "--placements", "random", "locality-aware",
         "--chains-per-node", "1", "--chain-len", "2",
         "--json", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "locality-aware" in out and "imbal" in out
    doc = json.loads(report.read_text())
    assert doc["experiment"] == "cluster"
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["n_nodes"] == 2
        assert row["converged"]
        assert len(row["nodes"]) == 2
        assert row["n_jobs"] == 4  # 1 chain/node x 2 nodes x 2 stages
    assert {r["policy"] for r in doc["rows"]} == {"random", "locality-aware"}


@pytest.mark.parametrize("name, flags, n_rows", [
    pytest.param(
        "stream", ["--n-jobs", "2", "--rates", "60", "--schedulers", "multiprio"], 1,
        id="stream",
    ),
    pytest.param("faults", [], 1, id="faults"),
    pytest.param(
        "overload", ["--multipliers", "1", "--tenants", "2", "--n-jobs", "2"], 2,
        id="overload",
    ),
    pytest.param(
        "rt", ["--multipliers", "1", "--schedulers", "multiprio",
               "--tenants", "2", "--n-jobs", "2"], 1,
        id="rt",
    ),
    pytest.param(
        "energy", ["--schedulers", "multiprio", "--energy-caps", "0.6",
                   "--tenants", "2", "--n-jobs", "2"], 2,
        id="energy",
    ),
])
def test_sweep_honours_check_invariants(
    name, flags, n_rows, monkeypatch, capsys, tmp_path
):
    """``--check-invariants`` and ``REPRO_CHECK_INVARIANTS=1`` must each
    reach every cell's engine run."""
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    calls = []
    begin_run = InvariantChecker.begin_run
    monkeypatch.setattr(
        InvariantChecker, "begin_run",
        lambda self, run: calls.append(run) or begin_run(self, run),
    )
    # Shrink the fault sweep to one scheduler x (healthy, 10%, kill) on 3x3 tiles.
    monkeypatch.setitem(SWEEPS, "faults", (
        functools.partial(
            run_faults_sweep, n_tiles=3, schedulers=("multiprio",), rates=(0.1,)
        ),
        format_faults_sweep,
        SWEEPS["faults"][2],
    ))
    assert main(["experiment", name, *flags]) == 0
    assert not calls
    report = tmp_path / "report.json"
    assert main(["experiment", name, *flags, "--check-invariants",
                 "--json", str(report)]) == 0
    n_checked = len(calls)
    assert n_checked >= (3 if name == "faults" else 1)
    doc = json.loads(report.read_text())
    assert doc["experiment"] == name
    assert len(doc["rows"]) == n_rows
    if name == "faults":
        assert len(doc["killed_rows"]) == 1
        assert doc["seed"] == 0 and doc["kill_spec"] == [[6, 10_000.0]]
    # Under the variable, the flag must not add a single checked run.
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    calls.clear()
    assert main(["experiment", name, *flags]) == 0
    n_env = len(calls)
    calls.clear()
    assert main(["experiment", name, *flags, "--check-invariants"]) == 0
    assert n_env == len(calls) >= n_checked


def test_unknown_scheduler_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--scheduler", "bogus"])


class TestTraceCommand:
    ARGS = ["--app", "cholesky", "--size", "4", "--tile", "512",
            "--scheduler", "multiprio"]

    def test_export_chrome(self, tmp_path, capsys):
        prefix = str(tmp_path / "tr")
        code = main(["trace", "export", "--format", "chrome",
                     "--out", prefix, *self.ARGS])
        assert code == 0
        doc = json.loads((tmp_path / "tr.multiprio.json").read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "M", "i", "C"} <= phases

    def test_export_jsonl_round_trips(self, tmp_path, capsys):
        from repro.obs.export import events_from_jsonl

        prefix = str(tmp_path / "tr")
        code = main(["trace", "export", "--format", "jsonl",
                     "--out", prefix, *self.ARGS])
        assert code == 0
        events = events_from_jsonl((tmp_path / "tr.multiprio.jsonl").read_text())
        assert events and {e.kind for e in events} >= {"task_end", "decision"}

    def test_export_csv(self, tmp_path, capsys):
        prefix = str(tmp_path / "tr")
        code = main(["trace", "export", "--format", "csv",
                     "--out", prefix, *self.ARGS])
        assert code == 0
        assert (tmp_path / "tr.multiprio.csv").read_text().startswith("tid,")

    def test_summary(self, capsys):
        assert main(["trace", "summary", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "scheduler decisions" in out
        assert "practical critical path" in out

    def test_criticalpath(self, capsys):
        assert main(["trace", "criticalpath", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "practical critical" in out and "worker" in out

    def test_level_tasks_has_no_decisions(self, capsys):
        assert main(["trace", "summary", "--level", "tasks", *self.ARGS]) == 0
        assert "scheduler decisions" not in capsys.readouterr().out
