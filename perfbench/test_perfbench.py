"""Self-tests of the benchmark (tiny workload sizes).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import END_TO_END, PER_LAYER, ROOT, unit_of
from perfbench.tracer import NullTracer, ProgramProbe, Tracer
from perfbench.workloads import WORKLOADS


def _bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args, "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _iteration(wl, seed: int, tracer=None) -> str:
    """One iteration's fingerprint, traced when ``tracer`` is given."""
    probe = ProgramProbe()
    with probe.installed():
        if tracer is None:
            raw = wl.execute(seed, NullTracer())
        else:
            with tracer.installed(), tracer.span("iteration"):
                raw = wl.execute(seed, tracer)
        out = wl.evaluate(raw, probe)
    assert all(out.checks.values()), out.checks
    return out.fingerprint


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    wl = WORKLOADS[request.param]("tiny")
    wl.prepare()
    return wl


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {n: unit_of(n) for n in PER_LAYER}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_completes_and_prints_every_metric(tmp_path, trace):
    proc = _bench(tmp_path, "--workload", "all", "--seed", "3", "--seconds", "0",
                  "--size", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = PER_LAYER if trace else tuple(END_TO_END)
    for wl in WORKLOADS:
        for name in names:
            assert result["metrics"][f"{wl}.{name}"]["unit"] == unit_of(name)
    if not trace:
        for wl in WORKLOADS:
            assert result["metrics"][f"{wl}.completed_frac"]["value"] > 0.0
    report = json.loads(next(tmp_path.glob("all-*.json")).read_text())
    for rep in report["reports"]:
        if trace:
            # Layer self times (other.s included) add up to the traced time.
            assert rep["layer_self_sum_s"] == pytest.approx(rep["traced_end_to_end_s"])
            assert "trace.overhead_s" in rep["per_layer"]
        assert rep["fingerprint"]


def test_single_workload_prints_exactly_the_contract_metrics(tmp_path):
    proc = _bench(tmp_path, "--workload", "light-stream", "--seed", "1", "--seconds", "0",
                  "--size", "tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(END_TO_END)
    assert result["attempted"] >= 1


def test_fingerprint_repeats_at_one_seed_and_changes_across_seeds(workload):
    first = _iteration(workload, 5)
    assert _iteration(workload, 5) == first
    assert _iteration(workload, 6) != first


def test_tracing_does_not_perturb_the_schedule(workload):
    untraced = _iteration(workload, 7)
    tracer = Tracer()
    assert _iteration(workload, 7, tracer) == untraced
    assert tracer.calls["iteration"] == 1
    assert tracer.calls["engine.run"] >= 1
    # Plain-program runs inside a stream or cluster run are the isolated
    # baselines; paper-dag's graph runs are not.
    assert (tracer.calls["isolated"] > 0) == (workload.name in ("tenant-mix", "cluster-chains"))
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.incl_s["iteration"])


def test_tracer_restores_every_patch():
    import repro.api as api
    import repro.cluster.sim as cluster_sim
    from repro.obs.bus import Observability
    from repro.runtime.engine import Simulator
    from repro.runtime.perfmodel import AnalyticalPerfModel

    owners = [
        (Simulator, "run"), (AnalyticalPerfModel, "estimate"), (Observability, "emit"),
        (api.SimSpec, "run_stream"), (cluster_sim, "_node_cell"),
        (cluster_sim, "merge_stream"),
    ]
    before = [vars(owner)[attr] for owner, attr in owners]
    with Tracer().installed():
        assert [vars(owner)[attr] for owner, attr in owners] != before
    assert [vars(owner)[attr] for owner, attr in owners] == before


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "paper-dag", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
