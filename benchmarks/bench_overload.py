"""Control-plane bench: wall-clock cost of admission under overload.

No paper counterpart — this guards the :mod:`repro.control` machinery.
It measures the overhead the admission gate adds to the reveal loop
(an unlimited control plane vs no control plane on the same stream)
and the throughput of a genuinely overloaded controlled run, so a
regression in the decide/cancel/evict paths shows up as a wall-clock
gap or a throughput drop.

Standalone (the CI perf-smoke entry, warn-only)::

    python -m benchmarks.bench_overload --json bench_overload_ci.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.api import SimSpec
from repro.control import ControlConfig
from repro.experiments.overload import (
    format_overload_experiment,
    overload_workload,
    run_overload_experiment,
)


def _stream(n_jobs: int, multiplier: float = 4.0, seed: int = 0):
    return overload_workload(
        rate_jobs_per_s=multiplier * 2000.0,
        n_tenants=12,
        n_jobs=n_jobs,
        seed=seed,
    )


def measure_overload(n_jobs: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall times: uncontrolled, no-op controlled,
    and a constrained (shedding) controlled run."""
    stream = _stream(n_jobs)
    n_tasks = stream.n_tasks

    def best_of(**kwargs) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            SimSpec(
                "small-hetero", "multiprio",
                isolated_baseline=False, **kwargs,
            ).run_stream(stream)
            best = min(best, time.perf_counter() - t0)
        return best

    plain_s = best_of()
    noop_s = best_of(control=ControlConfig.unlimited())
    return {
        "n_jobs": n_jobs,
        "n_tasks": n_tasks,
        "plain_s": plain_s,
        "noop_control_s": noop_s,
        "gate_overhead_frac": (noop_s - plain_s) / plain_s if plain_s else 0.0,
        "tasks_per_s": n_tasks / noop_s,
    }


def main(argv=None) -> int:
    """Measure and optionally write the JSON doc (always exit 0: CI
    treats control-plane overhead as warn-only)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="write measurements to PATH")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    args = parser.parse_args(argv)
    doc = {"workloads": {}}
    for n_jobs in (8, 24):
        m = measure_overload(n_jobs, repeats=args.repeats)
        doc["workloads"][f"overload{n_jobs}"] = m
        print(
            f"overload{n_jobs}: {m['n_tasks']} tasks, plain "
            f"{m['plain_s'] * 1e3:.1f} ms, gated {m['noop_control_s'] * 1e3:.1f} ms "
            f"({m['gate_overhead_frac'] * 100:+.1f}%, {m['tasks_per_s']:.0f} tasks/s)"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"measurements written to {args.json}")
    return 0


# -- pytest-benchmark guards -------------------------------------------------


def test_control_gate_throughput(benchmark):
    """Tasks per wall-clock second through a no-op-controlled stream."""
    n_jobs = max(4, int(8 * bench_scale()))
    stream = _stream(n_jobs)

    def run():
        res = SimSpec(
            "small-hetero", "multiprio",
            isolated_baseline=False, control=ControlConfig.unlimited(),
        ).run_stream(stream)
        return res.control.n_completed

    assert benchmark(run) == n_jobs


def test_overload_sweep(benchmark, report):
    """The overload experiment end to end (reduced grid)."""
    result = benchmark.pedantic(
        run_overload_experiment,
        kwargs={
            "multipliers": (1.0, 4.0),
            "n_tenants": 6,
            "n_jobs": max(6, int(12 * bench_scale())),
        },
        rounds=1,
        iterations=1,
    )
    for row in result.rows:
        assert row.completed + row.rejected + row.evicted == row.arrived
        assert 0.0 <= row.slo_miss_rate <= 1.0
        assert 0.0 < row.tenant_fairness <= 1.0
    report(format_overload_experiment(result), "overload")


if __name__ == "__main__":
    raise SystemExit(main())
