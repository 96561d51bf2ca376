"""Arrival-rate sweep: schedulers under an online multi-tenant stream.

No direct paper counterpart — the paper's experiments feed one static
DAG at a time — but its subject is *dynamic* scheduling, and the regime
where policies actually differentiate is a node shared by jobs that
arrive over time. This sweep offers a Poisson stream of small dense
jobs (Cholesky + LU, two tenants) at increasing arrival rates and
reports, per (scheduler, rate): throughput, mean/p95 latency, queueing
delay, slowdown vs each job running alone, and Jain's fairness index
over the per-job slowdowns.

Expected shape: at light load every scheduler sits near slowdown 1.0
and fairness 1.0; as the offered load approaches the node's capacity,
latencies and slowdowns fan out and locality-aware policies hold
fairness longer. Cells are dispatched through :mod:`repro.sweep`, so
``jobs=N`` is bit-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Sequence

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.experiments.reporting import format_table
from repro.sweep import CallSpec, run_tasks
from repro.workload.stream import JobStream, poisson_stream

#: Offered arrival rates (jobs/s). The default job mix services at
#: roughly 6-8 ms/job on the default machine, so the top rate pushes
#: the node well past saturation.
DEFAULT_RATES: tuple[float, ...] = (20.0, 60.0, 180.0)

DEFAULT_SCHEDULERS: tuple[str, ...] = ("multiprio", "dmdas", "heteroprio")


def stream_workload(
    *,
    rate_jobs_per_s: float,
    n_jobs: int = 8,
    n_tiles: int = 5,
    tile_size: int = 512,
    seed: int = 0,
) -> JobStream:
    """The sweep's canonical workload: a two-tenant Poisson mix of
    small Cholesky and LU jobs."""
    return poisson_stream(
        [
            ("cholesky", lambda: cholesky_program(n_tiles, tile_size)),
            ("lu", lambda: lu_program(n_tiles, tile_size)),
        ],
        rate_jobs_per_s=rate_jobs_per_s,
        n_jobs=n_jobs,
        seed=seed,
        tenants=("tenant0", "tenant1"),
        name=f"poisson-{rate_jobs_per_s:g}",
    )


@dataclass
class StreamRow:
    """One (scheduler, arrival rate) cell of the sweep."""

    scheduler: str
    rate_jobs_per_s: float
    n_jobs: int
    makespan_us: float
    throughput_jobs_per_s: float
    mean_latency_us: float
    p95_latency_us: float
    mean_queueing_us: float
    mean_slowdown: float
    max_slowdown: float
    fairness: float
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)
    jobs: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class StreamExperimentResult:
    """All rows of the arrival-rate sweep."""

    experiment: ClassVar[str] = "stream"
    machine: str
    n_jobs: int
    seed: int
    rows: list[StreamRow] = field(default_factory=list)


def _stream_cell(
    scheduler: str,
    rate: float,
    *,
    machine: str,
    n_jobs: int,
    n_tiles: int,
    tile_size: int,
    seed: int,
    window: int | None,
    check_invariants: bool,
) -> StreamRow:
    """One cell, executed in whichever process the sweep picked."""
    stream = stream_workload(
        rate_jobs_per_s=rate, n_jobs=n_jobs,
        n_tiles=n_tiles, tile_size=tile_size, seed=seed,
    )
    res = SimSpec(
        machine, scheduler,
        config=SimConfig(
            submission_window=window,
            check_invariants=check_invariants or None,
        ),
    ).run_stream(stream)
    return StreamRow(
        scheduler=scheduler,
        rate_jobs_per_s=rate,
        n_jobs=n_jobs,
        makespan_us=res.makespan_us,
        throughput_jobs_per_s=res.throughput_jobs_per_s,
        mean_latency_us=res.mean_latency_us,
        p95_latency_us=res.p95_latency_us,
        mean_queueing_us=res.mean_queueing_us,
        mean_slowdown=res.mean_slowdown or 0.0,
        max_slowdown=res.max_slowdown or 0.0,
        fairness=res.fairness,
        per_tenant=res.per_tenant(),
        jobs=[j.as_dict() for j in res.jobs],
    )


def run_stream_experiment(
    *,
    rates: Sequence[float] = DEFAULT_RATES,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    machine: str = "small-hetero",
    n_jobs: int = 8,
    n_tiles: int = 5,
    tile_size: int = 512,
    seed: int = 0,
    window: int | None = None,
    check_invariants: bool = False,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> StreamExperimentResult:
    """The (scheduler × arrival rate) sweep; ``jobs=N`` is bit-identical
    to serial execution (cells are pure functions of their arguments)."""
    cells = [
        CallSpec(
            _stream_cell,
            (scheduler, float(rate)),
            {
                "machine": machine,
                "n_jobs": n_jobs,
                "n_tiles": n_tiles,
                "tile_size": tile_size,
                "seed": seed,
                "window": window,
                "check_invariants": check_invariants,
            },
        )
        for scheduler in schedulers
        for rate in rates
    ]
    rows = run_tasks(cells, jobs=jobs, progress=progress)
    return StreamExperimentResult(
        machine=machine, n_jobs=n_jobs, seed=seed, rows=list(rows)
    )


def format_stream_experiment(result: StreamExperimentResult) -> str:
    """The sweep as an aligned text table."""
    rows = [
        [
            row.scheduler,
            f"{row.rate_jobs_per_s:g}",
            f"{row.throughput_jobs_per_s:.1f}",
            f"{row.mean_latency_us / 1e3:.2f}",
            f"{row.p95_latency_us / 1e3:.2f}",
            f"{row.mean_queueing_us / 1e3:.2f}",
            f"{row.mean_slowdown:.2f}",
            f"{row.max_slowdown:.2f}",
            f"{row.fairness:.3f}",
        ]
        for row in result.rows
    ]
    return format_table(
        [
            "scheduler", "rate/s", "tput/s", "lat ms", "p95 ms",
            "queue ms", "slow", "max slow", "fairness",
        ],
        rows,
        title=(
            f"poisson stream on {result.machine} "
            f"({result.n_jobs} jobs/cell, seed {result.seed})"
        ),
    )
