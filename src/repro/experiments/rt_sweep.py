"""Real-time sweep: deadline miss rate under 1x-4x offered load.

No direct paper counterpart — the paper optimizes makespan — but the
same heterogeneous node serving latency-sensitive tenants is judged on
*deadlines*, not throughput. This sweep offers a deadline-tagged Poisson
stream at multiples of the node's sustainable service rate and compares
four policies on miss rate and lateness tails:

* ``multiprio`` — the paper's policy, deadline-oblivious;
* ``edf`` — earliest-deadline-first, the classic real-time baseline
  (deadline-aware but heterogeneity- and data-oblivious);
* ``multiprio-deadline`` — MultiPrio with the ``deadline_boost`` knob:
  tasks whose push-time slack drops under one relative-deadline window
  are promoted above all regular work;
* ``multiprio-relaxed`` — the relaxed-heap MultiPrio, probing whether
  sloppy priorities hurt deadline adherence.

Every cell sees the *same* stream with the *same* absolute deadlines
(``deadline_factor ×`` the job's isolated multiprio makespan, measured
once per configuration), so miss rates are directly comparable across
schedulers. Expected shape: at 1x load everyone mostly meets deadlines;
from 2x on, queueing makes the oblivious policies miss broadly while
``multiprio-deadline`` triages — it finishes the jobs that can still
meet their deadline at the price of a worse lateness tail for those
already past it. Cells are dispatched through :mod:`repro.sweep`, so
``jobs=N`` is bit-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program
from repro.experiments.overload import (
    estimate_job_cost_us,
    overload_workload,
    sustainable_rate_jobs_per_s,
)
from repro.experiments.reporting import format_table
from repro.sweep import CallSpec, run_tasks

#: Offered load as multiples of the node's sustainable service rate.
DEFAULT_MULTIPLIERS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)

DEFAULT_SCHEDULERS: tuple[str, ...] = (
    "multiprio", "edf", "multiprio-deadline", "multiprio-relaxed",
)

#: Relative deadline as a multiple of the job's isolated makespan.
DEFAULT_DEADLINE_FACTOR = 3.0


def isolated_makespan_us(
    machine: str, n_tiles: int = 4, tile_size: int = 256, seed: int = 0
) -> float:
    """One job's makespan with the machine to itself under multiprio.

    The deadline basis is deliberately scheduler-independent (always
    multiprio), so every cell of the sweep faces identical absolute
    deadlines and miss rates compare apples to apples.
    """
    return (
        SimSpec(machine, "multiprio", seed=seed)
        .run(cholesky_program(n_tiles, tile_size))
        .makespan
    )


@dataclass
class RtRow:
    """One (scheduler, multiplier) cell of the sweep."""

    scheduler: str
    multiplier: float
    rate_jobs_per_s: float
    n_jobs: int
    deadline_us: float
    miss_rate: float
    p50_lateness_us: float
    p95_lateness_us: float
    p99_lateness_us: float
    mean_latency_us: float
    p99_latency_us: float
    makespan_us: float
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class RtExperimentResult:
    """All rows of the rt sweep."""

    experiment: ClassVar[str] = "rt"
    machine: str
    n_tenants: int
    n_jobs: int
    seed: int
    deadline_factor: float
    deadline_us: float
    sustainable_rate_jobs_per_s: float
    rows: list[RtRow] = field(default_factory=list)


def _rt_cell(
    scheduler: str,
    multiplier: float,
    *,
    machine: str,
    n_tenants: int,
    n_jobs: int,
    n_tiles: int,
    tile_size: int,
    deadline_us: float,
    seed: int,
    check_invariants: bool,
) -> RtRow:
    """One cell, executed in whichever process the sweep picked."""
    job_cost = estimate_job_cost_us(machine, n_tiles, tile_size)
    rate = multiplier * sustainable_rate_jobs_per_s(machine, job_cost)
    stream = overload_workload(
        rate_jobs_per_s=rate, n_tenants=n_tenants, n_jobs=n_jobs,
        n_tiles=n_tiles, tile_size=tile_size, seed=seed,
        qos=None, deadline=deadline_us, name="rt",
    )
    # The boosted variant's promotion window defaults to one relative
    # deadline: a job's tasks get urgent once less than a full isolated
    # window of slack remains.
    sched_params = (
        {"deadline_boost": deadline_us}
        if scheduler == "multiprio-deadline"
        else {}
    )
    res = SimSpec(
        machine, scheduler, isolated_baseline=False,
        config=SimConfig(
            check_invariants=check_invariants or None, sched_params=sched_params
        ),
    ).run_stream(stream)
    return RtRow(
        scheduler=scheduler,
        multiplier=multiplier,
        rate_jobs_per_s=rate,
        n_jobs=len(res.jobs),
        deadline_us=deadline_us,
        miss_rate=res.deadline_miss_rate,
        p50_lateness_us=res.p50_lateness_us,
        p95_lateness_us=res.p95_lateness_us,
        p99_lateness_us=res.p99_lateness_us,
        mean_latency_us=res.mean_latency_us,
        p99_latency_us=res.p99_latency_us,
        makespan_us=res.makespan_us,
        per_tenant=res.per_tenant(),
    )


def run_rt_experiment(
    *,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    machine: str = "small-hetero",
    n_tenants: int = 8,
    n_jobs: int = 48,
    n_tiles: int = 4,
    tile_size: int = 256,
    deadline_factor: float = DEFAULT_DEADLINE_FACTOR,
    seed: int = 0,
    check_invariants: bool = False,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> RtExperimentResult:
    """The (scheduler × multiplier) deadline sweep; ``jobs=N`` is
    bit-identical to serial execution."""
    deadline_us = deadline_factor * isolated_makespan_us(
        machine, n_tiles, tile_size, seed
    )
    cells = [
        CallSpec(
            _rt_cell,
            (scheduler, float(multiplier)),
            {
                "machine": machine,
                "n_tenants": n_tenants,
                "n_jobs": n_jobs,
                "n_tiles": n_tiles,
                "tile_size": tile_size,
                "deadline_us": deadline_us,
                "seed": seed,
                "check_invariants": check_invariants,
            },
        )
        for scheduler in schedulers
        for multiplier in multipliers
    ]
    rows = run_tasks(cells, jobs=jobs, progress=progress)
    job_cost = estimate_job_cost_us(machine, n_tiles, tile_size)
    return RtExperimentResult(
        machine=machine,
        n_tenants=n_tenants,
        n_jobs=n_jobs,
        seed=seed,
        deadline_factor=deadline_factor,
        deadline_us=deadline_us,
        sustainable_rate_jobs_per_s=sustainable_rate_jobs_per_s(
            machine, job_cost
        ),
        rows=list(rows),
    )


#: Keyword overrides for the CLI's ``--quick`` (the CI smoke grid).
run_rt_experiment.quick = {"multipliers": (1.0, 2.0), "n_tenants": 4, "n_jobs": 16}


def format_rt_experiment(result: RtExperimentResult) -> str:
    """The sweep as an aligned text table."""
    rows = [
        [
            row.scheduler,
            f"{row.multiplier:g}x",
            f"{row.miss_rate:.2f}",
            f"{row.p50_lateness_us / 1e3:.2f}",
            f"{row.p95_lateness_us / 1e3:.2f}",
            f"{row.p99_lateness_us / 1e3:.2f}",
            f"{row.mean_latency_us / 1e3:.2f}",
            f"{row.makespan_us / 1e3:.2f}",
        ]
        for row in result.rows
    ]
    return format_table(
        [
            "scheduler", "load", "miss", "p50 late ms", "p95 late ms",
            "p99 late ms", "lat ms", "makespan ms",
        ],
        rows,
        title=(
            f"rt sweep on {result.machine} "
            f"({result.n_tenants} tenants, {result.n_jobs} jobs/cell, "
            f"deadline {result.deadline_us / 1e3:.2f} ms = "
            f"{result.deadline_factor:g}x isolated, seed {result.seed})"
        ),
    )
