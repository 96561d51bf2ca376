"""Overload sweep: the control plane under 1x-10x offered load.

No direct paper counterpart — the paper schedules one DAG at a time —
but a heterogeneous node shared by *dozens* of tenants is exactly where
dynamic multi-priority scheduling needs an admission story. This sweep
offers a mixed-QoS Poisson stream (guaranteed / burstable / best-effort
tenants, round-robin) at multiples of the node's sustainable service
rate and compares an uncontrolled run against one behind
:mod:`repro.control`: completion/rejection/eviction counts, SLO-miss
rate, per-class p99 slowdown and tenant fairness.

Expected shape: uncontrolled, every class degrades together — p99
slowdown grows without bound with the overload multiplier. Controlled,
the plane sheds best-effort and (after its delay budget) burstable work
so the guaranteed class stays near its isolated latency, at the price
of an explicit rejection rate; no guaranteed job is ever rejected.
Cells are dispatched through :mod:`repro.sweep`, so ``jobs=N`` is
bit-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

from repro.analysis.stats import percentile
from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program
from repro.cluster.sim import job_work_us
from repro.control.plane import default_overload_config
from repro.experiments.reporting import format_table
from repro.platform.machines import MACHINES
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.sweep import CallSpec, run_tasks
from repro.workload.stream import QOS_CLASSES, JobStream, poisson_stream

#: Offered load as multiples of the node's sustainable service rate.
DEFAULT_MULTIPLIERS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 10.0)

DEFAULT_SCHEDULERS: tuple[str, ...] = ("multiprio",)


def estimate_job_cost_us(
    machine: str, n_tiles: int = 4, tile_size: int = 256
) -> float:
    """One job's work in µs: Σ over its tasks of the best-arch estimate.

    The same costing the control plane and the cluster tier apply
    (:func:`~repro.cluster.sim.job_work_us`), so quotas derived from
    this number are exact in expectation.
    """
    mach = MACHINES[machine]()
    platform = mach.platform()
    archs = tuple(a for a in platform.archs if platform.n_workers(a) > 0)
    return job_work_us(
        cholesky_program(n_tiles, tile_size),
        AnalyticalPerfModel(mach.calibration()),
        archs,
    )


def sustainable_rate_jobs_per_s(machine: str, job_cost_us: float) -> float:
    """Arrival rate that saturates every worker with zero headroom."""
    n_workers = len(MACHINES[machine]().platform().workers)
    return n_workers * 1e6 / job_cost_us


def overload_workload(
    *,
    rate_jobs_per_s: float,
    n_tenants: int,
    n_jobs: int,
    n_tiles: int = 4,
    tile_size: int = 256,
    seed: int = 0,
    qos: Sequence[str] | None = QOS_CLASSES,
    deadline: float | None = None,
    name: str = "overload",
) -> JobStream:
    """A Poisson Cholesky stream over ``n_tenants`` tenants ``t00``,
    ``t01``, ...: the workload of the overload, rt and energy sweeps.

    ``qos`` classes round-robin per tenant (guaranteed / burstable /
    best-effort by default; ``None`` leaves every job ``burstable``),
    ``deadline`` is every job's relative deadline (µs), and the stream
    is named ``{name}-{rate_jobs_per_s:g}``.
    """
    tenants = tuple(f"t{i:02d}" for i in range(n_tenants))
    return poisson_stream(
        [("cholesky", lambda: cholesky_program(n_tiles, tile_size))],
        rate_jobs_per_s=rate_jobs_per_s,
        n_jobs=n_jobs,
        seed=seed,
        tenants=tenants,
        qos=qos,
        deadline=deadline,
        name=f"{name}-{rate_jobs_per_s:g}",
    )


@dataclass
class OverloadRow:
    """One (scheduler, multiplier, controlled?) cell of the sweep."""

    scheduler: str
    multiplier: float
    controlled: bool
    rate_jobs_per_s: float
    arrived: int
    completed: int
    rejected: int
    evicted: int
    delays: int
    slo_miss_rate: float
    mean_latency_us: float
    p99_latency_us: float
    p99_slowdown: float
    guaranteed_p99_slowdown: float
    tenant_fairness: float
    makespan_us: float
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class OverloadExperimentResult:
    """All rows of the overload sweep."""

    experiment: ClassVar[str] = "overload"
    machine: str
    n_tenants: int
    n_jobs: int
    seed: int
    job_cost_us: float
    sustainable_rate_jobs_per_s: float
    rows: list[OverloadRow] = field(default_factory=list)


def _class_p99_slowdowns(res, qos_of_jid: dict[int, str]) -> dict[str, float]:
    """Per-QoS-class p99 slowdown of an (un)controlled StreamResult."""
    grouped: dict[str, list[float]] = {}
    for job in res.jobs:
        slow = job.slowdown
        if slow is not None:
            grouped.setdefault(qos_of_jid[job.jid], []).append(slow)
    return {qos: percentile(vals, 0.99) for qos, vals in grouped.items()}


def _overload_cell(
    scheduler: str,
    multiplier: float,
    controlled: bool,
    *,
    machine: str,
    n_tenants: int,
    n_jobs: int,
    n_tiles: int,
    tile_size: int,
    seed: int,
    check_invariants: bool,
) -> OverloadRow:
    """One cell, executed in whichever process the sweep picked."""
    job_cost = estimate_job_cost_us(machine, n_tiles, tile_size)
    sustainable = sustainable_rate_jobs_per_s(machine, job_cost)
    rate = multiplier * sustainable
    stream = overload_workload(
        rate_jobs_per_s=rate, n_tenants=n_tenants, n_jobs=n_jobs,
        n_tiles=n_tiles, tile_size=tile_size, seed=seed,
    )
    control = None
    if controlled:
        n_workers = len(MACHINES[machine]().platform().workers)
        control = default_overload_config(
            tenants=tuple(f"t{i:02d}" for i in range(n_tenants)),
            sustainable_work_per_s=float(n_workers),
            job_cost_us=job_cost,
            max_inflight_jobs=2.0 * n_workers,
        )
    res = SimSpec(
        machine, scheduler, control=control,
        config=SimConfig(check_invariants=check_invariants or None),
    ).run_stream(stream)
    qos_of_jid = {job.jid: job.qos for job in stream.jobs}
    if res.control is not None:
        overall = res.control.overall()
        per_class = res.control.per_class()
        per_tenant = res.control.per_tenant()
        guaranteed_p99 = per_class.get("guaranteed", {}).get(
            "p99_slowdown", 0.0
        )
        row_counts = {
            "arrived": res.control.n_arrived,
            "completed": res.control.n_completed,
            "rejected": res.control.n_rejected,
            "evicted": res.control.n_evicted,
            "delays": res.control.n_delays,
        }
        slo_miss = overall["slo_miss_rate"]
        p99_slow = overall["p99_slowdown"]
    else:
        class_p99 = _class_p99_slowdowns(res, qos_of_jid)
        per_class = {
            qos: {"p99_slowdown": p99} for qos, p99 in class_p99.items()
        }
        per_tenant = res.per_tenant()
        guaranteed_p99 = class_p99.get("guaranteed", 0.0)
        row_counts = {
            "arrived": len(stream.jobs),
            "completed": len(res.jobs),
            "rejected": 0,
            "evicted": 0,
            "delays": 0,
        }
        slows = res.slowdowns or []
        slo_miss = (
            sum(1 for s in slows if s > 4.0) / len(slows) if slows else 0.0
        )
        p99_slow = percentile(slows, 0.99)
    return OverloadRow(
        scheduler=scheduler,
        multiplier=multiplier,
        controlled=controlled,
        rate_jobs_per_s=rate,
        arrived=int(row_counts["arrived"]),
        completed=int(row_counts["completed"]),
        rejected=int(row_counts["rejected"]),
        evicted=int(row_counts["evicted"]),
        delays=int(row_counts["delays"]),
        slo_miss_rate=slo_miss,
        mean_latency_us=res.mean_latency_us,
        p99_latency_us=res.p99_latency_us,
        p99_slowdown=p99_slow,
        guaranteed_p99_slowdown=guaranteed_p99,
        tenant_fairness=res.tenant_fairness,
        makespan_us=res.makespan_us,
        per_class=per_class,
        per_tenant=per_tenant,
    )


def run_overload_experiment(
    *,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    machine: str = "small-hetero",
    n_tenants: int = 24,
    n_jobs: int = 72,
    n_tiles: int = 4,
    tile_size: int = 256,
    seed: int = 0,
    check_invariants: bool = False,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> OverloadExperimentResult:
    """The (scheduler × multiplier × {uncontrolled, controlled}) sweep;
    ``jobs=N`` is bit-identical to serial execution."""
    cells = [
        CallSpec(
            _overload_cell,
            (scheduler, float(multiplier), controlled),
            {
                "machine": machine,
                "n_tenants": n_tenants,
                "n_jobs": n_jobs,
                "n_tiles": n_tiles,
                "tile_size": tile_size,
                "seed": seed,
                "check_invariants": check_invariants,
            },
        )
        for scheduler in schedulers
        for multiplier in multipliers
        for controlled in (False, True)
    ]
    rows = run_tasks(cells, jobs=jobs, progress=progress)
    job_cost = estimate_job_cost_us(machine, n_tiles, tile_size)
    return OverloadExperimentResult(
        machine=machine,
        n_tenants=n_tenants,
        n_jobs=n_jobs,
        seed=seed,
        job_cost_us=job_cost,
        sustainable_rate_jobs_per_s=sustainable_rate_jobs_per_s(
            machine, job_cost
        ),
        rows=list(rows),
    )


#: Keyword overrides for the CLI's ``--quick`` (the CI smoke grid).
run_overload_experiment.quick = {"multipliers": (1.0, 4.0), "n_tenants": 6, "n_jobs": 18}


def format_overload_experiment(result: OverloadExperimentResult) -> str:
    """The sweep as an aligned text table."""
    rows = [
        [
            row.scheduler,
            f"{row.multiplier:g}x",
            "ctl" if row.controlled else "raw",
            f"{row.completed}/{row.arrived}",
            f"{row.rejected}",
            f"{row.evicted}",
            f"{row.delays}",
            f"{row.slo_miss_rate:.2f}",
            f"{row.mean_latency_us / 1e3:.2f}",
            f"{row.p99_slowdown:.2f}",
            f"{row.guaranteed_p99_slowdown:.2f}",
            f"{row.tenant_fairness:.3f}",
        ]
        for row in result.rows
    ]
    return format_table(
        [
            "scheduler", "load", "mode", "done", "rej", "evct", "dly",
            "miss", "lat ms", "p99 slow", "g p99", "fairness",
        ],
        rows,
        title=(
            f"overload sweep on {result.machine} "
            f"({result.n_tenants} tenants, {result.n_jobs} jobs/cell, "
            f"sustainable {result.sustainable_rate_jobs_per_s:.1f} jobs/s, "
            f"seed {result.seed})"
        ),
    )
