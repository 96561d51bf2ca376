"""Per-job and per-tenant outcomes of a simulated stream.

:func:`assemble_jobs` derives each :class:`JobResult` from the merged
run's task records (no trace or observability needed): when the job's
first task started, when its last task finished, its busy joules, and —
with :func:`isolated_makespans` baselines — its slowdown against having
the machine to itself. Stream runs and the cluster's per-node runs
share both.

:class:`JobAggregates` holds the aggregates of :class:`StreamResult`
and :class:`~repro.cluster.result.ClusterResult`: mean/p95 latency,
slowdown spread, Jain's fairness index over per-job slowdowns
(latencies when baselines are off), throughput, deadline misses,
energy and per-tenant rollups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.analysis.stats import jain_fairness_index, percentile
from repro.api import SimConfig, _build_simulator
from repro.runtime.power import ArchPower, PowerModel
from repro.sweep import CallSpec, run_tasks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.result import ControlResult
    from repro.platform.machines import MachineModel
    from repro.runtime.engine import SimResult
    from repro.runtime.perfmodel import PerfModel
    from repro.runtime.stf import Program
    from repro.schedulers.base import Scheduler
    from repro.workload.merge import StreamProgram

#: Coarse draw charged to architectures the power model does not cover
#: when attributing per-job energy (an explicit opt-in — the model
#: itself raises ``KeyError`` on unknown architectures).
_GENERIC_DRAW = ArchPower(busy_watts=50.0, idle_watts=10.0)


@dataclass(frozen=True)
class JobResult:
    """End-to-end outcome of one job inside a stream run.

    All times are µs of virtual clock. ``start_us`` is the first task's
    execution start; ``end_us`` the last task's completion.
    ``isolated_us`` is the job's makespan when simulated alone on the
    same machine/scheduler/seed (``None`` when baselines were skipped).
    """

    jid: int
    name: str
    tenant: str
    arrival_us: float
    start_us: float
    end_us: float
    n_tasks: int
    isolated_us: float | None = None
    #: Absolute deadline (arrival + the job's relative deadline);
    #: ``None`` for jobs submitted without one.
    deadline_us: float | None = None
    #: Busy joules attributed to the job's own executions (idle draw is
    #: a platform cost and is not attributed); ``None`` when the run
    #: predates energy attribution.
    energy_j: float | None = None

    @property
    def latency_us(self) -> float:
        """Response time: arrival to last completion."""
        return self.end_us - self.arrival_us

    @property
    def queueing_us(self) -> float:
        """Delay before any of the job's work executed."""
        return self.start_us - self.arrival_us

    @property
    def slowdown(self) -> float | None:
        """Latency over isolated makespan (1.0 = no interference)."""
        if self.isolated_us is None or self.isolated_us <= 0:
            return None
        return self.latency_us / self.isolated_us

    @property
    def lateness_us(self) -> float | None:
        """Signed lateness: completion minus deadline (negative = early).

        ``None`` for jobs without a deadline. The job misses exactly
        when its lateness is positive (finishing *at* the deadline
        meets it), so ``missed == (lateness_us > 0)`` always.
        """
        if self.deadline_us is None:
            return None
        return self.end_us - self.deadline_us

    @property
    def missed(self) -> bool | None:
        """Whether the job missed its deadline (``None`` = no deadline)."""
        lateness = self.lateness_us
        return None if lateness is None else lateness > 0.0

    @property
    def edp_j_s(self) -> float | None:
        """Energy-delay product: attributed joules × latency, in J·s
        (``None`` without energy attribution)."""
        if self.energy_j is None:
            return None
        return self.energy_j * self.latency_us * 1e-6

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping, derived metrics included."""
        return {
            "jid": self.jid,
            "name": self.name,
            "tenant": self.tenant,
            "arrival_us": self.arrival_us,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "n_tasks": self.n_tasks,
            "isolated_us": self.isolated_us,
            "latency_us": self.latency_us,
            "queueing_us": self.queueing_us,
            "slowdown": self.slowdown,
            "deadline_us": self.deadline_us,
            "lateness_us": self.lateness_us,
            "missed": self.missed,
            "energy_j": self.energy_j,
            "edp_j_s": self.edp_j_s,
        }


def assemble_jobs(
    merged: "StreamProgram",
    machine: "MachineModel",
    cfg: SimConfig,
    *,
    isolated: dict[int, float] | None = None,
    keep: set[int] | None = None,
    cls: type[JobResult] = JobResult,
    **extra: Any,
) -> list[JobResult]:
    """One ``cls(**extra)`` per job span of a finished run of ``merged``.

    Spans come in order, restricted to the jids in ``keep`` when given;
    ``isolated`` maps jid to isolated makespan. Busy joules are the
    engine-stamped per-task energy when ``cfg.power`` is on; otherwise
    each task's execution span at its worker's busy watts, with an
    explicit generic draw for architectures outside the power model.
    """
    arch_power = cfg.power.power if cfg.power is not None else PowerModel()
    watts_of = {
        w.wid: arch_power.arch_power(w.arch, default=_GENERIC_DRAW).busy_watts
        for w in machine.platform().workers
    }
    isolated = isolated or {}
    jobs: list[JobResult] = []
    for span in merged.jobs:
        if keep is not None and span.jid not in keep:
            continue
        scheds = [t.sched for t in merged.tasks[span.first_tid:span.first_tid + span.n_tasks]]
        records = [sched["_record"] for sched in scheds]
        joules = 0.0
        for sched, rec in zip(scheds, records):
            ej = sched.get("_energy_j")
            joules += ej if ej is not None else (rec[3] - rec[2]) * watts_of[rec[0]] * 1e-6
        jobs.append(cls(
            jid=span.jid,
            name=span.name,
            tenant=span.tenant,
            arrival_us=span.arrival_us,
            start_us=min(r[2] for r in records),
            end_us=max(r[3] for r in records),
            n_tasks=span.n_tasks,
            isolated_us=isolated.get(span.jid),
            deadline_us=span.deadline_us if span.deadline_us != float("inf") else None,
            energy_j=joules,
            **extra,
        ))
    return jobs


def _isolated_makespan(
    machine: "MachineModel", program: "Program", scheduler: "Scheduler | str", cfg: SimConfig
) -> float:
    """Makespan of ``program`` alone on ``machine`` (one baseline cell)."""
    return _build_simulator(cfg, machine, scheduler).run(program).makespan


def program_key(
    program: "Program", scheduler: "Scheduler | str", perfmodel: "PerfModel | None"
) -> bytes | int:
    """Cache key for a result that runs ``program`` alone.

    The structural :attr:`~repro.runtime.stf.Program.digest` when such a
    run is a pure function of the program's structure: the scheduler is
    a registry name (a fresh instance per run) and the perf model
    promises ``stable_estimates`` (``None`` stands for the machine's
    analytical model). Otherwise ``id(program)``: a scheduler instance
    or a learning :class:`~repro.runtime.perfmodel.HistoryPerfModel`
    carries state from one run into the next, so each program object
    keeps its own run.
    """
    if isinstance(scheduler, str) and (
        perfmodel is None or getattr(perfmodel, "stable_estimates", False)
    ):
        return program.digest
    return id(program)


def isolated_makespans(
    placed: list[tuple[int, str, "MachineModel", "Program"]],
    scheduler: "Scheduler | str",
    cfg: SimConfig,
    *,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> dict[int, float]:
    """Isolated makespan of every ``(jid, node, machine, program)`` job.

    One baseline runs per distinct ``(node, program_key(...))``, in
    first-seen order, through :func:`repro.sweep.run_tasks` (``jobs``
    and ``progress`` as there); jobs sharing both share its makespan.
    With a registry-name scheduler and a stable perf model that is one
    run per job shape per node, not one per job.
    """
    cells: dict[tuple[str, bytes | int], CallSpec] = {}
    keys: list[tuple[int, tuple[str, bytes | int]]] = []
    for jid, node, machine, program in placed:
        key = (node, program_key(program, scheduler, cfg.perfmodel))
        keys.append((jid, key))
        if key not in cells:
            cells[key] = CallSpec(_isolated_makespan, (machine, program, scheduler, cfg))
    makespans = run_tasks(list(cells.values()), jobs=jobs, progress=progress)
    by_key = dict(zip(cells, makespans))
    return {jid: by_key[key] for jid, key in keys}


class JobAggregates:
    """Aggregates over completed per-job results.

    Subclasses provide ``jobs`` (a list of :class:`JobResult`) and
    ``makespan_us``. Every aggregate is defined (and NaN-free) for any
    job count, including zero.
    """

    @property
    def throughput_jobs_per_s(self) -> float:
        """Completed jobs per second of virtual time."""
        if self.makespan_us <= 0:
            return 0.0
        return len(self.jobs) / (self.makespan_us * 1e-6)

    @property
    def mean_latency_us(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.latency_us for j in self.jobs) / len(self.jobs)

    @property
    def p95_latency_us(self) -> float:
        return percentile([j.latency_us for j in self.jobs], 0.95)

    @property
    def p99_latency_us(self) -> float:
        return percentile([j.latency_us for j in self.jobs], 0.99)

    @property
    def mean_queueing_us(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.queueing_us for j in self.jobs) / len(self.jobs)

    @property
    def deadline_jobs(self) -> list[JobResult]:
        """The completed jobs that carried a deadline."""
        return [j for j in self.jobs if j.deadline_us is not None]

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-tagged jobs that missed (0.0 when none)."""
        tagged = self.deadline_jobs
        if not tagged:
            return 0.0
        return sum(1 for j in tagged if j.missed) / len(tagged)

    @property
    def latenesses_us(self) -> list[float]:
        """Signed lateness of every deadline-tagged job (job order)."""
        return [j.lateness_us for j in self.deadline_jobs]

    @property
    def p50_lateness_us(self) -> float:
        return percentile(self.latenesses_us, 0.50)

    @property
    def p95_lateness_us(self) -> float:
        return percentile(self.latenesses_us, 0.95)

    @property
    def p99_lateness_us(self) -> float:
        return percentile(self.latenesses_us, 0.99)

    @property
    def jobs_energy_j(self) -> float:
        """Busy joules attributed to completed jobs (0.0 when the run
        predates energy attribution)."""
        return sum(j.energy_j or 0.0 for j in self.jobs)

    @property
    def mean_edp_j_s(self) -> float:
        """Mean per-job energy-delay product, J·s (0.0 when no job
        carries energy attribution)."""
        vals = [j.edp_j_s for j in self.jobs if j.edp_j_s is not None]
        if not vals:
            return 0.0
        return sum(vals) / len(vals)

    @property
    def slowdowns(self) -> list[float] | None:
        """Per-job slowdowns, or ``None`` when baselines were skipped."""
        vals = [j.slowdown for j in self.jobs]
        if any(v is None for v in vals):
            return None
        return vals  # type: ignore[return-value]

    @property
    def mean_slowdown(self) -> float | None:
        vals = self.slowdowns
        return sum(vals) / len(vals) if vals else None

    @property
    def max_slowdown(self) -> float | None:
        vals = self.slowdowns
        return max(vals) if vals else None

    @property
    def fairness(self) -> float:
        """Jain index over slowdowns (latencies without baselines)."""
        vals = self.slowdowns
        if vals is None:
            vals = [j.latency_us for j in self.jobs]
        return jain_fairness_index(vals)

    def _by_tenant(self) -> dict[str, list[JobResult]]:
        grouped: dict[str, list[JobResult]] = {}
        for job in self.jobs:
            grouped.setdefault(job.tenant, []).append(job)
        return grouped

    @property
    def tenant_fairness(self) -> float:
        """Jain index over per-tenant mean slowdowns (mean latencies
        when baselines were skipped): how evenly *tenants* — rather than
        individual jobs — shared the machine. 1.0 for zero or one tenant."""
        means: list[float] = []
        for mine in self._by_tenant().values():
            slows = [j.slowdown for j in mine]
            if slows and all(s is not None for s in slows):
                means.append(sum(slows) / len(slows))  # type: ignore[arg-type]
            else:
                means.append(sum(j.latency_us for j in mine) / len(mine))
        return jain_fairness_index(means)

    def per_tenant(self) -> dict[str, dict[str, float]]:
        """Per-tenant aggregates: job count, mean latency/queueing, and
        mean slowdown when baselines were run."""
        out: dict[str, dict[str, float]] = {}
        for tenant, mine in self._by_tenant().items():
            entry = {
                "jobs": float(len(mine)),
                "mean_latency_us": sum(j.latency_us for j in mine) / len(mine),
                "mean_queueing_us": sum(j.queueing_us for j in mine) / len(mine),
            }
            slows = [j.slowdown for j in mine]
            if all(s is not None for s in slows):
                entry["mean_slowdown"] = sum(slows) / len(slows)  # type: ignore[arg-type]
            tagged = [j for j in mine if j.deadline_us is not None]
            if tagged:
                entry["n_deadline_jobs"] = float(len(tagged))
                entry["deadline_miss_rate"] = (
                    sum(1 for j in tagged if j.missed) / len(tagged)
                )
            energies = [j.energy_j for j in mine if j.energy_j is not None]
            if energies:
                entry["energy_j"] = sum(energies)
                edps = [j.edp_j_s for j in mine if j.edp_j_s is not None]
                entry["mean_edp_j_s"] = sum(edps) / len(edps)
            out[tenant] = entry
        return out


@dataclass
class StreamResult(JobAggregates):
    """Outcome of one stream simulation: per-job results + the raw run.

    ``jobs`` holds the *completed* jobs only — under a control plane
    (``control`` is then set) rejected and evicted jobs never finish, so
    an all-rejected run carries an empty list.
    """

    stream_name: str
    machine: str
    scheduler: str
    jobs: list[JobResult]
    sim: "SimResult" = field(repr=False)
    #: Admission/eviction outcome; ``None`` for uncontrolled runs.
    control: "ControlResult | None" = None

    @property
    def makespan_us(self) -> float:
        """Completion time of the whole merged run."""
        return self.sim.makespan

    @property
    def total_energy_j(self) -> float | None:
        """Whole-run joules, idle draw included.

        Requires the engine's power subsystem (``SimConfig(power=...)``)
        — reads ``sim.energy``; ``None`` otherwise (use
        :attr:`jobs_energy_j` for the attribution-only busy total).
        """
        energy = self.sim.energy
        return energy.total_j if energy is not None else None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report: stream-level stats plus every job."""
        return {
            "stream": self.stream_name,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "n_jobs": len(self.jobs),
            "makespan_us": self.makespan_us,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "mean_latency_us": self.mean_latency_us,
            "p95_latency_us": self.p95_latency_us,
            "mean_queueing_us": self.mean_queueing_us,
            "p99_latency_us": self.p99_latency_us,
            "mean_slowdown": self.mean_slowdown,
            "max_slowdown": self.max_slowdown,
            "n_deadline_jobs": len(self.deadline_jobs),
            "deadline_miss_rate": self.deadline_miss_rate,
            "p50_lateness_us": self.p50_lateness_us,
            "p95_lateness_us": self.p95_lateness_us,
            "p99_lateness_us": self.p99_lateness_us,
            "fairness": self.fairness,
            "tenant_fairness": self.tenant_fairness,
            "jobs_energy_j": self.jobs_energy_j,
            "total_energy_j": self.total_energy_j,
            "mean_edp_j_s": self.mean_edp_j_s,
            "per_tenant": self.per_tenant(),
            "control": self.control.as_dict() if self.control else None,
            "jobs": [j.as_dict() for j in self.jobs],
        }
