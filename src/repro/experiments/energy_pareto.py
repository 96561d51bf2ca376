"""Energy Pareto sweep: makespan × joules × fairness under power caps.

The paper's Section VII names energy efficiency as the intended
extension of multi-priority scheduling. This sweep makes the trade
measurable: the same Poisson job stream runs under four policies —

* ``multiprio`` — the paper's policy, energy-oblivious;
* ``multiprio-energy`` — the δ·P admission relaxation (work shifts to
  lean units whenever the energy trade is favourable);
* ``multiprio-edp`` — the δ²·P variant: joules only trade against a
  quadratically-penalized slowdown;
* ``eager`` — the greedy baseline, spreading work over every unit;

— each at three node power-cap levels (uncapped plus two fractions of
every node's peak busy draw), with the engine's power subsystem
(:class:`~repro.runtime.power.PowerStateModel`) metering joules and
enforcing the caps via DVFS downgrades and delayed starts. Every cell
reports makespan, whole-run joules, per-job attributed joules, mean
latency, Jain fairness and the throttle counters; rows that no other
row beats on *both* makespan and joules are marked Pareto-optimal.

Expected shape: uncapped, the energy-aware variants sit below plain
``multiprio`` on joules at a small makespan premium (the acceptance
property: at least one dominates on joules within a 10% makespan
cost). Caps compress the spread — once the hardware itself throttles,
policy-level energy awareness matters less — at a makespan price that
grows as the cap tightens. Cells are dispatched through
:mod:`repro.sweep`, so ``jobs=N`` is bit-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

from repro.api import SimConfig, SimSpec
from repro.experiments.overload import (
    estimate_job_cost_us,
    overload_workload,
    sustainable_rate_jobs_per_s,
)
from repro.experiments.reporting import format_table
from repro.platform.machines import MACHINES
from repro.runtime.power import PowerStateModel
from repro.sweep import CallSpec, run_tasks

DEFAULT_SCHEDULERS: tuple[str, ...] = (
    "multiprio", "multiprio-energy", "multiprio-edp", "eager",
)

#: Node cap levels as fractions of each node's peak busy draw
#: (``None`` = uncapped). Three levels per the sweep's design.
DEFAULT_CAP_FRACTIONS: tuple[float | None, ...] = (None, 0.8, 0.6)

#: Offered load as a multiple of the node's sustainable service rate:
#: busy enough that placement choices matter, not so overloaded that
#: queueing drowns the energy signal.
DEFAULT_LOAD = 1.5


def node_caps_for(
    machine: str, fraction: float, model: PowerStateModel | None = None
) -> dict[int, float]:
    """Per-node caps at ``fraction`` of each node's peak busy draw.

    Peak is the sum over the node's workers of their architecture's
    busy watts in the fastest runnable state. The cap is clamped up to
    the node's *feasibility floor* — the largest single-worker draw in
    the leanest runnable state — so the returned mapping always
    validates. On single-worker nodes (one GPU per memory node on the
    built-in machines) caps quantize to the state ladder: any fraction
    below the full draw forces the leaner state rather than a
    proportional slowdown, exactly like a real TDP limit pinning a
    device to a lower DVFS operating point.
    """
    model = model or PowerStateModel()
    platform = MACHINES[machine]().platform()
    states = model.run_states
    fast, lean = states[0], states[-1]
    caps: dict[int, float] = {}
    for node in platform.nodes:
        workers = platform.workers_of_node(node.mid)
        if not workers:
            continue
        draws = [model.power.arch_power(w.arch).busy_watts for w in workers]
        peak = sum(d * fast.busy_scale for d in draws)
        floor = max(d * lean.busy_scale for d in draws)
        caps[node.mid] = max(fraction * peak, floor)
    return caps


@dataclass
class EnergyRow:
    """One (scheduler, cap level) cell of the sweep."""

    scheduler: str
    cap_fraction: float | None
    cap_watts: dict[int, float] | None
    makespan_us: float
    total_energy_j: float
    busy_energy_j: float
    jobs_energy_j: float
    mean_latency_us: float
    mean_edp_j_s: float
    fairness: float
    n_throttled: int
    throttle_delay_us: float
    n_jobs: int
    #: No other row beats this one on both makespan and joules.
    pareto: bool = False
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def cap_label(self) -> str:
        if self.cap_fraction is None:
            return "none"
        return f"{self.cap_fraction:g}x"


@dataclass
class EnergyExperimentResult:
    """All rows of the energy Pareto sweep."""

    experiment: ClassVar[str] = "energy"
    machine: str
    n_tenants: int
    n_jobs: int
    seed: int
    load: float
    rate_jobs_per_s: float
    #: ``len(dominating_rows())``, set once the grid has run.
    n_dominating: int = 0
    rows: list[EnergyRow] = field(default_factory=list)

    def baseline_row(self) -> EnergyRow | None:
        """The uncapped plain-``multiprio`` row (the reference point)."""
        for row in self.rows:
            if row.scheduler == "multiprio" and row.cap_fraction is None:
                return row
        return None

    def dominating_rows(self, makespan_slack: float = 0.10) -> list[EnergyRow]:
        """Energy-aware rows that beat uncapped ``multiprio`` on joules
        within ``makespan_slack`` relative makespan cost — the sweep's
        acceptance property is that this list is non-empty."""
        base = self.baseline_row()
        if base is None:
            return []
        limit = base.makespan_us * (1.0 + makespan_slack)
        return [
            row
            for row in self.rows
            if row is not base
            and row.scheduler in ("multiprio-energy", "multiprio-edp")
            and row.total_energy_j < base.total_energy_j
            and row.makespan_us <= limit
        ]


def mark_pareto(rows: Sequence[EnergyRow]) -> None:
    """Flag rows no other row dominates on (makespan, joules), both
    minimized. Dominance is strict in at least one coordinate."""
    for row in rows:
        row.pareto = not any(
            other.makespan_us <= row.makespan_us
            and other.total_energy_j <= row.total_energy_j
            and (
                other.makespan_us < row.makespan_us
                or other.total_energy_j < row.total_energy_j
            )
            for other in rows
        )


def _energy_cell(
    scheduler: str,
    cap_fraction: float | None,
    *,
    machine: str,
    n_tenants: int,
    n_jobs: int,
    n_tiles: int,
    tile_size: int,
    rate_jobs_per_s: float,
    seed: int,
    check_invariants: bool,
) -> EnergyRow:
    """One cell, executed in whichever process the sweep picked."""
    caps = (
        node_caps_for(machine, cap_fraction)
        if cap_fraction is not None
        else None
    )
    power = PowerStateModel(node_cap_watts=caps)
    stream = overload_workload(
        rate_jobs_per_s=rate_jobs_per_s, n_tenants=n_tenants,
        n_jobs=n_jobs, n_tiles=n_tiles, tile_size=tile_size, seed=seed,
        qos=None, name="energy",
    )
    res = SimSpec(
        machine, scheduler, isolated_baseline=False,
        config=SimConfig(power=power, check_invariants=check_invariants or None),
    ).run_stream(stream)
    energy = res.sim.energy
    assert energy is not None  # the power model is always attached here
    return EnergyRow(
        scheduler=scheduler,
        cap_fraction=cap_fraction,
        cap_watts=caps,
        makespan_us=res.makespan_us,
        total_energy_j=energy.total_j,
        busy_energy_j=energy.busy_j,
        jobs_energy_j=res.jobs_energy_j,
        mean_latency_us=res.mean_latency_us,
        mean_edp_j_s=res.mean_edp_j_s,
        fairness=res.fairness,
        n_throttled=energy.n_throttled,
        throttle_delay_us=energy.throttle_delay_us,
        n_jobs=len(res.jobs),
        per_tenant=res.per_tenant(),
    )


def run_energy_experiment(
    *,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    cap_fractions: Sequence[float | None] = DEFAULT_CAP_FRACTIONS,
    machine: str = "small-hetero",
    n_tenants: int = 6,
    n_jobs: int = 24,
    n_tiles: int = 4,
    tile_size: int = 256,
    load: float = DEFAULT_LOAD,
    seed: int = 0,
    check_invariants: bool = False,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> EnergyExperimentResult:
    """The (scheduler × cap level) energy sweep; ``jobs=N`` is
    bit-identical to serial execution."""
    job_cost = estimate_job_cost_us(machine, n_tiles, tile_size)
    rate = load * sustainable_rate_jobs_per_s(machine, job_cost)
    cells = [
        CallSpec(
            _energy_cell,
            (scheduler, cap_fraction),
            {
                "machine": machine,
                "n_tenants": n_tenants,
                "n_jobs": n_jobs,
                "n_tiles": n_tiles,
                "tile_size": tile_size,
                "rate_jobs_per_s": rate,
                "seed": seed,
                "check_invariants": check_invariants,
            },
        )
        for scheduler in schedulers
        for cap_fraction in cap_fractions
    ]
    rows = list(run_tasks(cells, jobs=jobs, progress=progress))
    mark_pareto(rows)
    result = EnergyExperimentResult(
        machine=machine,
        n_tenants=n_tenants,
        n_jobs=n_jobs,
        seed=seed,
        load=load,
        rate_jobs_per_s=rate,
        rows=rows,
    )
    result.n_dominating = len(result.dominating_rows())
    return result


#: Keyword overrides for the CLI's ``--quick`` (the CI smoke grid).
run_energy_experiment.quick = {"cap_fractions": (None, 0.6), "n_tenants": 4, "n_jobs": 12}


def format_energy_experiment(result: EnergyExperimentResult) -> str:
    """The sweep as an aligned text table (``*`` = Pareto-optimal)."""
    rows = [
        [
            ("* " if row.pareto else "  ") + row.scheduler,
            row.cap_label,
            f"{row.makespan_us / 1e3:.2f}",
            f"{row.total_energy_j:.3f}",
            f"{row.jobs_energy_j:.3f}",
            f"{row.mean_latency_us / 1e3:.2f}",
            f"{row.mean_edp_j_s:.4f}",
            f"{row.fairness:.3f}",
            f"{row.n_throttled}",
            f"{row.throttle_delay_us / 1e3:.2f}",
        ]
        for row in result.rows
    ]
    table = format_table(
        [
            "scheduler", "cap", "makespan ms", "total J", "job J",
            "lat ms", "EDP J.s", "fairness", "thr", "delay ms",
        ],
        rows,
        title=(
            f"energy pareto on {result.machine} "
            f"({result.n_tenants} tenants, {result.n_jobs} jobs/cell, "
            f"load {result.load:g}x, seed {result.seed}; "
            f"* = Pareto-optimal on makespan x joules)"
        ),
    )
    base = result.baseline_row()
    dominating = result.dominating_rows()
    if base is None:
        verdict = "no uncapped multiprio baseline in the grid"
    elif dominating:
        best = min(dominating, key=lambda r: r.total_energy_j)
        saved = 100.0 * (1.0 - best.total_energy_j / base.total_energy_j)
        cost = 100.0 * (best.makespan_us / base.makespan_us - 1.0)
        verdict = (
            f"{best.scheduler} (cap {best.cap_label}) saves {saved:.1f}% "
            f"joules at {cost:+.1f}% makespan vs uncapped multiprio"
        )
    else:
        verdict = (
            "no energy-aware row beat uncapped multiprio on joules "
            "within 10% makespan"
        )
    return f"{table}\n{verdict}"
