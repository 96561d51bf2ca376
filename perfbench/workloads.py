"""The benchmark's four workloads: inputs from a seed, one run, checks.

Each workload is a closed loop with one client: the benchmark runs one
iteration (build the inputs, simulate, assemble the result) after the
previous one has finished. Within simulated time, ``light-stream`` and
``tenant-mix`` are open-loop Poisson arrivals at a fixed rate and
``cluster-chains`` adds stage-to-stage ``after`` dependencies; job
latency is measured from each job's scheduled arrival, so simulated
queueing counts.

A workload splits an iteration in two. :meth:`Workload.execute` is the
timed part, from the first generator call to the last result object.
:meth:`Workload.evaluate` runs afterwards and turns that result into
simulated metrics, correctness checks and a schedule fingerprint.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.analysis.bounds import makespan_bounds
from repro.analysis.stats import percentile
from repro.api import SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.apps.fmm import fmm_program
from repro.apps.sparseqr.matrices import matrix_by_name, matrix_tree
from repro.apps.sparseqr.taskgraph import sparse_qr_program
from repro.cluster.spec import star_cluster
from repro.control.plane import default_overload_config
from repro.experiments.energy_pareto import node_caps_for
from repro.experiments.overload import estimate_job_cost_us
from repro.extensions.energy import energy_of_result
from repro.platform.machines import MACHINES, intel_v100
from repro.runtime.overhead import SchedOverheadModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.power import PowerStateModel
from repro.runtime.resources import ResourceProtocol
from repro.runtime.stf import Program, TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.workload.stream import QOS_CLASSES, Job, JobStream, poisson_stream

_RECORD = struct.Struct("<qdd")


@dataclass
class Metric:
    """One measured value with its unit and how many samples it summarises."""

    value: float
    unit: str
    samples: str


@dataclass
class Outcome:
    """What one iteration produced, after the timed part ended."""

    n_jobs: int
    n_completed: int
    #: Tasks the engine ran (tasks of shed jobs never ran).
    n_tasks: int
    fingerprint: str
    sim: dict[str, Metric]
    extras: dict[str, Metric] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)


def fingerprint(records: Sequence[tuple | None]) -> str:
    """Hash of per-task ``(worker, start, end)`` records, in task order.

    Floats are hashed bit for bit, so two commits that schedule
    identically give the same string and any change gives another.
    """
    h = hashlib.blake2b(digest_size=16)
    for rec in records:
        if rec is None:
            h.update(b"-")
        else:
            h.update(_RECORD.pack(*rec))
    return h.hexdigest()


def fingerprint_of_digests(digests: Sequence[str]) -> str:
    """One fingerprint over several runs' fingerprints, in order."""
    h = hashlib.blake2b(digest_size=16)
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def program_records(program: Program) -> list[tuple | None]:
    """Per-task ``(worker, start, end)`` from the engine's task records
    (``None`` for a task that never ran)."""
    out: list[tuple | None] = []
    for t in program.tasks:
        rec = t.sched.get("_record")
        out.append(None if rec is None else (rec[0], rec[2], rec[3]))
    return out


def tail_quantile(n_expected: int) -> float:
    """p99 when at least ten of ``n_expected`` samples lie beyond it, else p95."""
    return 0.99 if n_expected * 0.01 >= 10 else 0.95


def latency_metrics(latencies: list[float], q: float) -> dict[str, Metric]:
    """p50 and tail job latency, labelled with the percentile and count."""
    n = len(latencies)
    beyond = n - max(1, round(q * n)) if n else 0
    return {
        "sim_latency_p50_us": Metric(percentile(latencies, 0.5), "us", f"p50 of {n} jobs"),
        "sim_latency_tail_us": Metric(
            percentile(latencies, q), "us",
            f"p{round(q * 100)} of {n} jobs, {beyond} beyond",
        ),
    }


def stream_checks(program, n_arrived: int, n_settled: int, jobs) -> dict[str, bool]:
    """Conservation, one record per run task, no start before arrival."""
    # A task either ran once (DONE, one record) or was cancelled with its
    # job before it started (CANCELLED, no record).
    one_record = all(
        ("_record" in t.sched) == (t.state is TaskState.DONE)
        and t.state in (TaskState.DONE, TaskState.CANCELLED)
        for t in program.tasks
    )
    return {
        "conservation": n_settled == n_arrived,
        "one_record_per_task": one_record,
        "start_after_arrival": all(j.start_us >= j.arrival_us for j in jobs),
    }


class Workload:
    """Base class: a named workload at a named size."""

    name = ""
    why = ""
    #: Size name -> parameters; ``full`` is what the benchmark measures,
    #: ``tiny`` is for the self-tests.
    SIZES: dict[str, dict[str, Any]] = {}

    def __init__(self, size: str = "full") -> None:
        self.size = size
        self.params = dict(self.SIZES[size])

    def prepare(self) -> None:
        """Derive per-process constants before the timed loop."""

    def manifest(self) -> dict[str, Any]:
        return {"size": self.size, **self.params, "tail_percentile": f"p{round(self.tail_q() * 100)}"}

    def tail_q(self) -> float:
        raise NotImplementedError

    def execute(self, seed: int, tracer) -> Any:
        raise NotImplementedError

    def evaluate(self, raw: Any, probe) -> Outcome:
        raise NotImplementedError


# -- paper-dag ----------------------------------------------------------------


class PaperDag(Workload):
    """The paper's three DAG families on intel-v100, MultiPrio vs Dmdas."""

    name = "paper-dag"
    why = (
        "Figs. 5-8 DAGs (Cholesky, sparse QR TF17, FMM) under multiprio and "
        "dmdas: pop-heavy scheduling and transfer-heavy memory, no stream"
    )
    SIZES = {
        "full": {
            "cholesky_tiles": 32, "tile_size": 960, "qr_matrix": "TF17",
            "qr_scale": 0.02, "fmm_particles": 200_000, "fmm_height": 5,
        },
    }
    SIZES["tiny"] = {
        **SIZES["full"], "cholesky_tiles": 6, "qr_matrix": "cat_ears_4_4",
        "qr_scale": 0.002, "fmm_particles": 2_000, "fmm_height": 3,
    }
    #: (graph, GPU streams, execution noise) as fig5_dense / fig6_fmm /
    #: fig8_sparseqr configure them.
    GRAPHS = (("cholesky", 1, 0.05), ("sparse-qr", 4, 0.35), ("fmm", 2, 0.15))
    SCHEDULERS = ("multiprio", "dmdas")

    def tail_q(self) -> float:
        return tail_quantile(len(self.GRAPHS))

    def _build(self, graph: str) -> Program:
        # The graphs are the paper's fixed inputs (fig8 and fig6 build
        # them at seed 0); the workload seed drives the execution noise.
        p = self.params
        if graph == "cholesky":
            return cholesky_program(p["cholesky_tiles"], p["tile_size"])
        if graph == "sparse-qr":
            spec = matrix_by_name(p["qr_matrix"])
            scale = max(p["qr_scale"], 120.0 / spec.gflops)
            tree = matrix_tree(spec, scale=scale, seed=0)
            return sparse_qr_program(tree, name=spec.name)
        return fmm_program(
            n_particles=p["fmm_particles"], height=p["fmm_height"],
            distribution="ellipsoid", seed=0,
        )

    def execute(self, seed: int, tracer) -> Any:
        with tracer.span("build"):
            programs = [self._build(g) for g, _, _ in self.GRAPHS]
            tracer.count("build.tasks", sum(len(p.tasks) for p in programs))
        runs = []
        for (graph, streams, noise), program in zip(self.GRAPHS, programs):
            machine = intel_v100(gpu_streams=streams)
            for sched in self.SCHEDULERS:
                res = SimSpec(machine, sched, seed=seed, noise_sigma=noise).run(program)
                runs.append((graph, sched, machine, program, res, program_records(program)))
        return runs

    def evaluate(self, runs, probe) -> Outcome:
        makespan: dict[tuple[str, str], float] = {}
        checks = {"bounds": True, "one_record_per_task": True, "start_after_arrival": True}
        energy = 0.0
        digest = []
        for graph, sched, machine, program, res, records in runs:
            makespan[graph, sched] = res.makespan
            digest.append(fingerprint(records))
            bound = makespan_bounds(
                program, machine.platform(), AnalyticalPerfModel(machine.calibration())
            ).best_us
            checks["bounds"] &= res.makespan >= bound
            checks["one_record_per_task"] &= all(r is not None for r in records)
            checks["start_after_arrival"] &= all(r[1] >= 0.0 for r in records)
            if sched == "multiprio":
                energy += energy_of_result(res, machine.platform())
        graphs = [g for g, _, _ in self.GRAPHS]
        mp = [makespan[g, "multiprio"] for g in graphs]
        gain = math.exp(
            sum(math.log(makespan[g, "dmdas"] / makespan[g, "multiprio"]) for g in graphs)
            / len(graphs)
        )
        n_jobs = len(runs)
        sim = {
            "sim_makespan_us": Metric(sum(mp), "us", f"sum over {len(mp)} multiprio graphs"),
            **latency_metrics(mp, self.tail_q()),
            "sim_energy_j": Metric(energy, "J", f"sum over {len(mp)} multiprio graphs"),
        }
        extras = {
            "sim_gain_vs_dmdas": Metric(gain, "ratio", f"geomean over {len(graphs)} graphs"),
        }
        for g in graphs:
            extras[f"sim_makespan_us.{g}.multiprio"] = Metric(makespan[g, "multiprio"], "us", "1 run")
            extras[f"sim_makespan_us.{g}.dmdas"] = Metric(makespan[g, "dmdas"], "us", "1 run")
        return Outcome(
            n_jobs=n_jobs,
            n_completed=n_jobs,
            n_tasks=sum(len(r[3].tasks) for r in runs),
            fingerprint=fingerprint_of_digests(digest),
            sim=sim,
            extras=extras,
            checks=checks,
        )


# -- light-stream -------------------------------------------------------------


def light_bag_program(n_tasks: int) -> Program:
    """One job of ``n_tasks`` independent light tasks (one 4 KB write each)."""
    tf = TaskFlow("light")
    for i in range(n_tasks):
        h = tf.data(4096, label=f"d{i}")
        tf.submit(
            "light", [(h, AccessMode.W)], flops=1e6,
            implementations=("cpu", "cuda"),
        )
    return tf.program()


class LightStream(Workload):
    """Many tiny jobs, batched multiqueue: set-up and assembly dominate."""

    name = "light-stream"
    why = (
        "100k one-write tasks arriving as Poisson jobs under batched multiqueue: "
        "build, merge, result assembly and GC dominate; MultiPrio is bypassed"
    )
    SIZES = {
        "full": {"n_jobs": 5000, "tasks_per_job": 20, "rate_jobs_per_s": 1500.0,
                 "scheduler": "multiqueue", "batch_step_us": 500.0,
                 "machine": "small-hetero"},
    }
    SIZES["tiny"] = {**SIZES["full"], "n_jobs": 40}

    def tail_q(self) -> float:
        return tail_quantile(self.params["n_jobs"])

    def execute(self, seed: int, tracer) -> Any:
        p = self.params
        n = p["tasks_per_job"]
        with tracer.span("build"):
            stream = poisson_stream(
                [("light", lambda: light_bag_program(n))],
                rate_jobs_per_s=p["rate_jobs_per_s"], n_jobs=p["n_jobs"],
                seed=seed, name="light",
            )
            tracer.count("build.tasks", stream.n_tasks)
        spec = SimSpec(
            p["machine"], p["scheduler"], seed=seed, batch_step=p["batch_step_us"],
            batch_drain_on_idle=False, isolated_baseline=False,
        )
        return stream, spec.run_stream(stream)

    def evaluate(self, raw, probe) -> Outcome:
        stream, res = raw
        merged = probe.stream_programs[-1]
        platform = MACHINES[self.params["machine"]]().platform()
        jobs = res.jobs
        sim = {
            "sim_makespan_us": Metric(res.makespan_us, "us", "1 run"),
            **latency_metrics([j.latency_us for j in jobs], self.tail_q()),
            "sim_energy_j": Metric(energy_of_result(res.sim, platform), "J", "1 run"),
        }
        return Outcome(
            n_jobs=len(stream.jobs),
            n_completed=len(jobs),
            n_tasks=stream.n_tasks,
            fingerprint=fingerprint(program_records(merged)),
            sim=sim,
            checks=stream_checks(merged, len(stream.jobs), len(jobs), jobs),
        )


# -- tenant-mix ---------------------------------------------------------------


def locked_program(tile: int = 128) -> Program:
    """A second job shape: a four-step tile pipeline that takes shared locks.

    Steps 0 and 2 hold ``journal``, step 3 holds ``index`` and step 1
    runs unlocked. Steps carry distinct priorities, so the
    priority-ceiling protocol has inversions to avoid.
    """
    tf = TaskFlow("locked")
    h = tf.data(tile * tile * 8, label="tile")
    for i, locks in enumerate((("journal",), (), ("journal",), ("index",))):
        tf.submit(
            "gemm", [(h, AccessMode.RW)], flops=2.0 * tile**3,
            implementations=("cpu", "cuda"), priority=i, resources=locks,
        )
    return tf.program()


class TenantMix(Workload):
    """Every extension on: control, deadlines, power caps, overheads, locks, obs."""

    name = "tenant-mix"
    why = (
        "24 tenants, QoS classes and deadlines behind admission control, with "
        "power caps, charged overheads, ceiling locks, obs and isolated baselines"
    )
    SIZES = {
        # Slightly above what the node serves: the control plane sheds a
        # steady share and misses stay below 1. One delay per burstable
        # job keeps head-of-line backoff from swinging latencies.
        "full": {"n_jobs": 900, "n_tenants": 24, "rate_jobs_per_s": 1400.0,
                 "machine": "small-hetero", "scheduler": "multiprio-deadline",
                 "deadline_factor": 3.0, "quota_share": 1.0,
                 "inflight_jobs_per_worker": 1.0, "max_delays": 1,
                 "cap_fraction": 0.8, "push_us": 2.0, "pop_us": 2.0, "flush_us": 5.0},
    }
    SIZES["tiny"] = {**SIZES["full"], "n_jobs": 60}

    def tail_q(self) -> float:
        return tail_quantile(self.params["n_jobs"])

    def prepare(self) -> None:
        p = self.params
        machine = p["machine"]
        # Relative deadlines: a multiple of each shape's isolated makespan.
        locks = ResourceProtocol("ceiling")
        self.deadlines = tuple(
            p["deadline_factor"] * SimSpec(machine, "multiprio", resources=locks).run(prog).makespan
            for prog in (cholesky_program(4, 256), locked_program())
        )
        self.tenants = tuple(f"t{i:02d}" for i in range(p["n_tenants"]))
        n_workers = len(MACHINES[machine]().platform().workers)
        self.control = replace(
            default_overload_config(
                tenants=self.tenants,
                sustainable_work_per_s=float(n_workers),
                share=p["quota_share"],
                job_cost_us=estimate_job_cost_us(machine),
                max_inflight_jobs=p["inflight_jobs_per_worker"] * n_workers,
            ),
            max_delays=p["max_delays"],
        )
        self.power = PowerStateModel(node_cap_watts=node_caps_for(machine, p["cap_fraction"]))
        self.overhead = SchedOverheadModel(
            push_us=p["push_us"], pop_us=p["pop_us"], flush_us=p["flush_us"]
        )

    def execute(self, seed: int, tracer) -> Any:
        p = self.params
        with tracer.span("build"):
            stream = poisson_stream(
                [("cholesky", lambda: cholesky_program(4, 256)), ("locked", locked_program)],
                rate_jobs_per_s=p["rate_jobs_per_s"], n_jobs=p["n_jobs"], seed=seed,
                tenants=self.tenants, qos=QOS_CLASSES, deadline=self.deadlines,
                name="tenant-mix",
            )
            tracer.count("build.tasks", stream.n_tasks)
        spec = SimSpec(
            p["machine"], p["scheduler"], seed=seed, control=self.control,
            sched_params={"deadline_boost": self.deadlines[0]},
            power=self.power, overhead=self.overhead,
            resources=ResourceProtocol("ceiling"), record_level="tasks",
        )
        return stream, spec.run_stream(stream)

    def evaluate(self, raw, probe) -> Outcome:
        stream, res = raw
        merged = probe.stream_programs[-1]
        records = program_records(merged)
        ctl = res.control
        jobs = res.jobs
        settled = ctl.n_completed + ctl.n_rejected + ctl.n_evicted
        checks = stream_checks(merged, ctl.n_arrived, settled, jobs)
        checks["conservation"] &= ctl.n_arrived == len(stream.jobs)
        sim = {
            "sim_makespan_us": Metric(res.makespan_us, "us", "1 run"),
            **latency_metrics([j.latency_us for j in jobs], self.tail_q()),
            "sim_energy_j": Metric(res.total_energy_j, "J", "1 run, metered"),
        }
        n_deadline = len(res.deadline_jobs)
        extras = {
            "sim_deadline_miss_rate": Metric(
                res.deadline_miss_rate, "ratio", f"{n_deadline} completed deadline jobs"
            ),
            "sim_tenant_fairness": Metric(
                res.tenant_fairness, "ratio", f"Jain over {len(self.tenants)} tenants"
            ),
            "jobs_rejected": Metric(ctl.n_rejected, "count", "1 run"),
            "jobs_evicted": Metric(ctl.n_evicted, "count", "1 run"),
        }
        return Outcome(
            n_jobs=len(stream.jobs),
            n_completed=ctl.n_completed,
            n_tasks=sum(1 for r in records if r is not None),
            fingerprint=fingerprint(records),
            sim=sim,
            extras=extras,
            checks=checks,
        )


# -- cluster-chains -----------------------------------------------------------


def chain_stream(
    *, n_chains: int, chain_len: int, rate_chains_per_s: float, jitter: float, seed: int
) -> JobStream:
    """Workflow chains whose heads arrive on a jittered periodic grid.

    Chain ``c`` arrives at ``c / rate`` plus a seeded uniform offset of
    up to ``jitter`` gaps; stages are as in
    :func:`repro.experiments.cluster_scale.cluster_workload` (4x512
    Cholesky and LU alternating, each stage ``after`` the previous one,
    all stamped with the head's arrival). Poisson heads would make the
    number of fixed-point rounds swing from seed to seed (6 to 14 at
    this size), and host time with it.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gap_us = 1e6 / rate_chains_per_s
    offsets = rng.uniform(0.0, jitter * gap_us, size=n_chains)
    jobs: list[Job] = []
    for chain in range(n_chains):
        arrival = chain * gap_us + float(offsets[chain])
        prev: int | None = None
        for _ in range(chain_len):
            jid = len(jobs)
            factory = cholesky_program if jid % 2 == 0 else lu_program
            jobs.append(Job(
                jid=jid, arrival_us=arrival, program=factory(4, 512),
                tenant=f"chain{chain}", after=prev,
            ))
            prev = jid
    return JobStream(name=f"chains-{n_chains}x{chain_len}", jobs=tuple(jobs))


class ClusterChains(Workload):
    """Workflow chains on an 8-node star cluster: the cross-node fixed point."""

    name = "cluster-chains"
    why = (
        "3-stage workflow chains on star_cluster(8) with load-aware placement: "
        "the cross-node fixed point re-runs every active node each round"
    )
    SIZES = {
        "full": {"n_nodes": 8, "n_chains": 64, "chain_len": 3,
                 "rate_chains_per_s_per_node": 30.0, "jitter": 0.5,
                 "placement": "load-aware", "machine": "small-hetero",
                 "scheduler": "multiprio"},
    }
    SIZES["tiny"] = {**SIZES["full"], "n_nodes": 3, "n_chains": 6}

    def tail_q(self) -> float:
        p = self.params
        return tail_quantile(p["n_chains"] * p["chain_len"])

    def execute(self, seed: int, tracer) -> Any:
        p = self.params
        with tracer.span("build"):
            stream = chain_stream(
                n_chains=p["n_chains"], chain_len=p["chain_len"],
                rate_chains_per_s=p["rate_chains_per_s_per_node"] * p["n_nodes"],
                jitter=p["jitter"], seed=seed,
            )
            tracer.count("build.tasks", stream.n_tasks)
        spec = SimSpec(p["machine"], p["scheduler"], seed=seed)
        cluster = star_cluster(p["n_nodes"], p["machine"])
        res = spec.run_cluster(stream, cluster, placement=p["placement"], jobs=1)
        return stream, res

    def evaluate(self, raw, probe) -> Outcome:
        stream, res = raw
        platform = MACHINES[self.params["machine"]]().platform()
        records = res._task_records
        jobs = res.jobs
        one_record = all(
            len({r[0] for r in records.get(n.name, ())}) == n.n_tasks
            == len(records.get(n.name, ()))
            for n in res.nodes
        )
        checks = {
            "conservation": len(jobs) + len(res.rejected) == len(stream.jobs),
            "one_record_per_task": one_record
            and sum(n.n_tasks for n in res.nodes) == stream.n_tasks,
            "start_after_arrival": all(j.start_us >= j.arrival_us for j in jobs),
            "converged": bool(res.converged),
        }
        digest = [
            fingerprint([(wid, start, end) for _, wid, start, end in records[n]])
            for n in sorted(records)
        ]
        energy = sum(energy_of_result(sim, platform) for sim in res.node_sims.values())
        sim = {
            "sim_makespan_us": Metric(res.makespan_us, "us", "1 run"),
            **latency_metrics([j.latency_us for j in jobs], self.tail_q()),
            "sim_energy_j": Metric(energy, "J", f"sum over {len(res.node_sims)} nodes"),
        }
        extras = {
            "cluster_rounds": Metric(res.rounds, "count", "1 run"),
            "cross_transfers": Metric(len(res.transfers), "count", "1 run"),
        }
        return Outcome(
            n_jobs=len(stream.jobs),
            n_completed=len(jobs),
            n_tasks=stream.n_tasks,
            fingerprint=fingerprint_of_digests(digest),
            sim=sim,
            extras=extras,
            checks=checks,
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperDag, LightStream, TenantMix, ClusterChains)
}
