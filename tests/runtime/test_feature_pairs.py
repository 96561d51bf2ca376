"""Pinned schedules for engine feature pairs no other test combines.

Each case runs two opt-in subsystems together on ``small-hetero`` under
the invariant checker, asserts that both are in their active regime
(so the pin really exercises the combination), and pins the makespan
plus a blake2b digest of every task's ``sched["_record"]`` — worker,
pop time, start and end. Any change to the combined hot path that moves
a single task shows up here.
"""

from __future__ import annotations

import hashlib

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program
from repro.control.plane import ControlPlane, default_overload_config
from repro.experiments.overload import (
    estimate_job_cost_us,
    overload_workload,
    sustainable_rate_jobs_per_s,
)
from repro.obs.events import JobDone, JobSubmit
from repro.platform import MACHINES
from repro.runtime.faults import FaultModel
from repro.runtime.power import PowerStateModel
from repro.runtime.resources import ResourceProtocol
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.workload.merge import merge_stream

MACHINE = "small-hetero"

#: (makespan, record digest) per pair.
PINS: dict[str, tuple[float, str]] = {
    "control+power": (17270.506457513602, "69c8a9d63c334c0b097d37eef7408dff"),
    "batch+power": (24700.236771998363, "39ccf9a634e80763d351ee41a8c2770b"),
    "batch+faults": (15398.209901373415, "0057fc6f55ee5a3e2e82f70f359505de"),
    "power+resources": (130968.52173913042, "968f8d3875fdd45a88cdd1f25ce137af"),
}


def record_digest(program) -> str:
    """blake2b over every task's (tid, _record); cancelled tasks hash None."""
    h = hashlib.blake2b(digest_size=16)
    for task in program.tasks:
        h.update(repr((task.tid, task.sched.get("_record"))).encode())
    return h.hexdigest()


def locked_program(n: int = 18):
    """CPU tasks sharing locks ``a``/``b`` beside unlocked ones."""
    tf = TaskFlow("locked")
    for i in range(n):
        h = tf.data(4096, label=f"d{i}")
        res = ("a",) if i % 3 == 0 else (("b",) if i % 3 == 1 else ())
        tf.submit(
            "gemm", [(h, AccessMode.W)], flops=5e8,
            implementations=("cpu",), resources=res, priority=i % 5,
        )
    return tf.program()


def test_control_and_power():
    job_cost = estimate_job_cost_us(MACHINE)
    rate = 4.0 * sustainable_rate_jobs_per_s(MACHINE, job_cost)
    stream = overload_workload(
        rate_jobs_per_s=rate, n_tenants=4, n_jobs=16, seed=3
    )
    n_workers = len(MACHINES[MACHINE]().platform().workers)
    plane = ControlPlane(default_overload_config(
        tenants=stream.tenants,
        sustainable_work_per_s=float(n_workers),
        job_cost_us=job_cost,
        max_inflight_jobs=2.0 * n_workers,
    ))
    program = merge_stream(stream)
    spec = SimSpec(MACHINE, "multiprio", config=SimConfig(
        power=PowerStateModel(node_cap_watts={0: 60.0}),
        record_level="tasks",
        check_invariants=True,
    ))
    res = spec.simulator(control_plane=plane).run(program)
    records = plane.records()
    assert any(r.n_delays > 0 or r.status != "done" for r in records)
    assert res.energy.n_throttled > 0
    n_done = sum(1 for r in records if r.status == "done")
    assert sum(isinstance(e, JobDone) for e in res.events) == n_done
    assert sum(isinstance(e, JobSubmit) for e in res.events) == n_done
    assert res.makespan == PINS["control+power"][0]
    assert record_digest(program) == PINS["control+power"][1]


def test_batch_and_power():
    program = cholesky_program(6, 512)
    res = SimSpec(MACHINE, "multiprio", config=SimConfig(
        batch_step=200.0,
        batch_drain_on_idle=False,
        power=PowerStateModel(node_cap_watts=200.0),
        check_invariants=True,
    )).run(program)
    assert res.batch_stats["max_batch"] > 1
    assert res.energy.n_throttled > 0
    assert res.makespan == PINS["batch+power"][0]
    assert record_digest(program) == PINS["batch+power"][1]


def test_batch_and_faults():
    program = cholesky_program(6, 512)
    faults = FaultModel(task_failure_rate=0.1, worker_kills={0: 4000.0}, seed=1)
    res = SimSpec(MACHINE, "dmdas", config=SimConfig(
        batch_step=100.0, faults=faults, check_invariants=True,
    )).run(program)
    assert res.faults.task_failures > 0 and res.faults.retries > 0
    assert res.faults.worker_failures == 1 and res.faults.tasks_recovered > 0
    # Every reveal, retry and recovered task re-enters through a batch.
    assert res.batch_stats["n_batched"] == (
        res.n_tasks + res.faults.retries + res.faults.tasks_recovered
    )
    assert res.makespan == PINS["batch+faults"][0]
    assert record_digest(program) == PINS["batch+faults"][1]


def test_power_and_ceiling_resources():
    program = locked_program()
    res = SimSpec(MACHINE, "multiprio", config=SimConfig(
        resources=ResourceProtocol(mode="ceiling"),
        power=PowerStateModel(node_cap_watts={0: 20.0}),
        check_invariants=True,
    )).run(program)
    assert res.rt_stats["resource_n_blocked"] > 0
    assert res.energy.n_throttled > 0
    assert res.makespan == PINS["power+resources"][0]
    assert record_digest(program) == PINS["power+resources"][1]
