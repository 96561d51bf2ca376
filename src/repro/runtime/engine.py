"""Discrete-event simulation engine driving a scheduler over a program.

The engine reproduces the two StarPU hook points the paper's Section IV
describes:

* **PUSH** — when a task's last dependency completes, the engine calls
  ``scheduler.push(task)``;
* **POP** — when a worker is idle (initially, after each completion, and
  whenever new work appears), the engine calls ``scheduler.pop(worker)``.

Workers are **pipelined** like StarPU's: while executing a task, a worker
pops and stages its next task so the staged task's data transfers overlap
the current execution (StarPU's worker lookahead / prefetch-on-pop). The
pipeline can be disabled to study the unoverlapped behaviour.

Everything else (data transfers with per-link contention, MSI replica
management, history feedback into the performance model, trace capture)
happens inside the engine so every scheduler is compared under identical
runtime behaviour.
"""

from __future__ import annotations

import heapq
import itertools
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.bus import Observability
from repro.obs.events import (
    RecordLevel,
    TaskEnd,
    TaskPop,
    TaskReady,
    TaskStage,
    TaskStart,
    TaskSubmit,
)
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.events import JOB_ARRIVAL, TASK_COMPLETION, WORKER_REQUEST
from repro.runtime import extensions as ext
from repro.runtime.faults import FaultModel, FaultStats
from repro.runtime.overhead import SchedOverheadModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.platform_config import Platform
from repro.runtime.power import EnergyReport, PowerStateModel
from repro.runtime.resources import ResourceProtocol
from repro.runtime.stf import Program
from repro.runtime.task import Task, TaskState
from repro.runtime.trace import Trace
from repro.runtime.worker import Worker
from repro.utils.rng import make_rng
from repro.utils.validation import DeadlockError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control.plane import ControlPlane
    from repro.runtime.perfmodel import PerfModel
    from repro.schedulers.base import Scheduler


class SchedContext:
    """The scheduler's window into the runtime.

    Exposes exactly what StarPU exposes to its scheduling policies:
    execution-time estimates δ(t, a), worker/memory topology, current
    data residency, transfer-cost estimates and a prefetch request hook.
    """

    def __init__(self, platform: Platform, perfmodel: "PerfModel") -> None:
        self.platform = platform
        self.perfmodel = perfmodel
        self.now = 0.0
        # Workers lost to injected fail-stop failures this run.
        self._dead_wids: set[int] = set()
        # Architectures that both exist on the platform and have workers.
        self.available_archs: tuple[str, ...] = tuple(
            a for a in platform.archs if platform.n_workers(a) > 0
        )

    def reset(self) -> None:
        """Per-run reset: clock, dead-worker set, available architectures."""
        self.now = 0.0
        self._dead_wids.clear()
        self.available_archs = tuple(
            a for a in self.platform.archs if self.platform.n_workers(a) > 0
        )

    # -- liveness ----------------------------------------------------------

    def is_alive(self, worker: Worker) -> bool:
        """Whether ``worker`` has not been lost to a fail-stop failure."""
        return worker.wid not in self._dead_wids

    def mark_worker_dead(self, worker: Worker) -> None:
        """Remove ``worker`` from every topology view (fail-stop failure)."""
        self._dead_wids.add(worker.wid)
        self.available_archs = tuple(
            a for a in self.platform.archs if len(self.workers_of_arch(a)) > 0
        )

    # -- estimates ----------------------------------------------------------

    def estimate(self, task: Task, arch: str) -> float:
        """δ(t, a): estimated execution time of ``task`` on ``arch``."""
        return self.perfmodel.estimate(task, arch)

    def exec_archs(self, task: Task) -> list[str]:
        """Available architectures with an implementation of ``task``."""
        return [a for a in self.available_archs if task.can_exec(a)]

    def can_exec(self, task: Task, arch: str) -> bool:
        """Whether ``task`` can run on ``arch`` on this platform."""
        return task.can_exec(arch) and arch in self.available_archs

    def best_arch(self, task: Task) -> str:
        """The architecture with the smallest δ(t, a) (cached per task)."""
        cached = task.sched.get("_best_arch")
        if cached is None:
            archs = self.exec_archs(task)
            if not archs:
                raise SchedulingError(f"{task.name} has no executable architecture")
            cached = min(archs, key=lambda a: self.estimate(task, a))
            task.sched["_best_arch"] = cached
        return cached

    def second_best_arch(self, task: Task) -> str | None:
        """The second-fastest architecture, or None if only one exists."""
        archs = self.exec_archs(task)
        if len(archs) < 2:
            return None
        best = self.best_arch(task)
        rest = [a for a in archs if a != best]
        return min(rest, key=lambda a: self.estimate(task, a))

    # -- data residency -------------------------------------------------------

    def transfer_estimate(self, task: Task, node: int) -> float:
        """Estimated time to stage ``task``'s missing inputs onto ``node``.

        Transfers to one node serialize on its inbound link, so the total
        is the largest single estimate (which includes the current queue
        wait once) plus the wire time of the remaining handles.
        """
        transfers = self.platform.transfers
        worst = 0.0
        wire_sum = 0.0
        worst_wire = 0.0
        for handle, mode in task.accesses:
            if mode.is_read and handle.size > 0:
                est = transfers.estimate_fetch(handle, node, self.now)
                if est <= 0.0:
                    continue
                wire = transfers.wire_estimate(handle, node)
                wire_sum += wire
                if est > worst:
                    worst = est
                    worst_wire = wire
        return worst + (wire_sum - worst_wire)

    def bytes_on_node(self, task: Task, node: int) -> int:
        """Bytes of ``task``'s data already valid on ``node``."""
        return sum(
            handle.size
            for handle, _mode in task.accesses
            if handle.is_valid_on(node)
        )

    def prefetch(self, task: Task, node: int) -> None:
        """Start staging ``task``'s read data onto ``node`` right now.

        Used by push-time-assignment schedulers (the dm family): data
        movement overlaps the wait in the worker's queue.
        """
        transfers = self.platform.transfers
        for handle, mode in task.accesses:
            if mode.is_read and handle.size > 0:
                transfers.fetch(handle, node, self.now, prefetch=True)

    # -- topology shortcuts -----------------------------------------------------

    @property
    def workers(self) -> list[Worker]:
        """All live workers of the platform."""
        if not self._dead_wids:
            return self.platform.workers
        return [w for w in self.platform.workers if w.wid not in self._dead_wids]

    def workers_of_arch(self, arch: str) -> list[Worker]:
        """Live workers of one architecture."""
        if not self._dead_wids:
            return self.platform.workers_of_arch(arch)
        return [
            w
            for w in self.platform.workers_of_arch(arch)
            if w.wid not in self._dead_wids
        ]

    def workers_of_node(self, node: int) -> list[Worker]:
        """Live workers computing from memory node ``node``."""
        if not self._dead_wids:
            return self.platform.workers_of_node(node)
        return [
            w
            for w in self.platform.workers_of_node(node)
            if w.wid not in self._dead_wids
        ]

    def n_workers(self, arch: str | None = None) -> int:
        """Live worker count, optionally per architecture."""
        if not self._dead_wids:
            return self.platform.n_workers(arch)
        if arch is None:
            return len(self.workers)
        return len(self.workers_of_arch(arch))


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    makespan: float
    n_tasks: int
    total_flops: float
    bytes_transferred: int
    exec_time_by_arch: dict[str, float]
    idle_frac_by_arch: dict[str, float]
    forced_pops: int
    scheduler_stats: dict[str, float] = field(default_factory=dict)
    trace: Trace | None = None
    #: Fault bookkeeping; ``None`` when the run had no fault model.
    faults: FaultStats | None = None
    #: Structured event stream; ``None`` unless ``record_level`` enabled it.
    events: tuple | None = None
    #: End-of-run metrics snapshot; ``None`` unless ``record_level`` enabled it.
    metrics: MetricsSnapshot | None = None
    #: Tasks cancelled by the control plane (shed/evicted jobs); 0 when
    #: no control plane was attached.
    n_cancelled: int = 0
    #: Batch-mode provenance (flush count, batched tasks, max/mean batch
    #: size); ``None`` on the per-event path.
    batch_stats: dict[str, float] | None = None
    #: Real-time bookkeeping (charged scheduler overhead counters,
    #: resource-grant/blocking/inversion counters); ``None`` unless an
    #: overhead model or resource protocol was attached.
    rt_stats: dict[str, float] | None = None
    #: Per-worker busy microseconds, indexed by dense worker id; always
    #: populated (energy accounting clamps each worker's idle draw to
    #: its live horizon rather than the whole makespan).
    busy_us_by_worker: tuple[float, ...] = ()
    #: Fail-stop death times per worker id; empty without worker faults.
    death_us_by_worker: dict[int, float] = field(default_factory=dict)
    #: Energy accounting; ``None`` unless a power model was attached.
    energy: EnergyReport | None = None

    @property
    def gflops(self) -> float:
        """Achieved GFlop/s over the whole run."""
        if self.makespan <= 0:
            return 0.0
        return self.total_flops / (self.makespan * 1e-6) / 1e9


class RunState:
    """One run's live engine state, shared with the attached extensions.

    The core loop keeps its hot counters in locals. This object carries
    what extensions and the checker read or mutate in place (heap, worker
    slots, release times), the core operations they call back into
    (``push_ready``, ``wake_workers``, ``schedule_request``, ``settle``,
    ``cancel``, bound by :meth:`Simulator.run`), and the per-run ledgers
    extensions publish for the checker.
    """

    fault_active = False
    control = None
    batch_pending: list[Task] | None = None
    overhead_ledger = resource_ledger = power_ledger = None

    def __init__(self, sim: "Simulator", program: Program) -> None:
        platform = sim.platform
        n_workers = len(platform.workers)
        self.program = program
        self.platform = platform
        self.ctx = sim.ctx
        self.scheduler = sim.scheduler
        self.transfers = platform.transfers
        self.emit = sim.obs.emit if sim.obs is not None else None
        #: The event heap of ``(time, seq, kind, payload)`` tuples.
        self.events: list[tuple[float, int, int, object]] = []
        self.seq = itertools.count()
        #: Per-worker pipeline slots, indexed by the dense worker id.
        self.current: list[Task | None] = [None] * n_workers
        self.staged: list[tuple[Task, float, float] | None] = [None] * n_workers
        # Fail-stop deaths are rare, so the hot path iterates a live list
        # that only a worker failure rebuilds (in place).
        self.live_workers: list[Worker] = list(platform.workers)
        #: Fail-stop death time per worker id.
        self.death_time: dict[int, float] = {}
        self.window = sim.submission_window
        self.releases = program.release_times
        #: Event kind -> handler(now, payload) for extension-owned events.
        self.handlers: dict = {}

    def push_event(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self.events, (time, next(self.seq), kind, payload))


class Simulator:
    """Runs a :class:`Program` on a :class:`Platform` under a scheduler.

    Parameters
    ----------
    platform:
        The machine model.
    scheduler:
        Any :class:`repro.schedulers.base.Scheduler`.
    perfmodel:
        Source of δ(t, a) estimates and actual execution times.
    seed:
        RNG seed for execution noise.
    record_trace:
        Capture a full :class:`Trace` (needed for Gantt / idle / critical
        path analyses; costs memory on large programs).
    pipeline:
        Enable StarPU-style worker lookahead: each worker stages its next
        task while executing, overlapping the staged task's transfers.
    submission_window:
        Maximum number of submitted-but-unfinished tasks, mirroring
        StarPU's task-window throttling of the STF main thread
        (``STARPU_LIMIT_MAX_SUBMITTED_TASKS``). ``None`` (default)
        submits the whole program ahead; small windows reveal the DAG
        progressively, shrinking every scheduler's lookahead.
    fault_model:
        Optional :class:`~repro.runtime.faults.FaultModel` injecting
        transient task failures, fail-stop worker failures and link
        degradation. ``None`` (default) runs the fault-free engine,
        bit-identical to the pre-resilience behaviour: the fault paths
        never sample and never touch the execution-noise RNG.
    record_level:
        :class:`~repro.obs.events.RecordLevel` (or its name) gating the
        observability subsystem: ``"off"`` (default) records nothing and
        keeps the simulation bit-identical to a build without the
        subsystem; ``"tasks"`` publishes lifecycle/transfer/fault events
        and metrics; ``"decisions"`` adds scheduler decision provenance.
        The bound :class:`~repro.obs.bus.Observability` instance is
        exposed as ``self.obs``; the captured stream and metrics
        snapshot land on :class:`SimResult`.
    check_invariants:
        Attach the :mod:`repro.check` validator, which re-verifies MSI
        coherence, link clocks, task conservation and the scheduler's
        own invariants after every event (raising
        :class:`~repro.utils.validation.InvariantError` on violation).
        ``None`` (default) defers to the ``REPRO_CHECK_INVARIANTS``
        environment variable. The checker only reads engine state, so a
        checked run is bit-identical to an unchecked one; unchecked, it
        costs one local ``None`` test per event.
    control_plane:
        Optional admission controller (:class:`repro.control.ControlPlane`).
        Requires a merged job-stream program: the reveal loop asks it to
        accept, delay, or shed each job at its release time, and evicts
        admitted best-effort jobs' unstarted tasks when it says so.
        ``None`` (default) keeps the uncontrolled fast path.
    batch_step:
        Batch-mode scheduling (Firmament-style): instead of one
        ``scheduler.push()`` per ready task, reveals buffer and are
        handed to the scheduler as one ``push_batch()`` at most
        ``batch_step`` microseconds after the first buffered reveal.
        ``None`` (default) keeps the exact per-event path. With
        ``batch_drain_on_idle`` (the default) the batch also drains the
        moment any worker asks for work, which keeps the run
        bit-identical to the per-event path for schedulers whose
        ``push`` is time-invariant (MultiPrio with stable estimates,
        eager, ws, multiqueue — not the dm family, which prefetches and
        snapshots ETAs at push time).
    batch_drain_on_idle:
        Adaptive drain trigger for batch mode: flush the pending batch
        before any worker pop, so no worker ever idles on buffered
        work. ``False`` gives pure step-boundary batching (workers may
        idle up to ``batch_step`` — the classic batch-scheduler
        trade-off).
    overhead:
        Optional :class:`~repro.runtime.overhead.SchedOverheadModel`
        charging every scheduling decision (push / pop / batch flush)
        to a virtual scheduler core in *simulated* time: pops delay the
        popped task until the decision is paid for, and decisions
        serialize on the core. ``None`` (default) keeps decisions free;
        an all-zero model is bit-identical to ``None``.
    resources:
        Optional :class:`~repro.runtime.resources.ResourceProtocol`
        arbitrating ``Task.resources`` locks: tasks sharing a resource
        never overlap, waits behind lower-priority holders emit
        :class:`~repro.obs.events.PriorityInversion` events, and
        ``mode="ceiling"`` adds priority-ceiling avoidance blocking.
        ``None`` (default) ignores resource names entirely.
    power:
        Optional :class:`~repro.runtime.power.PowerStateModel` attaching
        the power subsystem: executions run in DVFS power states (the
        fastest runnable state that fits under the worker's node
        power cap — downgrades and delayed starts emit
        :class:`~repro.obs.events.PowerCapThrottled`), a state's
        ``speed`` scales the sampled execution duration, and
        ``SimResult.energy`` carries the per-worker/per-arch joule
        accounting. ``None`` (default) keeps the engine power-blind; an
        uncapped model whose fastest state is full speed is
        bit-identical to ``None`` (the ``power.noop`` differential
        enforces this).
    """

    def __init__(
        self,
        platform: Platform,
        scheduler: "Scheduler",
        perfmodel: "PerfModel",
        *,
        seed: int | np.random.Generator | None = None,
        record_trace: bool = True,
        pipeline: bool = True,
        submission_window: int | None = None,
        fault_model: FaultModel | None = None,
        record_level: RecordLevel | str | int = RecordLevel.OFF,
        check_invariants: bool | None = None,
        control_plane: "ControlPlane | None" = None,
        batch_step: float | None = None,
        batch_drain_on_idle: bool = True,
        overhead: SchedOverheadModel | None = None,
        resources: ResourceProtocol | None = None,
        power: PowerStateModel | None = None,
    ) -> None:
        if submission_window is not None and submission_window < 1:
            raise SchedulingError(
                f"submission_window must be >= 1 or None, got {submission_window}"
            )
        if batch_step is not None and not batch_step > 0.0:
            raise SchedulingError(
                f"batch_step must be > 0 or None, got {batch_step}"
            )
        self.platform = platform
        self.scheduler = scheduler
        self.perfmodel = perfmodel
        self.rng = make_rng(seed)
        self.record_trace = record_trace
        self.pipeline = pipeline
        self.submission_window = submission_window
        self.check_invariants = _checks_enabled(check_invariants)
        self.record_level = RecordLevel.parse(record_level)
        self.obs: Observability | None = (
            Observability(self.record_level)
            if self.record_level >= RecordLevel.TASKS
            else None
        )
        self.ctx = SchedContext(platform, perfmodel)
        # One extension per attached subsystem, in hook order: ledgers
        # gate before the power states they feed, the batch buffer wraps
        # the charged push, and the checker binds last so it sees every
        # ledger the others published.
        exts: list[ext.Extension] = []
        if fault_model is not None:
            exts.append(ext.FaultInjection(fault_model))
        if overhead is not None:
            exts.append(ext.OverheadCharging(overhead))
        if resources is not None:
            exts.append(ext.ResourceArbitration(resources))
        if power is not None:
            exts.append(ext.PowerStates(power))
        if control_plane is not None:
            exts.append(ext.AdmissionControl(control_plane, perfmodel))
        if batch_step is not None:
            exts.append(ext.BatchScheduling(batch_step, batch_drain_on_idle))
        if self.obs is not None:
            exts.append(ext.JobProvenance())
        if self.check_invariants:
            # Deferred import: the default path never loads repro.check.
            from repro.check.invariants import InvariantChecker

            exts.append(InvariantChecker(self.obs))
        self._extensions = exts

    # -- main loop ---------------------------------------------------------

    def run(self, program: Program) -> SimResult:
        """Simulate ``program`` to completion and return metrics."""
        program.reset_runtime_state()
        platform = self.platform
        platform.reset_runtime_state()
        ctx = self.ctx
        ctx.reset()
        obs = self.obs
        if obs is not None:
            obs.begin_run(platform)
        transfers = platform.transfers
        transfers.observer = obs
        scheduler = self.scheduler
        scheduler.obs = obs
        scheduler.setup(ctx)

        self._validate_program(program)

        run = RunState(self, program)
        emit = run.emit
        events = run.events
        seq = run.seq
        current, staged = run.current, run.staged
        live_workers = run.live_workers
        dead_wids = ctx._dead_wids
        tasks = program.tasks
        n_total = len(tasks)
        n_workers = len(platform.workers)
        trace = Trace(platform.workers) if self.record_trace else None
        pipeline = self.pipeline
        window = self.submission_window
        request_pending: list[bool] = [False] * n_workers
        exec_by_arch: dict[str, float] = {a: 0.0 for a in platform.archs}
        busy_by_worker: list[float] = [0.0] * n_workers
        wait_by_worker: list[float] = [0.0] * n_workers
        revealed = n_done = forced_pops = 0
        n_cancelled = 0  # control-plane cancellations (shed/evicted tasks)
        n_cxl_rev = 0  # cancelled tasks the reveal pointer has passed
        perfmodel = self.perfmodel
        rng = self.rng
        # Noise-free analytical models make sample() == estimate(): read
        # the estimate memo without threading the RNG through sample().
        pm_noisefree = (
            type(perfmodel) is AnalyticalPerfModel and perfmodel.noise_sigma == 0.0
        )
        pm_estimate = perfmodel.estimate
        pm_sample = perfmodel.sample
        pm_record = perfmodel.record
        sched_pop = scheduler.pop

        def push_ready(task: Task) -> None:
            task.state = TaskState.READY
            if emit is not None:
                emit(TaskReady(ctx.now, task.tid, task.type_name))
            handoff(task)

        def schedule_request(worker: Worker, now: float) -> None:
            wid = worker.wid
            if not request_pending[wid] and wid not in dead_wids:
                request_pending[wid] = True
                heapq.heappush(events, (now, next(seq), WORKER_REQUEST, worker))

        def wake_workers(now: float) -> None:
            """Wake live workers that could use new work (idle or unstaged)."""
            for worker in live_workers:
                wid = worker.wid
                if (
                    not request_pending[wid]
                    and (current[wid] is None or (pipeline and staged[wid] is None))
                ):
                    request_pending[wid] = True
                    heapq.heappush(events, (now, next(seq), WORKER_REQUEST, worker))

        def release_succs(task: Task) -> int:
            """Count ``task`` finished for its successors; push the ones it
            was the last unfinished predecessor of. Returns how many."""
            released = 0
            for succ in task.succs:
                if succ.state is TaskState.CANCELLED:
                    continue
                succ.n_unfinished_preds -= 1
                if (
                    succ.n_unfinished_preds == 0
                    and succ.tid < revealed
                    and succ.state is TaskState.SUBMITTED
                ):
                    push_ready(succ)
                    released += 1
            return released

        def cancel(victims: list[Task]) -> None:
            """Cancel not-yet-started tasks. Cancellation releases
            successors exactly like completion does, so cross-job
            ``after`` chains keep making progress past a shed job."""
            nonlocal n_cancelled, n_cxl_rev
            # Mark every victim first so the release sweep below skips
            # intra-job edges instead of double-decrementing them.
            for t in victims:
                t.state = TaskState.CANCELLED
            released = 0
            for t in victims:
                if t.tid < revealed:
                    n_cxl_rev += 1
                released += release_succs(t)
            n_cancelled += len(victims)
            if released:
                wake_workers(ctx.now)

        def settle(worker: Worker, task: Task, now: float) -> float:
            """Account an attempt that completes, fails or dies at ``now``;
            returns the execution time it burned."""
            wid = worker.wid
            _, pop_time, start, _ = task.sched["_record"]
            # A killed attempt may still be stalled on data (start in the
            # future): it burned wait time, not exec time.
            burned = now - start if now > start else 0.0
            busy_by_worker[wid] += burned
            wait_by_worker[wid] += (start if start < now else now) - pop_time
            exec_by_arch[worker.arch] += burned
            if on_settle is not None:
                on_settle(worker, task, burned)
            return burned

        run.push_ready = push_ready
        run.schedule_request = schedule_request
        run.wake_workers = wake_workers
        run.cancel = cancel
        run.settle = settle

        # Attach this run's extensions and resolve their hooks once.
        exts = [e for e in self._extensions if e.begin_run(run) is not False]
        handoff = scheduler.push
        for e in exts:
            if e.wrap_push is not None:
                handoff = e.wrap_push(handoff)
        gates, on_start, on_done = (
            _hooks(exts, name) for name in ("gate_start", "on_start", "on_done")
        )
        (reveal_gate, on_reveal, drain, pop_delay, end_event, on_settle,
         check) = (_hook(exts, name) for name in _SINGLE_HOOKS)
        handlers = run.handlers
        # A control plane may have swapped in a mutable copy.
        releases = run.releases

        # Progressive submission: a task only enters the scheduler's view
        # once the STF "main thread" has submitted it. Task ids are dense
        # submission indices, so `tid < revealed` is the submitted test.
        # Two gates throttle the reveal: the submission window (StarPU's
        # STARPU_LIMIT_MAX_SUBMITTED_TASKS back-pressure) and, for merged
        # job streams, each task's release time — its job's arrival on
        # the virtual clock. Both modes share one loop so TaskSubmit
        # events carry comparable ``ctx.now`` stamps.
        def advance_submission() -> None:
            nonlocal revealed, n_cxl_rev
            while revealed < n_total:
                if window is not None and revealed - n_done - n_cxl_rev >= window:
                    break
                if releases is not None and releases[revealed] > ctx.now:
                    break
                task = tasks[revealed]
                if task.state is TaskState.CANCELLED:
                    # Shed/evicted before the STF thread got here: skip
                    # silently — the job never existed to the scheduler.
                    revealed += 1
                    n_cxl_rev += 1
                    continue
                if reveal_gate is not None and not reveal_gate(task):
                    if task.state is TaskState.CANCELLED:
                        continue  # shed: the skip branch advances past it
                    break  # delayed: its job's retry re-opens the gate
                revealed += 1
                if on_reveal is not None:
                    on_reveal(task)
                if emit is not None:
                    emit(TaskSubmit(ctx.now, task.tid, task.type_name))
                if task.n_unfinished_preds == 0 and task.state is TaskState.SUBMITTED:
                    push_ready(task)

        if releases is not None:
            # One wake-up per distinct future arrival time: the STF main
            # thread resumes submitting exactly when the next job lands.
            for arrival_time in sorted({t for t in releases if t > 0.0}):
                heapq.heappush(events, (arrival_time, next(seq), JOB_ARRIVAL, None))
        advance_submission()

        for worker in platform.workers:
            schedule_request(worker, 0.0)

        def acquire(
            worker: Worker, task: Task, now: float,
            lookahead: bool = False, forced: bool = False,
        ) -> tuple[float, float]:
            """Bind a popped task to ``worker`` (it turns RUNNING): validate,
            commit transfers, sample the duration. Returns (start-not-before
            time, execution duration)."""
            if emit is not None:
                emit(TaskPop(now, task.tid, worker.wid, lookahead, forced))
            arch = worker.arch
            if arch not in task.implementations or arch not in ctx.available_archs:
                raise SchedulingError(
                    f"scheduler assigned {task.name} to {worker.name} "
                    f"({arch}) but it has no {arch} implementation"
                )
            if task.state is not TaskState.READY:
                raise SchedulingError(
                    f"scheduler popped {task.name} in state {task.state.name}"
                )
            task.state = TaskState.RUNNING
            node = worker.memory_node
            arrival = now
            for handle in task._reads:
                # Settled resident replica: skip the fetch call entirely
                # (route search, in-flight merge) — only recency changes.
                if node in handle.valid_nodes and not handle._in_flight:
                    transfers.touch(handle, node, now)
                else:
                    done = transfers.fetch(handle, node, now)
                    if trace is not None and done > now:
                        src = transfers.fetch_source(handle.hid, node)
                        trace.record_transfer(
                            handle.hid, src, node, handle.size, now, done
                        )
                    if done > arrival:
                        arrival = done
                pins = handle._pins  # transfers.pin() inlined (hot path)
                pins[node] = pins.get(node, 0) + 1
            # Every transferable read is pinned, so the pinned set IS the
            # precomputed read tuple — no per-task list build.
            task.sched["_pinned"] = task._reads
            duration = (
                pm_estimate(task, arch) if pm_noisefree else pm_sample(task, arch, rng)
            )
            if pop_delay is not None:
                decision_end = pop_delay(now)
                if decision_end > arrival:
                    arrival = decision_end
            return arrival, duration

        def begin_exec(
            worker: Worker, task: Task, now: float, arrival: float, duration: float
        ) -> None:
            start = max(now, arrival)
            for gate in gates:
                start, duration = gate(worker, task, now, start, duration)
            end = start + duration
            for book in on_start:
                book(worker, task, start, end)
            # pop_time is the moment the worker became free for this task;
            # (start - pop_time) is the residual (unoverlapped) data stall.
            task.sched["_record"] = (worker.wid, now, start, end)
            current[worker.wid] = task
            if emit is not None:
                emit(TaskStart(
                    now, task.tid, task.type_name, worker.wid,
                    worker.memory_node, start,
                ))
            if end_event is None:
                heapq.heappush(events, (end, next(seq), TASK_COMPLETION, (worker, task)))
            else:
                when, kind = end_event(worker, task, start, duration, end)
                heapq.heappush(events, (when, next(seq), kind, (worker, task)))

        def try_stage(worker: Worker, now: float) -> None:
            """Pop one task ahead and start its transfers (lookahead)."""
            if not pipeline or staged[worker.wid] is not None:
                return
            task = sched_pop(worker)
            if task is None:
                return
            arrival, duration = acquire(worker, task, now, lookahead=True)
            staged[worker.wid] = (task, arrival, duration)
            if emit is not None:
                emit(TaskStage(now, task.tid, worker.wid, arrival))

        while events:
            if check is not None:
                # Validate the state every processed event left behind,
                # before the queue is disturbed.
                check(events[0][0], revealed, n_done)
            now, _, kind, payload = heapq.heappop(events)
            ctx.now = now

            if kind == WORKER_REQUEST:
                worker = payload  # type: ignore[assignment]
                wid = worker.wid
                request_pending[wid] = False
                if wid in dead_wids:
                    continue
                if drain is not None:
                    drain(now, "drain")
                if current[wid] is None:
                    if staged[wid] is not None:
                        task, arrival, duration = staged[wid]  # type: ignore[misc]
                        staged[wid] = None
                        begin_exec(worker, task, now, arrival, duration)
                    else:
                        task = sched_pop(worker)
                        if task is not None:
                            arrival, duration = acquire(worker, task, now)
                            begin_exec(worker, task, now, arrival, duration)
                    if current[wid] is not None:
                        try_stage(worker, now)
                else:
                    try_stage(worker, now)

            elif kind == TASK_COMPLETION:
                worker, task = payload  # type: ignore[misc]
                wid = worker.wid
                if current[wid] is not task:
                    # Stale completion of an attempt aborted by a worker
                    # failure; the task was rolled back and re-pushed.
                    continue
                task.state = TaskState.DONE
                n_done += 1
                pm_record(task, worker.arch, settle(worker, task, now))
                if trace is not None or emit is not None:
                    _, pop_time, start, end = task.sched["_record"]
                    if trace is not None:
                        trace.record_task(task, worker, pop_time, start, end)
                    if emit is not None:
                        emit(TaskEnd(
                            now, task.tid, task.type_name, wid,
                            worker.memory_node, pop_time, start, end,
                        ))
                for done_hook in on_done:
                    done_hook(task, now)
                # Writes invalidate every other replica (MSI).
                node = worker.memory_node
                for handle in task.sched.get("_pinned", ()):
                    pins = handle._pins  # transfers.unpin() inlined (hot path)
                    count = pins.get(node, 0)
                    if count <= 1:
                        pins.pop(node, None)
                    else:
                        pins[node] = count - 1
                for handle in task._writes:
                    transfers.invalidate_others(handle, node, now)
                    handle._in_flight[node] = now
                scheduler.on_task_done(task, worker)
                released = release_succs(task)
                if window is not None:
                    before = revealed
                    advance_submission()
                    released += revealed - before
                current[wid] = None
                schedule_request(worker, now)
                if released:
                    wake_workers(now)

            elif kind == JOB_ARRIVAL:
                # The clock reached a job's release time: resume the STF
                # submission loop and wake workers if anything came out.
                before = revealed
                advance_submission()
                if revealed != before:
                    wake_workers(now)

            else:  # an extension's event: failures, retries, batch flushes
                handlers[kind](now, payload)

            # Liveness rescue: nothing in flight but tasks remain.
            if not events and n_done + n_cancelled < n_total:
                if any(c is not None for c in current):
                    continue
                if drain is not None:
                    drain(now, "rescue")
                progressed = False
                for worker in live_workers:
                    task = sched_pop(worker) or scheduler.force_pop(worker)
                    if task is None:
                        continue
                    if task.state is not TaskState.READY:
                        # The scheduler has already tombstoned this task
                        # as taken; silently dropping it here would turn
                        # a scheduler bug into a DeadlockError later.
                        raise SchedulingError(
                            f"scheduler {scheduler.name!r} returned "
                            f"{task.name} in state {task.state.name} from "
                            f"the liveness-rescue pop; it was already "
                            f"handed out (popped twice?)"
                        )
                    forced_pops += 1
                    arrival, duration = acquire(worker, task, now, forced=True)
                    begin_exec(worker, task, now, arrival, duration)
                    progressed = True
                if not progressed:
                    remaining = [
                        t.name
                        for t in tasks
                        if t.state is not TaskState.DONE
                        and t.state is not TaskState.CANCELLED
                    ]
                    raise DeadlockError(
                        f"simulation stalled with {len(remaining)} unfinished tasks "
                        f"(first few: {remaining[:5]}); scheduler "
                        f"{scheduler.name!r} returned no task for any idle worker; "
                        f"scheduler stats: {scheduler.stats()!r}"
                    )

        if n_done + n_cancelled != n_total:
            raise DeadlockError(
                f"event queue drained with {n_total - n_done - n_cancelled} "
                f"unfinished tasks; scheduler {scheduler.name!r} stats: "
                f"{scheduler.stats()!r}"
            )
        if check is not None:
            check(ctx.now, revealed, n_done)

        makespan = max(
            (
                task.sched["_record"][3]
                for task in tasks
                if "_record" in task.sched  # cancelled tasks never ran
            ),
            default=0.0,
        )
        # Extension results; rt_stats merges the ledgers' counters.
        extra: dict = {}
        for e in exts:
            for name, value in e.finish(run, makespan).items():
                extra[name] = {**extra[name], **value} if name in extra else value
        return SimResult(
            makespan=makespan,
            n_tasks=n_total,
            total_flops=program.total_flops(),
            bytes_transferred=transfers.total_bytes_moved(),
            exec_time_by_arch=exec_by_arch,
            idle_frac_by_arch=_idle_fractions(
                platform, makespan, busy_by_worker, wait_by_worker, run.death_time
            ),
            forced_pops=forced_pops,
            scheduler_stats=scheduler.stats(),
            trace=trace,
            events=tuple(obs.events) if obs is not None else None,
            metrics=obs.snapshot(makespan) if obs is not None else None,
            n_cancelled=n_cancelled,
            busy_us_by_worker=tuple(busy_by_worker),
            death_us_by_worker=dict(run.death_time),
            **extra,
        )

    # -- validation ----------------------------------------------------------

    def _validate_program(self, program: Program) -> None:
        for task in program.tasks:
            if not any(task.can_exec(a) for a in self.ctx.available_archs):
                raise SchedulingError(
                    f"{task.name} has implementations {sorted(task.implementations)} "
                    f"but the platform only offers {self.ctx.available_archs}"
                )


def _checks_enabled(check_invariants: bool | None) -> bool:
    """Whether invariant checking is on: ``None`` defers to the
    ``REPRO_CHECK_INVARIANTS`` environment variable (unset or ``0`` is off)."""
    if check_invariants is None:
        return os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")
    return bool(check_invariants)


def _idle_fractions(
    platform: Platform,
    makespan: float,
    busy_by_worker: list[float],
    wait_by_worker: list[float],
    death_time: dict[int, float],
) -> dict[str, float]:
    """Mean idle fraction of each architecture's workers over the run."""
    idle_by_arch: dict[str, float] = {}
    for arch in platform.archs:
        arch_workers = platform.workers_of_arch(arch)
        if not arch_workers or makespan <= 0:
            idle_by_arch[arch] = 0.0
            continue
        fracs = []
        for w in arch_workers:
            # A worker lost to a fail-stop failure only existed up to its
            # death; judging it against the full makespan would read an
            # early casualty as ~100% idle.
            horizon = min(makespan, death_time.get(w.wid, makespan))
            if horizon <= 0:
                fracs.append(0.0)
                continue
            active = busy_by_worker[w.wid] + wait_by_worker[w.wid]
            fracs.append(max(0.0, 1.0 - active / horizon))
        idle_by_arch[arch] = sum(fracs) / len(fracs)
    return idle_by_arch


#: Hooks that at most one attached extension implements.
_SINGLE_HOOKS = (
    "reveal_gate", "on_reveal", "drain", "pop_delay", "end_event",
    "on_settle", "before_event",
)


def _hooks(exts: list[ext.Extension], name: str) -> tuple:
    """Every attached implementation of hook ``name``, in order."""
    return tuple(fn for e in exts if (fn := getattr(e, name)) is not None)


def _hook(exts: list[ext.Extension], name: str):
    """The one attached implementation of hook ``name``, or ``None``."""
    fns = _hooks(exts, name)
    assert len(fns) <= 1, f"{name} has {len(fns)} implementations"
    return fns[0] if fns else None
