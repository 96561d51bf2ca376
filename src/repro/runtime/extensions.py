"""The engine's opt-in subsystems, as per-run extensions of the core loop.

:class:`~repro.runtime.engine.Simulator` builds one extension object per
subsystem keyword it was given (fault model, overhead model, resource
protocol, power model, control plane, batch step, observability over
job streams, invariant checking). At the start of every run each one
binds its per-run state (ledgers, counters, buffers) in
:meth:`Extension.begin_run`, and the engine resolves the hooks the
attached extensions implement into locals — a subsystem that is not
attached costs nothing beyond one local ``None`` test at its hook site.

These classes are internal wiring, not a plugin API: the only way to
attach one is the matching ``Simulator`` keyword.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import events as ev
from repro.runtime.events import (
    BATCH_FLUSH,
    JOB_ARRIVAL,
    TASK_COMPLETION,
    TASK_FAILURE,
    TASK_RETRY,
    WORKER_FAILURE,
)
from repro.runtime.faults import FaultStats
from repro.runtime.overhead import OverheadLedger
from repro.runtime.power import PowerLedger
from repro.runtime.resources import ResourceLedger
from repro.runtime.task import TaskState
from repro.utils.validation import DataLossError, RetryExhaustedError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import RunState

_SUBMITTED = TaskState.SUBMITTED
_READY = TaskState.READY
_DONE = TaskState.DONE
_CXL = TaskState.CANCELLED


class Extension:
    """One opt-in subsystem; each hook below is ``None`` unless implemented.

    Extensions that own event kinds register ``handler(now, payload)``
    in ``run.handlers`` from :meth:`begin_run`.
    """

    #: ``(push) -> push``: wrap or replace the READY-task hand-off.
    wrap_push = None
    #: ``(task) -> bool``: may the STF loop submit ``task`` now?
    reveal_gate = None
    #: ``(task)``: ``task`` was submitted.
    on_reveal = None
    #: ``(now, trigger)``: a worker (``"drain"``) or the rescue is to pop.
    drain = None
    #: ``(now) -> float``: earliest start of the task just popped.
    pop_delay = None
    #: ``(worker, task, now, start, duration) -> (start, duration)``.
    gate_start = None
    #: ``(worker, task, start, end)``: an execution's span is final.
    on_start = None
    #: ``(worker, task, start, duration, end) -> (time, kind)``: the
    #: event ending the execution (a completion at ``end`` by default).
    end_event = None
    #: ``(worker, task, burned)``: an attempt completed, failed or died.
    on_settle = None
    #: ``(task, now)``: ``task`` completed.
    on_done = None
    #: ``(next_now, revealed, n_done)``: before each event, and once
    #: after the queue drains.
    before_event = None

    def begin_run(self, run: "RunState") -> bool | None:
        """Bind one run's state; return ``False`` to stay out of it."""

    def finish(self, run: "RunState", makespan: float) -> dict:
        """:class:`~repro.runtime.engine.SimResult` fields this run adds."""
        return {}


class FaultInjection(Extension):
    """Transient task failures with retries, fail-stop worker deaths and
    link degradation, sampled from a :class:`~repro.runtime.faults.FaultModel`."""

    def __init__(self, model) -> None:
        self.model = model

    def begin_run(self, run: "RunState") -> None:
        model = self.model
        model.reset()
        for link in run.transfers.links():
            link.degradations = model.degradation_windows(link.src, link.dst)
        for death_time, wid in model.failure_schedule(run.platform):
            run.push_event(death_time, WORKER_FAILURE, wid)
        self.run = run
        self.stats = FaultStats()
        self.attempts: dict[int, int] = {}  # failures per tid (retry cap)
        run.fault_active = True
        run.handlers[TASK_FAILURE] = self._task_failed
        run.handlers[TASK_RETRY] = self._retry
        run.handlers[WORKER_FAILURE] = self._worker_failed

    def end_event(self, worker, task, start, duration, end):
        frac = self.model.attempt_failure(task, worker)
        if frac is None:
            return end, TASK_COMPLETION
        return start + duration * frac, TASK_FAILURE

    def _rollback(self, task, worker) -> None:
        """Undo an acquire — unpin inputs, clear scheduler scratch, back to
        SUBMITTED. The attempt leaves no trace beyond its link time."""
        for handle in task.sched.get("_pinned", ()):
            self.run.transfers.unpin(handle, worker.memory_node)
        task.sched.clear()
        task.state = _SUBMITTED

    def _task_failed(self, now: float, payload) -> None:
        worker, task = payload
        run = self.run
        wid = worker.wid
        if run.current[wid] is not task:
            return  # the worker died mid-attempt and re-pushed the task
        stats = self.stats
        burned = run.settle(worker, task, now)
        stats.task_failures += 1
        stats.wasted_exec_us += burned
        self._rollback(task, worker)
        run.current[wid] = None
        run.scheduler.on_task_failed(task, worker)
        self.attempts[task.tid] = n_failures = self.attempts.get(task.tid, 0) + 1
        if run.emit is not None:
            run.emit(ev.TaskFault(now, task.tid, wid, burned, n_failures))
        model = self.model
        if n_failures > model.max_retries:
            raise RetryExhaustedError(
                f"{task.name} failed {n_failures} attempts, exceeding "
                f"the fault model's max_retries={model.max_retries}"
            )
        stats.retries += 1
        run.push_event(now + model.backoff_us(n_failures), TASK_RETRY, task)
        run.schedule_request(worker, now)

    def _retry(self, now: float, task) -> None:
        # Skip when a worker-failure recovery re-pushed the task (or it
        # even completed) while the backoff was pending.
        if task.state is _SUBMITTED and task.n_unfinished_preds == 0:
            run = self.run
            if run.emit is not None:
                run.emit(ev.TaskRetryScheduled(
                    now, task.tid, self.attempts.get(task.tid, 0)
                ))
            run.push_ready(task)
            run.wake_workers(now)

    def _worker_failed(self, now: float, wid: int) -> None:
        run = self.run
        ctx = run.ctx
        workers = run.platform.workers
        worker = workers[wid]
        if not ctx.is_alive(worker):
            return  # scripted and sampled deaths may coincide
        stats = self.stats
        archs_before = ctx.available_archs
        ctx.mark_worker_dead(worker)
        run.live_workers[:] = [w for w in workers if ctx.is_alive(w)]
        run.death_time[wid] = now
        stats.worker_failures += 1
        recovered = []
        running = run.current[wid]
        if running is not None:
            stats.wasted_exec_us += run.settle(worker, running, now)
            self._rollback(running, worker)
            run.current[wid] = None
            recovered.append(running)
        if run.staged[wid] is not None:
            staged_task = run.staged[wid][0]
            run.staged[wid] = None
            self._rollback(staged_task, worker)
            recovered.append(staged_task)
        # Orphans queued inside the scheduler for the dead worker.
        for orphan in run.scheduler.on_worker_failed(worker):
            if orphan.state is _READY:
                orphan.sched.clear()
                orphan.state = _SUBMITTED
                recovered.append(orphan)
        stats.tasks_recovered += len(recovered)
        if run.emit is not None:
            run.emit(ev.WorkerDeath(now, wid, worker.name, len(recovered)))
        tasks = run.program.tasks
        # A device memory dies with its last worker, and every replica it
        # hosted with it: sole copies unfinished tasks still read are lost.
        mem = run.platform.nodes[worker.memory_node]
        if mem.kind == "gpu" and not ctx.workers_of_node(mem.mid):
            still_read = {
                handle.hid
                for t in tasks
                if t.state is not _DONE and t.state is not _CXL
                for handle, mode in t.accesses
                if mode.is_read
            }
            for handle in run.program.handles:
                if not handle.is_valid_on(mem.mid):
                    continue
                sole = len(handle.valid_nodes) == 1
                if sole and handle.size > 0 and handle.hid in still_read:
                    raise DataLossError(
                        f"worker failure of {worker.name} at t={now:.1f}us "
                        f"destroyed the only replica of {handle.label} "
                        f"({handle.size} bytes) on node {mem.name!r}, "
                        "still needed by unfinished tasks"
                    )
                stats.lost_replica_bytes += handle.size
                run.transfers.drop_replica(handle, mem.mid)
        # An architecture vanished: cached best-arch choices are stale,
        # and some tasks may have become unschedulable.
        if ctx.available_archs != archs_before:
            for t in tasks:
                if t.state is _DONE or t.state is _CXL:
                    continue
                t.sched.pop("_best_arch", None)
                if not any(t.can_exec(a) for a in ctx.available_archs):
                    raise SchedulingError(
                        f"worker failure of {worker.name} left {t.name} "
                        f"with no executable architecture among "
                        f"{ctx.available_archs}"
                    )
        for t in recovered:
            run.push_ready(t)
        run.wake_workers(now)

    def finish(self, run: "RunState", makespan: float) -> dict:
        return {"faults": self.stats}


class OverheadCharging(Extension):
    """Charges every scheduling decision to a virtual scheduler core
    (:class:`~repro.runtime.overhead.OverheadLedger`); a popped task
    cannot start before its decision is paid for."""

    def __init__(self, model) -> None:
        self.model = model

    def begin_run(self, run: "RunState") -> None:
        self.ledger = run.overhead_ledger = OverheadLedger(self.model)
        self.ctx = run.ctx
        # The ledger's pop charge is the hook itself: one call per pop.
        self.pop_delay = self.ledger.pop

    def wrap_push(self, push):
        charge, ctx = self.ledger.push, self.ctx

        def charged_push(task) -> None:
            charge(ctx.now)
            push(task)

        return charged_push

    def finish(self, run: "RunState", makespan: float) -> dict:
        return {"rt_stats": self.ledger.stats()}


class ResourceArbitration(Extension):
    """Arbitrates ``Task.resources`` locks through a
    :class:`~repro.runtime.resources.ResourceLedger`."""

    def __init__(self, protocol) -> None:
        self.protocol = protocol

    def begin_run(self, run: "RunState") -> None:
        self.ledger = run.resource_ledger = ResourceLedger(
            self.protocol, run.program.tasks
        )
        self.emit = run.emit

    def gate_start(self, worker, task, now, start, duration):
        if task.resources:
            # Grants commit at execution start, which runs in event
            # order, so they serialize and can never overlap.
            start, inversions = self.ledger.gate(task, start)
            if self.emit is not None:
                for r, holder_tid, holder_prio, wait_us in inversions:
                    self.emit(ev.PriorityInversion(
                        now, task.tid, r, holder_tid,
                        task.priority, holder_prio, wait_us,
                    ))
        return start, duration

    def on_start(self, worker, task, start: float, end: float) -> None:
        if task.resources:
            self.ledger.book(task, start, end)

    def finish(self, run: "RunState", makespan: float) -> dict:
        return {"rt_stats": self.ledger.stats()}


class PowerStates(Extension):
    """Runs executions in DVFS power states under node caps and meters
    their energy (:class:`~repro.runtime.power.PowerLedger`)."""

    def __init__(self, model) -> None:
        self.model = model

    def begin_run(self, run: "RunState") -> None:
        self.ledger = run.power_ledger = PowerLedger(self.model, run.platform)
        self.default_state = self.ledger.run_states[0]
        self.emit = run.emit

    def gate_start(self, worker, task, now, start, duration):
        # The fastest runnable state that fits under the node cap,
        # possibly delayed until enough reserved draw frees. The state's
        # speed scales the sampled duration (eco runs slower but leaner).
        pstate, pstart = self.ledger.admit(worker, start)
        if pstate.speed != 1.0:
            duration = duration / pstate.speed
        if self.emit is not None and (
            pstart > start or pstate is not self.default_state
        ):
            self.emit(ev.PowerCapThrottled(
                now, task.tid, worker.wid, worker.memory_node, pstate.name,
                self.model.cap_of(worker.memory_node), pstart - start,
            ))
        task.sched["_pstate"] = pstate
        return pstart, duration

    def on_start(self, worker, task, start: float, end: float) -> None:
        self.ledger.book(worker, task.sched["_pstate"], start, end)

    def on_settle(self, worker, task, burned: float) -> None:
        # Per-task joules survive on a completed task for per-job
        # attribution; a failed or killed attempt's are rolled back.
        task.sched["_energy_j"] = self.ledger.charge(
            worker, task.sched["_pstate"], burned
        )

    def finish(self, run: "RunState", makespan: float) -> dict:
        return {
            "rt_stats": self.ledger.stats(),
            "energy": self.ledger.finalize(makespan, run.death_time),
        }


class AdmissionControl(Extension):
    """A :class:`~repro.control.ControlPlane` deciding, at each job's
    release, to admit, delay or shed it, and evicting admitted
    best-effort jobs' unstarted tasks when it says so."""

    def __init__(self, plane, perfmodel) -> None:
        self.plane = plane
        self.perfmodel = perfmodel

    def begin_run(self, run: "RunState") -> None:
        program = run.program
        jobs = getattr(program, "jobs", None)
        if not jobs:
            raise SchedulingError(
                "a control plane needs a merged job-stream program "
                "(merge_stream output with job spans); got a plain Program"
            )
        # Delays rewrite release times: work on a mutable copy, leaving
        # the program's own validated list for the next run.
        releases = run.releases
        run.releases = self.releases = (
            list(releases) if releases is not None else [0.0] * len(program.tasks)
        )
        self.span_at_tid = {span.first_tid: span for span in jobs}
        self.span_by_jid = {span.jid: span for span in jobs}
        self.run = run
        run.control = self.plane
        self.plane.begin_run(program, self.perfmodel, run.ctx.available_archs)

    def reveal_gate(self, task) -> bool:
        span = self.span_at_tid.get(task.tid)
        if span is None:
            return True
        run = self.run
        now = run.ctx.now
        emit = run.emit
        decision = self.plane.decide(span.jid, now)
        if decision.action == "delay":
            retry_at = decision.retry_at_us
            for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                self.releases[tid] = retry_at
            run.push_event(retry_at, JOB_ARRIVAL, None)
            if emit is not None:
                emit(ev.JobDelayed(
                    now, span.jid, span.tenant, span.qos,
                    retry_at, decision.attempt, decision.reason,
                ))
            return False
        if decision.action == "shed":
            self._cancel_job(span, retract_ready=False)
            if emit is not None:
                emit(ev.JobRejected(
                    now, span.jid, span.tenant, span.qos, decision.reason,
                ))
            return False
        for evict_jid in decision.evict_jids:
            espan = self.span_by_jid[evict_jid]
            n_gone = self._cancel_job(espan, retract_ready=True)
            if emit is not None:
                emit(ev.JobEvicted(now, espan.jid, espan.tenant, espan.qos, n_gone))
        if emit is not None:
            emit(ev.JobAdmitted(
                now, span.jid, span.tenant, span.qos,
                decision.cost_us, decision.attempt,
            ))
        return True

    def _cancel_job(self, span, *, retract_ready: bool) -> int:
        """Cancel a job's SUBMITTED tasks — and, when evicting, the READY
        ones the scheduler agrees to retract; running and staged work
        drains. Returns how many."""
        run = self.run
        tasks = run.program.tasks
        victims = []
        for tid in range(span.first_tid, span.first_tid + span.n_tasks):
            t = tasks[tid]
            if t.state is _SUBMITTED:
                victims.append(t)
            elif retract_ready and t.state is _READY:
                # A batch-buffered task is the engine's to retract: the
                # scheduler never saw it.
                if "_batched" in t.sched:
                    del t.sched["_batched"]
                    victims.append(t)
                elif run.scheduler.retract(t):
                    victims.append(t)
        now = run.ctx.now
        for t in victims:
            self.plane.on_task_cancelled(t.tid, now)
        run.cancel(victims)
        return len(victims)

    def on_done(self, task, now: float) -> None:
        self.plane.on_task_done(task.tid, now)


class BatchScheduling(Extension):
    """Firmament-style batch mode: ready tasks buffer in ``pending`` and
    reach the scheduler as one ``push_batch()`` at the step boundary
    (``BATCH_FLUSH``), when a worker asks for work (drain-on-idle) or
    before the liveness rescue. Buffered tasks are READY with a
    ``_batched`` scratch marker: the engine holds them, not the
    scheduler."""

    def __init__(self, step: float, drain_on_idle: bool) -> None:
        self.step = step
        self.drain_on_idle = drain_on_idle

    def begin_run(self, run: "RunState") -> None:
        self.run = run
        self.pending = run.batch_pending = []
        self.flush_queued = False  # at most one BATCH_FLUSH outstanding
        self.n_flushes = self.n_batched = self.max_batch = 0
        run.handlers[BATCH_FLUSH] = self._step_elapsed

    def wrap_push(self, push):
        return self._buffer

    def _buffer(self, task) -> None:
        task.sched["_batched"] = True
        self.pending.append(task)
        if not self.flush_queued:
            self.flush_queued = True
            run = self.run
            run.push_event(run.ctx.now + self.step, BATCH_FLUSH, None)

    def drain(self, now: float, trigger: str) -> None:
        # A popping worker must see everything the per-event path would
        # have pushed by now; the rescue pop never misses buffered work.
        if self.pending and (self.drain_on_idle or trigger == "rescue"):
            self.flush(now, trigger)

    def _step_elapsed(self, now: float, _payload) -> None:
        self.flush_queued = False
        if self.pending and self.flush(now, "step"):
            self.run.wake_workers(now)

    def flush(self, now: float, trigger: str) -> int:
        """Hand the buffer to the scheduler in reveal order, skipping
        tasks cancelled while buffered; returns how many were pushed."""
        pending = self.pending
        run = self.run
        if len(pending) == 1 and pending[0].state is _READY:
            # Degenerate batch: one scheduler.push, no list rebuild.
            task = pending.pop()
            del task.sched["_batched"]
            run.scheduler.push(task)
            n = 1
        else:
            batch = [t for t in pending if t.state is _READY]
            pending.clear()
            if not batch:
                return 0
            for t in batch:
                del t.sched["_batched"]
            run.scheduler.push_batch(batch)
            n = len(batch)
        if run.overhead_ledger is not None:
            run.overhead_ledger.flush(now, n)
        self.n_flushes += 1
        self.n_batched += n
        self.max_batch = max(self.max_batch, n)
        if run.emit is not None:
            run.emit(ev.BatchScheduled(now, n, trigger))
        return n

    def finish(self, run: "RunState", makespan: float) -> dict:
        n_flushes, n_batched = self.n_flushes, self.n_batched
        return {"batch_stats": {
            "n_flushes": float(n_flushes),
            "n_batched": float(n_batched),
            "max_batch": float(self.max_batch),
            "mean_batch": n_batched / n_flushes if n_flushes else 0.0,
        }}


class JobProvenance(Extension):
    """``JobSubmit`` at a merged job's first reveal and ``JobDone`` at
    its last completion (observability runs over job streams only)."""

    def begin_run(self, run: "RunState") -> bool | None:
        jobs = getattr(run.program, "jobs", None)
        if not jobs:
            return False
        self.track: dict[int, list] = {}  # tid -> [span, n_unfinished]
        for span in jobs:
            entry = [span, span.n_tasks]
            for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                self.track[tid] = entry
        self.emit = run.emit
        self.ctx = run.ctx

    def on_reveal(self, task) -> None:
        entry = self.track.get(task.tid)
        if entry is not None and task.tid == entry[0].first_tid:
            span = entry[0]
            self.emit(ev.JobSubmit(
                self.ctx.now, span.jid, span.tenant, span.name,
                span.n_tasks, span.arrival_us,
            ))

    def on_done(self, task, now: float) -> None:
        entry = self.track.get(task.tid)
        if entry is not None:
            entry[1] -= 1
            if entry[1] == 0:
                span = entry[0]
                self.emit(ev.JobDone(
                    now, span.jid, span.tenant, span.name, span.n_tasks,
                    span.arrival_us, now - span.arrival_us,
                ))
