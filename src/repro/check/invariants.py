"""Engine-attached runtime invariant validator.

The engine attaches an :class:`InvariantChecker` as its last extension
(only when ``check_invariants=True``) and calls
:meth:`InvariantChecker.validate` at the top of the event loop — i.e.
after every fully-processed event, with the queue intact — plus once
more after the loop drains. Each call sweeps the invariant families
below over the *entire* runtime state:

``clock``
    Event times never move backward.
``link``
    Per-link FIFO clocks and counters are monotone, the demand clock
    never exceeds the combined clock, and recorded prefetch wire spans
    are ordered and consistent with the clocks.
``msi``
    Replica-set coherence: in-flight transfers and pins target valid
    replicas, pin counts equal exactly what the running/staged tasks
    pinned, and the capacity accounting (``_resident``/``_usage``) of
    bounded nodes matches the handles' sizes.
``task_state``
    Only legal lifecycle transitions occurred since the previous check
    (fault rollbacks are legal only under a fault model); ``DONE`` is
    terminal.
``conservation``
    Every task is in exactly one bucket — unrevealed, waiting on
    predecessors, scheduler-held (READY), running/staged, retry-pending
    (with a matching TASK_RETRY event in the queue), or done — and the
    dependency counters agree with the predecessors' states.
``window``
    Submission accounting: the in-flight count ``revealed - n_done``
    never exceeds the submission window, and whenever submission is
    stalled with tasks left, either the window is genuinely full or the
    next task's release time is genuinely in the future — otherwise the
    STF reveal loop leaked (e.g. a rollback path failed to re-advance).
``scheduler``
    Whatever the policy's own :meth:`~repro.schedulers.base.Scheduler.check`
    reports (heap order, counter exactness, ...).
``batch``
    Batch-mode scheduling only: every buffered task is READY (or
    cancelled awaiting its flush skip), revealed, release-gated and
    dependency-free — i.e. the batch never outran the submission window
    or a release time — and a ``BATCH_FLUSH`` event is queued whenever
    the buffer is non-empty (no batch can be forgotten).
``control``
    When a control plane is attached: credit conservation (every decided
    job is admitted, shed, or pending another delay), the in-flight
    gauge matches admitted jobs' remaining work, no guaranteed-class job
    was ever shed, and no token bucket exceeds its burst
    (:meth:`repro.control.ControlPlane.audit`).
``rt``
    Real-time extensions only. Slack bookkeeping: every merged task's
    absolute deadline lies inside its job's ``(arrival, deadline]``
    window (checked once at run start). Overhead conservation: the
    ledger's ``charged_us`` equals the counter-weighted sum of the
    model's per-decision costs and the virtual scheduler-core clock
    never retreats. Resource exclusion: per resource, the granted
    intervals in the ledger never overlap — no two simultaneous
    holders.
``energy``
    Power-subsystem runs only (``SimConfig(power=...)``). Cap safety:
    the busy draw flowing on every capped node — the sum over booked
    reservations whose span covers the current clock — never exceeds
    the node's cap. Time conservation: each worker's accrued busy
    microseconds (all states summed) never exceed the elapsed virtual
    clock, and the ledger's busy total equals the per-worker/per-state
    sum exactly (joules are per-worker products of these, so additivity
    across workers follows). Counters: admissions, throttles, throttle
    delay and busy time are all monotone, and throttles never outnumber
    admissions.

Violations are emitted as
:class:`~repro.obs.events.InvariantViolation` events (when observability
is on) and raised as one
:class:`~repro.utils.validation.InvariantError`. The checker only reads
engine state — a checked run's schedule is bit-identical to an
unchecked one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import InvariantViolation
from repro.runtime.events import BATCH_FLUSH, TASK_RETRY
from repro.runtime.extensions import Extension
from repro.runtime.task import AccessMode, Task, TaskState
from repro.utils.validation import InvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import Observability
    from repro.runtime.engine import RunState

_S = TaskState.SUBMITTED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_DONE = TaskState.DONE
_CXL = TaskState.CANCELLED

#: Transitions observable between two consecutive checks (one event may
#: compose several steps, e.g. push + rescue-pop gives SUBMITTED→RUNNING).
_LEGAL = {
    (_S, _S), (_S, _READY), (_S, _RUNNING),
    (_READY, _READY), (_READY, _RUNNING),
    (_RUNNING, _RUNNING), (_RUNNING, _DONE),
    (_DONE, _DONE),
}
#: Rollback transitions, legal only when a fault model is active.
_FAULT_ONLY = {(_RUNNING, _S), (_READY, _S), (_RUNNING, _READY)}
#: Cancellations, legal only when a control plane is attached (shed jobs
#: cancel from SUBMITTED, evicted-and-retracted tasks from READY).
_CONTROL_ONLY = {(_S, _CXL), (_READY, _CXL)}


class InvariantChecker(Extension):
    """Validates engine + scheduler state after every simulation event.

    An engine extension: the engine calls :meth:`begin_run` once with its
    run state, then :meth:`validate` (the ``before_event`` hook) once per
    event and once after the queue drains. ``n_checks`` counts
    validations for reporting.
    """

    def __init__(self, obs: "Observability | None" = None) -> None:
        self.obs = obs
        self.n_checks = 0
        self.control = None

    def begin_run(self, run: "RunState") -> None:
        """Bind one run's live state and snapshot the starting point.

        ``run`` is the engine's :class:`~repro.runtime.engine.RunState`;
        its heap, worker slots and release list are mutated in place, so
        the references stay current. Extensions attached before the
        checker have published their ledgers, buffer and control plane
        on it.
        """
        self.run = run
        program, platform = run.program, run.platform
        self.program = program
        self.platform = platform
        self.ctx = run.ctx
        self.scheduler = run.scheduler
        self.window = run.window
        self.releases = run.releases
        self.control = run.control
        self.overhead_ledger = run.overhead_ledger
        self.resource_ledger = run.resource_ledger
        # rt family incremental state: consumed grant-ledger prefix,
        # per-resource latest granted end, sched-core clock floor.
        self._rt_grant_idx = 0
        self._rt_res_end: dict[str, float] = {}
        self._rt_sched_floor = 0.0
        # energy family monotone floors: (admissions, throttles,
        # throttle delay, busy total).
        self._energy_floor = (0, 0, 0.0, 0.0)
        self.n_checks = 0
        self._node_of_wid = {w.wid: w.memory_node for w in platform.workers}
        self._handle_by_hid = {h.hid: h for h in program.handles}
        self._node_ids = {n.mid for n in platform.nodes}
        self._last_now = 0.0
        self._prev_state = [t.state for t in program.tasks]
        # Per-link monotonicity floor: (busy, demand, bytes, transfers).
        self._link_floor = {
            id(link): (link.busy_until, link.demand_busy_until,
                       link.bytes_moved, link.n_transfers)
            for link in platform.transfers.links()
        }
        # Slack bookkeeping (rt family), once per run: every merged
        # task's absolute deadline must lie inside its job's
        # (arrival, deadline] window — the merge's min(job, own) rule.
        violations: list[tuple[str, str]] = []
        spans = getattr(program, "jobs", None)
        if spans:
            tasks = program.tasks
            for span in spans:
                lo, hi = span.arrival_us, span.deadline_us
                for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                    dl = tasks[tid].deadline_us
                    if dl > hi or dl <= lo:
                        violations.append((
                            "rt",
                            f"task {tid} deadline {dl}us outside job "
                            f"{span.jid}'s ({lo}us, {hi}us] window",
                        ))
        if violations:
            self._report(violations)

    # -- entry point -------------------------------------------------------

    def validate(self, next_now: float, revealed: int, n_done: int) -> None:
        """Run every invariant family; raise on any violation.

        ``next_now`` is the timestamp of the event about to be processed
        (or the final clock after the queue drained); ``revealed`` and
        ``n_done`` mirror the engine's submission-window counters.
        """
        self.n_checks += 1
        violations: list[tuple[str, str]] = []
        # The submission state under test was left behind by the
        # *previous* event; judge release gating against its clock, not
        # against the event about to be processed (a pending JOB_ARRIVAL
        # at ``next_now`` legitimately has un-revealed tasks before it).
        prev_now = self._last_now
        self._check_clock(next_now, violations)
        self._check_links(violations)
        self._check_window(revealed, n_done, prev_now, violations)
        running = self._check_conservation(revealed, n_done, violations)
        self._check_task_states(violations)
        self._check_msi(running, violations)
        if self.run.batch_pending is not None:
            self._check_batch(revealed, prev_now, violations)
        if self.overhead_ledger is not None or self.resource_ledger is not None:
            self._check_rt(violations)
        if self.run.power_ledger is not None:
            self._check_energy(violations)
        for detail in self.scheduler.check():
            violations.append(("scheduler", str(detail)))
        if self.control is not None:
            for detail in self.control.audit():
                violations.append(("control", str(detail)))
        if violations:
            self._report(violations)

    before_event = validate

    def _report(self, violations: list[tuple[str, str]]) -> None:
        now = self.ctx.now
        if self.obs is not None:
            for family, detail in violations:
                self.obs.emit(InvariantViolation(now, family, detail))
        shown = "\n".join(f"  [{f}] {d}" for f, d in violations[:20])
        extra = len(violations) - 20
        if extra > 0:
            shown += f"\n  ... and {extra} more"
        raise InvariantError(
            f"{len(violations)} invariant violation(s) at t={now:.3f}us "
            f"(check #{self.n_checks}, scheduler {self.scheduler.name!r}):\n"
            f"{shown}"
        )

    # -- families ----------------------------------------------------------

    def _check_clock(self, next_now: float, out: list) -> None:
        if next_now < self._last_now:
            out.append((
                "clock",
                f"event clock moved backward: next event at t={next_now} "
                f"after t={self._last_now}",
            ))
        else:
            self._last_now = next_now

    def _check_links(self, out: list) -> None:
        floors = self._link_floor
        for link in self.platform.transfers.links():
            name = f"link {link.src}->{link.dst}"
            busy, demand, moved, count = floors[id(link)]
            if link.busy_until < busy or link.demand_busy_until < demand:
                out.append((
                    "link",
                    f"{name} clock moved backward: busy "
                    f"{busy}->{link.busy_until}, demand "
                    f"{demand}->{link.demand_busy_until}",
                ))
            if link.bytes_moved < moved or link.n_transfers < count:
                out.append((
                    "link",
                    f"{name} counters decreased: bytes {moved}->"
                    f"{link.bytes_moved}, transfers {count}->{link.n_transfers}",
                ))
            floors[id(link)] = (link.busy_until, link.demand_busy_until,
                                link.bytes_moved, link.n_transfers)
            if link.demand_busy_until > link.busy_until:
                out.append((
                    "link",
                    f"{name} demand clock {link.demand_busy_until} ahead of "
                    f"combined clock {link.busy_until}: the two traffic "
                    f"classes overlap on the wire",
                ))
            prev_start = None
            for span_start, span_end in link._prefetch_spans:
                if span_end < span_start:
                    out.append(("link", f"{name} prefetch span ends before "
                                        f"it starts: ({span_start}, {span_end})"))
                if prev_start is not None and span_start < prev_start:
                    out.append(("link", f"{name} prefetch spans out of order"))
                prev_start = span_start
                if span_end > link.busy_until:
                    out.append((
                        "link",
                        f"{name} prefetch span ({span_start}, {span_end}) "
                        f"extends past the link clock {link.busy_until}",
                    ))

    def _check_window(
        self, revealed: int, n_done: int, prev_now: float, out: list
    ) -> None:
        """Submission-window accounting and reveal liveness.

        The in-flight bound counts rolled-back (retry-pending) tasks as
        submitted-but-unfinished — exactly StarPU's semantics, where a
        failed attempt does not return its submission slot. The leak
        check is the converse: a stalled reveal must always be
        explainable by a full window or a future release time.
        """
        window = self.window
        tasks = self.program.tasks
        n_total = len(tasks)
        # Cancelled tasks the reveal pointer passed never consume a
        # submission slot (mirrors the engine's n_cxl_rev counter);
        # cancellation only exists under a control plane.
        n_cxl_rev = (
            sum(1 for t in tasks[:revealed] if t.state is _CXL)
            if self.control is not None
            else 0
        )
        in_flight = revealed - n_done - n_cxl_rev
        if window is not None and in_flight > window:
            out.append((
                "window",
                f"{in_flight} tasks in flight (revealed={revealed}, "
                f"done={n_done}, cancelled={n_cxl_rev}) exceed the "
                f"submission window {window}",
            ))
        if revealed < n_total:
            window_full = window is not None and in_flight >= window
            releases = self.releases
            gated = releases is not None and releases[revealed] > prev_now
            if not window_full and not gated:
                out.append((
                    "window",
                    f"submission stalled at task {revealed}/{n_total} with "
                    f"{in_flight} in flight although neither the window "
                    f"({window}) nor a release time blocks it: the reveal "
                    f"loop leaked",
                ))

    def _check_batch(self, revealed: int, prev_now: float, out: list) -> None:
        """Batch-mode buffer discipline.

        Buffered tasks went through the full reveal pipeline — release
        gate, submission window, control admission — before entering the
        buffer, so each must be a revealed, dependency-free READY task
        whose release time has passed (or a cancelled task waiting for
        its flush skip). A non-empty buffer must always have a
        ``BATCH_FLUSH`` event queued, else the batch would be forgotten.
        """
        pending = self.run.batch_pending
        if not pending:
            return
        releases = self.releases
        seen: set[int] = set()
        for task in pending:
            if task.tid in seen:
                out.append(("batch", f"{task.name} buffered twice"))
            seen.add(task.tid)
            state = task.state
            if state is _CXL:
                if "_batched" in task.sched:
                    out.append((
                        "batch",
                        f"{task.name} cancelled while buffered but still "
                        f"carries the _batched marker",
                    ))
                continue
            if state is not _READY:
                out.append((
                    "batch",
                    f"{task.name} buffered in state {state.name} (only READY "
                    f"tasks may wait in a batch)",
                ))
                continue
            if "_batched" not in task.sched:
                out.append((
                    "batch",
                    f"{task.name} buffered without the _batched marker",
                ))
            if task.tid >= revealed:
                out.append((
                    "batch",
                    f"{task.name} buffered but never revealed "
                    f"(revealed={revealed}): the batch outran the "
                    f"submission window",
                ))
            if releases is not None and releases[task.tid] > prev_now:
                out.append((
                    "batch",
                    f"{task.name} buffered at t={prev_now} before its "
                    f"release {releases[task.tid]}: the batch outran the "
                    f"release gate",
                ))
            if task.n_unfinished_preds != 0:
                out.append((
                    "batch",
                    f"{task.name} buffered with {task.n_unfinished_preds} "
                    f"unfinished predecessors",
                ))
        if not any(kind == BATCH_FLUSH for _, _, kind, _ in self.run.events):
            out.append((
                "batch",
                f"{len(pending)} task(s) buffered but no BATCH_FLUSH event "
                f"is queued: the batch leaked",
            ))

    def _check_rt(self, out: list) -> None:
        """The ``rt`` family (see the module docstring); the resource grant
        log is audited incrementally, from the prefix already checked."""
        ov = self.overhead_ledger
        if ov is not None:
            m = ov.model
            expected = (
                m.push_us * ov.n_push
                + m.pop_us * ov.n_pop
                + m.flush_us * ov.n_flush
                + m.batch_task_us * ov.n_flush_tasks
            )
            if abs(expected - ov.charged_us) > 1e-6 + 1e-9 * abs(expected):
                out.append((
                    "rt",
                    f"overhead charge leaked: ledger says {ov.charged_us}us "
                    f"but counters ({ov.n_push} push, {ov.n_pop} pop, "
                    f"{ov.n_flush} flush over {ov.n_flush_tasks} tasks) "
                    f"account for {expected}us",
                ))
            if ov.sched_free < self._rt_sched_floor:
                out.append((
                    "rt",
                    f"scheduler-core clock moved backward: "
                    f"{self._rt_sched_floor} -> {ov.sched_free}",
                ))
            else:
                self._rt_sched_floor = ov.sched_free
        res = self.resource_ledger
        if res is not None:
            grants = res.grants
            ends = self._rt_res_end
            for resource, tid, start, end in grants[self._rt_grant_idx:]:
                if end < start:
                    out.append((
                        "rt",
                        f"resource {resource!r} grant to task {tid} ends "
                        f"before it starts: ({start}, {end})",
                    ))
                prev_end = ends.get(resource, 0.0)
                if start < prev_end:
                    out.append((
                        "rt",
                        f"resource {resource!r} double-held: task {tid}'s "
                        f"grant starts at {start}us before the previous "
                        f"grant ends at {prev_end}us",
                    ))
                if end > prev_end:
                    ends[resource] = end
            self._rt_grant_idx = len(grants)

    def _check_energy(self, out: list) -> None:
        """The ``energy`` family (see the module docstring)."""
        pw = self.run.power_ledger
        now = self._last_now
        model = pw.model
        for node in self.platform.nodes:
            cap = model.cap_of(node.mid)
            if cap == float("inf"):
                continue
            draw = pw.node_draw(node.mid, now)
            if draw > cap + 1e-6:
                out.append((
                    "energy",
                    f"node {node.name!r} draws {draw} W at t={now}us, over "
                    f"its {cap} W cap",
                ))
        clock_slack = now + 1e-6
        per_worker_sum = 0.0
        for wid, per_state in pw.busy_us_by_state.items():
            busy = sum(per_state.values())
            per_worker_sum += busy
            if busy > clock_slack:
                out.append((
                    "energy",
                    f"worker {wid} accrued {busy}us busy but only {now}us "
                    f"elapsed",
                ))
        if abs(per_worker_sum - pw.busy_us_total) > 1e-6 + 1e-9 * per_worker_sum:
            out.append((
                "energy",
                f"busy time leaked: per-worker states sum to "
                f"{per_worker_sum}us but the ledger total is "
                f"{pw.busy_us_total}us",
            ))
        counters = (
            pw.n_admissions, pw.n_throttled,
            pw.throttle_delay_us, pw.busy_us_total,
        )
        floor = self._energy_floor
        if any(c < f for c, f in zip(counters, floor)):
            out.append((
                "energy",
                f"power counters moved backward: {floor} -> {counters}",
            ))
        else:
            self._energy_floor = counters
        if pw.n_throttled > pw.n_admissions:
            out.append((
                "energy",
                f"{pw.n_throttled} throttles recorded over only "
                f"{pw.n_admissions} admissions",
            ))

    def _check_task_states(self, out: list) -> None:
        prev = self._prev_state
        fault = self.run.fault_active
        controlled = self.control is not None
        for task in self.program.tasks:
            before, after = prev[task.tid], task.state
            if before is after:
                continue
            move = (before, after)
            if (move in _LEGAL or (fault and move in _FAULT_ONLY)
                    or (controlled and move in _CONTROL_ONLY)):
                prev[task.tid] = after
                continue
            if move in _CONTROL_ONLY:
                why = "control-only cancellation without a control plane"
            elif move in _FAULT_ONLY:
                why = "fault-only rollback without a fault model"
            else:
                why = "illegal lifecycle transition"
            out.append((
                "task_state",
                f"{task.name}: {before.name} -> {after.name} ({why})",
            ))
            prev[task.tid] = after

    def _check_conservation(
        self, revealed: int, n_done: int, out: list
    ) -> dict[int, list[tuple[Task, int]]]:
        """Partition every task into exactly one bucket.

        Returns running/staged tasks as ``tid -> [(task, node)]`` so the
        MSI sweep can derive the expected pin counts without re-walking
        the worker dicts.
        """
        node_of = self._node_of_wid
        holders: dict[int, list[int]] = {}
        running: dict[int, list[tuple[Task, int]]] = {}
        for wid, task in enumerate(self.run.current):
            if task is not None:
                holders.setdefault(task.tid, []).append(wid)
                running.setdefault(task.tid, []).append((task, node_of[wid]))
        for wid, entry in enumerate(self.run.staged):
            if entry is not None:
                task = entry[0]
                holders.setdefault(task.tid, []).append(wid)
                running.setdefault(task.tid, []).append((task, node_of[wid]))

        retry_pending: set[int] | None = None
        done_count = 0
        for task in self.program.tasks:
            state = task.state
            if state is _DONE:
                done_count += 1
            if state is _CXL:
                # A cancelled task's own counter froze at cancellation
                # (successor release happens through its preds' sweeps),
                # but it must never be worker-held.
                if task.tid in holders:
                    out.append((
                        "conservation",
                        f"{task.name} is CANCELLED but held by worker(s) "
                        f"{holders[task.tid]}",
                    ))
                continue
            want = sum(
                1 for p in task.preds
                if p.state is not _DONE and p.state is not _CXL
            )
            if task.n_unfinished_preds != want:
                out.append((
                    "conservation",
                    f"{task.name} counts {task.n_unfinished_preds} unfinished "
                    f"predecessors but {want} of {len(task.preds)} are not DONE",
                ))
            wids = holders.get(task.tid)
            if wids is not None:
                if state is not _RUNNING:
                    out.append((
                        "conservation",
                        f"{task.name} held by worker(s) {wids} but in state "
                        f"{state.name}, not RUNNING",
                    ))
                if len(wids) > 1:
                    out.append((
                        "conservation",
                        f"{task.name} held by {len(wids)} workers at once: {wids}",
                    ))
                continue
            if state is _RUNNING:
                out.append((
                    "conservation",
                    f"{task.name} is RUNNING but no worker holds it "
                    f"(neither current nor staged)",
                ))
            elif state is _READY and task.tid >= revealed:
                out.append((
                    "conservation",
                    f"{task.name} is READY but was never submitted "
                    f"(revealed={revealed})",
                ))
            elif state is _S and task.tid < revealed and task.n_unfinished_preds == 0:
                # Submitted, dependencies met, yet not scheduler-held:
                # only legal as a failed task awaiting its retry event.
                if retry_pending is None:
                    retry_pending = {
                        payload.tid
                        for _, _, kind, payload in self.run.events
                        if kind == TASK_RETRY
                    }
                if task.tid not in retry_pending:
                    out.append((
                        "conservation",
                        f"{task.name} is SUBMITTED with all predecessors done "
                        f"but is neither scheduler-held nor retry-pending: "
                        f"the task leaked",
                    ))

        if done_count != n_done:
            out.append((
                "conservation",
                f"engine counted {n_done} completions but {done_count} "
                f"tasks are DONE",
            ))
        return running

    def _check_msi(
        self, running: dict[int, list[tuple[Task, int]]], out: list
    ) -> None:
        transfers = self.platform.transfers
        node_ids = self._node_ids
        worker_died = bool(self.ctx._dead_wids)

        # Expected pins from the running/staged tasks' acquire() records;
        # handles commute-written by a running task are exempt from the
        # pins-target-valid check (a concurrent commuting writer's
        # completion legally invalidates a replica another commuter still
        # pins — StarPU's COMMUTE leaves the order unspecified).
        expected_pins: dict[tuple[int, int], int] = {}
        commute_hids: set[int] = set()
        for entries in running.values():
            for task, node in entries:
                for handle in task.sched.get("_pinned", ()):
                    key = (handle.hid, node)
                    expected_pins[key] = expected_pins.get(key, 0) + 1
                for handle, mode in task.accesses:
                    if mode is AccessMode.COMMUTE:
                        commute_hids.add(handle.hid)

        bounded = transfers._resident
        for handle in self.program.handles:
            label = handle.label
            if not handle.valid_nodes and not worker_died:
                out.append(("msi", f"{label} has no valid replica anywhere"))
            if not handle.valid_nodes.issubset(node_ids):
                out.append((
                    "msi",
                    f"{label} valid on unknown nodes "
                    f"{sorted(handle.valid_nodes - node_ids)}",
                ))
            for node in handle._in_flight:
                if node not in handle.valid_nodes:
                    out.append((
                        "msi",
                        f"{label} has a transfer in flight toward node {node} "
                        f"but no (eagerly registered) replica there",
                    ))
            for node, count in handle._pins.items():
                if count <= 0:
                    out.append((
                        "msi",
                        f"{label} pin count on node {node} is {count} "
                        f"(stored counts must stay positive)",
                    ))
                if (node not in handle.valid_nodes
                        and handle.hid not in commute_hids):
                    out.append((
                        "msi",
                        f"{label} pinned on node {node} but not valid there "
                        f"(a running task's input was invalidated)",
                    ))
                want = expected_pins.get((handle.hid, node), 0)
                if count != want:
                    out.append((
                        "msi",
                        f"{label} pin count on node {node} is {count} but "
                        f"running/staged tasks account for {want}",
                    ))
            for node in handle.valid_nodes:
                if (node in bounded and handle.size > 0
                        and node != handle.home_node
                        and handle.hid not in bounded[node]):
                    out.append((
                        "msi",
                        f"{label} valid on bounded node {node} but missing "
                        f"from its residency accounting",
                    ))
        # Pins on handles the running tasks never pinned.
        for (hid, node), want in expected_pins.items():
            handle = self._handle_by_hid[hid]
            if node not in handle._pins:
                out.append((
                    "msi",
                    f"{handle.label} should be pinned {want}x on node {node} "
                    f"by running/staged tasks but carries no pin",
                ))

        for mid, resident in bounded.items():
            total = 0
            for hid, handle in resident.items():
                total += handle.size
                if mid not in handle.valid_nodes:
                    out.append((
                        "msi",
                        f"{handle.label} accounted resident on node {mid} "
                        f"but not valid there",
                    ))
            if total != transfers._usage[mid]:
                out.append((
                    "msi",
                    f"node {mid} usage counter says {transfers._usage[mid]} "
                    f"bytes but resident handles sum to {total}",
                ))
            if resident.keys() != transfers._last_use[mid].keys():
                out.append((
                    "msi",
                    f"node {mid} LRU recency keys diverge from the resident "
                    f"set",
                ))
