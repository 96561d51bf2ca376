"""Compile a :class:`~repro.workload.stream.JobStream` into one program.

The engine schedules exactly one :class:`~repro.runtime.stf.Program`
per run, with dense task ids in submission order. :func:`merge_stream`
therefore *relinks* every job's graph into a composite program:

* tasks are copied with fresh dense ids, ordered by (arrival, jid) —
  the order the STF main thread would have submitted them in;
* data handles are copied per job with fresh ids (tenants never share
  application data, only the machine);
* ``Job.after`` chains become sink→source dependency edges, so
  closed-loop clients pace themselves structurally;
* every task inherits its job's arrival as a *release time*, which the
  engine's submission loop uses to reveal it only once the clock gets
  there — schedulers see an online workload without any API change;
* jobs with a relative ``deadline_us`` stamp the absolute deadline
  (``arrival + deadline``) onto every cloned task, which deadline-aware
  schedulers and the stream miss-rate report consume. A task that
  already carried its own deadline keeps the tighter of the two (its
  deadline shifts by the arrival, like its release). ``Task.resources``
  names pass through verbatim: resources form one *global* contention
  domain, so two jobs naming the same lock genuinely exclude each other.

The copies leave the original per-job programs untouched, so they stay
independently simulable (that is what isolated-baseline slowdowns run).
The clone path is deliberately low-level (``Task.__new__`` plus direct
slot writes, index-based relinking over the dense per-job tids): at the
million-task scale of ``bench_stream.py --million`` the straightforward
``Task(...)``-per-clone merge dominated setup cost.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.runtime.data import DataHandle
from repro.runtime.stf import Program
from repro.runtime.task import Task, TaskState
from repro.workload.stream import JobStream

_INF = float("inf")


@dataclass(frozen=True)
class JobSpan:
    """Where one job landed inside the merged program.

    Task ids are dense per job: the job owns exactly
    ``[first_tid, first_tid + n_tasks)``. ``deadline_us`` is the job's
    *absolute* completion deadline on the simulated clock (``inf`` when
    the job has none).
    """

    jid: int
    name: str
    tenant: str
    arrival_us: float
    first_tid: int
    n_tasks: int
    qos: str = "burstable"
    deadline_us: float = _INF


class StreamProgram(Program):
    """A merged stream: a normal program plus per-job provenance."""

    def __init__(
        self,
        tasks: list[Task],
        handles: list[DataHandle],
        name: str,
        release_times: list[float],
        jobs: tuple[JobSpan, ...],
    ) -> None:
        super().__init__(tasks, handles, name=name, release_times=release_times)
        self.jobs = jobs
        # Spans are dense and ordered by first_tid, so membership is a
        # bisect over the start offsets rather than a linear scan
        # (per-task provenance on 50k-job streams was quadratic).
        self._first_tids = [span.first_tid for span in jobs]

    @property
    def digest(self) -> bytes:
        """Not defined: the cluster tier raises a merged program's
        release times after construction, which a cached digest would
        not see. Only per-job programs are keyed structurally."""
        raise TypeError("a merged StreamProgram has no structural digest")

    def span_of_tid(self, tid: int) -> JobSpan:
        """The job span owning task ``tid``."""
        i = bisect_right(self._first_tids, tid) - 1
        if i >= 0:
            span = self.jobs[i]
            if span.first_tid <= tid < span.first_tid + span.n_tasks:
                return span
        raise KeyError(f"tid {tid} is outside every job span")


def _clone_handle(h: DataHandle, hid: int, prefix: str) -> DataHandle:
    """Fast structural copy of ``h`` with a fresh id and job-tagged label.

    Bypasses ``DataHandle.__init__`` (the source handle already
    validated size/home_node) — at a million tasks the constructor's
    validation and coercion were a measurable slice of merge time.
    """
    c = DataHandle.__new__(DataHandle)
    c.hid = hid
    c.size = h.size
    c.home_node = h.home_node
    c.label = prefix + h.label
    c.key = h.key
    c.valid_nodes = {h.home_node}
    c._in_flight = {}
    c._pins = {}
    return c


def _clone_task(
    t: Task,
    tid: int,
    hmap: list[DataHandle] | dict[int, DataHandle],
    job_deadline: float,
    arrival: float,
) -> Task:
    """Fast structural copy of ``t`` into the merged id space.

    Bypasses ``Task.__init__``: the source task already validated its
    fields, and its ``_reads``/``_writes`` splits are reused through the
    handle map instead of re-scanning access modes.
    """
    c = Task.__new__(Task)
    c.tid = tid
    c.type_name = t.type_name
    c.accesses = [(hmap[h.hid], mode) for h, mode in t.accesses]
    c.flops = t.flops
    c.implementations = t.implementations
    c.priority = t.priority
    c.tag = t.tag
    c.resources = t.resources
    own = t.deadline_us
    if own == _INF:
        c.deadline_us = job_deadline
    else:
        shifted = arrival + own
        c.deadline_us = shifted if shifted < job_deadline else job_deadline
    c.preds = []
    c.succs = []
    c.n_unfinished_preds = 0
    c.state = TaskState.SUBMITTED
    c.sched = {}
    c._reads = tuple(hmap[h.hid] for h in t._reads)
    c._writes = tuple(hmap[h.hid] for h in t._writes)
    return c


def merge_stream(stream: JobStream) -> StreamProgram:
    """Relink ``stream`` into one composite :class:`StreamProgram`."""
    ordered = sorted(stream.jobs, key=lambda j: (j.arrival_us, j.jid))
    tasks: list[Task] = []
    handles: list[DataHandle] = []
    releases: list[float] = []
    spans: list[JobSpan] = []
    # Sink lists are only consumed by `after` chains — skip the per-job
    # sink scan entirely on plain streams.
    chained = any(job.after is not None for job in ordered)
    sinks_of_jid: dict[int, list[Task]] = {}

    for job in ordered:
        prog = job.program
        first_tid = len(tasks)
        arrival = job.arrival_us
        prefix = f"j{job.jid}:"
        # Dense hids (every TaskFlow-built program) let the handle map be
        # a plain list indexed by hid instead of a dict.
        hmap: list[DataHandle] | dict[int, DataHandle]
        if all(h.hid == i for i, h in enumerate(prog.handles)):
            hmap = [
                _clone_handle(h, len(handles) + i, prefix)
                for i, h in enumerate(prog.handles)
            ]
            handles.extend(hmap)
        else:
            hmap = {}
            for h in prog.handles:
                clone = _clone_handle(h, len(handles), prefix)
                handles.append(clone)
                hmap[h.hid] = clone
        job_deadline = (
            arrival + job.deadline_us if job.deadline_us is not None else _INF
        )
        # TaskFlow assigns dense tids in submission order, which lets the
        # relink below index `tasks[first_tid + local_tid]` directly; a
        # hand-built program with sparse tids falls back to a dict map.
        dense = all(t.tid == i for i, t in enumerate(prog.tasks))
        for t in prog.tasks:
            tasks.append(_clone_task(t, len(tasks), hmap, job_deadline, arrival))
            releases.append(arrival)
        if dense:
            for t in prog.tasks:
                clone_task = tasks[first_tid + t.tid]
                clone_task.preds = [tasks[first_tid + p.tid] for p in t.preds]
                clone_task.succs = [tasks[first_tid + s.tid] for s in t.succs]
            clone_of = lambda orig: tasks[first_tid + orig.tid]  # noqa: E731
        else:
            tmap = {
                t.tid: tasks[first_tid + i] for i, t in enumerate(prog.tasks)
            }
            for t in prog.tasks:
                clone_task = tmap[t.tid]
                clone_task.preds = [tmap[p.tid] for p in t.preds]
                clone_task.succs = [tmap[s.tid] for s in t.succs]
            clone_of = lambda orig, _m=tmap: _m[orig.tid]  # noqa: E731
        if chained:
            sinks_of_jid[job.jid] = [
                clone_of(t) for t in prog.tasks if not t.succs
            ]
            if job.after is not None:
                # Chain edges point backward in the merged order (JobStream
                # validates `after` precedes), preserving the topological
                # task-id order downstream analyses rely on.
                pred_sinks = sinks_of_jid[job.after]
                for clone_task in (
                    clone_of(t) for t in prog.tasks if not t.preds
                ):
                    for sink in pred_sinks:
                        sink.succs.append(clone_task)
                        clone_task.preds.append(sink)
        spans.append(JobSpan(
            jid=job.jid,
            name=job.name or prog.name,
            tenant=job.tenant,
            arrival_us=arrival,
            first_tid=first_tid,
            n_tasks=len(prog.tasks),
            qos=job.qos,
            deadline_us=job_deadline,
        ))

    for t in tasks:
        t.n_unfinished_preds = len(t.preds)
    return StreamProgram(
        tasks, handles,
        name=f"stream:{stream.name}",
        release_times=releases,
        jobs=tuple(spans),
    )
