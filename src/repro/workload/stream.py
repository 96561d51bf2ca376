"""Job streams: programs that arrive over time and compete for a node.

A :class:`Job` wraps one ready-built :class:`~repro.runtime.stf.Program`
with an arrival time (µs of virtual clock) and a tenant label; a
:class:`JobStream` is an ordered collection of jobs — the online,
multi-tenant counterpart of the repo's single static DAGs. Streams are
plain descriptions: :func:`repro.workload.merge.merge_stream` compiles
one into a composite program the unmodified engine executes, and
:meth:`repro.api.SimSpec.run_stream` wraps the whole pipeline.

Three generators cover the usual arrival regimes:

* :func:`poisson_stream` — open-loop Poisson arrivals (exponential
  interarrival gaps from a seeded RNG) over a set of program builders;
* :func:`closed_loop_stream` — a fixed population of clients, each
  submitting its next job only when the previous one finished (expressed
  with inter-job dependency edges, added during the merge);
* :func:`trace_stream` — explicit ``(arrival_us, program, tenant)``
  entries replayed verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.runtime.stf import Program
from repro.utils.validation import ValidationError

#: A job factory: builds a fresh Program per call (never share task
#: objects between jobs — the merge copies them, but isolated-baseline
#: runs re-simulate the originals).
ProgramFactory = Callable[[], Program]

#: Priority classes the control plane (:mod:`repro.control`) honours:
#: ``guaranteed`` jobs are always admitted (evicting best-effort work
#: under overload if needed), ``burstable`` jobs may be delayed before
#: being shed, ``best-effort`` jobs are shed on the first refusal and
#: evicted first. Without a control plane the class is inert metadata.
QOS_CLASSES: tuple[str, ...] = ("guaranteed", "burstable", "best-effort")


@dataclass(frozen=True)
class Job:
    """One unit of arriving work.

    ``after`` optionally names an earlier job (by ``jid``) that must
    fully complete before this one may start — the closed-loop "think
    then resubmit" pattern. The merge turns it into dependency edges
    from every sink of the predecessor to every source of this job.

    ``deadline_us`` is the job's *relative* deadline: the job should
    fully complete within that many µs of its arrival. The merge stamps
    the absolute deadline (``arrival_us + deadline_us``) onto every
    cloned task, deadline-aware schedulers read it, and
    :class:`~repro.workload.results.StreamResult` reports miss rates and
    lateness. ``None`` (default) means best-effort: no deadline.
    """

    jid: int
    arrival_us: float
    program: Program
    tenant: str = "default"
    name: str = ""
    after: int | None = None
    qos: str = "burstable"
    deadline_us: float | None = None

    @property
    def label(self) -> str:
        """Readable identifier like ``j3:cholesky``."""
        return f"j{self.jid}:{self.name or self.program.name}"


@dataclass(frozen=True)
class JobStream:
    """A validated, arrival-ordered sequence of jobs."""

    name: str
    jobs: tuple[Job, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValidationError(
                f"stream {self.name!r} has no jobs; a JobStream must carry "
                f"at least one"
            )
        seen: set[int] = set()
        prev_arrival = 0.0
        prev_jid = -1
        for i, job in enumerate(self.jobs):
            if job.jid in seen or job.jid <= prev_jid:
                # Increasing jids + non-decreasing arrivals make stream
                # order and the merge's (arrival, jid) order coincide,
                # so `after` edges always point backward.
                raise ValidationError(
                    f"job ids must be strictly increasing (and unique): "
                    f"{job.jid} follows {prev_jid}"
                )
            prev_jid = job.jid
            if not math.isfinite(job.arrival_us):
                raise ValidationError(
                    f"{job.label} has a non-finite arrival time {job.arrival_us}"
                )
            if job.arrival_us < 0:
                raise ValidationError(
                    f"{job.label} has a negative arrival time {job.arrival_us}"
                )
            if job.arrival_us < prev_arrival:
                raise ValidationError(
                    f"stream jobs must be ordered by arrival: {job.label} at "
                    f"{job.arrival_us} follows an arrival at {prev_arrival}"
                )
            if not len(job.program):
                raise ValidationError(f"{job.label} has an empty program")
            if job.qos not in QOS_CLASSES:
                raise ValidationError(
                    f"{job.label} has unknown qos class {job.qos!r}; expected "
                    f"one of {QOS_CLASSES}"
                )
            if job.deadline_us is not None and (
                not isinstance(job.deadline_us, (int, float))
                or not math.isfinite(job.deadline_us)
                or job.deadline_us <= 0
            ):
                raise ValidationError(
                    f"{job.label} has an invalid relative deadline "
                    f"{job.deadline_us}; expected a finite positive µs value "
                    f"(or None for no deadline)"
                )
            if job.after is not None and job.after not in seen:
                raise ValidationError(
                    f"{job.label} chains after job {job.after}, which does "
                    f"not precede it in the stream"
                )
            seen.add(job.jid)
            prev_arrival = job.arrival_us

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def n_tasks(self) -> int:
        """Total task count over every job."""
        return sum(len(j.program) for j in self.jobs)

    @property
    def tenants(self) -> tuple[str, ...]:
        """Distinct tenant labels, in first-appearance order."""
        out: list[str] = []
        for job in self.jobs:
            if job.tenant not in out:
                out.append(job.tenant)
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = self.jobs[-1].arrival_us if self.jobs else 0.0
        return (
            f"<JobStream {self.name!r}: {len(self.jobs)} jobs / "
            f"{self.n_tasks} tasks over {span:.0f}us>"
        )


def _named_builders(
    builders: Sequence[ProgramFactory | tuple[str, ProgramFactory]],
) -> list[tuple[str, ProgramFactory]]:
    if not builders:
        raise ValidationError("at least one program builder is required")
    out: list[tuple[str, ProgramFactory]] = []
    for b in builders:
        if isinstance(b, tuple):
            out.append(b)
        else:
            out.append((getattr(b, "__name__", "job"), b))
    return out


def poisson_stream(
    builders: Sequence[ProgramFactory | tuple[str, ProgramFactory]],
    *,
    rate_jobs_per_s: float,
    n_jobs: int,
    seed: int = 0,
    tenants: Sequence[str] = ("tenant0",),
    qos: Sequence[str] | None = None,
    deadline: float | Sequence[float] | None = None,
    name: str = "poisson",
) -> JobStream:
    """Open-loop Poisson arrivals over round-robin program builders.

    Interarrival gaps are exponential with mean ``1e6 / rate_jobs_per_s``
    µs, drawn from a :class:`numpy.random.SeedSequence`-seeded generator
    so the stream is reproducible and independent of the engine's
    execution-noise RNG. Builders and tenants rotate round-robin, which
    keeps the workload mix deterministic under any rate. ``qos`` (when
    given) assigns priority classes *per tenant* — tenant ``k`` gets
    ``qos[k % len(qos)]`` — so each tenant's class is stable across the
    stream. ``deadline`` (when given) assigns relative deadlines *per
    builder* — a scalar applies to every job, a sequence pairs with the
    builder rotation (``deadline[i % len(builders)]``), so each program
    shape keeps a stable deadline across the stream.
    """
    if rate_jobs_per_s <= 0:
        raise ValidationError(f"rate_jobs_per_s must be > 0, got {rate_jobs_per_s}")
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1, got {n_jobs}")
    named = _named_builders(builders)
    deadlines: tuple[float, ...] | None
    if deadline is None:
        deadlines = None
    elif isinstance(deadline, (int, float)):
        deadlines = (float(deadline),)
    else:
        deadlines = tuple(float(d) for d in deadline)
        if not deadlines:
            raise ValidationError("deadline sequence must not be empty")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mean_gap_us = 1e6 / rate_jobs_per_s
    gaps = rng.exponential(mean_gap_us, size=n_jobs)
    jobs: list[Job] = []
    clock = 0.0
    for i in range(n_jobs):
        # The first job lands at t=0 so every stream exercises a cold start.
        clock += float(gaps[i]) if i else 0.0
        job_name, factory = named[i % len(named)]
        tenant_idx = i % len(tenants)
        jobs.append(Job(
            jid=i,
            arrival_us=clock,
            program=factory(),
            tenant=tenants[tenant_idx],
            name=job_name,
            qos=qos[tenant_idx % len(qos)] if qos else "burstable",
            deadline_us=deadlines[i % len(deadlines)] if deadlines else None,
        ))
    return JobStream(name=name, jobs=tuple(jobs))


def closed_loop_stream(
    builders: Sequence[ProgramFactory | tuple[str, ProgramFactory]],
    *,
    n_clients: int,
    jobs_per_client: int,
    name: str = "closed-loop",
) -> JobStream:
    """A closed-loop workload: ``n_clients`` tenants, each re-submitting
    its next job only once the previous one fully completed.

    Completion times are only known at simulation time, so the "wait for
    my previous job" constraint is expressed structurally: every job
    after a client's first carries ``after=<previous jid>``, which the
    merge compiles into sink→source dependency edges. Arrival times are
    all zero — the *dependencies* pace the stream, and the submission
    window (if any) bounds how much of it the scheduler sees at once.
    """
    if n_clients < 1:
        raise ValidationError(f"n_clients must be >= 1, got {n_clients}")
    if jobs_per_client < 1:
        raise ValidationError(f"jobs_per_client must be >= 1, got {jobs_per_client}")
    named = _named_builders(builders)
    jobs: list[Job] = []
    last_jid: dict[int, int] = {}
    jid = 0
    for round_idx in range(jobs_per_client):
        for client in range(n_clients):
            job_name, factory = named[jid % len(named)]
            jobs.append(Job(
                jid=jid,
                arrival_us=0.0,
                program=factory(),
                tenant=f"client{client}",
                name=job_name,
                after=last_jid.get(client),
            ))
            last_jid[client] = jid
            jid += 1
    return JobStream(name=name, jobs=tuple(jobs))


def trace_stream(
    entries: Iterable[tuple],
    *,
    name: str = "trace",
) -> JobStream:
    """A stream replayed from explicit ``(arrival_us, program, tenant)``,
    ``(arrival_us, program, tenant, qos)`` or
    ``(arrival_us, program, tenant, qos, deadline_us)`` entries
    (``deadline_us`` relative, ``None`` for best-effort); entries are
    stably sorted by arrival time.

    Raises :class:`~repro.utils.validation.ValidationError` on an empty
    trace, malformed entries, non-finite or negative arrivals — the
    same typed errors :class:`JobStream` itself enforces.
    """
    materialized = list(entries)
    if not materialized:
        raise ValidationError(f"trace stream {name!r} has no entries")
    for entry in materialized:
        if not isinstance(entry, tuple) or len(entry) not in (3, 4, 5):
            raise ValidationError(
                f"trace entries must be (arrival_us, program, tenant"
                f"[, qos[, deadline_us]]) tuples, got {entry!r}"
            )
    ordered = sorted(enumerate(materialized), key=lambda e: (e[1][0], e[0]))
    jobs = tuple(
        Job(
            jid=i,
            arrival_us=float(entry[0]),
            program=entry[1],
            tenant=entry[2],
            name=entry[1].name,
            qos=entry[3] if len(entry) >= 4 else "burstable",
            deadline_us=entry[4] if len(entry) == 5 else None,
        )
        for i, (_, entry) in enumerate(ordered)
    )
    return JobStream(name=name, jobs=jobs)
