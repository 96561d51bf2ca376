"""Online multi-job workloads: streams of arriving programs.

The workload layer turns the repo's static single-DAG simulations into
an online, multi-tenant scenario: jobs (whole programs) arrive over
virtual time, get merged into one composite program with per-task
release times, and run under any registered scheduler unmodified. See
:meth:`repro.api.SimSpec.run_stream` for the one-call entry point.
"""

from repro.workload.merge import JobSpan, StreamProgram, merge_stream
from repro.workload.results import JobResult, StreamResult
from repro.workload.stream import (
    QOS_CLASSES,
    Job,
    JobStream,
    closed_loop_stream,
    poisson_stream,
    trace_stream,
)

__all__ = [
    "QOS_CLASSES",
    "Job",
    "JobStream",
    "JobSpan",
    "JobResult",
    "StreamProgram",
    "StreamResult",
    "closed_loop_stream",
    "merge_stream",
    "poisson_stream",
    "trace_stream",
]
