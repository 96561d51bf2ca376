"""Shared experiment rows: one simulated run of a grid, and speedups."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """One simulated run within an experiment grid."""

    experiment: str
    machine: str
    scheduler: str
    workload: str
    makespan_us: float
    gflops: float
    bytes_transferred: int
    idle_frac_by_arch: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


def speedup_table(
    rows: list[ExperimentResult], reference: str = "dmdas"
) -> dict[tuple[str, str], dict[str, float]]:
    """Per (machine, workload): scheduler -> makespan ratio vs reference.

    Ratio > 1 means faster than the reference (the paper's Fig. 8
    convention: "higher ratios indicate better results").
    """
    by_key: dict[tuple[str, str], dict[str, float]] = {}
    for row in rows:
        by_key.setdefault((row.machine, row.workload), {})[row.scheduler] = row.makespan_us
    out: dict[tuple[str, str], dict[str, float]] = {}
    for key, spans in by_key.items():
        ref = spans.get(reference)
        if ref is None or ref <= 0:
            continue
        out[key] = {sched: ref / span for sched, span in spans.items() if span > 0}
    return out
