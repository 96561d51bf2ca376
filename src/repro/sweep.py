"""Declarative, process-parallel experiment execution.

The paper's evaluation is a large grid — machines × schedulers ×
applications × sizes (Figs. 5–8) — whose cells are *independent*
simulations. This module turns such grids into a declarative
:class:`SweepSpec` and executes them either serially or over a
:class:`concurrent.futures.ProcessPoolExecutor`, with

* **deterministic results** — cells are dispatched in chunks but results
  are reassembled in cell order, and every cell re-derives its inputs
  (program builder + explicit seed) inside the executing process, so
  ``jobs=N`` is bit-identical to ``jobs=1``;
* **deterministic seed fan-out** — :func:`fanout_seeds` derives
  independent per-cell seeds from one base seed via
  :class:`numpy.random.SeedSequence`;
* **crash resilience** — a worker-process crash (``BrokenProcessPool``)
  retries the affected chunks a bounded number of times on a fresh pool,
  while *deterministic* failures (the :class:`~repro.utils.validation.
  ReproError` taxonomy of PR 1) are never retried: the error of the
  lowest-indexed failing cell is re-raised, exactly as a serial run
  would have raised it;
* **progress callbacks** — ``progress(done, total)`` fires as cells
  complete.

Two layers:

* :func:`run_tasks` — an ordered parallel map over picklable
  :class:`CallSpec` deferred calls (any picklable result);
* :class:`SweepSpec` / :func:`run_sweep` — simulation sweeps whose cells
  produce :class:`~repro.experiments.harness.ExperimentResult` rows.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.api import SimConfig, SimSpec
from repro.experiments.harness import ExperimentResult
from repro.platform.machines import MachineModel
from repro.utils.validation import ReproError, RetryExhaustedError

__all__ = [
    "CallSpec",
    "SweepCell",
    "SweepSpec",
    "fanout_seeds",
    "run_sweep",
    "run_tasks",
]


@dataclass(frozen=True)
class CallSpec:
    """A picklable deferred call: a module-level callable plus arguments.

    Sweep cells cross process boundaries, so work is described *by
    reference* (importable function + arguments) instead of by closure;
    :meth:`build` performs the call in whichever process executes the
    cell. Builders must be deterministic functions of their arguments —
    that is what makes a parallel run bit-identical to a serial one.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def build(self) -> Any:
        """Execute the deferred call and return its result."""
        return self.fn(*self.args, **self.kwargs)


def fanout_seeds(base_seed: int, n: int) -> list[int]:
    """``n`` independent per-cell seeds derived from one base seed.

    Uses :class:`numpy.random.SeedSequence`, so the fan-out is
    deterministic, collision-resistant, and independent of how the
    cells are later chunked across processes.
    """
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(n)]


# -- ordered parallel map ---------------------------------------------------


def _run_chunk(chunk: list[tuple[int, CallSpec]]) -> list[tuple[int, str, Any]]:
    """Execute one chunk of (index, spec) pairs in the worker process.

    Deterministic failures (the :class:`ReproError` taxonomy) are
    captured per cell instead of poisoning the whole chunk; any other
    exception propagates to the dispatcher (and is not retried — it is
    a bug, not a crash).
    """
    out: list[tuple[int, str, Any]] = []
    for idx, spec in chunk:
        try:
            out.append((idx, "ok", spec.build()))
        except ReproError as exc:
            out.append((idx, "err", exc))
    return out


def run_tasks(
    tasks: Iterable[CallSpec],
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
    crash_retries: int = 2,
    progress: Callable[[int, int], None] | None = None,
) -> list[Any]:
    """Ordered (deterministic) parallel map over :class:`CallSpec` tasks.

    ``jobs <= 1`` runs serially in-process. ``jobs > 1`` dispatches
    chunks of ``chunk_size`` cells (default: enough chunks for ~4 waves
    per worker) to a process pool; results always come back in task
    order, so the output is independent of ``jobs``.

    Failure semantics: a :class:`ReproError` raised by a cell is
    deterministic — the lowest-indexed failing cell's error is raised
    (matching what a serial run raises first). A crashed worker process
    retries the affected chunks up to ``crash_retries`` times on a
    fresh pool before :class:`RetryExhaustedError`.
    """
    specs = list(tasks)
    total = len(specs)
    if total == 0:
        return []
    if jobs <= 1:
        results_list: list[Any] = []
        for i, spec in enumerate(specs):
            results_list.append(spec.build())
            if progress is not None:
                progress(i + 1, total)
        return results_list

    if chunk_size is None:
        chunk_size = max(1, math.ceil(total / (jobs * 4)))
    indexed = list(enumerate(specs))
    chunk_list = [indexed[i : i + chunk_size] for i in range(0, total, chunk_size)]
    remaining: dict[int, list[tuple[int, CallSpec]]] = dict(enumerate(chunk_list))
    attempts: dict[int, int] = {cid: 0 for cid in remaining}
    results: dict[int, Any] = {}
    errors: dict[int, ReproError] = {}
    done = 0

    while remaining:
        crashed: list[int] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_chunk, chunk): cid
                for cid, chunk in sorted(remaining.items())
            }
            for fut in as_completed(futures):
                cid = futures[fut]
                try:
                    chunk_out = fut.result()
                except BrokenProcessPool:
                    # The pool died under this chunk (or before it ran);
                    # retry it on a fresh pool, a bounded number of times.
                    attempts[cid] += 1
                    if attempts[cid] > crash_retries:
                        idxs = [i for i, _ in remaining[cid]]
                        raise RetryExhaustedError(
                            f"sweep chunk of cells {idxs} crashed the worker "
                            f"pool {attempts[cid]} times "
                            f"(crash_retries={crash_retries})"
                        ) from None
                    crashed.append(cid)
                    continue
                for idx, status, payload in chunk_out:
                    if status == "ok":
                        results[idx] = payload
                    else:
                        errors[idx] = payload
                    done += 1
                    if progress is not None:
                        progress(done, total)
        remaining = {cid: remaining[cid] for cid in crashed}

    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(total)]


# -- simulation sweeps ------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One (program × machine × scheduler × seed) point of a sweep.

    ``program`` is a :class:`CallSpec` so the (potentially large) task
    graph is rebuilt inside the executing process instead of being
    pickled across; builders are deterministic, so rebuilding is
    equivalent to reusing. ``perfmodel`` and ``faults`` are likewise
    factories, built fresh per cell. ``extra`` is cell metadata (tile
    size, stream count, injected fault rate, ...) copied into the
    result row's ``extra`` mapping.
    """

    program: CallSpec
    machine: MachineModel
    scheduler: str
    seed: int = 0
    noise_sigma: float = 0.0
    sched_params: dict = field(default_factory=dict)
    perfmodel: CallSpec | None = None
    faults: CallSpec | None = None
    extra: dict = field(default_factory=dict)


def _run_cell(cell: SweepCell, experiment: str) -> ExperimentResult:
    """Simulate one sweep cell (in whichever process executes it)."""
    program = cell.program.build()
    res = SimSpec(cell.machine, cell.scheduler, config=SimConfig(
        seed=cell.seed,
        noise_sigma=cell.noise_sigma,
        perfmodel=cell.perfmodel.build() if cell.perfmodel is not None else None,
        faults=cell.faults.build() if cell.faults is not None else None,
        sched_params=dict(cell.sched_params),
    )).run(program)
    extra = dict(cell.extra)
    if res.faults is not None:
        for key, value in res.faults.as_dict().items():
            extra.setdefault(f"faults.{key}", value)
    return ExperimentResult(
        experiment=experiment,
        machine=cell.machine.name,
        scheduler=cell.scheduler,
        workload=program.name,
        makespan_us=res.makespan,
        gflops=res.gflops,
        bytes_transferred=res.bytes_transferred,
        idle_frac_by_arch=dict(res.idle_frac_by_arch),
        extra=extra,
    )


@dataclass
class SweepSpec:
    """A declarative sweep: an experiment name plus an ordered cell list.

    Build the cell list directly for irregular sweeps (per-cell tile
    sizes, fault scenarios, ...), or via :meth:`grid` for a full
    cartesian product. Cell order *is* result order.
    """

    experiment: str
    cells: list[SweepCell] = field(default_factory=list)

    @classmethod
    def grid(
        cls,
        experiment: str,
        *,
        programs: Sequence[CallSpec],
        machines: Sequence[MachineModel],
        schedulers: Sequence[str],
        seeds: Sequence[int] | int = (0,),
        noise_sigma: float = 0.0,
        sched_params: dict | None = None,
    ) -> "SweepSpec":
        """Cartesian-product sweep over machines ▸ programs ▸ schedulers
        ▸ seeds (the nesting order the serial harness used).

        ``seeds`` may be an explicit sequence, or an int count ``n`` —
        then ``fanout_seeds(0, n)`` derives the per-replicate seeds.
        """
        seed_list = fanout_seeds(0, seeds) if isinstance(seeds, int) else list(seeds)
        params = dict(sched_params) if sched_params else {}
        cells = [
            SweepCell(
                program=program,
                machine=machine,
                scheduler=scheduler,
                seed=seed,
                noise_sigma=noise_sigma,
                sched_params=params,
            )
            for machine in machines
            for program in programs
            for scheduler in schedulers
            for seed in seed_list
        ]
        return cls(experiment=experiment, cells=cells)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
    crash_retries: int = 2,
    progress: Callable[[int, int], None] | None = None,
) -> list[ExperimentResult]:
    """Execute every cell of ``spec``; one result row per cell, in cell
    order, identical for any ``jobs`` value (see :func:`run_tasks`)."""
    tasks = [CallSpec(_run_cell, (cell, spec.experiment)) for cell in spec.cells]
    return run_tasks(
        tasks,
        jobs=jobs,
        chunk_size=chunk_size,
        crash_retries=crash_retries,
        progress=progress,
    )
