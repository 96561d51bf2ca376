"""Property: every policy completes a run driven purely by ``force_pop``.

``force_pop`` is the engine's liveness escape hatch — if a policy cannot
surface every executable ready task through it, a conservative ``pop``
(or a fault wiping a worker's queue) can wedge the whole run. The
``Reluctant`` wrapper turns the hatch into the only path: its ``pop``
always declines, so every single task must flow through ``force_pop``.
"""

from __future__ import annotations

import pytest

from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.task import Task, TaskState
from repro.runtime.worker import Worker
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from tests.conftest import SCHEDULER_CONFIGS, make_fork_join_program


class Reluctant(Scheduler):
    """Declines every ``pop`` so the engine must force-pop the inner policy."""

    name = "reluctant"

    def __init__(self, inner: Scheduler) -> None:
        super().__init__()
        self.inner = inner

    def setup(self, ctx) -> None:
        super().setup(ctx)
        self.inner.setup(ctx)

    def push(self, task: Task) -> None:
        self.inner.push(task)

    def pop(self, worker: Worker) -> Task | None:
        return None

    def force_pop(self, worker: Worker) -> Task | None:
        return self.inner.pop(worker) or self.inner.force_pop(worker)

    def on_task_done(self, task: Task, worker: Worker) -> None:
        self.inner.on_task_done(task, worker)

    def stats(self) -> dict[str, float]:
        return self.inner.stats()


@pytest.mark.parametrize("name,params", SCHEDULER_CONFIGS)
def test_forced_pops_still_complete_the_program(name, params, hetero_machine):
    program = make_fork_join_program(width=8)
    sim = Simulator(
        hetero_machine.platform(),
        Reluctant(make_scheduler(name, **params)),
        AnalyticalPerfModel(hetero_machine.calibration()),
        seed=0,
    )
    res = sim.run(program)
    assert all(t.state is TaskState.DONE for t in program.tasks)
    assert res.forced_pops > 0
