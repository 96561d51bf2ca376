"""Program.digest: what it hashes, what it ignores, and who keys on it."""

from __future__ import annotations

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.check.differential import builtin_apps
from repro.cluster import sim as cluster_sim
from repro.cluster.spec import star_cluster
from repro.platform.machines import small_hetero
from repro.runtime.data import DataHandle
from repro.runtime.perfmodel import AnalyticalPerfModel, HistoryPerfModel
from repro.runtime.stf import Program, TaskFlow
from repro.runtime.task import AccessMode, Task
from repro.schedulers.registry import make_scheduler
from repro.workload import results
from repro.workload.merge import merge_stream
from repro.workload.stream import poisson_stream

#: Every slot is either hashed into the digest or excluded, with why.
#: A new slot fails the guard below until it is sorted into one of them.
TASK_HASHED = {
    "tid", "type_name", "accesses", "flops", "implementations", "priority",
    "resources", "deadline_us", "preds", "succs",
}
TASK_EXCLUDED = {
    "tag": "free-form debugging coordinates; nothing schedules on them",
    "n_unfinished_preds": "run state, reset from preds by the engine",
    "state": "run state",
    "sched": "per-run scheduler scratch",
    "_reads": "derived from accesses and handle sizes",
    "_writes": "derived from accesses",
}
HANDLE_HASHED = {"hid", "size", "home_node"}
HANDLE_EXCLUDED = {
    "label": "trace name",
    "key": "application bookkeeping",
    "valid_nodes": "run state (coherence)",
    "_in_flight": "run state (transfers)",
    "_pins": "run state (replica pins)",
}


def probe(
    *,
    flops: float = 1e7,
    priority: int = 0,
    impls: tuple[str, ...] = ("cpu", "cuda"),
    resources: tuple[str, ...] = (),
    deadline: float = float("inf"),
    mode: AccessMode = AccessMode.RW,
    size: int = 4096,
    home: int = 0,
    tag: object = None,
    label: str = "b",
    key: object = None,
    extra_edge: bool = False,
    release: tuple[float, ...] | None = None,
) -> Program:
    """Three tasks on two handles; every keyword perturbs one field."""
    tf = TaskFlow("probe")
    a = tf.data(4096, label="a")
    b = tf.data(size, label=label, key=key, home_node=home)
    tf.submit("potrf", [(a, AccessMode.W)], flops=1e7, implementations=("cpu", "cuda"))
    tf.submit(
        "gemm", [(b, mode)], flops=flops, implementations=impls, priority=priority,
        tag=tag, resources=resources, deadline_us=deadline,
    )
    tf.submit("trsm", [(a, AccessMode.R), (b, AccessMode.R)], flops=1e7)
    prog = tf.program()
    if extra_edge:
        first, second = prog.tasks[0], prog.tasks[1]
        first.succs.append(second)
        second.preds.append(first)
        second.n_unfinished_preds = len(second.preds)
    if release is not None:
        prog = Program(prog.tasks, prog.handles, name=prog.name, release_times=release)
    return prog


class TestDigest:
    @pytest.mark.parametrize("name,factory", builtin_apps(quick=True))
    def test_rebuilt_app_has_equal_digest(self, name, factory):
        a, b = factory(), factory()
        assert a is not b and a.digest == b.digest
        assert len(a.digest) == 16

    def test_distinct_apps_differ(self):
        digests = {factory().digest for _, factory in builtin_apps(quick=True)}
        assert len(digests) == len(builtin_apps(quick=True))

    def test_cached_per_object(self):
        prog = probe()
        assert prog.digest is prog.digest

    @pytest.mark.parametrize("change", [
        {"flops": 2e7},
        {"priority": 3},
        {"impls": ("cpu",)},
        {"resources": ("journal",)},
        {"deadline": 5_000.0},
        {"mode": AccessMode.W},
        {"size": 8192},
        {"home": 1},
        {"extra_edge": True},
        {"release": (0.0, 0.0, 10.0)},
    ], ids=lambda c: next(iter(c)))
    def test_each_structural_change_moves_it(self, change):
        assert probe(**change).digest != probe().digest

    @pytest.mark.parametrize("change", [
        {"tag": (3, 4)},
        {"label": "renamed"},
        {"key": ("tile", 0)},
    ], ids=lambda c: next(iter(c)))
    def test_names_and_tags_do_not(self, change):
        assert probe(**change).digest == probe().digest

    def test_every_slot_is_hashed_or_excluded(self):
        assert set(Task.__slots__) == TASK_HASHED | set(TASK_EXCLUDED)
        assert not TASK_HASHED & set(TASK_EXCLUDED)
        assert set(DataHandle.__slots__) == HANDLE_HASHED | set(HANDLE_EXCLUDED)
        assert not HANDLE_HASHED & set(HANDLE_EXCLUDED)

    def test_merged_stream_is_never_digested(self):
        stream = poisson_stream([lambda: cholesky_program(3, 256)],
                                rate_jobs_per_s=100.0, n_jobs=2)
        with pytest.raises(TypeError):
            merge_stream(stream).digest


# -- who keys on it ----------------------------------------------------------


def two_shape_stream(n_jobs: int = 6):
    return poisson_stream(
        [lambda: cholesky_program(3, 256), lambda: lu_program(3, 256)],
        rate_jobs_per_s=200.0, n_jobs=n_jobs, seed=3,
    )


@pytest.fixture
def baseline_runs(monkeypatch):
    """The programs of every isolated-baseline run, in run order."""
    runs: list[Program] = []
    real = results._isolated_makespan

    def counting(machine, program, scheduler, cfg):
        runs.append(program)
        return real(machine, program, scheduler, cfg)

    monkeypatch.setattr(results, "_isolated_makespan", counting)
    return runs


class TestBaselineKeys:
    def test_one_baseline_per_shape(self, baseline_runs):
        machine = small_hetero(n_cpus=2, n_gpus=1)
        res = SimSpec(machine, "multiprio").run_stream(two_shape_stream())
        assert len(baseline_runs) == 2
        assert all(j.isolated_us is not None for j in res.jobs)

    def test_history_model_keeps_one_baseline_per_program(self, baseline_runs):
        machine = small_hetero(n_cpus=2, n_gpus=1)
        history = HistoryPerfModel(AnalyticalPerfModel(machine.calibration()))
        stream = two_shape_stream()
        SimSpec(machine, "multiprio", perfmodel=history).run_stream(stream)
        assert len(baseline_runs) == len(stream.jobs)

    def test_scheduler_instance_keeps_one_baseline_per_program(self, baseline_runs):
        machine = small_hetero(n_cpus=2, n_gpus=1)
        stream = two_shape_stream()
        SimSpec(machine, make_scheduler("eager")).run_stream(stream)
        assert len(baseline_runs) == len(stream.jobs)

    def test_cluster_work_estimates_once_per_shape_and_node(self, monkeypatch):
        calls: list[Program] = []
        real = cluster_sim.job_work_us

        def counting(program, perfmodel, archs):
            calls.append(program)
            return real(program, perfmodel, archs)

        monkeypatch.setattr(cluster_sim, "job_work_us", counting)
        machine = small_hetero(n_cpus=2, n_gpus=1)
        res = SimSpec(machine, "multiprio").run_cluster(
            two_shape_stream(), star_cluster(3, machine)
        )
        assert len(res.jobs) == 6
        assert len(calls) == 3 * 2
