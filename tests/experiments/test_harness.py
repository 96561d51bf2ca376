"""Experiment harness and reporting tests."""

import pytest

from repro.api import SimConfig, SimSpec
from repro.experiments.harness import speedup_table
from repro.experiments.reporting import format_series, format_table
from repro.platform.machines import small_hetero
from repro.sweep import CallSpec, SweepSpec, run_sweep
from tests.conftest import make_fork_join_program


@pytest.fixture(scope="module")
def grid_rows():
    return run_sweep(SweepSpec.grid(
        "t",
        programs=[CallSpec(make_fork_join_program, kwargs={"width": 8, "flops": 5e7})],
        machines=[small_hetero(n_cpus=2, n_gpus=1)],
        schedulers=["eager", "dmdas", "multiprio"],
    ))


class TestHarness:
    def test_sweep_row_matches_simspec_run(self):
        machine = small_hetero(n_cpus=2, n_gpus=1)
        (row,) = run_sweep(SweepSpec.grid(
            "x",
            programs=[CallSpec(make_fork_join_program, kwargs={"width": 4})],
            machines=[machine],
            schedulers=["eager"],
            seeds=[1],
        ))
        res = SimSpec(machine, "eager", seed=1).run(make_fork_join_program(width=4))
        assert row.scheduler == "eager"
        assert row.machine == machine.name
        assert row.makespan_us == res.makespan > 0

    def test_grid_covers_cartesian_product(self, grid_rows):
        assert len(grid_rows) == 3
        assert {r.scheduler for r in grid_rows} == {"eager", "dmdas", "multiprio"}

    def test_speedup_table_reference(self, grid_rows):
        table = speedup_table(grid_rows, reference="dmdas")
        ((_, ratios),) = table.items()
        assert ratios["dmdas"] == pytest.approx(1.0)
        assert all(r > 0 for r in ratios.values())

    def test_speedup_missing_reference(self, grid_rows):
        assert speedup_table(grid_rows, reference="nonexistent") == {}

    def test_determinism_across_calls(self):
        program = make_fork_join_program(width=6)
        spec = SimSpec(
            small_hetero(n_cpus=2, n_gpus=1), "multiprio",
            config=SimConfig(seed=5, noise_sigma=0.2),
        )
        assert spec.run(program).makespan == spec.run(program).makespan


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [300, 4.123]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[2:])

    def test_format_series(self):
        text = format_series("makespan", ["x1", "x2"], [1.0, 2.0], unit="ms")
        assert "makespan [ms]" in text
        assert "x2" in text
