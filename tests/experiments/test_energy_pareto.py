"""Energy Pareto sweep: cap derivation, dominance marking, the grid."""

from __future__ import annotations

import json

import pytest

from repro.experiments.energy_pareto import (
    EnergyExperimentResult,
    EnergyRow,
    format_energy_experiment,
    mark_pareto,
    node_caps_for,
    run_energy_experiment,
)
from repro.experiments.overload import overload_workload
from repro.experiments.reporting import write_report
from repro.platform.machines import MACHINES
from repro.runtime.power import PowerLedger, PowerStateModel


def make_row(scheduler, cap_fraction, makespan_us, total_j, **kw):
    defaults = dict(
        cap_watts=None, busy_energy_j=total_j * 0.6,
        jobs_energy_j=total_j * 0.5, mean_latency_us=makespan_us / 4,
        mean_edp_j_s=1.0, fairness=0.9, n_throttled=0,
        throttle_delay_us=0.0, n_jobs=8,
    )
    defaults.update(kw)
    return EnergyRow(
        scheduler=scheduler, cap_fraction=cap_fraction,
        makespan_us=makespan_us, total_energy_j=total_j, **defaults,
    )


class TestNodeCaps:
    @pytest.mark.parametrize("fraction", [0.8, 0.6, 0.1])
    def test_caps_always_validate(self, fraction):
        """Any fraction — even one far below the DVFS floor — must yield
        a mapping the ledger accepts (the feasibility clamp)."""
        caps = node_caps_for("small-hetero", fraction)
        platform = MACHINES["small-hetero"]().platform()
        assert set(caps) == {node.mid for node in platform.nodes}
        PowerLedger(PowerStateModel(node_cap_watts=caps), platform)

    def test_caps_scale_with_fraction(self):
        loose = node_caps_for("small-hetero", 0.9)
        tight = node_caps_for("small-hetero", 0.5)
        assert all(tight[mid] <= loose[mid] for mid in loose)


class TestMarkPareto:
    def test_frontier_and_dominated(self):
        rows = [
            make_row("a", None, 100.0, 10.0),   # frontier (best makespan)
            make_row("b", None, 120.0, 8.0),    # frontier (best joules)
            make_row("c", None, 130.0, 9.0),    # dominated by b
        ]
        mark_pareto(rows)
        assert [r.pareto for r in rows] == [True, True, False]

    def test_duplicate_rows_both_survive(self):
        rows = [make_row("a", None, 100.0, 10.0),
                make_row("b", None, 100.0, 10.0)]
        mark_pareto(rows)
        assert all(r.pareto for r in rows)


class TestDominatingRows:
    def result_with(self, rows):
        return EnergyExperimentResult(
            machine="small-hetero", n_tenants=2, n_jobs=8, seed=0,
            load=1.5, rate_jobs_per_s=10.0, rows=rows,
        )

    def test_acceptance_property_shape(self):
        base = make_row("multiprio", None, 100.0, 10.0)
        winner = make_row("multiprio-energy", None, 105.0, 9.0)
        too_slow = make_row("multiprio-edp", None, 120.0, 8.0)
        not_energy_aware = make_row("eager", None, 100.0, 5.0)
        res = self.result_with([base, winner, too_slow, not_energy_aware])
        assert res.baseline_row() is base
        assert res.dominating_rows() == [winner]
        assert res.dominating_rows(makespan_slack=0.25) == [winner, too_slow]

    def test_no_baseline_no_verdict(self):
        res = self.result_with([make_row("eager", None, 100.0, 5.0)])
        assert res.baseline_row() is None
        assert res.dominating_rows() == []
        assert "no uncapped multiprio baseline" in format_energy_experiment(res)


class TestEnergyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_energy_experiment(
            schedulers=("multiprio", "multiprio-energy"),
            cap_fractions=(None, 0.6),
            n_tenants=2,
            n_jobs=6,
            check_invariants=True,
        )

    def test_grid_shape(self, result):
        assert len(result.rows) == 4
        assert {(r.scheduler, r.cap_fraction) for r in result.rows} == {
            ("multiprio", None), ("multiprio", 0.6),
            ("multiprio-energy", None), ("multiprio-energy", 0.6),
        }

    def test_rows_are_physical(self, result):
        for row in result.rows:
            assert row.total_energy_j > row.busy_energy_j > 0
            assert 0.0 < row.jobs_energy_j <= row.total_energy_j + 1e-9
            assert row.makespan_us > 0 and row.n_jobs == 6
            assert 0.0 < row.fairness <= 1.0
            if row.cap_fraction is None:
                assert row.n_throttled == 0 and row.cap_watts is None
            else:
                assert row.cap_watts

    def test_caps_bind(self, result):
        """The 0.6x cap level must actually intervene somewhere."""
        assert any(
            r.n_throttled > 0 for r in result.rows if r.cap_fraction == 0.6
        )

    def test_format_marks_pareto(self, result):
        text = format_energy_experiment(result)
        assert "* " in text and "energy pareto on small-hetero" in text
        assert any(r.pareto for r in result.rows)

    def test_report_round_trip(self, result, tmp_path):
        path = tmp_path / "energy.json"
        write_report(result, str(path))
        doc = json.loads(path.read_text())
        assert doc["experiment"] == "energy" and len(doc["rows"]) == 4
        assert doc["n_dominating"] == len(result.dominating_rows())
        for row, src in zip(doc["rows"], result.rows):
            assert row["total_energy_j"] == src.total_energy_j
            assert row["pareto"] == src.pareto
            assert row["per_tenant"]  # per-tenant joules serialized
            if src.cap_watts is not None:
                assert row["cap_watts"] == {
                    str(mid): w for mid, w in src.cap_watts.items()
                }

    def test_parallel_dispatch_is_bit_identical(self, result):
        twin = run_energy_experiment(
            schedulers=("multiprio", "multiprio-energy"),
            cap_fractions=(None, 0.6),
            n_tenants=2,
            n_jobs=6,
            jobs=2,
        )
        assert [
            (r.scheduler, r.cap_fraction, r.makespan_us, r.total_energy_j)
            for r in twin.rows
        ] == [
            (r.scheduler, r.cap_fraction, r.makespan_us, r.total_energy_j)
            for r in result.rows
        ]


def test_energy_workload_shape():
    stream = overload_workload(
        rate_jobs_per_s=50.0, n_tenants=3, n_jobs=9, qos=None, name="energy"
    )
    assert stream.name == "energy-50"
    assert len(stream.jobs) == 9
    assert len(stream.tenants) == 3
    assert all(job.qos == "burstable" and job.deadline_us is None for job in stream.jobs)
