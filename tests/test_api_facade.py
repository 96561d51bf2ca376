"""Contract tests for the redesigned public API.

Covers the :class:`repro.SimSpec` facade for one task graph, the
parameterized scheduler registry (``make_scheduler(name, **params)``,
``register_scheduler(..., override=True)``) and the equivalence between
ablation aliases and explicit constructor parameters.
"""

import pytest

from repro import SimSpec, make_scheduler, register_scheduler
from repro.apps.dense import cholesky_program
from repro.platform.machines import small_hetero
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.registry import parse_sched_opts
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def program():
    return cholesky_program(5, 512)


@pytest.fixture(scope="module")
def machine():
    return small_hetero(n_cpus=4, n_gpus=1)


class TestSimulateFacade:
    def test_minimal_call(self, program, machine):
        res = SimSpec(machine, "multiprio").run(program)
        assert res.makespan > 0
        assert res.gflops > 0

    def test_machine_by_registry_name(self, program):
        res = SimSpec("intel-v100", "multiprio").run(program)
        assert res.makespan > 0

    def test_unknown_machine_name(self, program):
        with pytest.raises(ValidationError, match="unknown machine"):
            SimSpec("no-such-box").run(program)

    def test_scheduler_instance_accepted(self, program, machine):
        by_name = SimSpec(machine, "multiprio").run(program)
        by_instance = SimSpec(machine, MultiPrio()).run(program)
        assert by_instance.makespan == by_name.makespan

    def test_instance_plus_params_rejected(self, program, machine):
        spec = SimSpec(machine, MultiPrio(), sched_params={"eviction": False})
        with pytest.raises(ValidationError, match="sched_params"):
            spec.run(program)

    def test_seed_changes_noisy_runs(self, program, machine):
        a = SimSpec(machine, "multiprio", seed=0, noise_sigma=0.2).run(program)
        b = SimSpec(machine, "multiprio", seed=1, noise_sigma=0.2).run(program)
        assert a.makespan != b.makespan

    def test_deterministic_for_fixed_seed(self, program, machine):
        a = SimSpec(machine, "multiprio", seed=3, noise_sigma=0.2).run(program)
        b = SimSpec(machine, "multiprio", seed=3, noise_sigma=0.2).run(program)
        assert a.makespan == b.makespan
        assert a.bytes_transferred == b.bytes_transferred

    def test_sched_params_change_behaviour(self, program, machine):
        tweaked = SimSpec(
            machine, "multiprio",
            sched_params={"use_criticality": False, "use_locality": False},
        ).run(program)
        assert tweaked.makespan > 0


class TestParameterizedRegistry:
    def test_make_with_params(self):
        sched = make_scheduler("multiprio", eviction=False, locality_n=5)
        assert isinstance(sched, MultiPrio)
        assert sched.evict_on_reject is False
        assert sched.locality_n == 5

    def test_unknown_param_is_validation_error(self):
        with pytest.raises(ValidationError, match="multiprio"):
            make_scheduler("multiprio", not_a_knob=1)

    def test_unknown_name_is_validation_error(self):
        with pytest.raises(ValidationError, match="unknown scheduler"):
            make_scheduler("no-such-policy")

    def test_register_requires_override_to_replace(self):
        name = "facade-test-sched"
        register_scheduler(name, MultiPrio)
        try:
            with pytest.raises(ValidationError, match="override"):
                register_scheduler(name, MultiPrio)
            register_scheduler(name, lambda **kw: MultiPrio(eviction=False, **kw),
                               override=True)
            assert make_scheduler(name).evict_on_reject is False
        finally:
            from repro.schedulers import registry
            registry._FACTORIES.pop(name, None)

    def test_parse_sched_opts_coercion(self):
        opts = parse_sched_opts(
            ["eviction=false", "locality_n=5", "locality_eps=0.25",
             "mode=fast", "window=none"]
        )
        assert opts == {
            "eviction": False,
            "locality_n": 5,
            "locality_eps": 0.25,
            "mode": "fast",
            "window": None,
        }

    def test_parse_sched_opts_rejects_bad_pair(self):
        with pytest.raises(ValidationError):
            parse_sched_opts(["no-equals-sign"])
