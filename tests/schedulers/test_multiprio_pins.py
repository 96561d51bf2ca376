"""Digest pins of MultiPrio-family schedules, run per event and batched.

A 6-job Cholesky+LU Poisson stream on ``small-hetero`` runs at
``record_level="decisions"`` under several MultiPrio settings, once per
event and twice through the batched engine (``batch_step=50`` with idle
draining on and off). Each run pins blake2b digests of the schedule
fingerprint, the job dicts, the scheduler counters and the full event
stream (decision provenance included). The energy-aware variants run
under a 400 W node cap. The metrics snapshot is left out: its gauge
sample counts depend on how often pushes are sampled, not on the
schedule.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.check.differential import fingerprint
from repro.runtime.power import PowerStateModel
from repro.schedulers.multiprio import MultiPrio
from repro.workload.stream import poisson_stream

MODES: dict[str, dict] = {
    "per-event": {},
    "batch-drain": {"batch_step": 50.0, "batch_drain_on_idle": True},
    "batch-nodrain": {"batch_step": 50.0, "batch_drain_on_idle": False},
}

#: (scheduler, sched_params, power cap in watts or None).
SETTINGS: dict[str, tuple[str, dict, float | None]] = {
    "default": ("multiprio", {}, None),
    "relaxed": ("multiprio", {"relaxed": 4}, None),
    "deadline-boost": ("multiprio", {"deadline_boost": 2000.0}, None),
    "no-crit": ("multiprio", {"use_criticality": False}, None),
    "energy": ("multiprio-energy", {}, 400.0),
    "edp": ("multiprio-edp", {}, 400.0),
}

#: "setting/mode" -> (fingerprint, jobs, scheduler_stats, events) digests.
PINS: dict[str, tuple[str, str, str, str]] = {
    "deadline-boost/batch-drain": (
        "648f98f565eb1484af365de086d2cbbe",
        "13809ac1f66866ad820bc39dbe903e84",
        "f0b4d8fc8c04cd9269270b7aab9f9514",
        "d5b6029343f835bfd395f7e40c23e6b0",
    ),
    "deadline-boost/batch-nodrain": (
        "dfdfab4c9c62cdf4e3986f40c10eeb59",
        "4332a5b6f39fe48098f4a9b14a419bd6",
        "98c2f482f77395f7d569b58f559ebe9a",
        "4cd1f8c4f2f0793a3df1408f4b9ea2f3",
    ),
    "deadline-boost/per-event": (
        "648f98f565eb1484af365de086d2cbbe",
        "13809ac1f66866ad820bc39dbe903e84",
        "f0b4d8fc8c04cd9269270b7aab9f9514",
        "08ecfe3e747110a9c266fbe062e1647f",
    ),
    "default/batch-drain": (
        "e5e6358a738270d1777b7270077c8ae8",
        "f3c880b593a6b299caa24bfd6e5f74f1",
        "344f5da3ba8d432e5ad046bcf4a7df3b",
        "7eac8424ed63bc8fd0602dfece4470d3",
    ),
    "default/batch-nodrain": (
        "3750fc4612522f40998f65b77c2c6bf3",
        "d2898d663e9bb442b0cbc25abce94cde",
        "44a54e2f74f72393b82bfc537a6639fa",
        "81169316fb94d42f6a30aa44e6041ab9",
    ),
    "default/per-event": (
        "e5e6358a738270d1777b7270077c8ae8",
        "f3c880b593a6b299caa24bfd6e5f74f1",
        "344f5da3ba8d432e5ad046bcf4a7df3b",
        "29d7d0d6a954cab43e313873df696352",
    ),
    "edp/batch-drain": (
        "557c1229422ef3011090c4d78660542b",
        "e6746be59fe4160790ca10ab4eddb906",
        "f9241d44d624e89cacdc0fc7f4e82ff7",
        "89bf83c337c02c4ba68955c44aa90839",
    ),
    "edp/batch-nodrain": (
        "d69c1794560f85c36e8151de40028e02",
        "f7f43d4b02d74bf378f55e83edd84577",
        "b4c4096167b4c8cb58ceba8469f29b74",
        "675e02c875bf670571d12080e3d6dd27",
    ),
    "edp/per-event": (
        "557c1229422ef3011090c4d78660542b",
        "e6746be59fe4160790ca10ab4eddb906",
        "f9241d44d624e89cacdc0fc7f4e82ff7",
        "3fc7c061c513254202588ce4aef3952b",
    ),
    "energy/batch-drain": (
        "2de940813c90a587b241dd7635db2366",
        "88abb14cd57624dfba8878536283ee75",
        "30a4a6d26dc0ef5537cf08270eb51973",
        "3fdadb57eb3295713907c6ec7cc9fb9b",
    ),
    "energy/batch-nodrain": (
        "70e128e6d6da3b063c729d1fce44feb3",
        "0d7baf199fc06a34ebc77b8a1100cc54",
        "c3cbd962610a7e061d2847ac539cfbeb",
        "71faef42513fa5704dd4d17ee27a05e8",
    ),
    "energy/per-event": (
        "2de940813c90a587b241dd7635db2366",
        "88abb14cd57624dfba8878536283ee75",
        "30a4a6d26dc0ef5537cf08270eb51973",
        "10927776398038d2d270a91a5d5c6f97",
    ),
    "no-crit/batch-drain": (
        "a7f982e56fa04cc3f266fbfef68ca694",
        "f3c880b593a6b299caa24bfd6e5f74f1",
        "78b4ea66516101a592d0ae8d9fa21933",
        "47d42bfc0fd03b92880e54289e90bbe3",
    ),
    "no-crit/batch-nodrain": (
        "2103642da96ef5d67299149726e7f231",
        "412d6a762a64922abddc39fb98e24e39",
        "cc5a51e143f7f7a5bb9c9affbe1da002",
        "56a3ab53e481d9035b12c125392abd1e",
    ),
    "no-crit/per-event": (
        "a7f982e56fa04cc3f266fbfef68ca694",
        "f3c880b593a6b299caa24bfd6e5f74f1",
        "78b4ea66516101a592d0ae8d9fa21933",
        "f0b0519c17f04102c4091d5f9d486d1e",
    ),
    "relaxed/batch-drain": (
        "e6d8647cd52a466d174a704bead2413c",
        "ef90d926bac4096b32a3f2d696d4909a",
        "5de6da20e7f35ea698d8ac26b1bfd6c1",
        "002298e1fc03227e384263949dcb5ea5",
    ),
    "relaxed/batch-nodrain": (
        "6f3d004c1a07911db82de2961d036d1d",
        "b623ff1e14f75d60f3e5cebdc34115fa",
        "d43dab1bb91591215a4a32a7131ea604",
        "76c568b3b47754160ee3679f76668536",
    ),
    "relaxed/per-event": (
        "e6d8647cd52a466d174a704bead2413c",
        "ef90d926bac4096b32a3f2d696d4909a",
        "5de6da20e7f35ea698d8ac26b1bfd6c1",
        "ff1fd2d2ab116e231bb4dbc694820ae5",
    ),
}


def stream():
    return poisson_stream(
        [
            ("chol", lambda: cholesky_program(4, 384)),
            ("lu", lambda: lu_program(4, 384)),
        ],
        rate_jobs_per_s=400.0,
        n_jobs=6,
        seed=3,
        tenants=("t0", "t1"),
        deadline=8000.0,
    )


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def run_digests(setting: str, mode: str) -> tuple[str, str, str, str]:
    scheduler, sched_params, cap = SETTINGS[setting]
    res = SimSpec(
        "small-hetero", scheduler,
        config=SimConfig(
            record_trace=True, record_level="decisions",
            sched_params=sched_params,
            power=None if cap is None else PowerStateModel(node_cap_watts=cap),
            **MODES[mode],
        ),
    ).run_stream(stream())
    return (
        digest(repr(fingerprint(res.sim))),
        digest([j.as_dict() for j in res.jobs]),
        digest(res.sim.scheduler_stats),
        digest([e.to_dict() for e in res.sim.events]),
    )


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_multiprio_schedule_is_pinned(setting, mode):
    assert run_digests(setting, mode) == PINS[f"{setting}/{mode}"]


def test_batched_modes_hand_push_batch_multi_task_buffers():
    # Guard the batched pins: the batch engine must call push_batch with
    # multi-task buffers, or the batched runs only ever push one by one.
    calls: list[int] = []

    class Counting(MultiPrio):
        def push_batch(self, tasks):
            calls.append(len(tasks))
            super().push_batch(tasks)

    SimSpec(
        "small-hetero", Counting(), isolated_baseline=False,
        config=SimConfig(**MODES["batch-nodrain"]),
    ).run_stream(stream())
    assert calls and max(calls) > 1
