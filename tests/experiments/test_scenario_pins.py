"""Byte-level pins of the six scenario sweeps' output.

Five sweeps run through ``repro.cli main()`` exactly as a user would
start them, on the smallest grids their flags select, with ``--json``:
the printed table is pinned byte for byte and the JSON report as a
parsed dict (both as blake2b digests). The CLI has no flags that
shrink the fault sweep, so its table is pinned through the library
call on a tiny grid. Any change to a cell, a formatter or the report
writer moves a digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.experiments.faults_sweep import format_faults_sweep, run_faults_sweep

#: experiment -> (extra CLI flags, table digest, report digest).
PINS: dict[str, tuple[list[str], str, str]] = {
    "stream": (
        ["--rates", "60"],
        "9c71db93676044fd94b4364c3e04e4f7",
        "9e62ec0baa3f322c43d047656a59da2a",
    ),
    "overload": (
        ["--quick"],
        "b97be061045abd6f5a90b8eb4f9d1c49",
        "56c4a7ff0bdb4bbfe78d5a37ee897efe",
    ),
    "rt": (
        ["--quick"],
        "55b081250d3b7ee3553b9ea22a7b039e",
        "3c7dcb4403c66c3e07c111c719f454b0",
    ),
    "energy": (
        ["--quick"],
        "0d8d8c6cefc71c2a3eb85d0a831baafc",
        "2588f6a32d4c71cc1c6a36023a83a7b9",
    ),
    "cluster": (
        ["--nodes", "2", "--placements", "random", "locality-aware"],
        "57015beac8d62559c9cbd1e92d088187",
        "2587541c5d833257721ade0e371a06e5",
    ),
}

#: Row keys outside the pinned report schema, dropped before hashing
#: (the stream schema predates ``StreamRow.n_jobs`` in the report).
UNPINNED_ROW_KEYS: dict[str, tuple[str, ...]] = {"stream": ("n_jobs",)}

FAULTS_TABLE_DIGEST = "8def79a984db1d1cd2ee9579a852fbf2"


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_sweep_output_is_pinned(name, tmp_path, capsys):
    flags, table_digest, report_digest = PINS[name]
    path = tmp_path / f"{name}.json"
    assert main(["experiment", name, *flags, "--json", str(path)]) == 0
    table, _, tail = capsys.readouterr().out.rpartition("json report written to ")
    assert tail == f"{path}\n"
    doc = json.loads(path.read_text())
    for row in doc["rows"]:
        for key in UNPINNED_ROW_KEYS.get(name, ()):
            row.pop(key, None)
    assert doc["experiment"] == name
    assert digest(table) == table_digest
    assert digest(json.dumps(doc, sort_keys=True)) == report_digest


def test_faults_table_is_pinned():
    result = run_faults_sweep(
        n_tiles=4, tile_size=960, rates=(0.0, 0.1), schedulers=("multiprio",)
    )
    assert [r.fault_rate for r in result.rows] == [0.0, 0.1]
    assert result.rows[1].stats.task_failures > 0
    assert digest(format_faults_sweep(result)) == FAULTS_TABLE_DIGEST
