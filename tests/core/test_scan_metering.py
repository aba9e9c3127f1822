"""The bidirectional scan's meter, pinned record for record.

The budget gates under ``benchmarks/`` allow a few percent of byte drift and
run outside tier-1, so a host-side rewrite of the scan could move the meter
without anyone noticing.  This test replays the scans of a cold extraction —
the fused cycle scan (weakest edge + positions) of the raw factor, then the
position scan of the broken forest — on the four ``extract_cold`` matrices
at scale 0.25, under the ``eager``/``never``/``adaptive`` compaction
policies, on one :class:`~repro.device.device.Device` and on a
:class:`~repro.device.device.DeviceGroup` of three, and compares every
scan :class:`~repro.device.device.KernelRecord` (device, name, bytes read
and written, active and total lanes, notes) and every interconnect transfer
(bytes, source, destination, tag) with ``data/scan_metering.json.gz`` (one
JSON line per case; gzip keeps the 650 records and 1400 transfers small).

The fixture holds the records of the two-entry step loop that the
single-gather step replaced, written with::

    PYTHONPATH=src python tests/core/test_scan_metering.py

Regenerate it the same way only for an intentional metering change.
"""

from __future__ import annotations

import functools
import gzip
import json
from pathlib import Path

import pytest

from repro.core import (
    AddOperator,
    BidirectionalScan,
    FusedOperator,
    MinEdgeOperator,
    ParallelFactorConfig,
    break_cycles,
    parallel_factor,
)
from repro.device import Device, DeviceGroup
from repro.graphs.suite import build_matrix
from repro.sparse import prepare_graph

FIXTURE = Path(__file__).parent / "data" / "scan_metering.json.gz"
SCALE = 0.25
MATRICES = ("aniso2", "g3_circuit", "ecology1", "af_shell8")
POLICIES = ("eager", "never", "adaptive")
DEVICES = (1, 3)


def _case_id(name: str, policy: str, n_devices: int) -> str:
    return f"{name}/{policy}/{n_devices}dev"


@functools.cache
def _factor(name: str):
    graph = prepare_graph(build_matrix(name, SCALE))
    return graph, parallel_factor(graph, ParallelFactorConfig(n=2)).factor


def meter_case(name: str, policy: str, n_devices: int) -> dict:
    """Run both scans of one case and return its kernel and transfer logs
    in the fixture's JSON form."""
    graph, factor = _factor(name)
    device = Device() if n_devices == 1 else DeviceGroup(n_devices)
    fused = BidirectionalScan(factor, device=device, compaction=policy).run(
        FusedOperator((MinEdgeOperator(), AddOperator())), graph
    )
    forest = break_cycles(factor, scan_result=fused).forest
    BidirectionalScan(forest, device=device, compaction=policy).run(AddOperator())
    members = list(device) if isinstance(device, DeviceGroup) else [device]
    kernels = [
        [
            dev.name, k.name, k.bytes_read, k.bytes_written,
            k.active_lanes, k.total_lanes, k.notes,
        ]
        for dev in members
        for k in dev.kernels
    ]
    transfers = (
        [[t.nbytes, t.src, t.dst, t.tag] for t in device.interconnect.transfers]
        if isinstance(device, DeviceGroup)
        else []
    )
    # the JSON round trip turns tuples into lists, as in the fixture
    return json.loads(json.dumps({"kernels": kernels, "transfers": transfers}))


CASES = [
    (name, policy, n_devices)
    for name in MATRICES
    for policy in POLICIES
    for n_devices in DEVICES
]


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(gzip.decompress(FIXTURE.read_bytes()))


@pytest.mark.parametrize(
    "name, policy, n_devices", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_scan_metering_matches_fixture(fixture, name, policy, n_devices):
    expected = fixture[_case_id(name, policy, n_devices)]
    got = meter_case(name, policy, n_devices)
    assert len(got["kernels"]) == len(expected["kernels"])
    for got_record, want_record in zip(got["kernels"], expected["kernels"]):
        assert got_record == want_record
    assert got["transfers"] == expected["transfers"]


def _write_fixture() -> None:
    lines = [
        f"  {json.dumps(_case_id(*case))}: "
        f"{json.dumps(meter_case(*case), separators=(',', ':'))}"
        for case in CASES
    ]
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    FIXTURE.parent.mkdir(exist_ok=True)
    # mtime=0: regenerating an unchanged meter rewrites identical bytes
    FIXTURE.write_bytes(gzip.compress(text.encode(), compresslevel=9, mtime=0))


if __name__ == "__main__":
    _write_fixture()
