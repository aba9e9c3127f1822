"""The factor rounds' and the coefficient scatter's meter, pinned record for
record.

The budget gates under ``benchmarks/`` allow a few percent of byte drift and
run outside tier-1, so a host-side rewrite of Algorithm 2's rounds or of the
extraction scatter could move the meter without anyone noticing.  This test
runs a cold extraction (:func:`~repro.core.pipeline.extract_linear_forest`,
which calls :func:`~repro.core.factor.parallel_factor` and
:func:`~repro.core.extraction.extract_tridiagonal`) on the four
``extract_cold`` matrices at scale 0.25, under the
``eager``/``never``/``adaptive`` compaction policies, on one
:class:`~repro.device.device.Device` and on a
:class:`~repro.device.device.DeviceGroup` of three.  It compares every
``charge``/``propose``/``mutualize``/``extract-coefficients``
:class:`~repro.device.device.KernelRecord` (device, name, bytes read and
written, active and total lanes, notes), every ``halo.degree``,
``halo.charges``, ``halo.props`` and ``halo.bands`` interconnect transfer
(bytes, source, destination, tag), the engine's compaction decisions and its
gathered element count with ``data/factor_metering.json.gz`` (one JSON line
per case).  The scan's records are pinned by ``test_scan_metering.py``.

The fixture was written with::

    PYTHONPATH=src python tests/core/test_factor_metering.py

Regenerate it the same way only for an intentional metering change.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
from pathlib import Path

import pytest

from repro.core import extract_linear_forest
from repro.device import Device, DeviceGroup
from repro.graphs.suite import build_matrix

FIXTURE = Path(__file__).parent / "data" / "factor_metering.json.gz"
SCALE = 0.25
MATRICES = ("aniso2", "g3_circuit", "ecology1", "af_shell8")
POLICIES = ("eager", "never", "adaptive")
DEVICES = (1, 3)
KERNELS = ("charge[", "propose[", "mutualize[", "extract-coefficients")
TAGS = ("halo.degree", "halo.charges", "halo.props", "halo.bands")


def _case_id(name: str, policy: str, n_devices: int) -> str:
    return f"{name}/{policy}/{n_devices}dev"


@functools.cache
def _matrix(name: str):
    return build_matrix(name, SCALE)


def meter_case(name: str, policy: str, n_devices: int) -> dict:
    """Run one cold extraction and return its factor and extraction meter in
    the fixture's JSON form."""
    device = Device() if n_devices == 1 else DeviceGroup(n_devices)
    result = extract_linear_forest(_matrix(name), device=device, compaction=policy)
    members = list(device) if isinstance(device, DeviceGroup) else [device]
    kernels = [
        [
            dev.name, k.name, k.bytes_read, k.bytes_written,
            k.active_lanes, k.total_lanes, k.notes,
        ]
        for dev in members
        for k in dev.kernels
        if k.name.startswith(KERNELS)
    ]
    transfers = (
        [
            [t.nbytes, t.src, t.dst, t.tag]
            for t in device.interconnect.transfers
            if t.tag in TAGS
        ]
        if isinstance(device, DeviceGroup)
        else []
    )
    factor = result.factor_result
    # the JSON round trip turns tuples into lists, as in the fixture
    return json.loads(
        json.dumps(
            {
                "kernels": kernels,
                "transfers": transfers,
                "decisions": [
                    dataclasses.asdict(d) for d in factor.compaction_decisions
                ],
                "gathered_elements": factor.gathered_elements,
            }
        )
    )


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
def test_factor_metering_matches_fixture(fixture, name, policy, n_devices):
    expected = fixture[_case_id(name, policy, n_devices)]
    got = meter_case(name, policy, n_devices)
    assert len(got["kernels"]) == len(expected["kernels"])
    for got_record, want_record in zip(got["kernels"], expected["kernels"]):
        assert got_record == want_record
    assert got["transfers"] == expected["transfers"]
    assert got["decisions"] == expected["decisions"]
    assert got["gathered_elements"] == expected["gathered_elements"]


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
