"""A device group answers every launch-log query over its members' records,
concatenated in member order, exactly as a device holding those records."""

import pytest

from repro.core import extract_linear_forest
from repro.device import Device, DeviceGroup
from repro.graphs import aniso2

PREFIXES = (None, "propose", "mutualize", "bidirectional-scan", "no-such-kernel")


@pytest.fixture(scope="module")
def group():
    group = DeviceGroup(3)
    extract_linear_forest(aniso2(24), device=group)
    return group


def test_group_kernels_are_the_members_records_in_member_order(group):
    members = [rec for dev in group for rec in dev.kernels]
    assert group.kernels == members
    assert {rec.name.split("[")[0] for rec in members} >= {"propose", "mutualize"}
    assert all(dev.launch_count > 0 for dev in group)


@pytest.mark.parametrize("prefix", PREFIXES)
def test_group_queries_equal_the_queries_over_its_kernels(group, prefix):
    flat = Device("flat")
    flat.kernels = list(group.kernels)
    assert group.launch_count == flat.launch_count == len(flat.kernels)
    assert group.records(prefix) == flat.records(prefix)
    assert group.total_bytes(prefix) == flat.total_bytes(prefix)
    assert group.total_seconds(prefix) == flat.total_seconds(prefix)
    assert group.convergence_history(prefix) == flat.convergence_history(prefix)
    assert group.frontier_fractions(prefix) == flat.frontier_fractions(prefix)
    records = flat.kernels if prefix is None else [
        rec for rec in flat.kernels if rec.name.startswith(prefix)
    ]
    assert group.total_bytes(prefix) == sum(rec.bytes_total for rec in records)
    assert group.convergence_history(prefix) == [
        rec.active_lanes for rec in records if rec.active_lanes is not None
    ]
