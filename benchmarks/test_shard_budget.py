"""Regression gate on the sharded engine's interconnect and launch economics.

Sharding is only worth having if the halo traffic stays a *small fraction*
of the device traffic it splits: the 1-D partition gives each device a
contiguous vertex range, so only cut-crossing edges and scan pointers pay
interconnect bytes.  This gate runs the benchmark suite solo and across a
4-device group and pins

1. **bit-identity first** — the sharded run reproduces the solo permutation,
   tridiagonal bands and coverage exactly (the property suite proves this in
   breadth; here it guards the budget numbers's meaning);
2. **the halo line** — interconnect bytes stay under
   :data:`HALO_FRACTION_LIMIT` of the sharded run's total device traffic
   (sublinear: the halo scales with the cut, not the volume);
3. **launch lockstep** — every device walks the same round structure as the
   solo engine, so the *maximum* per-device launch count stays within
   :data:`LAUNCH_LOCKSTEP_LIMIT` of the solo launch count (the total across
   devices is ~N× by design and is deliberately not gated);
4. **the split line** — the maximum per-device byte count stays under
   :data:`SPLIT_FRACTION_LIMIT` of the solo bytes: each device touches its
   shard plus halo, not the whole graph;
5. **the budget** — interconnect bytes, max per-device launches and max
   per-device bytes (small tolerances) against ``shard_budget.json``.

Regenerate deliberately with ``REPRO_UPDATE_BUDGET=shard`` (or ``=1`` for
all budgets) after an intentional cost change, and commit the refreshed
JSON together with that change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import extract_linear_forest
from repro.device import Device, DeviceGroup
from repro.graphs import build_matrix, small_suite

from .conftest import bench_scale, emit, refresh_budget

pytestmark = pytest.mark.budget

BUDGET_PATH = Path(__file__).parent / "shard_budget.json"

DEVICES = 4

#: Halo bytes must stay under this fraction of the sharded run's total
#: device traffic — the acceptance ceiling for "the interconnect carries
#: the cut, not the volume".  The factor halo scales with the cut alone
#: (1-3% on the smooth suite members); the scan halo also pays for long
#: pointer-jumping hops, which pushes the structural worst cases
#: (atmosmodm, stocf_1465) to ~30%.  The per-matrix byte budget below is
#: the tight regression gate; this line catches a broken partition.
HALO_FRACTION_LIMIT = 0.35

#: The busiest device may launch at most this multiple of the solo launch
#: count (per-shard rounds are in lockstep with the solo round structure).
LAUNCH_LOCKSTEP_LIMIT = 1.25

#: The busiest device may touch at most this fraction of the solo bytes;
#: an even split across 4 devices would be 0.25 plus halo/replay overhead
#: (measured 24-29% across the suite).
SPLIT_FRACTION_LIMIT = 0.35

# Launches are exact (integer, deterministic); bytes get a small headroom so
# an unrelated accounting tweak does not flake.
BYTES_TOLERANCE = 1.02


def test_shard_budget(results_dir):
    if bench_scale() != 1.0:
        pytest.skip("budget is recorded at REPRO_BENCH_SCALE=1.0")

    measured = {}
    rows = []
    for name in small_suite():
        a = build_matrix(name, scale=1.0)

        solo_dev = Device()
        solo = extract_linear_forest(a, device=solo_dev)
        solo_launches = solo_dev.launch_count
        solo_bytes = solo_dev.total_bytes("")

        group = DeviceGroup(DEVICES)
        sharded = extract_linear_forest(a, device=group)

        # 1. bit-identity first: the traffic split only counts between
        #    equal results
        assert np.array_equal(sharded.perm, solo.perm), name
        assert np.array_equal(sharded.tridiagonal.dl, solo.tridiagonal.dl), name
        assert np.array_equal(sharded.tridiagonal.d, solo.tridiagonal.d), name
        assert np.array_equal(sharded.tridiagonal.du, solo.tridiagonal.du), name
        assert sharded.coverage == solo.coverage, name

        halo_bytes = group.interconnect.total_bytes()
        device_bytes = group.total_bytes()
        max_dev_launches = max(group.per_device_launches().values())
        max_dev_bytes = max(group.per_device_bytes().values())

        # 2. the halo line: interconnect traffic is a small fraction of the
        #    device traffic it splits
        halo_fraction = halo_bytes / device_bytes
        assert halo_fraction <= HALO_FRACTION_LIMIT, (
            f"{name}: halo moved {halo_bytes} bytes = "
            f"{100 * halo_fraction:.1f}% of {device_bytes} device bytes "
            f"(> {100 * HALO_FRACTION_LIMIT:.0f}%)"
        )

        # 3. launch lockstep: the busiest device stays near the solo count
        assert max_dev_launches <= solo_launches * LAUNCH_LOCKSTEP_LIMIT, (
            f"{name}: busiest device launched {max_dev_launches}x vs "
            f"{solo_launches} solo"
        )

        # 4. the split line: no device touches most of the graph
        split_fraction = max_dev_bytes / solo_bytes
        assert split_fraction <= SPLIT_FRACTION_LIMIT, (
            f"{name}: busiest device touched {max_dev_bytes} bytes = "
            f"{100 * split_fraction:.1f}% of the {solo_bytes} solo bytes "
            f"(> {100 * SPLIT_FRACTION_LIMIT:.0f}%)"
        )

        measured[name] = {
            "interconnect_bytes": halo_bytes,
            "max_device_launches": max_dev_launches,
            "max_device_bytes": max_dev_bytes,
        }
        rows.append(
            [
                name,
                solo_launches,
                max_dev_launches,
                100 * halo_fraction,
                100 * split_fraction,
            ]
        )

    refresh_budget(BUDGET_PATH, "shard", measured)
    budget = json.loads(BUDGET_PATH.read_text())["budgets"]

    headers = [
        "matrix",
        "interconnect B",
        "budget B",
        "max launches",
        "budget",
        "max MB",
        "budget MB",
        "ok",
    ]
    budget_rows = []
    failures = []
    for name, m in measured.items():
        b = budget.get(name)
        if b is None:
            budget_rows.append(
                [
                    name,
                    m["interconnect_bytes"],
                    None,
                    m["max_device_launches"],
                    None,
                    m["max_device_bytes"] / 1e6,
                    None,
                    True,
                ]
            )
            continue
        ok = (
            m["interconnect_bytes"] <= b["interconnect_bytes"] * BYTES_TOLERANCE
            and m["max_device_launches"] <= b["max_device_launches"]
            and m["max_device_bytes"] <= b["max_device_bytes"] * BYTES_TOLERANCE
        )
        budget_rows.append(
            [
                name,
                m["interconnect_bytes"],
                b["interconnect_bytes"],
                m["max_device_launches"],
                b["max_device_launches"],
                m["max_device_bytes"] / 1e6,
                b["max_device_bytes"] / 1e6,
                ok,
            ]
        )
        if not ok:
            failures.append((name, m, b))

    emit(
        results_dir,
        "shard_budget",
        render_table(
            headers,
            budget_rows,
            title=f"Sharded ({DEVICES}-device) interconnect and launch budget",
        ),
    )
    emit(
        results_dir,
        "shard_split",
        render_table(
            ["matrix", "solo launches", "max dev launches", "halo %", "max dev %"],
            rows,
            digits=1,
            title=f"Sharded ({DEVICES}-device) traffic split vs solo",
        ),
    )
    assert not failures, (
        "sharded-engine cost regressed beyond the stored budget "
        f"({BUDGET_PATH.name}): {failures}; if intentional, regenerate with "
        "REPRO_UPDATE_BUDGET=shard and commit the refreshed budget"
    )
