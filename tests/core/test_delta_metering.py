"""The delta engine's meter, pinned record for record.

``benchmarks/test_delta_budget.py`` allows a few percent of byte drift and
runs outside tier-1, so a host-side rewrite of :func:`repro.delta.apply_edits`
could move the four fused ``delta.*`` launches without anyone noticing.  This
test chains three clustered edit batches (about one edit per 100 vertices in
a small window, mixed inserts, reweights and deletes) through
``apply_edits`` on ANISO2 grids of side 96 and 128, in float32 and float64,
under the ``eager``/``never``/``adaptive`` compaction policies.  Every batch
takes the true delta path.  It compares every ``delta.*``
:class:`~repro.device.device.KernelRecord` (name, bytes read and written,
active and total lanes, notes) and every
:meth:`~repro.core.delta.DeltaStats.to_dict` with
``data/delta_metering.json.gz`` (one JSON line per case).

The fixture was written with::

    PYTHONPATH=src python tests/core/test_delta_metering.py

Regenerate it the same way only for an intentional metering change.

A region fallback has no fixture: its ball may stop early.  The last tests
check that the fallback decision is the full ball's and that the fallback's
``delta.frontier`` launch meters no more than the full ball would.
"""

from __future__ import annotations

import functools
import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ParallelFactorConfig, extract_linear_forest
from repro.delta import (
    EditBatch,
    apply_edits,
    apply_edits_to_matrix,
    invalidation_radius,
)
from repro.device import Device
from repro.graphs import aniso2
from repro.sparse import prepare_graph

FIXTURE = Path(__file__).parent / "data" / "delta_metering.json.gz"
#: (grid side, edit-window side), as in the delta budget gate
GRIDS = ((96, 11), (128, 13))
DTYPES = ("float32", "float64")
POLICIES = ("eager", "never", "adaptive")
STEPS = 3


def _case_id(g: int, dtype: str, policy: str) -> str:
    return f"aniso2-{g}/{dtype}/{policy}"


def window_edits(g: int, win: int, rng: np.random.Generator) -> EditBatch:
    """``g * g // 100`` edits between random vertex pairs of one ``win`` x
    ``win`` window at a random place on the grid: a quarter deletes (some of
    absent pairs), the rest set a weight (inserting or reweighting)."""
    r0, c0 = (int(x) for x in rng.integers(0, g - win + 1, size=2))
    window = np.array(
        [(r0 + dr) * g + (c0 + dc) for dr in range(win) for dc in range(win)]
    )
    dicts = []
    for _ in range(g * g // 100):
        u, v = (int(x) for x in rng.choice(window, size=2, replace=False))
        if rng.random() < 0.25:
            dicts.append({"u": u, "v": v, "delete": True})
        else:
            dicts.append({"u": u, "v": v, "w": float(rng.uniform(-4.0, 4.0)) or 1.0})
    return EditBatch.from_dicts(dicts)


def _records(device: Device) -> list:
    return [
        [k.name, k.bytes_read, k.bytes_written, k.active_lanes, k.total_lanes, k.notes]
        for k in device.kernels
        if k.name.startswith("delta.")
    ]


@functools.cache
def _grid(g: int, dtype: str):
    return aniso2(g).astype(dtype)


def meter_case(g: int, win: int, dtype: str, policy: str) -> list:
    """Chain ``STEPS`` batches and return each step's delta records and
    stats in the fixture's JSON form."""
    a = _grid(g, dtype)
    previous = extract_linear_forest(a, device=Device(record=False), compaction=policy)
    rng = np.random.default_rng([g, DTYPES.index(dtype), POLICIES.index(policy)])
    steps = []
    for _ in range(STEPS):
        device = Device("delta-meter")
        updated = apply_edits(
            previous, window_edits(g, win, rng), a, device=device, compaction=policy
        )
        steps.append({"kernels": _records(device), "stats": updated.stats.to_dict()})
        a, previous = updated.matrix, updated.result
    # the JSON round trip turns tuples into lists, as in the fixture
    return json.loads(json.dumps(steps))


CASES = [
    (g, win, dtype, policy)
    for g, win in GRIDS
    for dtype in DTYPES
    for policy in POLICIES
]


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(gzip.decompress(FIXTURE.read_bytes()))


@pytest.mark.parametrize(
    "g, win, dtype, policy",
    CASES,
    ids=[_case_id(g, dtype, policy) for g, _, dtype, policy in CASES],
)
def test_delta_metering_matches_fixture(fixture, g, win, dtype, policy):
    expected = fixture[_case_id(g, dtype, policy)]
    got = meter_case(g, win, dtype, policy)
    assert len(got) == len(expected) == STEPS
    for step, (got_step, want_step) in enumerate(zip(got, expected)):
        assert got_step["stats"]["fallback"] is None, step
        assert got_step["stats"] == want_step["stats"], step
        assert got_step["kernels"] == want_step["kernels"], step


def hop_distances(graph, seeds: np.ndarray, radius: int) -> np.ndarray:
    """Hop distance of every vertex from ``seeds`` up to ``radius`` (−1
    beyond): a plain BFS."""
    dist = np.full(graph.n_rows, -1)
    dist[seeds] = 0
    frontier = np.unique(seeds)
    for level in range(1, radius + 1):
        nxt = np.unique(
            np.concatenate(
                [graph.indices[graph.indptr[v] : graph.indptr[v + 1]] for v in frontier]
                or [np.empty(0, dtype=np.int64)]
            )
        )
        frontier = nxt[dist[nxt] < 0]
        dist[frontier] = level
    return dist


def _frontier_case(g: int):
    """A ``g``-grid, a batch at its center, and every vertex's hop distance
    from the batch on the edited graph, up to the ball radius ``2R + 1``."""
    a = aniso2(g)
    c = g // 2
    edits = EditBatch.from_dicts(
        [
            {"u": c * g + c - 1, "v": c * g + c, "w": 2.5},
            {"u": (c - 1) * g + c, "v": c * g + c + 1, "w": -0.75},
            {"u": (c + 1) * g + c, "v": (c + 1) * g + c + 1, "delete": True},
        ]
    )
    graph = prepare_graph(apply_edits_to_matrix(a, edits))
    radius = 2 * invalidation_radius(ParallelFactorConfig(n=2)) + 1
    dist = hop_distances(graph, edits.touched, radius)
    return a, edits, graph, dist


def _frontier_record(device: Device):
    (record,) = [k for k in device.kernels if k.name == "delta.frontier"]
    return record


def _full_ball_meter(edits, graph, members) -> tuple[int, int]:
    """Bytes read and written by a frontier launch over the full ball: the
    seed ids, the ball's adjacency rows and its distance updates."""
    read = edits.touched.nbytes + int(graph.row_lengths[members].sum()) * 8
    return read + members.size * 8, members.size * 8


@pytest.mark.parametrize("cutoff", ["below-ball", "above-ball", "at-a-level"])
def test_region_fallback_follows_the_full_ball(cutoff):
    """The fallback is taken exactly when the full ball exceeds the cutoff,
    also when the cutoff equals the size of a smaller ball.  Without a
    fallback the frontier meters the full ball's rows and distance updates;
    with one it meters no more."""
    a, edits, graph, dist = _frontier_case(64)
    members = np.flatnonzero(dist >= 0)
    full_read, full_written = _full_ball_meter(edits, graph, members)
    # n = 4096 is a power of two, so ``fraction * n`` is exact
    held = {
        "below-ball": members.size - 0.5,
        "above-ball": members.size + 0.5,
        "at-a-level": int(np.count_nonzero((dist >= 0) & (dist <= dist.max() // 2))),
    }[cutoff]
    fraction = held / a.n_rows
    previous = extract_linear_forest(a, device=Device(record=False))
    device = Device("frontier-meter")
    updated = apply_edits(
        previous, edits, a, device=device, max_region_fraction=fraction
    )
    frontier = _frontier_record(device)
    if cutoff == "above-ball":
        assert updated.stats.fallback is None
        assert updated.stats.region_vertices == members.size
        assert (frontier.bytes_read, frontier.bytes_written) == (full_read, full_written)
    else:
        assert updated.stats.fallback == "region"
        assert frontier.bytes_read <= full_read
        assert frontier.bytes_written <= full_written


def test_small_grid_center_batch_falls_back_within_the_full_ball_meter():
    """The 32-grid's center batch blankets the grid, far past the default
    cutoff: the fallback's ``delta.frontier`` stays within the full ball's
    meter."""
    a, edits, graph, dist = _frontier_case(32)
    members = np.flatnonzero(dist >= 0)
    assert members.size > a.n_rows // 2
    previous = extract_linear_forest(a, device=Device(record=False))
    device = Device("frontier-meter")
    updated = apply_edits(previous, edits, a, device=device)
    assert updated.stats.fallback == "region"
    frontier = _frontier_record(device)
    full_read, full_written = _full_ball_meter(edits, graph, members)
    assert frontier.bytes_read <= full_read
    assert frontier.bytes_written <= full_written


def _write_fixture() -> None:
    lines = [
        f"  {json.dumps(_case_id(g, dtype, policy))}: "
        f"{json.dumps(meter_case(g, win, dtype, policy), separators=(',', ':'))}"
        for g, win, dtype, policy in CASES
    ]
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    FIXTURE.parent.mkdir(exist_ok=True)
    # mtime=0: regenerating an unchanged meter rewrites identical bytes
    FIXTURE.write_bytes(gzip.compress(text.encode(), compresslevel=9, mtime=0))


if __name__ == "__main__":
    _write_fixture()
