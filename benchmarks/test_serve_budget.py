"""Regression gate on the serve daemon's cache and batching economics.

The ``repro serve`` daemon exists for two numbers: a warm cache hit must
cost **zero** kernel launches (the result is replayed, bit-identically, from
the content-keyed cache), and a burst of distinct cold misses inside the
batch window must share one set of launches through the block-diagonal
batch engine instead of paying per-request.  This gate pins

1. **bit-identity first** — every served payload (cold, batched-cold, and
   warm) equals the direct solo pipeline's result exactly (permutation,
   tridiagonal bands, coverage);
2. **the warm-hit line** — a repeated ``extract`` request is served with
   0 kernel launches;
3. **the cold-burst line** — 8 concurrent cold misses complete with <= 35%
   of the total launches of 8 solo pipelines;
4. **the budget** — burst/solo launches (exact) and bytes (small tolerance)
   against ``serve_budget.json``.

Regenerate deliberately with ``REPRO_UPDATE_BUDGET=serve`` (or ``=1`` for
all budgets) after an intentional cost change, and commit the refreshed
JSON together with that change.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import extract_linear_forest
from repro.device import Device
from repro.graphs import build_matrix, random_weighted_graph, small_suite
from repro.serve import ReproServer, ServeConfig
from repro.serve.server import _extract_payload

from .conftest import bench_scale, emit, refresh_budget

pytestmark = pytest.mark.budget

BUDGET_PATH = Path(__file__).parent / "serve_budget.json"

#: The gate's acceptance line: 8 concurrent cold misses must spend at most
#: this fraction of 8 solo pipelines' launches.
LAUNCH_RATIO_LIMIT = 0.35

# Launches are exact (integer, deterministic); bytes get a small headroom so
# an unrelated accounting tweak does not flake.
BYTES_TOLERANCE = 1.02

FLEET = 8

#: Generous so every thread reliably lands inside the leader's window even
#: on a loaded CI box; the window costs wall-clock, not launches.
BATCH_WINDOW = 0.5


def _workload():
    """8 deterministic distinct graphs: suite members + random graphs."""
    members = [build_matrix(name, scale=0.25) for name in small_suite()]
    rng = np.random.default_rng(2022)
    while len(members) < FLEET:
        n = int(rng.integers(60, 400))
        members.append(random_weighted_graph(n, 4 * n, rng))
    return members[:FLEET]


def _csr_spec(a):
    return {
        "kind": "csr",
        "n": a.n_rows,
        "indptr": [int(v) for v in a.indptr],
        "indices": [int(v) for v in a.indices],
        "data": [float(v) for v in a.data],
        "dtype": str(a.data.dtype),
    }


def test_serve_budget(results_dir):
    if bench_scale() != 1.0:
        pytest.skip("budget is recorded at REPRO_BENCH_SCALE=1.0")

    graphs = _workload()
    assert len(graphs) == FLEET

    # solo baseline: 8 independent pipelines, and the expected payloads
    solo_launches = 0
    solo_bytes = 0
    expected = []
    for a in graphs:
        dev = Device()
        expected.append(_extract_payload(extract_linear_forest(a, device=dev)))
        solo_launches += dev.launch_count
        solo_bytes += dev.total_bytes("")

    # 8 concurrent cold misses through one daemon with a batch window
    device = Device()
    server = ReproServer(ServeConfig(batch_window=BATCH_WINDOW), device=device)
    barrier = threading.Barrier(FLEET)
    responses: dict = {}
    lock = threading.Lock()

    def fire(i, a):
        def _run():
            barrier.wait()
            r = server.handle_request(
                {"id": i, "op": "extract", "matrix": _csr_spec(a)}
            )
            with lock:
                responses[i] = r

        return _run

    threads = [threading.Thread(target=fire(i, a)) for i, a in enumerate(graphs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    cold_launches = device.launch_count
    cold_bytes = device.total_bytes("")

    # 1. bit-identity first: the collapse only counts between equal results
    for i in range(FLEET):
        r = responses[i]
        assert r["ok"], f"member {i}: {r.get('error')}"
        assert r["cached"] is False, f"member {i} was unexpectedly warm"
        assert r["result"] == expected[i], f"member {i} is not bit-identical"

    # 2. the warm-hit line: a repeated request costs zero launches and
    #    replays the cold payload verbatim
    device.reset()
    warm = server.handle_request({"op": "extract", "matrix": _csr_spec(graphs[0])})
    assert warm["cached"] is True
    assert device.launch_count == 0, "a cache hit must launch no kernels"
    assert warm["result"] == expected[0], "the warm hit is not bit-identical"

    # 3. the acceptance line of the cold burst
    ratio = cold_launches / solo_launches
    assert ratio <= LAUNCH_RATIO_LIMIT, (
        f"{FLEET} concurrent cold misses spent {cold_launches} launches vs "
        f"{solo_launches} solo ({100 * ratio:.1f}% > "
        f"{100 * LAUNCH_RATIO_LIMIT:.0f}%)"
    )

    measured = {
        "serve": {"launches": cold_launches, "bytes": cold_bytes},
        "solo": {"launches": solo_launches, "bytes": solo_bytes},
    }
    refresh_budget(BUDGET_PATH, "serve", measured)
    budget = json.loads(BUDGET_PATH.read_text())["budgets"]

    headers = ["run", "launches", "budget", "MB", "budget MB", "ok"]
    rows = []
    failures = []
    for name, m in measured.items():
        b = budget.get(name)
        if b is None:
            rows.append([name, m["launches"], None, m["bytes"] / 1e6, None, True])
            continue
        ok = (
            m["launches"] <= b["launches"]
            and m["bytes"] <= b["bytes"] * BYTES_TOLERANCE
        )
        rows.append([
            name, m["launches"], b["launches"],
            m["bytes"] / 1e6, b["bytes"] / 1e6, ok,
        ])
        if not ok:
            failures.append((name, m, b))

    emit(
        results_dir,
        "serve_budget",
        render_table(
            headers,
            rows,
            title=(
                f"Serve cold-burst-of-{FLEET} launch budget "
                f"(serve/solo ratio {100 * ratio:.1f}%, warm hit 0 launches)"
            ),
        ),
    )
    assert not failures, (
        "serve-daemon cost regressed beyond the stored budget "
        f"({BUDGET_PATH.name}): {failures}; if intentional, regenerate with "
        "REPRO_UPDATE_BUDGET=serve and commit the refreshed budget"
    )
