"""Regression gate: tuned compaction policies never lose to static adaptive.

The autotuner (:mod:`repro.tune`) records one run per workload, replays every
candidate policy over the decision log, and persists per-fingerprint
recommendations that ``--compaction auto`` resolves with zero user input.
This gate pins the end-to-end contract on the tuning workloads (the
representative small suite plus ``slow_frontier``):

1. **the acceptance line** — under ``auto`` (resolved through a freshly
   tuned cache), measured factor+scan bytes *and* gather traffic are at or
   below the static ``adaptive`` default on every workload;
2. **bit-identity** — ``auto`` still reproduces the paper-exact reference
   factor exactly, whatever policy the cache recommends;
3. **non-vacuity** — at least one workload's recommendation differs from
   ``adaptive``, so the gate keeps exercising the cache-hit path;
4. **the budget** — per-workload bytes (small tolerance) and gather traffic
   (exact) against ``tune_budget.json``.

Regenerate deliberately with ``REPRO_UPDATE_BUDGET=tune`` (or ``=1`` for all
budgets) after an intentional cost change, and commit the refreshed JSON
together with that change.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import render_table
from repro.core import parallel_factor
from repro.core.ablations import reference_parallel_factor
from repro.core.cycles import labelled_pass
from repro.core.scan import BidirectionalScan
from repro.device import Device
from repro.graphs import tuning_workloads
from repro.sparse import prepare_graph
from repro.tune import TUNING_SCHEMA, tune_suite

from .conftest import bench_scale, emit, refresh_budget

pytestmark = pytest.mark.budget

BUDGET_PATH = Path(__file__).parent / "tune_budget.json"

# Gather traffic is exact (integer, deterministic); bytes get a small
# headroom so an unrelated accounting tweak does not flake.
BYTES_TOLERANCE = 1.02

#: The kernels whose traffic the gate compares (both engines consult the
#: tuned policy: the factor phase and the fused cycle-identification scan).
FACTOR_KERNELS = ("charge", "propose", "mutualize")
SCAN_PREFIX = "bidirectional-scan"


def _measure(graph, spec):
    """One metered factor + fused-scan run; mirrors the tuner's meter."""
    device = Device()
    result = parallel_factor(graph, device=device, compaction=spec)
    scan = BidirectionalScan(result.factor, device=device, compaction=spec)
    scan_result = scan.run(labelled_pass(), graph)
    nbytes = sum(device.total_bytes(prefix) for prefix in FACTOR_KERNELS)
    nbytes += device.total_bytes(SCAN_PREFIX)
    gather = sum(d.gather_bytes for d in result.compaction_decisions if d.compact)
    gather += sum(d.gather_bytes for d in scan_result.compaction_decisions if d.compact)
    return result, {"bytes": int(nbytes), "gather_bytes": int(gather)}


def test_tune_budget(results_dir, tmp_path, monkeypatch):
    if bench_scale() != 1.0:
        pytest.skip("budget is recorded at REPRO_BENCH_SCALE=1.0")

    # Tune every workload into a fresh versioned cache, then point the
    # "auto" resolver at it the way a user would (REPRO_TUNING_CACHE).
    cache_path = tmp_path / "tuning.json"
    cache, tunings = tune_suite(scale=1.0, path=cache_path)
    payload = json.loads(cache_path.read_text())
    assert payload["schema"] == TUNING_SCHEMA
    assert len(payload["entries"]) == len(tunings)
    monkeypatch.setenv("REPRO_TUNING_CACHE", str(cache_path))

    workloads = tuning_workloads()
    measured = {}
    for tuning in tunings:
        graph = prepare_graph(workloads[tuning.name](1.0))
        auto_result, auto = _measure(graph, "auto")
        adaptive_result, adaptive = _measure(graph, "adaptive")

        # 2. bit-identity first: costs are only comparable between equal results
        ref = reference_parallel_factor(graph)
        assert auto_result.factor == ref.factor, tuning.name
        assert adaptive_result.factor == ref.factor, tuning.name

        # 1. the acceptance line: auto dominates static adaptive on both axes
        assert auto["bytes"] <= adaptive["bytes"], (tuning.name, auto, adaptive)
        assert auto["gather_bytes"] <= adaptive["gather_bytes"], (
            tuning.name,
            auto,
            adaptive,
        )

        measured[tuning.name] = {
            "policy": tuning.recommended,
            "bytes": auto["bytes"],
            "gather_bytes": auto["gather_bytes"],
            "adaptive_bytes": adaptive["bytes"],
            "adaptive_gather_bytes": adaptive["gather_bytes"],
        }

    # 3. the cache-hit path stays exercised: tuning still finds real wins
    assert any(m["policy"] != "adaptive" for m in measured.values()), measured
    assert any(m["bytes"] < m["adaptive_bytes"] for m in measured.values()), measured

    refresh_budget(BUDGET_PATH, "tune", measured)
    budget = json.loads(BUDGET_PATH.read_text())["budgets"]

    headers = [
        "workload", "policy", "MB", "budget MB",
        "gather MB", "budget gather MB", "vs adaptive MB", "ok",
    ]
    rows = []
    failures = []
    for name, m in measured.items():
        b = budget.get(name)
        saved = (m["adaptive_bytes"] - m["bytes"]) / 1e6
        if b is None:
            rows.append([
                name, m["policy"], m["bytes"] / 1e6, None,
                m["gather_bytes"] / 1e6, None, saved, True,
            ])
            continue
        ok = (
            m["bytes"] <= b["bytes"] * BYTES_TOLERANCE
            and m["gather_bytes"] <= b["gather_bytes"] * BYTES_TOLERANCE
        )
        rows.append([
            name, m["policy"], m["bytes"] / 1e6, b["bytes"] / 1e6,
            m["gather_bytes"] / 1e6, b["gather_bytes"] / 1e6, saved, ok,
        ])
        if not ok:
            failures.append((name, m, b))

    emit(
        results_dir,
        "tune_budget",
        render_table(
            headers,
            rows,
            title="Autotuned compaction vs static adaptive (factor + fused scan)",
        ),
    )
    assert not failures, (
        "autotuned compaction cost regressed beyond the stored budget "
        f"({BUDGET_PATH.name}): {failures}; if intentional, regenerate with "
        "REPRO_UPDATE_BUDGET=tune and commit the refreshed budget"
    )
