"""The serve ``update`` op: warm delta refreshes of cached extractions."""

import threading
import time

import pytest

from repro.errors import ConfigError
from repro.core.delta import EditBatch, apply_edits_to_matrix
from repro.graphs import aniso1, aniso2
from repro.serve import ReproServer, ServeConfig
from repro.serve import server as server_mod

# a 64x64 grid keeps the invalidation ball (radius 19) of a corner edit
# under the region cutoff, so warm updates exercise the true delta path
EDITS = [
    {"u": 3, "v": 7, "w": 0.25},
    {"u": 10, "v": 11, "delete": True},
]


def _csr_spec(a):
    return {
        "kind": "csr",
        "n": a.n_rows,
        "indptr": [int(v) for v in a.indptr],
        "indices": [int(v) for v in a.indices],
        "data": [float(v) for v in a.data],
        "dtype": str(a.data.dtype),
    }


def _fire_together(server, requests):
    """Send ``requests`` from barrier-synchronized threads; the responses."""
    barrier = threading.Barrier(len(requests))
    responses = []
    lock = threading.Lock()

    def fire(request):
        barrier.wait()
        response = server.handle_request(request)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=fire, args=(r,)) for r in requests]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return responses


@pytest.fixture
def matrix():
    return aniso2(64)


@pytest.fixture
def server():
    return ReproServer(ServeConfig())


def test_warm_update_runs_the_delta_engine(server, matrix):
    cold = server.handle_request(
        {"op": "extract", "id": 1, "matrix": _csr_spec(matrix)}
    )
    resp = server.handle_request(
        {"op": "update", "id": 2, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    assert resp["ok"] and resp["op"] == "update" and not resp["cached"]
    assert resp["delta"]["warm"] is True
    stats = resp["delta"]["stats"]
    assert stats["fallback"] is None
    assert 0 < stats["region_vertices"] < matrix.n_rows
    # warm refresh is metered: a handful of fused launches, a small
    # fraction of the cold run's bytes
    assert resp["report"]["serve"]["launches"] == 4
    assert resp["report"]["serve"]["bytes"] < cold["report"]["serve"]["bytes"] / 2
    # the delta engine's counters land in the per-request report
    counters = resp["report"]["metrics"]["counters"]
    assert counters["delta.edits"] == len(EDITS)


def test_update_payload_matches_a_cold_extract_of_the_edited_matrix(
    server, matrix
):
    server.handle_request({"op": "extract", "id": 1, "matrix": _csr_spec(matrix)})
    resp = server.handle_request(
        {"op": "update", "id": 2, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    edited = apply_edits_to_matrix(matrix, EditBatch.from_dicts(EDITS))
    cold = ReproServer(ServeConfig()).handle_request(
        {"op": "extract", "id": 3, "matrix": _csr_spec(edited)}
    )
    assert resp["result"] == cold["result"]


def test_update_patches_the_extract_entry_of_the_edited_matrix(server, matrix):
    server.handle_request({"op": "extract", "id": 1, "matrix": _csr_spec(matrix)})
    upd = server.handle_request(
        {"op": "update", "id": 2, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    # a later plain extract of the edited matrix is a zero-launch hit
    edited = apply_edits_to_matrix(matrix, EditBatch.from_dicts(EDITS))
    hit = server.handle_request(
        {"op": "extract", "id": 3, "matrix": _csr_spec(edited)}
    )
    assert hit["cached"] is True
    assert hit["key"] == upd["key"]
    assert hit["result"] == upd["result"]
    assert hit["report"]["serve"]["launches"] == 0
    # and a repeat of the same update is a hit too, with no delta section
    again = server.handle_request(
        {"op": "update", "id": 4, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    assert again["cached"] is True and again["delta"] is None


def test_cold_update_falls_back_to_full_extraction(matrix):
    # warm_results=0 disables the warm store entirely
    server = ReproServer(ServeConfig(warm_results=0))
    server.handle_request({"op": "extract", "id": 1, "matrix": _csr_spec(matrix)})
    resp = server.handle_request(
        {"op": "update", "id": 2, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    assert resp["ok"] and not resp["cached"]
    assert resp["delta"] == {"warm": False, "stats": None}
    edited = apply_edits_to_matrix(matrix, EditBatch.from_dicts(EDITS))
    cold = ReproServer(ServeConfig()).handle_request(
        {"op": "extract", "id": 3, "matrix": _csr_spec(edited)}
    )
    assert resp["result"] == cold["result"]
    assert server.metrics.as_dict()["counters"]["serve.delta.cold"] == 1


def test_chained_updates_stay_warm(server, matrix):
    server.handle_request({"op": "extract", "id": 1, "matrix": _csr_spec(matrix)})
    first = server.handle_request(
        {"op": "update", "id": 2, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    assert first["delta"]["warm"] is True
    # the update seeded the edited matrix's warm entry: editing it again
    # runs the delta engine off the refreshed result, not from scratch
    edited = apply_edits_to_matrix(matrix, EditBatch.from_dicts(EDITS))
    more = [{"u": 100, "v": 101, "w": 3.5}]
    second = server.handle_request(
        {"op": "update", "id": 3, "matrix": _csr_spec(edited), "edits": more}
    )
    assert second["delta"]["warm"] is True
    assert server.metrics.as_dict()["counters"]["serve.delta.warm"] == 2


def test_identical_updates_coalesce_into_one_refresh(server, matrix, monkeypatch):
    server.handle_request({"op": "extract", "id": 1, "matrix": _csr_spec(matrix)})
    calls = []
    real = server_mod.apply_edits

    def slow(*args, **kwargs):
        calls.append(1)
        time.sleep(0.2)  # let the identical update park on the waiter
        return real(*args, **kwargs)

    monkeypatch.setattr(server_mod, "apply_edits", slow)
    request = {"op": "update", "matrix": _csr_spec(matrix), "edits": EDITS}
    responses = _fire_together(server, [dict(request), dict(request)])
    assert len(calls) == 1
    leader, follower = sorted(responses, key=lambda r: r["cached"])
    assert [leader["cached"], follower["cached"]] == [False, True]
    assert leader["delta"]["warm"] is True
    # the follower did no refresh of its own: a hit's shape, no delta
    assert follower["delta"] is None
    assert follower["result"] == leader["result"]
    assert server.metrics.counters["serve.coalesced"].value == 1


def test_batch_window_members_seed_the_warm_store(matrix):
    server = ReproServer(ServeConfig(batch_window=0.25))
    responses = _fire_together(server, [
        {"op": "extract", "matrix": _csr_spec(matrix)},
        {"op": "extract", "matrix": _csr_spec(aniso1(24))},
    ])
    assert all(r["ok"] and r["cached"] is False for r in responses)
    assert server.metrics.counters["serve.batched_runs"].value == 1
    resp = server.handle_request(
        {"op": "update", "id": 3, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    assert resp["delta"]["warm"] is True
    edited = apply_edits_to_matrix(matrix, EditBatch.from_dicts(EDITS))
    cold = ReproServer(ServeConfig()).handle_request(
        {"op": "extract", "id": 4, "matrix": _csr_spec(edited)}
    )
    assert resp["result"] == cold["result"]


def test_warm_store_is_a_bounded_lru(matrix):
    server = ReproServer(ServeConfig(warm_results=1))
    server.handle_request({"op": "extract", "id": 1, "matrix": _csr_spec(matrix)})
    other = aniso2(16)
    server.handle_request({"op": "extract", "id": 2, "matrix": _csr_spec(other)})
    # the second extract evicted the first matrix's warm entry: its update
    # runs warm, the first matrix's runs cold
    resp = server.handle_request(
        {"op": "update", "id": 3, "matrix": _csr_spec(other), "edits": EDITS}
    )
    assert resp["delta"]["warm"] is True
    resp2 = server.handle_request(
        {"op": "update", "id": 4, "matrix": _csr_spec(matrix), "edits": EDITS}
    )
    assert resp2["delta"]["warm"] is False


def test_update_config_must_match_the_extract_spelling(server, matrix):
    server.handle_request(
        {"op": "extract", "id": 1, "matrix": _csr_spec(matrix),
         "config": {"iterations": 6}}
    )
    # same canonical config -> warm; different -> the warm key misses
    warm = server.handle_request(
        {"op": "update", "id": 2, "matrix": _csr_spec(matrix), "edits": EDITS,
         "config": {"iterations": 6.0}}
    )
    assert warm["delta"]["warm"] is True
    cold = server.handle_request(
        {"op": "update", "id": 3, "matrix": _csr_spec(matrix), "edits": EDITS,
         "config": {"iterations": 7}}
    )
    assert cold["delta"]["warm"] is False


def test_malformed_edits_are_a_request_error(server, matrix):
    resp = server.handle_request(
        {"op": "update", "id": 1, "matrix": _csr_spec(matrix),
         "edits": [{"u": 1, "v": 2, "weight": 0.5}]}
    )
    assert resp["ok"] is False
    assert resp["error"]["type"] == "ConfigError"
    assert "unknown keys" in resp["error"]["message"]
    # the daemon survives: a good request still works
    assert server.handle_request({"op": "ping"})["ok"] is True


def test_unknown_op_error_lists_update(server):
    resp = server.handle_request({"op": "nope"})
    assert "update" in resp["error"]["message"]


def test_update_rejects_unknown_config_keys(server, matrix):
    resp = server.handle_request(
        {"op": "update", "id": 1, "matrix": _csr_spec(matrix), "edits": EDITS,
         "config": {"typo": 1}}
    )
    assert resp["ok"] is False
    assert "'update'" in resp["error"]["message"]


def test_warm_results_cannot_be_negative():
    with pytest.raises(ConfigError, match="warm_results"):
        ServeConfig(warm_results=-1)
