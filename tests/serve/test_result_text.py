"""The result cache stores canonical JSON text, and response lines carry it.

A miss encodes its payload once; the cache keeps that text, persists it and
every response line (the miss, a hit, a coalesced follower, a hit from a
restarted daemon) writes it in as the ``result``.  ``handle_request``
decodes a fresh dict from it, so no caller can change a later answer.
"""

import io
import json
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.device import Device
from repro.graphs import aniso2
from repro.serve import ReproServer, ServeConfig
from repro.serve import server as server_mod

DATA = Path(__file__).parent / "data"

EDITS = [{"u": 3, "v": 7, "w": 0.25}, {"u": 10, "v": 11, "delete": True}]

#: op -> (the server-module function its cold run calls, the request's extras)
OPS = {
    "extract": ("extract_linear_forest", {}),
    "factor": ("parallel_factor", {"config": {"n": 2}}),
    "solve": ("bicgstab", {"config": {"preconditioner": "jacobi"}}),
    "update": ("apply_edits", {"edits": EDITS}),
}


def _csr_spec(a):
    return {
        "kind": "csr",
        "n": a.n_rows,
        "indptr": a.indptr.tolist(),
        "indices": a.indices.tolist(),
        "data": a.data.tolist(),
        "dtype": str(a.data.dtype),
    }


def _result_span(line: str) -> tuple[int, int]:
    """Where a response line's ``result`` value starts and ends."""
    start = line.index('"result": ') + len('"result": ')
    return start, json.JSONDecoder().raw_decode(line, start)[1]


def _result_text(line: str) -> str:
    start, end = _result_span(line)
    return line[start:end]


def _envelope_is_plain_json(line: str) -> bool:
    """The line outside its result is exactly ``json.dumps`` of the rest."""
    start, end = _result_span(line)
    return line[:start] + "null" + line[end:] == json.dumps(
        dict(json.loads(line), result=None)
    )


def _slowed(monkeypatch, name):
    """Make the cold run sleep, so an identical request parks on its waiter."""
    real = getattr(server_mod, name)

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(server_mod, name, slow)


def _together(send, requests):
    barrier = threading.Barrier(len(requests))
    out, lock = [], threading.Lock()

    def fire(request):
        barrier.wait()
        response = send(request)
        with lock:
            out.append(response)

    threads = [threading.Thread(target=fire, args=(r,)) for r in requests]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return out


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_line_of_one_key_carries_the_same_result_text(op, tmp_path, monkeypatch):
    # a 64-grid keeps the update's invalidation ball under the cutoff
    matrix = aniso2(64) if op == "update" else aniso2(16)
    path = tmp_path / "results.json"
    server = ReproServer(ServeConfig(result_cache_path=path))
    function, extras = OPS[op]
    request = {"op": op, "matrix": _csr_spec(matrix), **extras}
    line = json.dumps(request)
    if op == "update":
        server.handle_request({"op": "extract", "matrix": _csr_spec(matrix)})

    _slowed(monkeypatch, function)
    miss, follower = sorted(
        _together(server.handle_line, [line, line]),
        key=lambda out: json.loads(out)["cached"],
    )
    monkeypatch.undo()
    assert json.loads(miss)["cached"] is False
    assert json.loads(follower)["cached"] is True
    assert server.metrics.counters["serve.coalesced"].value == 1
    if op == "update":
        assert json.loads(miss)["delta"]["warm"] is True
    hit = server.handle_line(line)
    assert json.loads(hit)["cached"] is True
    as_dict = server.handle_request(request)["result"]
    server.handle_request({"op": "shutdown"})

    restarted = ReproServer(ServeConfig(result_cache_path=path), device=Device("restart"))
    replay = restarted.handle_line(line)
    assert json.loads(replay)["cached"] is True
    assert restarted.device.launch_count == 0

    texts = [_result_text(out) for out in (miss, follower, hit, replay)]
    assert texts[1:] == texts[:1] * 3
    assert json.loads(texts[0]) == as_dict
    assert all(_envelope_is_plain_json(out) for out in (miss, follower, hit, replay))


def test_a_miss_encodes_once_and_a_hit_writes_the_stored_text(monkeypatch):
    calls = []
    real = server_mod.canonical_json
    monkeypatch.setattr(
        server_mod, "canonical_json", lambda payload: calls.append(1) or real(payload)
    )
    server = ReproServer(ServeConfig())
    line = json.dumps({"op": "extract", "matrix": _csr_spec(aniso2(12))})
    miss = server.handle_line(line)
    assert len(calls) == 1
    hit = server.handle_line(line)
    assert len(calls) == 1
    stored = server.cache.get_text(json.loads(hit)["key"])
    assert _result_text(hit) == _result_text(miss) == stored
    assert stored == real(json.loads(stored))


def test_serve_forever_writes_the_same_lines_as_handle_line():
    matrix = aniso2(12)
    lines = [
        json.dumps({"id": i, "op": op, "matrix": _csr_spec(matrix)})
        for i, op in enumerate(["extract", "extract", "factor", "factor"])
    ]
    out = io.StringIO()
    streamed = ReproServer(ServeConfig(max_workers=1))
    streamed.serve_forever(io.StringIO("\n".join(lines) + "\n"), out)
    written = out.getvalue().splitlines()
    direct = ReproServer(ServeConfig())
    expected = [direct.handle_line(line) for line in lines]
    assert [json.loads(w)["cached"] for w in written] == [False, True, False, True]
    assert [_result_text(w) for w in written] == [_result_text(e) for e in expected]
    assert all(_envelope_is_plain_json(w) for w in written)


def test_a_dict_result_belongs_to_its_caller(tmp_path, monkeypatch):
    path = tmp_path / "results.json"
    server = ReproServer(ServeConfig(result_cache_path=path))
    request = {"op": "extract", "matrix": _csr_spec(aniso2(16))}
    cold = server.handle_request(request)
    original = json.loads(json.dumps(cold["result"]))
    cold["result"]["coverage"] = -1.0
    cold["result"]["perm"][0] = -1
    hit = server.handle_request(request)
    assert hit["cached"] is True and hit["result"] == original
    hit["result"]["n_paths"] = -5
    hit["result"]["bands"]["d"].append(99.0)

    assert server.handle_request(request)["result"] == original
    assert json.loads(server.handle_line(json.dumps(request)))["result"] == original
    server.handle_request({"op": "shutdown"})
    assert ReproServer(ServeConfig(result_cache_path=path)).handle_request(request)[
        "result"
    ] == original

    # a coalesced follower gets a dict of its own, not the leader's
    fresh = ReproServer(ServeConfig())
    _slowed(monkeypatch, "extract_linear_forest")
    leader, follower = sorted(
        _together(fresh.handle_request, [dict(request), dict(request)]),
        key=lambda r: r["cached"],
    )
    assert [leader["cached"], follower["cached"]] == [False, True]
    assert follower["result"] == leader["result"] == original
    assert follower["result"] is not leader["result"]


def test_a_payload_over_the_budget_is_answered_and_not_stored():
    server = ReproServer(ServeConfig(cache_max_bytes=64))
    line = json.dumps({"op": "extract", "matrix": _csr_spec(aniso2(8))})
    first, second = server.handle_line(line), server.handle_line(line)
    assert [json.loads(out)["cached"] for out in (first, second)] == [False, False]
    assert _result_text(first) == _result_text(second)
    assert len(server.cache) == 0 and server.cache.total_bytes == 0


def _fixture_requests():
    """The requests whose answers ``data/results_v2.json`` holds.

    The document was written by ``ResultCache.save`` while entries were
    payload dicts, so its payload keys are in insertion order, not sorted:
    a daemon answered these requests, then shut down.
    """
    a = aniso2(8)
    return [
        {"op": "extract", "matrix": _csr_spec(a)},
        {"op": "extract", "matrix": _csr_spec(a.astype("float32"))},
        {"op": "factor", "matrix": _csr_spec(a), "config": {"n": 2}},
        {"op": "solve", "matrix": _csr_spec(a)},
        {"op": "update", "matrix": _csr_spec(a), "edits": EDITS},
    ]


def test_a_dict_entry_document_loads_and_answers_the_cold_payloads(tmp_path):
    path = tmp_path / "results.json"
    shutil.copy(DATA / "results_v2.json", path)
    loaded = ReproServer(ServeConfig(result_cache_path=path), device=Device("loaded"))
    assert len(loaded.cache) == 5
    for request in _fixture_requests():
        line = json.dumps(request)
        hit = loaded.handle_line(line)
        assert json.loads(hit)["cached"] is True, request["op"]
        cold = ReproServer(ServeConfig()).handle_line(line)
        assert json.loads(cold)["cached"] is False
        assert json.loads(hit)["result"] == json.loads(cold)["result"], request["op"]
        # reloading re-encoded the payload canonically: the same text a miss writes
        assert _result_text(hit) == _result_text(cold), request["op"]
    assert loaded.device.launch_count == 0
