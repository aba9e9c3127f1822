"""Concurrency behavior: coalescing, window batching, graceful shutdown."""

import threading
import time

from repro.device import Device
from repro.graphs import aniso1, aniso2, aniso3
from repro.serve import ReproServer, ServeConfig
from repro.serve import server as server_mod


def _csr_spec(a):
    return {
        "kind": "csr",
        "n": a.n_rows,
        "indptr": [int(v) for v in a.indptr],
        "indices": [int(v) for v in a.indices],
        "data": [float(v) for v in a.data],
        "dtype": str(a.data.dtype),
    }


def _run_threads(targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_simultaneous_identical_requests_share_one_pipeline_run():
    device = Device("coalesce")
    server = ReproServer(ServeConfig(), device=device)
    a = aniso2(16)
    req = {"op": "extract", "matrix": _csr_spec(a)}

    solo = ReproServer(ServeConfig(), device=Device("solo"))
    solo.handle_request(req)
    solo_launches = solo.device.launch_count

    barrier = threading.Barrier(3)
    responses = []
    lock = threading.Lock()

    def fire():
        barrier.wait()
        r = server.handle_request(dict(req))
        with lock:
            responses.append(r)

    _run_threads([fire] * 3)

    assert all(r["ok"] for r in responses)
    # one pipeline run total: the leader's launches, nothing more
    assert device.launch_count == solo_launches
    # one miss, the two coalesced followers count as hits
    cached = sorted(r["cached"] for r in responses)
    assert cached == [False, True, True]
    assert server.metrics.counters["serve.cache.miss"].value == 1
    assert server.metrics.counters["serve.cache.hit"].value == 2
    assert server.metrics.counters["serve.coalesced"].value == 2
    # every response replays the same payload
    assert responses[0]["result"] == responses[1]["result"] == responses[2]["result"]


def test_coalesced_launches_are_attributed_to_the_leader_alone(monkeypatch):
    # per-request attribution under concurrency: the leader's report carries
    # a solo run's launches, and each follower's carries none
    a = aniso2(16)
    req = {"op": "extract", "matrix": _csr_spec(a)}
    solo = ReproServer(ServeConfig()).handle_request(dict(req))
    solo_launches = solo["report"]["serve"]["launches"]
    assert solo_launches > 0

    server = ReproServer(ServeConfig())
    real = server_mod.extract_linear_forest

    def slow(*args, **kwargs):
        time.sleep(0.2)  # let the identical requests park on the waiter
        return real(*args, **kwargs)

    monkeypatch.setattr(server_mod, "extract_linear_forest", slow)
    barrier = threading.Barrier(3)
    responses = []
    lock = threading.Lock()

    def fire():
        barrier.wait()
        r = server.handle_request(dict(req))
        with lock:
            responses.append(r)

    _run_threads([fire] * 3)
    leader, *followers = sorted(responses, key=lambda r: r["cached"])
    assert [r["cached"] for r in (leader, *followers)] == [False, True, True]
    assert leader["report"]["serve"]["launches"] == solo_launches
    assert [r["report"]["serve"]["launches"] for r in followers] == [0, 0]


def test_distinct_cold_misses_inside_the_window_share_one_set_of_launches():
    device = Device("window")
    server = ReproServer(ServeConfig(batch_window=0.25), device=device)
    graphs = [aniso1(12), aniso2(12), aniso3(12)]

    solo_launches = 0
    for a in graphs:
        solo = ReproServer(ServeConfig(), device=Device("solo"))
        solo.handle_request({"op": "extract", "matrix": _csr_spec(a)})
        solo_launches += solo.device.launch_count

    barrier = threading.Barrier(3)
    responses = []
    lock = threading.Lock()

    def fire(i, a):
        def _run():
            barrier.wait()
            r = server.handle_request(
                {"id": i, "op": "extract", "matrix": _csr_spec(a)}
            )
            with lock:
                responses.append(r)

        return _run

    _run_threads([fire(i, a) for i, a in enumerate(graphs)])

    assert all(r["ok"] for r in responses)
    assert all(r["cached"] is False for r in responses)
    # the window packed all three into one block-diagonal pipeline run
    assert server.metrics.counters["serve.batched_runs"].value == 1
    sizes = server.metrics.histograms["serve.batch.size"]
    assert sizes.count == 3 and sizes.max == 3
    # far fewer launches than three solo runs (the whole point of batching)
    assert device.launch_count < solo_launches
    # and every member is bit-identical to its solo run
    by_id = {r["id"]: r for r in responses}
    for i, a in enumerate(graphs):
        solo = ReproServer(ServeConfig(), device=Device("check"))
        expected = solo.handle_request({"op": "extract", "matrix": _csr_spec(a)})
        assert by_id[i]["result"] == expected["result"]


def test_batch_members_with_different_configs_do_not_mix():
    server = ReproServer(ServeConfig(batch_window=0.2), device=Device("mixed"))
    a = aniso2(12)
    barrier = threading.Barrier(2)
    responses = []
    lock = threading.Lock()

    def fire(seed):
        def _run():
            barrier.wait()
            r = server.handle_request(
                {"op": "extract", "matrix": _csr_spec(a), "config": {"seed": seed}}
            )
            with lock:
                responses.append(r)

        return _run

    _run_threads([fire(0), fire(7)])
    assert all(r["ok"] for r in responses)
    # different config digests land in different groups: no batched run
    assert "serve.batched_runs" not in server.metrics.counters
    sizes = server.metrics.histograms["serve.batch.size"]
    assert sizes.max == 1


def test_failed_leader_propagates_to_coalesced_followers(monkeypatch):
    server = ReproServer(ServeConfig(), device=Device("fail"))
    a = aniso2(12)

    calls = []

    def boom(*args, **kwargs):
        calls.append(1)
        time.sleep(0.2)  # let the identical request park on the waiter
        raise RuntimeError("injected pipeline failure")

    monkeypatch.setattr(server_mod, "extract_linear_forest", boom)
    barrier = threading.Barrier(2)
    responses = []
    lock = threading.Lock()

    def fire():
        barrier.wait()
        r = server.handle_request({"op": "extract", "matrix": _csr_spec(a)})
        with lock:
            responses.append(r)

    _run_threads([fire] * 2)
    assert len(calls) == 1  # the followers did not retry the broken run
    assert all(r["ok"] is False for r in responses)
    assert all("injected" in r["error"]["message"] for r in responses)
    # a failed run must not poison the cache
    assert len(server.cache) == 0
    assert server.handle_request({"op": "stats"})["stats"]["cache"]["entries"] == 0


def test_shutdown_mid_request_drains_cleanly(monkeypatch, tmp_path):
    path = tmp_path / "results.json"
    server = ReproServer(
        ServeConfig(result_cache_path=path), device=Device("drain")
    )
    a = aniso2(12)

    started = threading.Event()
    release = threading.Event()
    real = server_mod.extract_linear_forest

    def slow(*args, **kwargs):
        started.set()
        assert release.wait(timeout=10)
        return real(*args, **kwargs)

    monkeypatch.setattr(server_mod, "extract_linear_forest", slow)

    responses = []

    def fire():
        responses.append(
            server.handle_request({"op": "extract", "matrix": _csr_spec(a)})
        )

    worker = threading.Thread(target=fire)
    worker.start()
    assert started.wait(timeout=10)

    shut = threading.Thread(target=server.shutdown)
    shut.start()
    # shutdown must be draining, not killing: the request is still in flight
    shut.join(timeout=0.2)
    assert shut.is_alive()
    assert not path.exists()

    release.set()
    worker.join(timeout=10)
    shut.join(timeout=10)
    assert not shut.is_alive()

    # the drained request completed normally and its result was persisted
    assert responses[0]["ok"] and responses[0]["cached"] is False
    assert path.exists()
    assert server.handle_request({"op": "shutdown"})["ok"]  # idempotent
    late = server.handle_request({"op": "extract", "matrix": _csr_spec(a)})
    assert late["ok"] is False and "shutting down" in late["error"]["message"]


def test_serve_forever_round_trips_a_stream():
    import io
    import json

    server = ReproServer(ServeConfig(max_workers=2), device=Device("stream"))
    a = aniso2(12)
    lines = [
        json.dumps({"id": 1, "op": "ping"}),
        json.dumps({"id": 2, "op": "extract", "matrix": _csr_spec(a)}),
        json.dumps({"id": 3, "op": "extract", "matrix": _csr_spec(a)}),
        "{not json",
        json.dumps({"id": 4, "op": "shutdown"}),
    ]
    out = io.StringIO()
    server.serve_forever(io.StringIO("\n".join(lines) + "\n"), out)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    by_id = {r.get("id"): r for r in responses}
    assert by_id[1]["ok"] and by_id[1]["op"] == "ping"
    assert by_id[2]["ok"] and by_id[3]["ok"]
    assert by_id[2]["result"] == by_id[3]["result"]
    assert by_id[4]["ok"] and by_id[4]["op"] == "shutdown"
    assert by_id[None]["ok"] is False  # the junk line got an error response
    # the identical pair produced exactly one pipeline run
    assert server.metrics.counters["serve.cache.miss"].value == 1
    assert server.metrics.counters["serve.cache.hit"].value == 1
