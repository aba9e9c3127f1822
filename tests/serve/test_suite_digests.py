"""A remembered suite spec keys a request without building or hashing it.

A ``suite`` matrix is a pure function of its (name, scale), so the daemon
keeps the input digest of every suite spec it has built: a hit builds no
matrix and computes no ``matrix_digest``, and only a miss's leader builds.
"""

import json
import sys
import threading

import pytest

from repro.device import Device
from repro.serve import ReproServer, ServeConfig
from repro.serve import server as server_mod


def _suite(name="aniso2", scale=0.25):
    return {"kind": "suite", "name": name, "scale": scale}


def _line(op, spec, request_id=None):
    return json.dumps({"id": request_id, "op": op, "matrix": spec})


def _result_text(line: str) -> str:
    start = line.index('"result": ') + len('"result": ')
    return line[start:json.JSONDecoder().raw_decode(line, start)[1]]


def _spans(server, request_id) -> dict:
    """Span name -> attributes of one retained request (``slow_trace_fraction=1``)."""
    record = next(t for t in server.agg.sampler.retained if t["request_id"] == request_id)
    return {s["name"]: s["attributes"] for s in record["spans"]}


@pytest.fixture
def counted(monkeypatch):
    """The suite builds and input digests the daemon computes."""
    calls = {"builds": [], "digests": 0}
    build, digest = server_mod.build_matrix, server_mod.matrix_digest

    def counted_build(name, scale=1.0):
        calls["builds"].append((name, scale))
        return build(name, scale=scale)

    def counted_digest(a):
        calls["digests"] += 1
        return digest(a)

    monkeypatch.setattr(server_mod, "build_matrix", counted_build)
    monkeypatch.setattr(server_mod, "matrix_digest", counted_digest)
    return calls


def _server(**config):
    return ReproServer(ServeConfig(slow_trace_fraction=1.0, **config))


@pytest.mark.parametrize("name", ["aniso2", "g3_circuit", "ecology1", "af_shell8"])
def test_a_hit_builds_and_hashes_nothing(name, counted):
    server = _server()
    cold = server.handle_line(_line("extract", _suite(name), "cold"))
    hits = [server.handle_line(_line("extract", _suite(name), f"hit{i}")) for i in range(3)]
    assert json.loads(cold)["cached"] is False
    assert all(json.loads(h)["cached"] is True for h in hits)
    assert {json.loads(r)["key"] for r in (cold, *hits)} == {json.loads(cold)["key"]}
    assert all(_result_text(h) == _result_text(cold) for h in hits)
    assert counted == {"builds": [(name, 0.25)], "digests": 1}
    cache = server.stats()["cache"]
    assert (cache["hits"], cache["misses"]) == (3, 1)
    # a hit's report keeps the key and the matrix size, and loads nothing
    root = _spans(server, "cold")["serve-request"]
    for i in range(3):
        spans = _spans(server, f"hit{i}")
        assert "serve-load-matrix" not in spans and "serve-fingerprint" not in spans
        hit = spans["serve-request"]
        assert [hit[k] for k in ("key", "n_vertices", "nnz")] == [
            root[k] for k in ("key", "n_vertices", "nnz")
        ]


def test_factor_and_solve_key_apart_and_build_on_their_own_miss(counted):
    server = _server()
    spec = _suite()
    digest = server.handle_request({"op": "extract", "matrix": spec})["key"].split(":")[1]
    keys = {}
    for op in ("factor", "solve"):
        before = len(counted["builds"])
        miss, hit = (server.handle_request({"op": op, "matrix": spec}) for _ in range(2))
        assert (miss["cached"], hit["cached"]) == (False, True)
        assert miss["key"] == hit["key"] and miss["key"].split(":")[:2] == [op, digest]
        assert hit["result"] == miss["result"]
        assert miss["result"] == ReproServer(ServeConfig()).handle_request(
            {"op": op, "matrix": spec}
        )["result"]
        assert len(counted["builds"]) == before + 2  # its miss, then the fresh server
        keys[op] = miss["key"]
    assert keys["factor"] != keys["solve"]
    assert counted["digests"] == 1 + 2  # the extract here, one per fresh server


def test_equal_scales_share_one_entry_and_distinct_ones_key_apart(counted):
    server = _server()
    one, one_f = (server.handle_request({"op": "extract", "matrix": _suite(scale=s)})
                  for s in (1, 1.0))
    assert one["key"] == one_f["key"] and one_f["cached"] is True
    assert counted["builds"] == [("aniso2", 1.0)]
    quarter, half = (server.handle_request({"op": "extract", "matrix": _suite(scale=s)})
                     for s in (0.25, 0.5))
    assert len({one["key"], quarter["key"], half["key"]}) == 3
    assert counted["builds"][1:] == [("aniso2", 0.25), ("aniso2", 0.5)]


@pytest.fixture(scope="module")
def known_server():
    """A daemon that knows the digest of aniso2 at scale 1."""
    server = ReproServer(ServeConfig(), device=Device("known"))
    assert server.handle_request({"op": "extract", "matrix": _suite(scale=1)})["ok"]
    return server


@pytest.mark.parametrize(
    "spec, message",
    [
        (_suite(name="nope"), "unknown suite matrix name='nope' (valid: ["),
        (_suite(scale=0), "suite matrix scale=0 is not a finite number > 0"),
        (_suite(scale=-1), "suite matrix scale=-1 is not a finite number > 0"),
        (_suite(scale=float("nan")), "suite matrix scale=nan is not a finite number > 0"),
        (_suite(scale=True), "suite matrix scale=True is not a finite number > 0"),
    ],
    ids=["name", "scale-0", "scale-negative", "scale-nan", "scale-true"],
)
def test_a_known_spec_still_refuses_a_bad_spec(known_server, spec, message, counted):
    for op in ("extract", "factor", "solve"):
        r = known_server.handle_request({"op": op, "matrix": spec})
        assert r["ok"] is False and r["error"]["type"] == "ConfigError"
        assert message in r["error"]["message"]
    assert counted == {"builds": [], "digests": 0}


def _evicted_server(counted):
    """A daemon that remembers aniso2 at 0.25 but whose result budget has
    evicted its entry for ecology1's; returns it and the cold line."""
    sizes = {
        name: len(_result_text(ReproServer(ServeConfig()).handle_line(
            _line("extract", _suite(name))
        )))
        for name in ("aniso2", "ecology1")
    }
    server = _server(cache_max_bytes=max(sizes.values()))
    cold = server.handle_line(_line("extract", _suite(), "cold"))
    server.handle_line(_line("extract", _suite("ecology1")))
    assert server.stats()["cache"]["evictions"] == 1
    del counted["builds"][:]
    return server, cold


def test_an_evicted_entry_misses_and_builds_once(counted):
    server, cold = _evicted_server(counted)
    digests = counted["digests"]
    again = server.handle_line(_line("extract", _suite(), "again"))
    assert json.loads(again)["cached"] is False
    assert json.loads(again)["key"] == json.loads(cold)["key"]
    assert _result_text(again) == _result_text(cold)
    assert counted["builds"] == [("aniso2", 0.25)]
    assert counted["digests"] == digests
    spans = _spans(server, "again")
    assert "serve-load-matrix" in spans and "serve-fingerprint" not in spans


def test_past_the_bound_the_oldest_spec_builds_again(counted, monkeypatch):
    monkeypatch.setattr(server_mod, "_SUITE_DIGESTS", 2)
    server = _server()
    first = server.handle_request({"op": "extract", "matrix": _suite(scale=0.1)})
    for scale in (0.25, 0.5):
        server.handle_request({"op": "extract", "matrix": _suite(scale=scale)})
    assert len(counted["builds"]) == 3
    # 0.1 left the map: its hit builds and digests once, then it is known again
    for _ in range(2):
        r = server.handle_request({"op": "extract", "matrix": _suite(scale=0.1)})
        assert r["cached"] is True and r["key"] == first["key"]
        assert r["result"] == first["result"]
    assert counted["builds"][3:] == [("aniso2", 0.1)]
    assert counted["digests"] == 4


def test_followers_of_an_evicted_spec_coalesce_on_one_build(counted, monkeypatch):
    server, cold = _evicted_server(counted)
    # the leader's run waits until both followers wait on its in-flight
    # entry, as in tests/serve/test_concurrency.py
    parked = threading.Semaphore(0)

    class ParkingEvent(threading.Event):
        def wait(self, timeout=None):
            parked.release()
            return super().wait(timeout)

    class ParkingWaiter(server_mod._Waiter):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.event = ParkingEvent()

    runs = []
    run_solo = server._run_solo

    def held_run_solo(*args):
        runs.append(args[0])
        for _ in range(2):
            parked.acquire(timeout=30)
        return run_solo(*args)

    monkeypatch.setattr(server_mod, "_Waiter", ParkingWaiter)
    monkeypatch.setattr(server, "_run_solo", held_run_solo)
    barrier = threading.Barrier(3)
    lines = []
    lock = threading.Lock()

    def fire():
        barrier.wait()
        line = server.handle_line(_line("extract", _suite()))
        with lock:
            lines.append(line)

    threads = [threading.Thread(target=fire) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert sorted(json.loads(line)["cached"] for line in lines) == [False, True, True]
    assert all(_result_text(line) == _result_text(cold) for line in lines)
    assert counted["builds"] == [("aniso2", 0.25)]
    assert runs == ["extract"]
    assert server.metrics.counters["serve.coalesced"].value == 2


def test_a_restarted_daemon_hits_the_persisted_entry_after_one_build(tmp_path, counted):
    path = tmp_path / "results.json"
    first = ReproServer(ServeConfig(result_cache_path=path))
    cold = first.handle_line(_line("extract", _suite()))
    first.shutdown()
    second = ReproServer(ServeConfig(result_cache_path=path))
    hits = [second.handle_line(_line("extract", _suite())) for _ in range(2)]
    assert all(json.loads(h)["cached"] is True for h in hits)
    assert all(json.loads(h)["key"] == json.loads(cold)["key"] for h in hits)
    assert all(_result_text(h) == _result_text(cold) for h in hits)
    assert counted["builds"] == [("aniso2", 0.25)] * 2  # once per daemon


def test_concurrent_specs_past_the_bound_keep_their_keys(monkeypatch):
    """Eight threads cycle through more specs than the map holds, with a
    short switch interval: every answer keys and reads as a lone request
    for its spec does, and the map never outgrows its bound."""
    monkeypatch.setattr(server_mod, "_SUITE_DIGESTS", 2)
    specs = [_suite(name, scale) for name in ("aniso2", "ecology1") for scale in (0.1, 0.2, 0.3)]
    expected = []
    for spec in specs:
        r = ReproServer(ServeConfig()).handle_request({"op": "extract", "matrix": spec})
        expected.append((r["key"], r["result"]))
    server = ReproServer(ServeConfig())
    answers, lock = [], threading.Lock()

    def client(t):
        for i in range(3 * len(specs)):
            k = (t + i) % len(specs)
            r = server.handle_request({"op": "extract", "matrix": specs[k]})
            with lock:
                answers.append((k, r["ok"], r["key"], r["result"]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(answers) == 8 * 3 * len(specs)
    for k, ok, key, result in answers:
        assert ok and (key, result) == expected[k]
    assert len(server._suites) <= 2
