"""The daemon refuses request values of the wrong kind instead of converting
them, and a failed batch window answers every member and stores nothing."""

import threading

import pytest

from repro.device import Device
from repro.graphs import aniso1, aniso2
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


_PAIR = {"kind": "csr", "n": 2, "indptr": [0, 1, 2], "indices": [1, 0], "data": [2.0, 2.0]}
_SUITE = {"kind": "suite", "name": "aniso2", "scale": 0.1}

#: (case id, op, config, matrix, a fragment of the error message)
REFUSED = [
    ("iterations-5.7", "extract", {"iterations": 5.7}, _SUITE, "iterations=5.7"),
    ("iterations-true", "extract", {"iterations": True}, _SUITE, "iterations=True"),
    ("iterations-str", "extract", {"iterations": "7"}, _SUITE, "iterations='7'"),
    ("p-true", "extract", {"p": True}, _SUITE, "p=True"),
    ("merged_scan-int", "extract", {"merged_scan": 1}, _SUITE, "merged_scan=1"),
    ("tol-false", "solve", {"tol": False}, _SUITE, "tol=False"),
    ("tol-nan", "solve", {"tol": float("nan")}, _SUITE, "tol=nan"),
    ("preconditioner-int", "solve", {"preconditioner": 5}, _SUITE, "preconditioner=5"),
    ("rhs-bool", "solve", {"rhs": [1.0, True]}, _PAIR, "rhs[1]=True"),
    ("rhs-str", "solve", {"rhs": ["1", 1.0]}, _PAIR, "rhs[0]='1'"),
    ("rhs-inf", "solve", {"rhs": [1.0, float("inf")]}, _PAIR, "rhs[1]=inf"),
    ("indices-float", "extract", None, dict(_PAIR, indices=[1.7, 0.2]), "indices[0]=1.7"),
    ("indices-half", "extract", None, dict(_PAIR, indices=[1.5, 0]), "indices[0]=1.5"),
    ("indptr-float", "extract", None, dict(_PAIR, indptr=[0, 1.5, 2]), "indptr[1]=1.5"),
    ("data-str", "extract", None, dict(_PAIR, data=["2", "2"]), "data holds strings"),
    ("data-bool", "extract", None, dict(_PAIR, data=[True, True]), "data holds booleans"),
    ("data-mixed", "extract", None, dict(_PAIR, data=[2.0, None]), "data holds object"),
    ("n-float", "extract", None, dict(_PAIR, n=2.9), "n=2.9"),
    ("n-true", "extract", None, dict(_PAIR, n=True), "n=True"),
    ("scale-str", "extract", None, dict(_SUITE, scale="0.1"), "scale='0.1'"),
    ("scale-true", "extract", None, dict(_SUITE, scale=True), "scale=True"),
]


@pytest.mark.parametrize(
    "op, config, matrix, named", [case[1:] for case in REFUSED], ids=[c[0] for c in REFUSED]
)
def test_wrongly_typed_request_values_are_refused_by_name(op, config, matrix, named):
    server = ReproServer(ServeConfig(), device=Device("values"))
    request = {"op": op, "matrix": matrix}
    if config is not None:
        request["config"] = config
    r = server.handle_request(request)
    assert r["ok"] is False
    assert r["error"]["type"] == "ConfigError"
    assert named in r["error"]["message"]
    assert len(server.cache) == 0


def test_integral_spellings_still_key_as_integers():
    server = ReproServer(ServeConfig(), device=Device("values"))
    first = server.handle_request({"op": "extract", "matrix": _PAIR})
    again = server.handle_request({
        "op": "extract",
        "config": {"iterations": 5.0, "p": 0.5},
        "matrix": dict(_PAIR, n=2.0, indices=[1.0, 0.0], data=[2, 2]),
    })
    assert first["ok"] and again["ok"]
    assert again["key"] == first["key"] and again["cached"] is True


def test_a_failed_batch_window_answers_every_member_and_stores_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected batch failure")

    server = ReproServer(ServeConfig(batch_window=0.25), device=Device("window"))
    requests = [
        {"id": i, "op": "extract", "matrix": _csr_spec(a)}
        for i, a in enumerate([aniso1(10), aniso2(10)])
    ]
    monkeypatch.setattr(server_mod, "extract_linear_forest_batch", boom)
    barrier = threading.Barrier(len(requests))
    responses = []
    lock = threading.Lock()

    def fire(request):
        def _run():
            barrier.wait()
            r = server.handle_request(dict(request))
            with lock:
                responses.append(r)

        return _run

    threads = [threading.Thread(target=fire(req)) for req in requests]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(responses) == 2
    assert all(r["ok"] is False for r in responses)
    assert all("injected batch failure" in r["error"]["message"] for r in responses)
    assert len(server.cache) == 0

    monkeypatch.undo()
    retried = [server.handle_request(dict(req)) for req in requests]
    assert all(r["ok"] and r["cached"] is False for r in retried)
    assert len(server.cache) == 2
