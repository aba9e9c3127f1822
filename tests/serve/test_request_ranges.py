"""The daemon refuses out-of-range request values by name, before any run,
and the factor config refuses an out-of-range charge probability when it
is built."""

import pytest

from repro.core import ParallelFactorConfig
from repro.device import Device
from repro.errors import ShapeError
from repro.serve import ReproServer, ServeConfig

_SUITE = {"kind": "suite", "name": "aniso2", "scale": 0.05}

#: (case id, op, config, matrix, a fragment of the error message)
REFUSED = [
    ("p-7", "extract", {"p": 7.0}, _SUITE, "p=7.0"),
    ("p-negative", "update", {"p": -0.5}, _SUITE, "p=-0.5"),
    ("iterations-0", "extract", {"iterations": 0}, _SUITE, "iterations=0"),
    ("m-0", "extract", {"m": 0}, _SUITE, "m=0"),
    ("k_m-9", "extract", {"k_m": 9}, _SUITE, "k_m=9"),
    ("n-0", "factor", {"n": 0}, _SUITE, "n=0"),
    ("solve-m-0", "solve", {"m": 0}, _SUITE, "m=0"),
    ("max_iterations-negative", "solve", {"max_iterations": -3}, _SUITE, "max_iterations=-3"),
    ("tol-negative", "solve", {"tol": -1.0}, _SUITE, "tol=-1.0"),
    ("tol-0", "solve", {"tol": 0.0}, _SUITE, "tol=0.0"),
    ("scale-negative", "extract", None, dict(_SUITE, scale=-1.0), "scale=-1.0"),
    ("scale-0", "extract", None, dict(_SUITE, scale=0.0), "scale=0.0"),
    ("name-list", "extract", None, dict(_SUITE, name=["aniso2"]), "name=['aniso2']"),
    ("path-int", "extract", None, {"kind": "file", "path": 5}, "path=5"),
]


@pytest.mark.parametrize(
    "op, config, matrix, named", [case[1:] for case in REFUSED], ids=[c[0] for c in REFUSED]
)
def test_out_of_range_request_values_are_refused_by_name(op, config, matrix, named):
    server = ReproServer(ServeConfig(), device=Device("ranges"))
    request = {"op": op, "matrix": matrix}
    if op == "update":
        request["edits"] = [{"u": 0, "v": 1, "w": 2.0}]
    if config is not None:
        request["config"] = config
    r = server.handle_request(request)
    assert r["ok"] is False
    assert r["error"]["type"] == "ConfigError"
    assert named in r["error"]["message"]
    assert len(server.cache) == 0
    assert server.device.launch_count == 0


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_factor_config_refuses_a_charge_probability_outside_0_1(p):
    with pytest.raises(ShapeError, match="p must be in"):
        ParallelFactorConfig(p=p)
