"""A solve's factor settings reach its preconditioner.

``repro solve`` and the daemon's ``solve`` op take the Algorithm 2 settings
(``iterations``, ``m``, ``k_m``, ``p``, ``seed``) and the daemon keys its
cache on them, so the two preconditioners that extract a linear forest must
run with them: a non-default solve reads the coverage that an extract with
the same settings reads, not the default one.
"""

import pytest

from repro.cli import main
from repro.core import ParallelFactorConfig
from repro.device import Device
from repro.graphs import aniso2
from repro.serve import ReproServer, ServeConfig, load_matrix
from repro.solvers import AlgTriBlockPrecond, AlgTriScalPrecond
from repro.sparse import write_matrix_market

_SUITE = {"kind": "suite", "name": "aniso2", "scale": 0.1}
_SETTINGS = {"m": 1, "iterations": 2, "seed": 9}
_CONFIG = ParallelFactorConfig(n=2, max_iterations=2, m=1, seed=9)


@pytest.mark.parametrize(
    "name, cls", [("algtriscal", AlgTriScalPrecond), ("algtriblock", AlgTriBlockPrecond)]
)
def test_daemon_solve_builds_its_preconditioner_with_the_request_settings(name, cls):
    server = ReproServer(ServeConfig(), device=Device("solve-config"))
    default = server.handle_request(
        {"op": "solve", "matrix": _SUITE, "config": {"preconditioner": name}}
    )
    tuned = server.handle_request(
        {"op": "solve", "matrix": _SUITE, "config": dict(_SETTINGS, preconditioner=name)}
    )
    assert default["ok"] and tuned["ok"]
    coverage = tuned["result"]["preconditioner_coverage"]
    assert coverage != default["result"]["preconditioner_coverage"]
    assert coverage == cls(load_matrix(_SUITE), _CONFIG).coverage


def test_daemon_solve_coverage_equals_the_extract_with_the_same_settings():
    server = ReproServer(ServeConfig(), device=Device("solve-config"))
    solve = server.handle_request({"op": "solve", "matrix": _SUITE, "config": _SETTINGS})
    extract = server.handle_request({"op": "extract", "matrix": _SUITE, "config": _SETTINGS})
    assert solve["result"]["preconditioner_coverage"] == extract["result"]["coverage"]


def test_cli_solve_passes_its_factor_settings_to_the_preconditioner(tmp_path, capsys):
    path = tmp_path / "aniso2.mtx"
    a = aniso2(10)
    write_matrix_market(a, path, symmetry="symmetric")

    def coverage_line(*flags):
        assert main(["solve", str(path), *flags]) == 0
        out = capsys.readouterr().out
        return next(line for line in out.splitlines() if line.startswith("preconditioner:"))

    default = coverage_line()
    tuned = coverage_line("--m", "1", "--iterations", "2", "--seed", "9")
    assert tuned != default
    assert f"(coverage {AlgTriScalPrecond(a, _CONFIG).coverage:.3f})" in tuned
