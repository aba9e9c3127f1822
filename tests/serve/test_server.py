"""Request handling, key derivation and the cache contract of ReproServer."""

import json

import numpy as np
import pytest

from repro.core import extract_linear_forest
from repro.device import Device
from repro.errors import ConfigError
from repro.graphs import aniso2
from repro.serve import (
    PROTOCOL,
    ReproServer,
    ServeConfig,
    canonical_config,
    config_digest,
    load_matrix,
    request_key,
)
from repro.sparse import prepare_graph, write_matrix_market
from repro.tune import FINGERPRINT_VERSION, fingerprint_graph, matrix_digest


def _csr_spec(a):
    return {
        "kind": "csr",
        "n": a.n_rows,
        "indptr": [int(v) for v in a.indptr],
        "indices": [int(v) for v in a.indices],
        "data": [float(v) for v in a.data],
        "dtype": str(a.data.dtype),
    }


@pytest.fixture
def matrix():
    return aniso2(16)


@pytest.fixture
def server():
    return ReproServer(ServeConfig(), device=Device("serve-test"))


class TestCanonicalConfig:
    def test_defaults_are_filled_in(self):
        cfg = canonical_config("extract", None)
        assert cfg["iterations"] == 5 and cfg["merged_scan"] is True

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ConfigError, match="unknown keys.*typo"):
            canonical_config("extract", {"typo": 1})

    def test_equivalent_spellings_share_one_digest(self):
        # 5 and 5.0 mean the same config; they must share a cache entry
        a = canonical_config("extract", {"iterations": 5})
        b = canonical_config("extract", {"iterations": 5.0})
        c = canonical_config("extract", None)
        assert config_digest(a) == config_digest(b) == config_digest(c)

    def test_different_configs_digest_apart(self):
        a = canonical_config("extract", {"seed": 0})
        b = canonical_config("extract", {"seed": 1})
        assert config_digest(a) != config_digest(b)

    def test_solve_validates_the_preconditioner(self):
        with pytest.raises(ConfigError, match="unknown preconditioner"):
            canonical_config("solve", {"preconditioner": "nope"})

    def test_config_on_configless_op_is_rejected(self):
        with pytest.raises(ConfigError, match="takes no config"):
            canonical_config("ping", {"x": 1})


class TestRequestKey:
    def test_key_carries_op_fingerprint_and_config(self, matrix):
        prepared = prepare_graph(matrix)
        fp = fingerprint_graph(prepared)
        cfg = canonical_config("extract", None)
        key = request_key("extract", fp, matrix_digest(matrix), cfg)
        assert key.startswith(f"extract:v{FINGERPRINT_VERSION}:")
        assert f":in={matrix_digest(matrix)}:" in key
        assert key.endswith(f":cfg={config_digest(cfg)}")

    def test_originals_that_prepare_identically_do_not_alias(self, matrix):
        # preparation drops the diagonal, but the tridiagonal bands are
        # extracted from the original — a diagonal shift must miss the cache
        shifted = matrix.__class__(
            indptr=matrix.indptr,
            indices=matrix.indices,
            data=np.where(
                matrix.indices == matrix.nnz_rows, matrix.data + 1.0, matrix.data
            ),
            shape=matrix.shape,
        )
        fp = fingerprint_graph(prepare_graph(matrix))
        cfg = canonical_config("extract", None)
        k1 = request_key("extract", fp, matrix_digest(matrix), cfg)
        k2 = request_key("extract", fp, matrix_digest(shifted), cfg)
        assert k1 != k2


class TestLoadMatrix:
    def test_file_kind(self, tmp_path, matrix):
        path = tmp_path / "m.mtx"
        write_matrix_market(matrix, path, symmetry="symmetric")
        loaded = load_matrix({"kind": "file", "path": str(path)})
        assert loaded.n_rows == matrix.n_rows

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="could not read"):
            load_matrix({"kind": "file", "path": str(tmp_path / "nope.mtx")})

    def test_suite_kind(self):
        a = load_matrix({"kind": "suite", "name": "aniso2", "scale": 0.25})
        assert a.n_rows > 0

    def test_unknown_suite_name(self):
        with pytest.raises(ConfigError, match="unknown suite matrix"):
            load_matrix({"kind": "suite", "name": "nope"})

    def test_csr_kind_round_trips(self, matrix):
        a = load_matrix(_csr_spec(matrix))
        assert a.n_rows == matrix.n_rows
        assert matrix_digest(a) == matrix_digest(matrix)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown matrix kind"):
            load_matrix({"kind": "nope"})

    def test_non_object_spec(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_matrix("m.mtx")

    def test_csr_kind_refuses_non_real_dtypes(self, server):
        spec = dict(_csr_spec(aniso2(8)), dtype="complex128")
        with pytest.raises(ConfigError, match="'complex128'"):
            load_matrix(spec)
        r = server.handle_request({"op": "extract", "matrix": spec})
        assert r["ok"] is False and "complex128" in r["error"]["message"]

    @pytest.mark.parametrize("case", ["all-nan", "one-inf", "file-inf"])
    def test_non_finite_entries_are_refused_by_name(self, server, case, tmp_path):
        if case == "all-nan":
            nan = float("nan")
            spec = {"kind": "csr", "n": 2, "indptr": [0, 1, 2],
                    "indices": [1, 0], "data": [nan, nan]}
            named = "row 0, column 1 is nan"
        elif case == "one-inf":
            spec = _csr_spec(aniso2(8))
            k = spec["indptr"][5] + 1  # the second entry of row 5
            spec["data"][k] = float("-inf")
            named = f"row 5, column {spec['indices'][k]} is -inf"
        else:
            path = tmp_path / "inf.mtx"
            path.write_text(
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 4\n1 2 1.0\n2 1 1.0\n2 3 inf\n3 2 1.0\n"
            )
            spec = {"kind": "file", "path": str(path)}
            named = "row 1, column 2 is inf"
        with pytest.raises(ConfigError, match=named):
            load_matrix(spec)
        for _ in range(2):  # refused every time, so never cached
            r = server.handle_request({"op": "extract", "matrix": spec})
            assert r["ok"] is False and named in r["error"]["message"]
        assert len(server.cache) == 0


class TestHandleRequest:
    def test_cache_hit_is_bit_identical_to_the_cold_run(self, server, matrix):
        req = {"id": "r1", "op": "extract", "matrix": _csr_spec(matrix)}
        cold = server.handle_request(req)
        assert cold["ok"] and cold["cached"] is False
        launches = server.device.launch_count
        assert launches > 0

        warm = server.handle_request(dict(req, id="r2"))
        assert warm["ok"] and warm["cached"] is True
        # zero kernel launches on the hit
        assert server.device.launch_count == launches
        # the payload replays verbatim: permutation, bands, coverage
        assert warm["result"] == cold["result"]

        # and the payload matches a direct pipeline run exactly
        solo = extract_linear_forest(matrix)
        assert cold["result"]["perm"] == [int(v) for v in solo.perm]
        assert cold["result"]["bands"]["d"] == [float(v) for v in solo.tridiagonal.d]
        assert cold["result"]["coverage"] == float(solo.coverage)

    def test_config_change_misses_the_cache(self, server, matrix):
        r1 = server.handle_request({"op": "extract", "matrix": _csr_spec(matrix)})
        r2 = server.handle_request(
            {"op": "extract", "matrix": _csr_spec(matrix), "config": {"seed": 7}}
        )
        assert r2["cached"] is False
        assert r1["key"] != r2["key"]

    def test_factor_and_solve_ops_cache_too(self, server, matrix):
        for op, cfg in (("factor", {"n": 2}), ("solve", {"preconditioner": "jacobi"})):
            req = {"op": op, "matrix": _csr_spec(matrix), "config": cfg}
            cold = server.handle_request(req)
            assert cold["ok"] and cold["cached"] is False, cold.get("error")
            warm = server.handle_request(req)
            assert warm["cached"] is True
            assert warm["result"] == cold["result"]

    def test_solve_result_reports_convergence(self, server, matrix):
        r = server.handle_request(
            {"op": "solve", "matrix": _csr_spec(matrix)}
        )
        assert r["ok"] and r["result"]["converged"]
        assert len(r["result"]["x"]) == matrix.n_rows

    def test_every_response_carries_a_run_report(self, server, matrix):
        r = server.handle_request({"op": "extract", "matrix": _csr_spec(matrix)})
        report = r["report"]
        assert report["schema"] == "repro.obs/run-report/v2"
        assert report["command"] == "serve.extract"
        assert report["metrics"]["counters"]["serve.cache.miss"] == 1
        assert "serve-request" in report["spans"]["roots"]
        assert report["serve"]["latency_seconds"] >= 0
        assert report["serve"]["launches"] > 0

    def test_hit_report_counts_the_hit_and_batch_size(self, server, matrix):
        req = {"op": "extract", "matrix": _csr_spec(matrix)}
        cold = server.handle_request(req)
        assert cold["report"]["metrics"]["histograms"]["serve.batch.size"]["count"] == 1
        warm = server.handle_request(req)
        assert warm["report"]["metrics"]["counters"]["serve.cache.hit"] == 1

    def test_bad_requests_get_error_responses_not_exceptions(self, server):
        for req, fragment in (
            ("not a dict", "JSON object"),
            ({"op": "nope"}, "unknown op"),
            ({"op": "extract"}, "matrix"),
            ({"op": "extract", "matrix": {"kind": "nope"}}, "unknown matrix kind"),
        ):
            r = server.handle_request(req)
            assert r["ok"] is False
            assert fragment in r["error"]["message"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_coverage_fails_and_is_never_cached(self, server):
        # finite weights whose sum overflows: coverage would be inf / inf
        spec = {"kind": "csr", "n": 3, "indptr": [0, 1, 3, 4],
                "indices": [1, 0, 2, 1], "data": [1.7e308] * 4}
        for _ in range(2):
            r = server.handle_request({"op": "extract", "matrix": spec})
            assert r["ok"] is False
            assert "coverage is nan" in r["error"]["message"]
        assert len(server.cache) == 0

    def test_ping_and_stats(self, server, matrix):
        assert server.handle_request({"op": "ping"})["ok"]
        server.handle_request({"op": "extract", "matrix": _csr_spec(matrix)})
        stats = server.handle_request({"op": "stats"})["stats"]
        assert stats["cache"]["entries"] == 1
        assert stats["metrics"]["counters"]["serve.cache.miss"] == 1

    def test_handle_line_round_trips_json(self, server):
        out = json.loads(server.handle_line('{"id": 5, "op": "ping"}'))
        assert out == {"id": 5, "ok": True, "op": "ping", "protocol": PROTOCOL}
        bad = json.loads(server.handle_line("{not json"))
        assert bad["ok"] is False

    def test_shutdown_rejects_later_requests(self, server, matrix):
        assert server.handle_request({"op": "shutdown"})["ok"]
        r = server.handle_request({"op": "extract", "matrix": _csr_spec(matrix)})
        assert r["ok"] is False and "shutting down" in r["error"]["message"]


class TestPersistenceAcrossProcesses:
    def test_second_server_serves_warm_from_disk(self, tmp_path, matrix):
        path = tmp_path / "results.json"
        req = {"op": "extract", "matrix": _csr_spec(matrix)}

        first = ReproServer(
            ServeConfig(result_cache_path=path), device=Device("first")
        )
        first.handle_request(req)
        first.handle_request({"op": "shutdown"})
        assert path.exists()

        second = ReproServer(
            ServeConfig(result_cache_path=path), device=Device("second")
        )
        warm = second.handle_request(req)
        assert warm["cached"] is True
        assert second.device.launch_count == 0
