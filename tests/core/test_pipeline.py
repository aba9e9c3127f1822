"""Unit tests for the end-to-end linear-forest pipeline."""

import numpy as np
import pytest

from repro.core import ParallelFactorConfig, extract_linear_forest, is_tridiagonal_under
from repro.core.pipeline import PHASE_EXTRACT, PHASE_FACTOR, PHASE_SCANS
from repro.device import Device
from repro.graphs import aniso2, random_weighted_graph


def test_pipeline_on_aniso2():
    a = aniso2(12)
    result = extract_linear_forest(a)
    result.forest.validate(result.graph)
    assert int(result.forest.degrees.max()) <= 2
    assert is_tridiagonal_under(result.forest, result.perm)
    assert 0.0 < result.coverage <= 1.0
    assert np.array_equal(np.sort(result.perm), np.arange(a.n_rows))


def test_pipeline_timing_phases():
    a = aniso2(8)
    result = extract_linear_forest(a)
    assert set(result.timings.phases) == {PHASE_FACTOR, PHASE_SCANS, PHASE_EXTRACT}
    assert result.timings.total_seconds > 0.0


def test_pipeline_rejects_non_2_factor():
    a = aniso2(6)
    with pytest.raises(ValueError):
        extract_linear_forest(a, ParallelFactorConfig(n=3))


def test_pipeline_extraction_matches_permuted_matrix(rng):
    """Every extracted band coefficient equals the corresponding entry of
    Q^T A Q, and non-forest band entries are zero."""
    a = random_weighted_graph(60, 200, rng)
    result = extract_linear_forest(a, ParallelFactorConfig(n=2, max_iterations=8))
    permuted = a.permute(result.perm).to_dense()
    dense_t = result.tridiagonal.to_dense()
    n = a.n_rows
    new_index = np.empty(n, dtype=int)
    new_index[result.perm] = np.arange(n)
    u, v = result.forest.edges()
    forest_band = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(forest_band, True)
    forest_band[new_index[u], new_index[v]] = True
    forest_band[new_index[v], new_index[u]] = True
    np.testing.assert_allclose(dense_t[forest_band], permuted[forest_band])
    assert not dense_t[~forest_band].any()


def test_pipeline_device_accounting():
    a = aniso2(8)
    dev = Device()
    extract_linear_forest(a, device=dev)
    names = {r.name.split("[")[0] for r in dev.kernels}
    assert "propose" in names
    assert "bidirectional-scan" in names
    assert "extract-coefficients" in names


def test_pipeline_coverage_consistency():
    from repro.core import coverage

    a = aniso2(10)
    result = extract_linear_forest(a)
    assert result.coverage == pytest.approx(coverage(a, result.forest))


def test_pipeline_refuses_a_plain_prepared_graph():
    from repro.errors import ConfigError
    from repro.sparse import CSRMatrix, prepare_graph

    a = aniso2(8)
    g = prepare_graph(a)
    plain = CSRMatrix(g.indptr, g.indices, g.data, g.shape)
    with pytest.raises(ConfigError, match="prepare_graph"):
        extract_linear_forest(a, prepared_graph=plain)
    assert extract_linear_forest(a, prepared_graph=g).graph is g


def test_a_sharded_run_checks_the_weights_once(monkeypatch):
    """The prepared graph's constructor checks the weights; the shard
    engines take its proof instead of checking their rows again."""
    import repro.core.proposer as proposer_mod
    import repro.sparse.build as build_mod
    from repro.device import DeviceGroup

    checked = []
    real = build_mod.validate_proposition_weights

    def counted(values):
        checked.append(len(values))
        return real(values)

    for module in (build_mod, proposer_mod):
        monkeypatch.setattr(module, "validate_proposition_weights", counted)
    result = extract_linear_forest(aniso2(12), device=DeviceGroup(3))
    assert checked == [result.graph.nnz]
