"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.sparse import read_matrix_market, write_matrix_market
from repro.graphs import aniso2


@pytest.fixture
def mtx_path(tmp_path):
    path = tmp_path / "aniso2.mtx"
    write_matrix_market(aniso2(10), path, symmetry="symmetric")
    return str(path)


def test_extract(mtx_path, tmp_path, capsys):
    perm_path = tmp_path / "perm.txt"
    bands_path = tmp_path / "bands.txt"
    rc = main([
        "extract", mtx_path, "--perm-out", str(perm_path),
        "--bands-out", str(bands_path), "-M", "6",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "linear-forest coverage" in out
    perm = np.loadtxt(perm_path, dtype=int)
    assert np.array_equal(np.sort(perm), np.arange(100))
    bands = np.loadtxt(bands_path)
    assert bands.shape == (100, 3)


def test_factor_parallel_and_greedy(mtx_path, capsys):
    assert main(["factor", mtx_path, "-n", "2"]) == 0
    out_par = capsys.readouterr().out
    assert "parallel (Algorithm 2)" in out_par
    assert main(["factor", mtx_path, "-n", "2", "--greedy"]) == 0
    out_seq = capsys.readouterr().out
    assert "greedy (Algorithm 1)" in out_seq
    cov_par = float(out_par.split("coverage:")[1])
    cov_seq = float(out_seq.split("coverage:")[1])
    assert abs(cov_par - cov_seq) < 0.1


def test_solve_all_preconditioners(mtx_path, capsys):
    for name in ("none", "jacobi", "triscal", "algtriscal", "algtriblock"):
        rc = main(["solve", mtx_path, "--preconditioner", name, "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert rc == 0, (name, out)
        assert "converged: True" in out


def test_solve_with_explicit_rhs(mtx_path, tmp_path, capsys):
    rhs_path = tmp_path / "b.txt"
    np.savetxt(rhs_path, np.ones(100))
    sol_path = tmp_path / "x.txt"
    rc = main([
        "solve", mtx_path, "--rhs", str(rhs_path),
        "--solution-out", str(sol_path), "--preconditioner", "jacobi",
    ])
    assert rc == 0
    x = np.loadtxt(sol_path)
    a = read_matrix_market(mtx_path)
    np.testing.assert_allclose(a.matvec(x), np.ones(100), atol=1e-5)


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "eco.mtx"
    rc = main(["generate", "ecology1", "--scale", "0.2", "-o", str(out)])
    assert rc == 0
    a = read_matrix_market(out)
    assert a.n_rows > 20
    assert a.is_symmetric(tol=0.0)


def test_transversal(mtx_path, tmp_path, capsys):
    perm_path = tmp_path / "col_perm.txt"
    scal_path = tmp_path / "scal.txt"
    rc = main([
        "transversal", mtx_path, "--perm-out", str(perm_path),
        "--scaling-out", str(scal_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "transversal" in out
    perm = np.loadtxt(perm_path, dtype=int)
    assert np.array_equal(np.sort(perm), np.arange(100))
    scal = np.loadtxt(scal_path)
    assert scal.shape == (100, 2)
    assert (scal > 0).all()


def _nests(inner, outer):
    return (outer["ts"] <= inner["ts"]
            and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"])


def test_extract_trace_and_metrics(mtx_path, tmp_path, capsys):
    import json

    from repro.obs import RUN_REPORT_SCHEMA, SCHEMA_VERSION

    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    rc = main([
        "extract", mtx_path,
        "--trace", str(trace_path), "--metrics-out", str(report_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"trace written to {trace_path}" in out
    assert f"run report written to {report_path}" in out

    # --- the trace is Chrome trace-event JSON with run > phase > kernel ---
    doc = json.loads(trace_path.read_text())
    assert doc["otherData"]["schema"] == SCHEMA_VERSION
    events = doc["traceEvents"]
    runs = [e for e in events if e["cat"] == "run"]
    phases = [e for e in events if e["cat"] == "phase"]
    kernels = [e for e in events if e["cat"] == "kernel"]
    assert [e["name"] for e in runs] == ["extract-linear-forest"]
    assert {e["name"] for e in phases} == {
        "[0,2]-factor", "bidirectional scans", "coefficient extraction"}
    assert kernels
    assert all(_nests(p, runs[0]) for p in phases)
    assert all(any(_nests(k, p) for p in phases) for k in kernels)

    # --- the report is schema-versioned and self-consistent --------------
    report = json.loads(report_path.read_text())
    assert report["schema"] == RUN_REPORT_SCHEMA
    assert report["command"] == "extract"
    assert report["inputs"]["matrix"] == mtx_path
    assert report["totals"]["launches"] == len(kernels)
    assert report["totals"]["launches"] == sum(
        k["launches"] for k in report["kernels"])
    assert report["totals"]["bytes"] == sum(k["bytes"] for k in report["kernels"])
    assert report["metrics"]["counters"]["kernel.launches"] == len(kernels)
    assert report["factor"]["iterations"] >= 1
    assert set(report["phases"]) == {e["name"] for e in phases}


def test_extract_trace_jsonl_extension(mtx_path, tmp_path, capsys):
    import json

    trace_path = tmp_path / "spans.jsonl"
    assert main(["extract", mtx_path, "--trace", str(trace_path)]) == 0
    rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert rows[0]["name"] == "extract-linear-forest"
    assert rows[0]["parent_id"] is None
    ids = {r["span_id"] for r in rows}
    assert all(r["parent_id"] in ids for r in rows[1:])


def test_extract_devices_flag_reports_the_interconnect(
    mtx_path, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("REPRO_DEVICES", raising=False)

    def coverage_line(out):
        return next(line for line in out.splitlines() if "linear-forest coverage" in line)

    rc = main([
        "extract", mtx_path, "--devices", "3",
        "--metrics-out", str(tmp_path / "r.json"),
    ])
    assert rc == 0
    sharded = capsys.readouterr().out
    assert "devices: 3; interconnect:" in sharded
    assert main(["extract", mtx_path]) == 0
    solo = capsys.readouterr().out
    assert "devices:" not in solo
    assert coverage_line(sharded) == coverage_line(solo)


def test_factor_metrics_out(mtx_path, tmp_path, capsys):
    import json

    report_path = tmp_path / "factor.json"
    rc = main(["factor", mtx_path, "-n", "2", "--metrics-out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "factor"
    assert report["factor"]["iterations"] >= 1
    assert report["totals"]["launches"] >= 1


def test_solve_metrics_out(mtx_path, tmp_path, capsys):
    import json

    report_path = tmp_path / "solve.json"
    trace_path = tmp_path / "solve-trace.json"
    rc = main([
        "solve", mtx_path, "--preconditioner", "jacobi",
        "--trace", str(trace_path), "--metrics-out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "solve"
    assert report["solver"]["converged"] is True
    assert (report["metrics"]["counters"]["solver.iterations"]
            == report["solver"]["iterations"])
    doc = json.loads(trace_path.read_text())
    solver_events = [e for e in doc["traceEvents"] if e["cat"] == "solver"]
    assert [e["name"] for e in solver_events] == ["bicgstab"]
    assert solver_events[0]["args"]["converged"] is True


def test_obs_flags_off_by_default(mtx_path, tmp_path, capsys):
    """Without the flags, no trace/report files appear and output is clean."""
    rc = main(["extract", mtx_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace written" not in out
    assert "run report written" not in out
    assert not list(tmp_path.glob("*.json"))


def test_unknown_generate_name_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "nope", "-o", str(tmp_path / "x.mtx")])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_tune_writes_a_versioned_cache(tmp_path, capsys):
    import json

    out = tmp_path / "tuning.json"
    rc = main(["tune", "--suite", "slow_frontier", "--scale", "0.5", "-o", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "slow_frontier" in stdout
    assert f"tuning cache written to {out}" in stdout
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro.tune/tuning/v1"
    assert len(payload["entries"]) == 1


def test_tune_metrics_out(tmp_path, capsys):
    import json

    report_path = tmp_path / "tune-report.json"
    rc = main([
        "tune", "--suite", "slow_frontier", "--scale", "0.5",
        "-o", str(tmp_path / "tuning.json"), "--metrics-out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "tune"
    assert report["inputs"]["suite"] == "slow_frontier"
    assert report["metrics"]["counters"]["tune.workloads"] == 1


def test_tune_rejects_unknown_workloads(tmp_path):
    with pytest.raises(SystemExit):
        main(["tune", "--suite", "nope", "-o", str(tmp_path / "tuning.json")])


def test_extract_compaction_auto_miss_warns_but_succeeds(
    mtx_path, tmp_path, monkeypatch, capsys
):
    from repro.tune import TuningWarning

    monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "absent.json"))
    with pytest.warns(TuningWarning):
        rc = main(["extract", mtx_path, "--compaction", "auto"])
    assert rc == 0
    assert "linear-forest coverage" in capsys.readouterr().out


def test_extract_compaction_auto_hits_a_tuned_cache(
    mtx_path, tmp_path, monkeypatch, capsys
):
    import warnings

    from repro.sparse import prepare_graph
    from repro.tune import TuningCache, TuningWarning, tune_graph

    graph = prepare_graph(read_matrix_market(mtx_path))
    cache = TuningCache()
    cache.record(tune_graph(graph, name="aniso2").entry)
    cache_path = tmp_path / "tuning.json"
    cache.save(cache_path)

    monkeypatch.setenv("REPRO_TUNING_CACHE", str(cache_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TuningWarning)  # a hit must not warn
        rc = main(["extract", mtx_path, "--compaction", "auto"])
    assert rc == 0
    assert "linear-forest coverage" in capsys.readouterr().out


@pytest.fixture
def batch_paths(tmp_path):
    from repro.graphs import poisson2d

    paths = []
    for name, a in (("aniso2", aniso2(8)), ("poisson", poisson2d(7))):
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(a, path, symmetry="symmetric")
        paths.append(str(path))
    return paths


def test_batch_reports_every_member(batch_paths, capsys):
    rc = main(["batch", *batch_paths, "-M", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "batch: 2 graphs" in out
    assert "113 vertices packed" in out  # 64 + 49
    for path in batch_paths:
        assert path in out
    assert "mean coverage:" in out


def test_batch_member_lines_match_solo_extract(batch_paths, capsys):
    main(["batch", *batch_paths])
    batch_out = capsys.readouterr().out
    for path in batch_paths:
        main(["extract", path])
        solo_out = capsys.readouterr().out
        solo_cov = solo_out.split("linear-forest coverage:")[1].split()[0]
        member_line = next(l for l in batch_out.splitlines() if path in l)
        assert f"coverage={solo_cov}" in member_line


def test_batch_obs_flags(batch_paths, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    rc = main([
        "batch", *batch_paths,
        "--trace", str(trace_path), "--metrics-out", str(report_path),
    ])
    assert rc == 0
    import json

    report = json.loads(report_path.read_text())
    assert report["command"] == "batch"
    trace = json.loads(trace_path.read_text())
    names = {ev.get("name") for ev in trace.get("traceEvents", trace)}
    assert "extract-linear-forest-batch" in names
    assert "batch-split-member" in names


def test_serve_round_trips_the_line_protocol(mtx_path, tmp_path, capsys, monkeypatch):
    import io
    import json
    import sys

    lines = [
        json.dumps({"id": 1, "op": "ping"}),
        json.dumps({"id": 2, "op": "extract",
                    "matrix": {"kind": "file", "path": mtx_path}}),
        json.dumps({"id": 3, "op": "extract",
                    "matrix": {"kind": "file", "path": mtx_path}}),
        json.dumps({"id": 4, "op": "shutdown"}),
    ]
    cache_path = tmp_path / "results.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    rc = main(["serve", "--result-cache", str(cache_path), "--workers", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    responses = {r.get("id"): r for r in map(json.loads, captured.out.splitlines())}
    assert responses[1]["op"] == "ping" and responses[1]["ok"]
    assert responses[2]["ok"] and responses[2]["cached"] is False
    assert responses[3]["cached"] is True
    assert responses[3]["result"] == responses[2]["result"]
    assert responses[4]["op"] == "shutdown"
    # operator chatter stays off the protocol stream
    assert "repro serve" in captured.err
    assert cache_path.exists()


def test_serve_stops_on_end_of_input(monkeypatch, capsys):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["serve"]) == 0
    assert capsys.readouterr().out == ""


def test_serve_rejects_bad_flags():
    with pytest.raises(SystemExit):
        main(["serve", "--workers"])


@pytest.fixture
def telemetry_artifacts(mtx_path, tmp_path, monkeypatch, capsys):
    """Run a tiny serve session with telemetry on; return (log, prom) paths."""
    import io
    import json
    import sys

    lines = [
        json.dumps({"id": 1, "op": "extract",
                    "matrix": {"kind": "file", "path": mtx_path}}),
        json.dumps({"id": 2, "op": "extract",
                    "matrix": {"kind": "file", "path": mtx_path}}),
        json.dumps({"id": 3, "op": "extract", "matrix": {"kind": "bad"}}),
        json.dumps({"id": 4, "op": "shutdown"}),
    ]
    log = tmp_path / "telemetry.jsonl"
    prom = tmp_path / "metrics.prom"
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    rc = main([
        "serve", "--workers", "1",
        "--telemetry-log", str(log), "--prom-out", str(prom),
        "--telemetry-interval", "0.001",
    ])
    assert rc == 0
    capsys.readouterr()  # swallow the protocol stream
    return log, prom


def test_serve_telemetry_flags_write_artifacts(telemetry_artifacts):
    import json

    log, prom = telemetry_artifacts
    records = [json.loads(l) for l in log.read_text().splitlines()]
    kinds = {r["kind"] for r in records}
    assert kinds == {"snapshot", "trace"}  # errored request's trace + snapshots
    final = [r for r in records if r["kind"] == "snapshot"][-1]
    assert final["schema"] == "repro.serve/stats/v2"
    assert final["totals"]["requests"] == 3
    assert "# TYPE repro_requests_total counter" in prom.read_text()


def test_obs_report_on_a_telemetry_log(telemetry_artifacts, capsys):
    log, _ = telemetry_artifacts
    assert main(["obs", "report", str(log)]) == 0
    out = capsys.readouterr().out
    assert "telemetry-log" in out
    assert "extract" in out


def test_obs_diff_detects_a_latency_regression(telemetry_artifacts, tmp_path,
                                               capsys):
    import json

    log, _ = telemetry_artifacts
    baseline = [json.loads(l) for l in log.read_text().splitlines()
                if json.loads(l)["kind"] == "snapshot"][-1]
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(baseline))

    # identical inputs: no regression, exit 0
    assert main(["obs", "diff", str(base_path), str(base_path)]) == 0
    assert "no regressions" in capsys.readouterr().out

    # +50% latency across the board: flagged at the default 25% threshold
    worse = json.loads(json.dumps(baseline))
    for stats in worse["ops"].values():
        for key in ("mean", "p50", "p95", "p99", "min", "max", "total"):
            if stats["latency"].get(key) is not None:
                stats["latency"][key] *= 1.5
    worse_path = tmp_path / "worse.json"
    worse_path.write_text(json.dumps(worse))
    assert main(["obs", "diff", str(base_path), str(worse_path)]) == 1
    assert "REGRESSION" in capsys.readouterr().out

    # --warn-only reports but never fails
    assert main(["obs", "diff", str(base_path), str(worse_path),
                 "--warn-only"]) == 0
    # a loose threshold tolerates the same growth
    assert main(["obs", "diff", str(base_path), str(worse_path),
                 "--threshold", "0.75"]) == 0


def test_obs_prom_renders_a_snapshot(telemetry_artifacts, tmp_path, capsys):
    log, _ = telemetry_artifacts
    assert main(["obs", "prom", str(log)]) == 0
    out = capsys.readouterr().out
    from .obs.test_expose import validate_prometheus_text

    validate_prometheus_text(out if out.endswith("\n") else out + "\n")

    out_path = tmp_path / "rendered.prom"
    assert main(["obs", "prom", str(log), "-o", str(out_path)]) == 0
    capsys.readouterr()
    validate_prometheus_text(out_path.read_text())


def test_obs_rejects_unknown_documents(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "who/knows"}')
    with pytest.raises(ValueError):
        main(["obs", "report", str(bogus)])


# --- delta --------------------------------------------------------------


@pytest.fixture
def grid_mtx_path(tmp_path):
    # A 64x64 grid: large enough that the invalidation ball (radius 19) of
    # a corner edit stays under the region-fraction cutoff, so the true
    # delta path (not the fallback) is exercised.
    path = tmp_path / "grid.mtx"
    write_matrix_market(aniso2(64), path, symmetry="symmetric")
    return str(path)


@pytest.fixture
def edits_path(tmp_path):
    import json

    path = tmp_path / "edits.json"
    path.write_text(json.dumps([
        {"u": 3, "v": 7, "w": 0.25},
        {"u": 10, "v": 11, "delete": True},
        {"u": 0, "v": 1, "w": -2.5},
    ]))
    return str(path)


def test_delta_verify_bit_identical(grid_mtx_path, edits_path, tmp_path, capsys):
    out_mtx = tmp_path / "edited.mtx"
    rc = main([
        "delta", grid_mtx_path, "--edits", edits_path, "--verify",
        "--matrix-out", str(out_mtx),
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "recomputed region:" in out
    assert "bit-identical" in out
    assert "launches:" in out and "bytes:" in out
    edited = read_matrix_market(str(out_mtx))
    assert edited.n_rows == 4096
    # the deleted pair is gone, the inserted pair is present
    row10 = edited.indices[edited.indptr[10]:edited.indptr[11]]
    assert 11 not in row10
    row3 = edited.indices[edited.indptr[3]:edited.indptr[4]]
    assert 7 in row3


def test_delta_empty_batch(grid_mtx_path, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    rc = main(["delta", grid_mtx_path, "--edits", str(empty), "--verify"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "empty edit batch" in out
    assert "launches: 0 incremental" in out


def test_delta_obs_flags(grid_mtx_path, edits_path, tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    rc = main([
        "delta", grid_mtx_path, "--edits", edits_path,
        "--trace", str(trace_path), "--metrics-out", str(report_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"trace written to {trace_path}" in out
    doc = json.loads(trace_path.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert "apply-edits" in names
    report = json.loads(report_path.read_text())
    assert report["command"] == "delta"
    assert report["inputs"]["edits"] == edits_path
    assert report["metrics"]["counters"]["delta.edits"] == 3


def test_delta_rejects_malformed_edits(grid_mtx_path, tmp_path):
    from repro.errors import ConfigError

    bad = tmp_path / "bad.json"
    bad.write_text('[{"u": 1, "v": 2, "weight": 0.5}]')
    with pytest.raises(ConfigError, match="unknown keys"):
        main(["delta", grid_mtx_path, "--edits", str(bad)])


# --- non-finite entries ---------------------------------------------------


@pytest.mark.parametrize(
    "entries, named",
    [
        ("1 1 4.0\n1 2 1.0\n2 1 1.0\n2 2 4.0\n2 3 inf\n3 2 1.0\n3 3 4.0\n",
         "row 1, column 2 is inf"),
        ("1 1 nan\n1 2 1.0\n2 1 1.0\n2 2 4.0\n2 3 1.0\n3 2 1.0\n3 3 4.0\n",
         "row 0, column 0 is nan"),
    ],
    ids=["inf-off-diagonal", "nan-diagonal"],
)
def test_every_matrix_command_refuses_a_non_finite_entry(tmp_path, entries, named):
    from repro.errors import ConfigError

    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 7\n" + entries)
    edits = tmp_path / "edits.json"
    edits.write_text('[{"u": 0, "v": 2, "w": 0.5}]')
    commands = [
        ["extract", str(path), "--bands-out", str(tmp_path / "bands.txt")],
        ["batch", str(path)],
        ["delta", str(path), "--edits", str(edits)],
        ["factor", str(path)],
        ["solve", str(path)],
        ["transversal", str(path)],
    ]
    for argv in commands:
        with pytest.raises(ConfigError, match=f"{named}; weights must be finite"):
            main(argv)
    assert not (tmp_path / "bands.txt").exists()
