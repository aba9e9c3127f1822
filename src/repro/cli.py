"""Command-line interface.

Subcommands (``extract``/``factor``/``solve``/``transversal`` operate on
Matrix Market files):

* ``extract`` — run the full linear-forest pipeline and report coverage,
  paths, the timing breakdown, and optionally the permutation/band files;
* ``batch`` — run the pipeline once over *many* matrices packed into one
  block-diagonal super-graph (one set of kernel launches for the whole
  batch; per-member results are bit-identical to solo ``extract`` runs);
* ``factor`` — compute a [0,n]-factor (parallel or greedy) and report its
  weight coverage;
* ``solve`` — solve ``A x = b`` with BiCGStab under one of the four
  preconditioners of the paper (right-hand side from the paper's test
  problem when none is given);
* ``delta`` — incremental extraction for a dynamic graph: run the pipeline
  once, apply an edit batch (JSON list of inserts/deletes/reweights) through
  the delta engine, and report how much warm state survived versus a full
  re-run (bit-identical results; see docs/INCREMENTAL.md);
* ``transversal`` — maximum product transversal (MC64-style);
* ``tune`` — autotune per-matrix frontier-compaction policies from recorded
  decision logs and write the ``tuning.json`` cache consulted by
  ``--compaction auto`` (see docs/TUNING.md);
* ``serve`` — run the long-lived result-caching daemon: line-delimited JSON
  requests on stdin, responses on stdout, repeat requests served from a
  content-keyed cache with zero kernel launches (see docs/SERVING.md);
  ``--telemetry-log``/``--prom-out`` stream its lifetime telemetry to disk;
* ``obs`` — inspect telemetry artifacts offline: ``obs report`` summarizes
  a telemetry log / stats snapshot / RunReport / bench report, ``obs diff``
  compares two with direction-aware regression thresholds (nonzero exit on
  regression), ``obs prom`` renders a snapshot as Prometheus text;
* ``generate`` — write one of the bundled synthetic suite matrices to a
  Matrix Market file.

``extract``, ``factor`` and ``solve`` take observability flags: ``--trace
out.json`` writes the run's span tree as Chrome trace-event JSON (open in
Perfetto or ``chrome://tracing``; use a ``.jsonl`` extension for JSONL
spans instead), and ``--metrics-out report.json`` writes the
schema-versioned RunReport (see ``docs/OBSERVABILITY.md``).

Examples::

    python -m repro extract matrix.mtx --perm-out perm.txt
    python -m repro extract matrix.mtx --trace trace.json --metrics-out report.json
    python -m repro batch a.mtx b.mtx c.mtx --compaction auto
    python -m repro delta matrix.mtx --edits edits.json --verify
    python -m repro factor matrix.mtx -n 3 --greedy
    python -m repro solve matrix.mtx --preconditioner algtriscal
    python -m repro tune -o tuning.json
    python -m repro extract matrix.mtx --compaction auto
    python -m repro serve --result-cache results.json --batch-window 0.05
    python -m repro generate aniso2 --scale 0.5 -o aniso2.mtx
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from ._validation import check_finite_entries
from .core import (
    ParallelFactorConfig,
    coverage,
    extract_linear_forest,
    greedy_factor,
    identity_coverage,
    parallel_factor,
)
from .core.partition import resolve_device
from .device import Device, DeviceGroup
from .graphs import SUITE, build_matrix, tuning_workloads
from .obs import (
    MetricsRegistry,
    Tracer,
    build_run_report,
    collect_run_metrics,
    use_metrics,
    use_tracer,
    write_run_report,
)
from .solvers import bicgstab
from .solvers.preconditioners import (
    _PRECONDITIONERS,
    _build_preconditioner,
    _paper_solution,
)
from .sparse import prepare_graph, read_matrix_market, write_matrix_market

__all__ = ["main"]


def _read_matrix(path: str):
    """A Matrix Market file, refused by name when an entry is not finite."""
    a = read_matrix_market(path)
    check_finite_entries(a)
    return a


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iterations", "-M", type=int, default=5,
                        help="proposition rounds M (default 5)")
    parser.add_argument("--m", type=int, default=5,
                        help="charging period m (default 5)")
    parser.add_argument("--k-m", type=int, default=0,
                        help="un-charged round offset k_m (default 0)")
    parser.add_argument("--p", type=float, default=0.5,
                        help="positive-charge probability (default 0.5)")
    parser.add_argument("--seed", type=int, default=0, help="charge seed")


def _add_compaction_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--compaction", default=None, metavar="POLICY",
        help="frontier-compaction policy: eager, never, lazy[:threshold], "
             "adaptive, or auto (the per-matrix recommendation recorded in "
             "tuning.json by `repro tune`; falls back to adaptive on a cache "
             "miss). Default: $REPRO_COMPACTION or eager; results are "
             "bit-identical under every policy, only traffic differs")


def _config_from(args, n: int) -> ParallelFactorConfig:
    return ParallelFactorConfig(
        n=n, max_iterations=args.iterations, m=args.m, k_m=args.k_m,
        p=args.p, seed=args.seed,
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="OUT",
        help="write the run's span tree here (Chrome trace-event JSON; "
             "a .jsonl extension selects JSONL spans)")
    parser.add_argument(
        "--metrics-out", metavar="OUT",
        help="write the machine-readable RunReport JSON here")


@dataclass
class _ObsRun:
    """The observability surfaces of one instrumented CLI invocation."""

    tracer: Tracer
    metrics: MetricsRegistry
    device: Device | DeviceGroup

    def finish(self, args, *, command: str, inputs: dict | None = None, **report_sources) -> None:
        """Write the requested trace/report files and announce them."""
        if args.trace:
            if str(args.trace).endswith(".jsonl"):
                self.tracer.write_jsonl(args.trace)
            else:
                self.tracer.write_chrome_trace(args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics_out:
            collect_run_metrics(self.metrics, **report_sources)
            report = build_run_report(
                command=command,
                inputs=inputs if inputs is not None else {"matrix": args.matrix},
                tracer=self.tracer,
                metrics=self.metrics,
                **report_sources,
            )
            write_run_report(report, args.metrics_out)
            print(f"run report written to {args.metrics_out}")


def _observed(args, stack: ExitStack) -> _ObsRun | None:
    """Install tracer + metrics for the command body when flags ask for it."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics_out", None)):
        return None
    device = resolve_device(devices=getattr(args, "devices", None), record=True)
    run = _ObsRun(tracer=Tracer("repro"), metrics=MetricsRegistry(), device=device)
    stack.enter_context(use_tracer(run.tracer))
    stack.enter_context(use_metrics(run.metrics))
    return run


def _cmd_extract(args) -> int:
    a = _read_matrix(args.matrix)
    with ExitStack() as stack:
        obs = _observed(args, stack)
        result = extract_linear_forest(
            a, _config_from(args, 2), device=obs.device if obs else None,
            devices=None if obs else args.devices,
            compaction=args.compaction,
        )
    print(f"matrix: N={a.n_rows}, nnz={a.nnz}")
    if obs is not None and isinstance(obs.device, DeviceGroup):
        ic = obs.device.interconnect
        print(f"devices: {len(obs.device)}; interconnect: {ic.total_bytes()} bytes "
              f"over {ic.transfer_count} transfers")
    print(f"c_id (natural order):   {identity_coverage(a):.4f}")
    print(f"linear-forest coverage: {result.coverage:.4f}")
    from .analysis import forest_statistics

    stats = forest_statistics(a, result.forest, result.paths)
    print(f"paths: {stats.summary()}")
    print(f"cycles broken: {result.broken.n_cycles}")
    for phase, frac in result.timings.fractions().items():
        print(f"  {phase}: {100 * frac:.1f}%")
    if args.perm_out:
        np.savetxt(args.perm_out, result.perm, fmt="%d")
        print(f"permutation written to {args.perm_out}")
    if args.bands_out:
        tri = result.tridiagonal
        np.savetxt(args.bands_out, np.c_[tri.dl, tri.d, tri.du])
        print(f"tridiagonal bands (dl, d, du) written to {args.bands_out}")
    if obs is not None:
        obs.finish(
            args, command="extract",
            device=obs.device, timings=result.timings,
            factor_result=result.factor_result,
        )
    return 0


def _cmd_batch(args) -> int:
    mats = [_read_matrix(path) for path in args.matrices]
    from .batch import extract_linear_forest_batch

    with ExitStack() as stack:
        obs = _observed(args, stack)
        result = extract_linear_forest_batch(
            mats, _config_from(args, 2), device=obs.device if obs else None,
            compaction=args.compaction,
        )
    total = sum(a.n_rows for a in mats)
    print(f"batch: {result.n_members} graphs, {total} vertices packed, "
          f"compaction policy {result.policy_name}")
    width = max(len(p) for p in args.matrices)
    for path, member in zip(args.matrices, result.members):
        print(f"  {path:{width}s}  N={member.graph.n_rows:<7d} "
              f"coverage={member.coverage:.4f}  paths={member.paths.n_paths}  "
              f"cycles broken={member.broken.n_cycles}")
    print(f"mean coverage: {result.coverages.mean():.4f}")
    if obs is not None:
        obs.finish(
            args, command="batch",
            inputs={"matrices": ",".join(args.matrices)},
            device=obs.device, timings=result.packed.timings,
            factor_result=result.packed.factor_result,
        )
    return 0


def _cmd_delta(args) -> int:
    import json

    from .delta import EditBatch, apply_edits

    a = _read_matrix(args.matrix)
    with open(args.edits) as fh:
        edits = EditBatch.from_dicts(json.load(fh))
    config = _config_from(args, 2)
    with ExitStack() as stack:
        obs = _observed(args, stack)
        base_device = Device("from-scratch", record=True)
        previous = extract_linear_forest(
            a, config, device=base_device, compaction=args.compaction,
        )
        delta_device = Device("delta", record=True)
        updated = apply_edits(
            previous, edits, a, config,
            device=delta_device, compaction=args.compaction,
        )
    stats = updated.stats
    print(f"matrix: N={a.n_rows}, nnz={a.nnz}; "
          f"edits: {len(edits)} touching {stats.touched_vertices} vertices")
    print(f"coverage: {previous.coverage:.4f} -> {updated.result.coverage:.4f}")
    if stats.fallback == "empty":
        print("empty edit batch: previous result reused verbatim (zero launches)")
    elif stats.fallback is not None:
        print(f"fallback: {stats.fallback} (full re-run on the edited matrix)")
    else:
        print(f"recomputed region: {stats.region_vertices}/{stats.total_vertices} "
              f"vertices ({100.0 * (1.0 - stats.reused_fraction):.1f}%), "
              f"{stats.affected_components} paths respliced")

    def _ratio(part: int, whole: int) -> str:
        return f"{100.0 * part / whole:.1f}%" if whole else "n/a"

    print(f"launches: {delta_device.launch_count} incremental vs "
          f"{base_device.launch_count} from scratch "
          f"({_ratio(delta_device.launch_count, base_device.launch_count)})")
    print(f"bytes:    {delta_device.total_bytes():,} incremental vs "
          f"{base_device.total_bytes():,} from scratch "
          f"({_ratio(delta_device.total_bytes(), base_device.total_bytes())})")
    if args.matrix_out:
        symmetry = "symmetric" if updated.matrix.is_symmetric(tol=0.0) else "general"
        write_matrix_market(updated.matrix, args.matrix_out, symmetry=symmetry)
        print(f"edited matrix written to {args.matrix_out}")
    exit_code = 0
    if args.verify:
        fresh = extract_linear_forest(
            updated.matrix, config, compaction=args.compaction,
        )
        new = updated.result
        identical = (
            np.array_equal(fresh.factor_result.factor.neighbors,
                           new.factor_result.factor.neighbors)
            and np.array_equal(fresh.forest.neighbors, new.forest.neighbors)
            and np.array_equal(fresh.paths.path_id, new.paths.path_id)
            and np.array_equal(fresh.paths.position, new.paths.position)
            and np.array_equal(fresh.perm, new.perm)
            and np.array_equal(fresh.tridiagonal.dl, new.tridiagonal.dl)
            and np.array_equal(fresh.tridiagonal.d, new.tridiagonal.d)
            and np.array_equal(fresh.tridiagonal.du, new.tridiagonal.du)
            and fresh.coverage == new.coverage
        )
        if identical:
            print("verify: bit-identical to a from-scratch run on the edited matrix")
        else:
            print("verify: MISMATCH against the from-scratch run", file=sys.stderr)
            exit_code = 1
    if obs is not None:
        obs.finish(
            args, command="delta",
            inputs={"matrix": args.matrix, "edits": args.edits},
            device=delta_device, timings=updated.result.timings,
            factor_result=updated.result.factor_result,
        )
    return exit_code


def _cmd_factor(args) -> int:
    a = _read_matrix(args.matrix)
    graph = prepare_graph(a)
    factor_result = None
    with ExitStack() as stack:
        obs = _observed(args, stack)
        if args.greedy:
            factor = greedy_factor(graph, args.n)
            label = "greedy (Algorithm 1)"
        else:
            res = parallel_factor(
                graph, _config_from(args, args.n),
                device=obs.device if obs else None,
                compaction=args.compaction,
            )
            factor_result = res
            factor = res.factor
            label = f"parallel (Algorithm 2), {res.iterations} rounds" + (
                f", maximal after {res.m_max}" if res.m_max else ""
            )
    print(f"[0,{args.n}]-factor via {label}")
    print(f"edges: {factor.edge_count}  coverage: {coverage(a, factor):.4f}")
    if obs is not None:
        obs.finish(
            args, command="factor", device=obs.device, factor_result=factor_result,
        )
    return 0


def _cmd_solve(args) -> int:
    a = _read_matrix(args.matrix)
    n = a.n_rows
    if args.rhs:
        b = np.loadtxt(args.rhs)
        x_t = None
    else:
        x_t = _paper_solution(n)
        b = a.matvec(x_t)
        print("rhs built from the paper's test problem x_t[i] = sin(16*pi*i/N)")
    with ExitStack() as stack:
        obs = _observed(args, stack)
        precond = _build_preconditioner(args.preconditioner, a, _config_from(args, 2))
        res = bicgstab(
            a, b, preconditioner=precond, tol=args.tol,
            max_iterations=args.max_solver_iterations, true_solution=x_t,
        )
    h = res.history
    print(f"preconditioner: {precond.name} (coverage {precond.coverage:.3f})")
    print(f"converged: {res.converged} after {h.n_iterations} iterations")
    print(f"final relative residual: {h.final_residual:.3e}")
    if h.final_forward_error is not None:
        print(f"final forward relative error: {h.final_forward_error:.3e}")
    if args.solution_out:
        np.savetxt(args.solution_out, res.x)
        print(f"solution written to {args.solution_out}")
    if obs is not None:
        obs.finish(args, command="solve", solve_history=h)
    return 0 if res.converged else 1


def _cmd_transversal(args) -> int:
    from .sparse import maximum_transversal, transversal_scaling

    a = _read_matrix(args.matrix)
    t = maximum_transversal(a)
    diag = np.abs(a.gather(np.arange(a.n_rows), t.col_of_row))
    print(f"maximum product transversal of N={a.n_rows}: "
          f"log10 diagonal product = {np.log10(diag).sum():.3f}")
    print(f"smallest matched |entry|: {diag.min():.3e}")
    if args.perm_out:
        np.savetxt(args.perm_out, t.col_of_row, fmt="%d")
        print(f"column permutation written to {args.perm_out}")
    if args.scaling_out:
        dr, dc = transversal_scaling(a, t)
        np.savetxt(args.scaling_out, np.c_[dr, dc])
        print(f"row/column scalings written to {args.scaling_out}")
    return 0


def _cmd_tune(args) -> int:
    from .tune import tune_suite

    with ExitStack() as stack:
        obs = _observed(args, stack)
        cache, tunings = tune_suite(
            args.suite or None,
            scale=args.scale,
            config=_config_from(args, 2),
            verify_top=args.verify_top,
            path=args.output,
        )
    width = max(len(t.name or "?") for t in tunings)
    print(f"{'workload':{width}s}  {'policy':10s}  {'bytes':>14s}  {'vs adaptive':>12s}")
    for t in tunings:
        chosen = t.measured_bytes[t.recommended]["bytes"]
        baseline = t.measured_bytes["adaptive"]["bytes"]
        saved = baseline - chosen
        print(f"{t.name:{width}s}  {t.recommended:10s}  {chosen:>14,}  {saved:>12,}")
    print(f"tuning cache written to {args.output} ({len(cache.entries)} entries)")
    print("use it with `--compaction auto` (set REPRO_TUNING_CACHE to point elsewhere)")
    if obs is not None:
        obs.finish(
            args, command="tune",
            inputs={"suite": ",".join(t.name or "?" for t in tunings),
                    "scale": args.scale},
        )
    return 0


def _cmd_serve(args) -> int:
    from .serve import PROTOCOL, ReproServer, ServeConfig

    config = ServeConfig(
        cache_max_bytes=int(args.cache_budget_mb * 1024 * 1024),
        batch_window=args.batch_window,
        result_cache_path=args.result_cache,
        compaction=args.compaction,
        max_workers=args.workers,
        telemetry_log=args.telemetry_log,
        prom_out=args.prom_out,
        telemetry_interval=args.telemetry_interval,
        slow_trace_fraction=args.slow_trace_fraction,
    )
    server = ReproServer(config)
    # stdout is the protocol stream; operator chatter goes to stderr
    print(
        f"repro serve: {PROTOCOL} over line-delimited JSON on stdin/stdout; "
        'send {"op": "shutdown"} (or EOF) to stop',
        file=sys.stderr,
    )
    server.serve_forever(sys.stdin, sys.stdout)
    cache = server.stats()["cache"]
    print(
        f"repro serve: stopped ({cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['entries']} entries cached)",
        file=sys.stderr,
    )
    return 0


def _cmd_obs_report(args) -> int:
    from .analysis import load_obs_document, render_obs_report

    loaded = load_obs_document(args.file)
    print(render_obs_report(loaded))
    return 0


def _cmd_obs_diff(args) -> int:
    from .analysis import diff_metrics, flatten_metrics, load_obs_document, render_diff

    baseline = flatten_metrics(load_obs_document(args.baseline))
    new = flatten_metrics(load_obs_document(args.new))
    diff = diff_metrics(baseline, new, threshold=args.threshold)
    print(f"baseline: {args.baseline}")
    print(f"new:      {args.new}")
    print(render_diff(diff, verbose=args.verbose))
    if diff["regressions"] and not args.warn_only:
        return 1
    return 0


def _cmd_obs_prom(args) -> int:
    from .analysis import load_obs_document
    from .obs import render_prometheus, write_prometheus

    loaded = load_obs_document(args.file)
    if loaded["kind"] == "stats-snapshot":
        snapshot = loaded["document"]
    elif loaded["kind"] == "telemetry-log" and loaded["document"]["snapshots"]:
        snapshot = loaded["document"]["snapshots"][-1]
    else:
        print(
            f"{args.file}: need a stats snapshot or a telemetry log with at "
            "least one snapshot line",
            file=sys.stderr,
        )
        return 1
    if args.output:
        write_prometheus(snapshot, args.output)
        print(f"prometheus exposition written to {args.output}")
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _cmd_generate(args) -> int:
    a = build_matrix(args.name, scale=args.scale)
    symmetry = "symmetric" if a.is_symmetric(tol=0.0) else "general"
    write_matrix_market(a, args.output, symmetry=symmetry)
    print(f"{args.name}: N={a.n_rows}, nnz={a.nnz} -> {args.output} ({symmetry})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Linear-forest extraction from weighted graphs "
                    "(Klein & Strzodka, ICPP 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract a linear forest + tridiagonal system")
    p.add_argument("matrix", help="Matrix Market file")
    p.add_argument("--perm-out", help="write the permutation here")
    p.add_argument("--bands-out", help="write the tridiagonal bands here")
    p.add_argument(
        "--devices", type=int, default=None, metavar="N",
        help="shard the pipeline over N simulated devices with halo exchange "
             "(default: $REPRO_DEVICES, else single-device; results are "
             "bit-identical for every N — see docs/SHARDING.md)")
    _add_config_args(p)
    _add_compaction_arg(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser(
        "batch",
        help="extract linear forests from many matrices in one set of launches",
    )
    p.add_argument("matrices", nargs="+", help="Matrix Market files, one per batch member")
    _add_config_args(p)
    _add_compaction_arg(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "delta",
        help="apply an edit batch incrementally to a previous extraction",
    )
    p.add_argument("matrix", help="Matrix Market file (the pre-edit graph)")
    p.add_argument(
        "--edits", required=True, metavar="FILE",
        help='JSON file: a list of {"u": int, "v": int, "w": float} inserts/'
             'reweights and {"u": int, "v": int, "delete": true} deletes')
    p.add_argument(
        "--verify", action="store_true",
        help="re-run from scratch on the edited matrix and check the "
             "incremental result is bit-identical (nonzero exit on mismatch)")
    p.add_argument(
        "--matrix-out", metavar="OUT",
        help="write the edited matrix here as Matrix Market")
    _add_config_args(p)
    _add_compaction_arg(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("factor", help="compute a [0,n]-factor")
    p.add_argument("matrix", help="Matrix Market file")
    p.add_argument("-n", type=int, default=2, help="degree bound (default 2)")
    p.add_argument("--greedy", action="store_true", help="use sequential Algorithm 1")
    _add_config_args(p)
    _add_compaction_arg(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("solve", help="BiCGStab with an algebraic preconditioner")
    p.add_argument("matrix", help="Matrix Market file")
    p.add_argument("--preconditioner", choices=sorted(_PRECONDITIONERS),
                   default="algtriscal")
    p.add_argument("--rhs", help="right-hand side file (one value per line)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-solver-iterations", type=int, default=2000)
    p.add_argument("--solution-out", help="write the solution here")
    _add_config_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "transversal",
        help="maximum product transversal (permute large entries to the diagonal)",
    )
    p.add_argument("matrix", help="Matrix Market file")
    p.add_argument("--perm-out", help="write the column permutation here")
    p.add_argument("--scaling-out", help="write MC64 row/col scalings here")
    p.set_defaults(func=_cmd_transversal)

    p = sub.add_parser(
        "tune",
        help="autotune per-matrix compaction policies from recorded decision logs",
    )
    p.add_argument(
        "--suite", nargs="*", metavar="NAME", default=None,
        choices=sorted(tuning_workloads()),
        help="workloads to tune (default: the representative small suite "
             "plus slow_frontier)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="suite build scale (default 1.0; fingerprints are scale-specific)")
    p.add_argument("-o", "--output", default="tuning.json",
                   help="tuning cache file to write (default ./tuning.json)")
    p.add_argument("--verify-top", type=int, default=3,
                   help="measure this many top-modeled candidates (default 3)")
    _add_config_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "serve",
        help="run the result-caching extraction daemon "
             "(line-delimited JSON on stdin/stdout)",
    )
    p.add_argument(
        "--result-cache", metavar="PATH", default=None,
        help="persist the result cache here on shutdown and warm-load it "
             "on start (atomic rewrite; default: in-memory only)")
    p.add_argument(
        "--cache-budget-mb", type=float, default=64.0, metavar="MB",
        help="LRU byte budget of the result cache in MiB (default 64)")
    p.add_argument(
        "--batch-window", type=float, default=0.0, metavar="SECONDS",
        help="seconds a cold extract miss waits for other cold misses to "
             "share one set of kernel launches (default 0: no window batching)")
    p.add_argument(
        "--workers", type=int, default=4,
        help="max concurrent request threads (default 4)")
    p.add_argument(
        "--telemetry-log", metavar="PATH", default=None,
        help="append periodic stats snapshots and tail-sampled traces here "
             "as JSONL (read back with `repro obs report`)")
    p.add_argument(
        "--prom-out", metavar="PATH", default=None,
        help="keep a Prometheus text-exposition file here, rewritten "
             "atomically every telemetry interval")
    p.add_argument(
        "--telemetry-interval", type=float, default=10.0, metavar="SECONDS",
        help="seconds between periodic telemetry emissions (default 10)")
    p.add_argument(
        "--slow-trace-fraction", type=float, default=0.05, metavar="FRACTION",
        help="tail-sample this fraction of the slowest successful requests' "
             "traces; errored requests are always retained (default 0.05)")
    _add_compaction_arg(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "obs",
        help="inspect and compare telemetry artifacts "
             "(run reports, stats snapshots, telemetry logs, bench reports)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "report",
        help="human summary of one telemetry artifact (tables + sparklines)",
    )
    q.add_argument(
        "file",
        help="telemetry .jsonl log, stats snapshot, RunReport, or "
             "BENCH_observability.json")
    q.set_defaults(func=_cmd_obs_report)

    q = obs_sub.add_parser(
        "diff",
        help="compare two telemetry artifacts; nonzero exit on regression",
    )
    q.add_argument("baseline", help="baseline artifact (any obs kind)")
    q.add_argument("new", help="new artifact of the same kind")
    q.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRACTION",
        help="relative change beyond which a direction-aware metric is a "
             "regression (default 0.25 = 25%%)")
    q.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 anyway (CI drift watch)")
    q.add_argument(
        "--verbose", action="store_true",
        help="show every compared metric, not just regressions")
    q.set_defaults(func=_cmd_obs_diff)

    q = obs_sub.add_parser(
        "prom",
        help="render a stats snapshot (or a telemetry log's last snapshot) "
             "as Prometheus text exposition",
    )
    q.add_argument("file", help="stats snapshot JSON or telemetry .jsonl log")
    q.add_argument("-o", "--output", default=None,
                   help="write here (atomic) instead of stdout")
    q.set_defaults(func=_cmd_obs_prom)

    p = sub.add_parser("generate", help="write a bundled suite matrix")
    p.add_argument("name", choices=sorted(SUITE))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
