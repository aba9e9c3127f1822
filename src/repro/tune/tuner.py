"""The autotuner: record once, replay every policy, verify the winners.

Per workload, :func:`tune_graph` runs the measure-then-select loop:

1. **Record** one factor + fused-scan run under the ``never`` policy (the
   cheapest recorder: no gathers fire, and the consult sequence covers every
   retirement round), harvesting the two :class:`~repro.tune.log.DecisionLog`\\ s
   and fitting the cost-model byte parameters to the recorded decisions.
2. **Replay** every candidate spec over both logs
   (:func:`~repro.tune.log.replay`) — modeled gather + dead-lane traffic per
   policy, without re-running the engines.
3. **Verify** the top-ranked candidates *by measurement* on the metered
   device, always including the static ``adaptive`` default.  The winner
   must dominate ``adaptive`` on both measured bytes and measured gather
   traffic (``adaptive`` itself always qualifies), so a tuned
   recommendation never loses to the static default — the property
   ``benchmarks/test_tune_budget.py`` gates.

:func:`tune_suite` runs that loop over the named workloads (default: the
representative small suite plus ``slow_frontier``) and persists the
recommendations to the versioned ``tuning.json`` cache that
``resolve_compaction("auto")`` consults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.factor import ParallelFactorConfig, parallel_factor
from ..core.scan import AddOperator, BidirectionalScan, FusedOperator, MinEdgeOperator
from ..device.device import Device
from ..errors import ConfigError
from ..obs import trace_span
from ..obs.metrics import current_metrics
from ..sparse.build import prepare_graph
from ..sparse.csr import CSRMatrix
from .cache import TuningCache, TuningEntry
from .fingerprint import GraphFingerprint, fingerprint_graph
from .log import DecisionLog, harvest_factor_log, harvest_scan_log, replay

__all__ = [
    "DEFAULT_CANDIDATES",
    "WorkloadTuning",
    "tune_graph",
    "tune_suite",
]

#: Candidate policy specs ranked by every tuning run.
DEFAULT_CANDIDATES = ("eager", "never", "lazy:0.25", "lazy:0.5", "lazy:0.75", "adaptive")

#: Kernel-name prefixes of the measured traffic: the three factor launches
#: plus the scan steps (both engines consult the tuned policy).
FACTOR_KERNELS = ("charge", "propose", "mutualize")
SCAN_PREFIX = "bidirectional-scan"


@dataclass(frozen=True)
class WorkloadTuning:
    """Everything one :func:`tune_graph` call learned about one matrix."""

    name: str | None
    fingerprint: GraphFingerprint
    recommended: str
    modeled_bytes: dict = field(default_factory=dict)  # spec -> replayed bytes
    measured_bytes: dict = field(default_factory=dict)  # spec -> {bytes, gather_bytes}
    factor_log: DecisionLog | None = None
    scan_log: DecisionLog | None = None

    @property
    def entry(self) -> TuningEntry:
        return TuningEntry(
            policy=self.recommended,
            fingerprint=self.fingerprint,
            modeled_bytes=dict(self.modeled_bytes),
            measured_bytes=dict(self.measured_bytes),
        )


def _measure(graph: CSRMatrix, spec: str, config: ParallelFactorConfig) -> dict:
    """One metered factor + fused-scan run under ``spec``."""
    device = Device()
    result = parallel_factor(graph, config, device=device, compaction=spec)
    scan = BidirectionalScan(result.factor, device=device, compaction=spec)
    scan_result = scan.run(FusedOperator((MinEdgeOperator(), AddOperator())), graph)
    nbytes = sum(device.total_bytes(prefix) for prefix in FACTOR_KERNELS)
    nbytes += device.total_bytes(SCAN_PREFIX)
    gather = sum(d.gather_bytes for d in result.compaction_decisions if d.compact)
    gather += sum(d.gather_bytes for d in scan_result.compaction_decisions if d.compact)
    return {"bytes": int(nbytes), "gather_bytes": int(gather)}


def tune_graph(
    graph: CSRMatrix,
    *,
    name: str | None = None,
    config: ParallelFactorConfig | None = None,
    candidates: tuple = DEFAULT_CANDIDATES,
    verify_top: int = 3,
) -> WorkloadTuning:
    """Tune the compaction policy for one *prepared* graph.

    ``verify_top`` bounds the measured verification runs (the modeled
    ranking picks which candidates are worth measuring); ``adaptive`` is
    always verified so the dominance guarantee holds by construction.
    """
    if not candidates:
        raise ConfigError("tune_graph needs at least one candidate policy spec")
    config = config or ParallelFactorConfig()
    with trace_span(
        "tune-workload",
        category="stage",
        workload=name or "<unnamed>",
        n_vertices=graph.n_rows,
        nnz=graph.nnz,
        candidates=len(candidates),
    ) as span:
        # 1. record under `never` (no gathers; every retirement is consulted)
        device = Device()
        recorded = parallel_factor(graph, config, device=device, compaction="never")
        scan = BidirectionalScan(recorded.factor, device=device, compaction="never")
        scan_recorded = scan.run(FusedOperator((MinEdgeOperator(), AddOperator())), graph)
        factor_log = harvest_factor_log(recorded, config)
        scan_log = harvest_scan_log(scan_recorded, graph.n_rows)

        # 2. replay every candidate over both logs
        modeled = {
            spec: replay(factor_log, spec).total_bytes + replay(scan_log, spec).total_bytes
            for spec in candidates
        }

        # 3. measure the best modeled candidates, adaptive always included
        ranked = sorted(modeled, key=lambda s: (modeled[s], s))
        verify = list(dict.fromkeys(ranked[: max(1, int(verify_top))] + ["adaptive"]))
        measured = {spec: _measure(graph, spec, config) for spec in verify}

        # the winner must dominate the static default on both axes
        baseline = measured["adaptive"]
        survivors = [
            spec
            for spec in verify
            if measured[spec]["bytes"] <= baseline["bytes"]
            and measured[spec]["gather_bytes"] <= baseline["gather_bytes"]
        ]
        recommended = min(
            survivors,
            key=lambda s: (measured[s]["bytes"], measured[s]["gather_bytes"], s != "adaptive"),
        )

        if span is not None:
            span.attributes.update(
                recommended=recommended,
                fitted=bool(factor_log.fitted or scan_log.fitted),
                measured=len(measured),
            )
        metrics = current_metrics()
        if metrics is not None:
            metrics.counter("tune.workloads").inc()
            metrics.counter(f"tune.recommended.{recommended.partition(':')[0]}").inc()
            metrics.histogram("tune.saved_bytes").observe(
                baseline["bytes"] - measured[recommended]["bytes"]
            )

    return WorkloadTuning(
        name=name,
        fingerprint=fingerprint_graph(graph, name=name),
        recommended=recommended,
        modeled_bytes=modeled,
        measured_bytes=measured,
        factor_log=factor_log,
        scan_log=scan_log,
    )


def tune_suite(
    names: "list[str] | tuple | None" = None,
    *,
    scale: float = 1.0,
    config: ParallelFactorConfig | None = None,
    verify_top: int = 3,
    path=None,
) -> tuple[TuningCache, list[WorkloadTuning]]:
    """Tune every named workload and build (optionally: persist) the cache.

    ``names`` defaults to every workload of
    :func:`repro.graphs.suite.tuning_workloads` (the representative small
    suite plus ``slow_frontier``); unknown names raise
    :class:`~repro.errors.ConfigError`.  When ``path`` is given the cache is
    saved there as schema-versioned JSON.
    """
    from ..graphs.suite import tuning_workloads

    workloads = tuning_workloads()
    if names is None:
        names = list(workloads)
    else:
        unknown = [n for n in names if n not in workloads]
        if unknown:
            raise ConfigError(
                f"unknown tuning workloads {unknown!r}; known: {sorted(workloads)}"
            )
    cache = TuningCache(scale=float(scale))
    tunings: list[WorkloadTuning] = []
    with trace_span(
        "tune-suite", category="stage", workloads=len(names), scale=float(scale)
    ):
        for workload in names:
            graph = prepare_graph(workloads[workload](scale))
            tuning = tune_graph(
                graph, name=workload, config=config, verify_top=verify_top
            )
            cache.record(tuning.entry)
            tunings.append(tuning)
    if path is not None:
        cache.save(path)
    return cache, tunings
