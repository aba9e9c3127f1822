"""Frontier-compaction policies shared by the proposition and scan engines.

Both convergence-aware engines keep a shrinking *frontier* of still-active
work items — directed edges for the :class:`~repro.core.proposer.PropositionEngine`,
(vertex, lane) pairs for the :class:`~repro.core.scan.BidirectionalScan` —
and historically compacted it every round: whenever items died, the
survivors were gathered into fresh dense buffers.  On fast-collapsing
frontiers that is the right call, but on slow-collapsing ones (ecology1-like
graphs, where only a sliver of the frontier dies per round) the repeated
full-buffer gathers can *exceed* the paper-exact loop's traffic — the
regression this module closes.

A :class:`CompactionPolicy` decides, per round, whether to gather now or to
carry the dead items a little longer:

* :class:`EagerCompaction` — compact whenever anything died (the historical
  behaviour, and the default);
* :class:`NeverCompaction` — never gather; dead items are masked out
  in-kernel forever;
* :class:`LazyCompaction` — gather once the dead fraction crosses a
  threshold;
* :class:`AdaptiveCompaction` — consult the roofline cost model
  (:func:`repro.device.costmodel.compaction_cost`): gather exactly when the
  projected dead-lane traffic of staying uncompacted exceeds the gather cost
  of compacting now.

**Bit-identity invariant.** A policy only chooses *when* dead items are
physically removed, never *which* items are dead: deadness is decided by the
engines' monotone retirement conditions, and every kernel masks dead items
exactly as if they had been gathered away.  All policies therefore produce
bit-identical factors, path ids and positions — property-tested in
``tests/properties/test_compaction_properties.py`` against the paper-exact
:mod:`repro.core.ablations` references.  Only launch traffic differs.

Policies are resolved from specs (``"eager"``, ``"never"``, ``"lazy"``,
``"lazy:0.25"``, ``"adaptive"``, ``"auto"``, or a policy instance) by
:func:`resolve_compaction`; with no spec, the ``REPRO_COMPACTION``
environment variable picks the process-wide default (CI runs the property
suite under ``never`` and ``adaptive`` to catch policy drift).  The
``"auto"`` spec defers to :mod:`repro.tune`: the per-matrix recommendation
recorded in ``tuning.json`` by ``repro tune``, falling back to adaptive
(with a :class:`~repro.tune.TuningWarning`) whenever no tuned entry applies
— see docs/TUNING.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..device.costmodel import CompactionCost, compaction_cost
from ..errors import ConfigError
from ..obs.metrics import current_metrics

__all__ = [
    "AdaptiveCompaction",
    "CompactionDecision",
    "CompactionPolicy",
    "EagerCompaction",
    "FrontierState",
    "LazyCompaction",
    "NeverCompaction",
    "POLICY_NAMES",
    "record_decision",
    "resolve_compaction",
    "wants_auto",
]

#: Spec names accepted by :func:`resolve_compaction`.
POLICY_NAMES = ("eager", "never", "lazy", "adaptive", "auto")

#: Environment variable holding the process-wide default policy spec.
ENV_VAR = "REPRO_COMPACTION"


@dataclass(frozen=True)
class FrontierState:
    """What an engine knows about its frontier when asking for a decision.

    ``gather_element_bytes`` / ``dead_element_bytes`` parameterize the cost
    model per engine (the proposition frontier moves ``(row, col, value)``
    triples, the scan only index/marker pairs); ``rounds_remaining`` bounds
    the dead-lane projection — the rounds that could still stream the dead
    items if they are kept.
    """

    live: int
    dead: int
    gather_element_bytes: int
    dead_element_bytes: int
    rounds_remaining: int

    @property
    def total(self) -> int:
        return self.live + self.dead

    @property
    def dead_fraction(self) -> float:
        return self.dead / self.total if self.total else 0.0


@dataclass(frozen=True)
class CompactionDecision:
    """One per-round verdict, with the cost-model numbers behind it.

    ``gather_bytes`` / ``dead_lane_bytes`` are the modeled costs of the two
    alternatives (compact now vs. carry the dead lanes for the remaining
    rounds); :attr:`estimated_saved_bytes` is the projected traffic the
    *chosen* action avoids relative to the alternative — it is what the
    observability layer reports as "estimated saved traffic".
    """

    policy: str
    compact: bool
    reason: str
    live: int
    dead: int
    dead_fraction: float
    gather_bytes: int
    dead_lane_bytes: int

    @property
    def estimated_saved_bytes(self) -> int:
        if self.compact:
            return self.dead_lane_bytes - self.gather_bytes
        return self.gather_bytes - self.dead_lane_bytes


def _cost(state: FrontierState) -> CompactionCost:
    return compaction_cost(
        live=state.live,
        dead=state.dead,
        gather_element_bytes=state.gather_element_bytes,
        dead_element_bytes=state.dead_element_bytes,
        rounds_remaining=state.rounds_remaining,
    )


def _decide(
    state: FrontierState,
    policy: str,
    compact: bool,
    reason: str,
    cost: CompactionCost | None = None,
) -> CompactionDecision:
    if state.dead == 0:
        compact, reason = False, "clean"
    if cost is None:
        cost = _cost(state)
    return CompactionDecision(
        policy=policy,
        compact=compact,
        reason=reason,
        live=state.live,
        dead=state.dead,
        dead_fraction=state.dead_fraction,
        gather_bytes=cost.gather_bytes,
        dead_lane_bytes=cost.dead_lane_bytes,
    )


@runtime_checkable
class CompactionPolicy(Protocol):
    """The pluggable when-to-gather rule of the frontier engines."""

    name: str

    def decide(self, state: FrontierState) -> CompactionDecision: ...


class EagerCompaction:
    """Compact whenever anything died — the historical compact-every-round."""

    name = "eager"

    def decide(self, state: FrontierState) -> CompactionDecision:
        return _decide(state, self.name, True, "dead>0")


class NeverCompaction:
    """Never gather; dead items stay masked in the buffers forever."""

    name = "never"

    def decide(self, state: FrontierState) -> CompactionDecision:
        return _decide(state, self.name, False, "never")


class LazyCompaction:
    """Gather once the dead fraction crosses ``threshold`` (default 0.5)."""

    def __init__(self, threshold: float = 0.5):
        if not (0.0 < threshold <= 1.0):
            raise ConfigError(
                f"lazy compaction threshold must be in (0, 1], got {threshold}"
            )
        self.threshold = float(threshold)

    @property
    def name(self) -> str:
        return f"lazy({self.threshold:g})"

    def decide(self, state: FrontierState) -> CompactionDecision:
        crossed = state.dead_fraction >= self.threshold
        reason = (
            f"dead {state.dead_fraction:.2f} >= {self.threshold:g}"
            if crossed
            else f"dead {state.dead_fraction:.2f} < {self.threshold:g}"
        )
        return _decide(state, self.name, crossed, reason)


class AdaptiveCompaction:
    """Cost-model driven: gather exactly when it is projected to pay off.

    Uses :func:`repro.device.costmodel.compaction_cost` to compare the gather
    cost of compacting now against the dead-lane traffic of carrying the dead
    items through the remaining rounds; compacts iff the latter is larger.
    """

    name = "adaptive"

    def decide(self, state: FrontierState) -> CompactionDecision:
        cost = _cost(state)
        if cost.compaction_saves:
            reason = f"gather {cost.gather_bytes} < carry {cost.dead_lane_bytes}"
        else:
            reason = f"gather {cost.gather_bytes} >= carry {cost.dead_lane_bytes}"
        return _decide(state, self.name, cost.compaction_saves, reason, cost)


def wants_auto(spec: "CompactionPolicy | str | None") -> bool:
    """True when ``spec`` (or the environment default) names the ``auto`` policy.

    Engines whose constructor does not see the graph (the scan receives it
    only at :meth:`~repro.core.scan.BidirectionalScan.run` time) use this to
    defer :func:`resolve_compaction` until a graph is available to
    fingerprint.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR, "").strip() or "eager"
    return isinstance(spec, str) and spec.partition(":")[0].strip().lower() == "auto"


def resolve_compaction(
    spec: "CompactionPolicy | str | None" = None,
    *,
    graph=None,
) -> CompactionPolicy:
    """Turn a policy spec into a policy instance.

    ``None`` falls back to the ``REPRO_COMPACTION`` environment variable and
    finally to ``"eager"``.  String specs: ``eager``, ``never``, ``lazy``,
    ``lazy:<threshold>``, ``adaptive``, ``auto``.  Policy instances pass
    through.

    ``"auto"`` consults the :mod:`repro.tune` cache (``tuning.json`` /
    ``$REPRO_TUNING_CACHE``) under the fingerprint of ``graph`` — the
    *prepared* adjacency the engine will run on, passed by the engines
    themselves.  A missing graph, a missing/corrupt cache or a fingerprint
    miss all degrade to :class:`AdaptiveCompaction` with a
    :class:`~repro.tune.TuningWarning`; the ``"auto"`` path never raises.

    Every :class:`~repro.errors.ConfigError` raised here names where the bad
    spec came from — the ``REPRO_COMPACTION`` environment variable or an
    explicit ``compaction=`` spec — because the resolution happens deep
    inside the engines, far from whoever set the value.
    """
    source = "explicit compaction= spec"
    if spec is None:
        env = os.environ.get(ENV_VAR, "").strip()
        spec = env or "eager"
        if env:
            source = f"{ENV_VAR} environment variable"
    if isinstance(spec, str):
        base, _, arg = spec.partition(":")
        base = base.strip().lower()
        if base == "auto":
            if arg:
                raise ConfigError(
                    f"compaction policy 'auto' takes no argument, got {spec!r} "
                    f"(from {source})"
                )
            # deferred import: repro.tune imports this module at load time
            from ..tune import auto_policy

            return auto_policy(graph)
        if base == "eager":
            policy = EagerCompaction()
        elif base == "never":
            policy = NeverCompaction()
        elif base == "lazy":
            try:
                policy = LazyCompaction(float(arg)) if arg else LazyCompaction()
            except (ValueError, ConfigError) as exc:
                detail = f": {exc}" if isinstance(exc, ConfigError) else ""
                raise ConfigError(
                    f"bad lazy compaction threshold {arg!r} in spec {spec!r} "
                    f"(from {source}){detail}"
                ) from exc
        elif base == "adaptive":
            policy = AdaptiveCompaction()
        else:
            raise ConfigError(
                f"unknown compaction policy {spec!r} (from {source}); expected "
                f"one of {POLICY_NAMES} (lazy accepts lazy:<threshold>)"
            )
        if arg and base != "lazy":
            raise ConfigError(
                f"compaction policy {base!r} takes no argument, got {spec!r} "
                f"(from {source})"
            )
        return policy
    if isinstance(spec, CompactionPolicy):
        return spec
    raise ConfigError(
        f"cannot resolve a compaction policy from {spec!r} (from {source})"
    )


def record_decision(decision: CompactionDecision, *, engine: str, launch=None) -> None:
    """Publish one decision to the observability surfaces.

    Annotates the enclosing kernel launch (the notes ride the
    :class:`~repro.device.device.KernelRecord` and its tracer span, so
    :func:`repro.device.trace.render_convergence` can show them) and bumps
    the ambient :class:`~repro.obs.metrics.MetricsRegistry` when one is
    installed.
    """
    if launch is not None:
        launch.annotate(
            compaction="compact" if decision.compact else "skip",
            compaction_policy=decision.policy,
            dead_fraction=decision.dead_fraction,
            est_saved_bytes=decision.estimated_saved_bytes,
        )
    metrics = current_metrics()
    if metrics is not None:
        prefix = f"compaction.{engine}"
        metrics.counter(f"{prefix}.decisions").inc()
        metrics.counter(f"{prefix}.compacts" if decision.compact else f"{prefix}.skips").inc()
        metrics.histogram(f"{prefix}.dead_fraction").observe(decision.dead_fraction)
        metrics.histogram(f"{prefix}.est_saved_bytes").observe(decision.estimated_saved_bytes)
