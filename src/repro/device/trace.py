"""Profiler-style reporting over a run's kernel-launch stream.

The paper measures its kernels with NVIDIA Nsight Compute; this module is
the simulator's analogue: aggregate the launch stream by kernel name and
render runtimes, traffic and achieved throughput, plus modeled GPU-time
under the roofline cost model and — for kernels that report it — the mean
frontier occupancy ("active %", the fraction of scan lanes still
unconverged when the launches fired).

Every renderer here is a *view over the same span stream*: the functions
accept either a :class:`~repro.device.device.Device` (whose launch log is
one :class:`KernelRecord` per launch) or a
:class:`~repro.obs.tracer.Tracer` (whose ``kernel``-category spans carry
the identical bytes/seconds/telemetry attributes, written by
:meth:`Device.launch`).  Both sources reconstruct the same records, so the
text tables, the Chrome trace export and the
:func:`repro.obs.build_run_report` JSON all agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import render_table
from .costmodel import CostModel
from .device import Device, DeviceGroup, KernelRecord

__all__ = ["KernelSummary", "render_convergence", "render_trace", "summarize"]


@dataclass(frozen=True)
class KernelSummary:
    """Aggregated statistics for one kernel name (launch indices stripped)."""

    name: str
    launches: int
    seconds: float
    bytes_total: int
    #: Summed active-lane telemetry.  When any launch reports both counts,
    #: only those launches contribute (so :attr:`active_fraction` is a true
    #: occupancy); otherwise the raw active sum over all telemetered
    #: launches (else None).
    active_lanes: int | None = None
    #: Summed total-lane telemetry over the launches that report *both*
    #: counts (else None).
    total_lanes: int | None = None

    @property
    def achieved_gbs(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.bytes_total / self.seconds / 1e9

    @property
    def active_fraction(self) -> float | None:
        """Mean frontier occupancy across the telemetered launches."""
        if self.active_lanes is None or not self.total_lanes:
            return None
        return self.active_lanes / self.total_lanes

    def modeled_seconds(self, cost: CostModel) -> float:
        return cost.seconds(self.bytes_total)


def _base_name(record: KernelRecord) -> str:
    """Strip the per-iteration suffix: ``propose[k=3]`` -> ``propose``."""
    return record.name.split("[", 1)[0]


def _kernel_records(source) -> list[KernelRecord]:
    """Normalize a launch-stream source to a list of :class:`KernelRecord`.

    ``source`` may be a :class:`Device` (its launch log is returned as-is),
    a :class:`DeviceGroup` (all member devices' logs concatenated), a
    :class:`~repro.obs.tracer.Tracer` (its ``kernel`` spans are converted
    — the attributes written by :meth:`Device.launch` carry the same
    fields), or any iterable of records.
    """
    if isinstance(source, (Device, DeviceGroup)):
        return list(source.kernels)
    if hasattr(source, "spans"):
        fixed = {"seconds", "bytes_read", "bytes_written", "active_lanes", "total_lanes", "error"}
        records = []
        for span in source.spans:
            if getattr(span, "category", None) != "kernel":
                continue
            at = span.attributes
            seconds = at.get("seconds")
            if seconds is None:
                seconds = span.seconds or 0.0
            records.append(
                KernelRecord(
                    name=span.name,
                    bytes_read=int(at.get("bytes_read", 0)),
                    bytes_written=int(at.get("bytes_written", 0)),
                    seconds=float(seconds),
                    launch_index=len(records),
                    active_lanes=at.get("active_lanes"),
                    total_lanes=at.get("total_lanes"),
                    notes={k: v for k, v in at.items() if k not in fixed},
                )
            )
        return records
    return list(source)


def _source_name(source) -> str:
    return getattr(source, "name", "kernel records")


def summarize(source, *, per_device: bool = False) -> list[KernelSummary]:
    """Aggregate a launch stream (device, group, tracer, or records) by base name.

    Occupancy is aggregated only over launches that report *both* lane
    counts: a launch carrying ``active_lanes`` without ``total_lanes``
    would otherwise inflate the numerator while missing from the
    denominator and skew the "active %".  When no launch of a kernel
    reports both, the raw active sum is kept (fraction stays ``None``).

    For a :class:`DeviceGroup`, the default aggregates across all member
    devices (group totals — what the run reports consume, with no
    double-counting).  ``per_device=True`` instead prefixes each member's
    summaries with its device name (``gpu0:propose``) and appends the group
    totals prefixed ``all:``; for any other source the flag is a no-op.
    """
    if per_device and isinstance(source, DeviceGroup):
        from dataclasses import replace

        out = []
        for dev in source.devices:
            out.extend(
                replace(s, name=f"{dev.name}:{s.name}") for s in summarize(dev)
            )
        out.extend(replace(s, name=f"all:{s.name}") for s in summarize(source))
        return out
    acc: dict[str, list[KernelRecord]] = {}
    for rec in _kernel_records(source):
        acc.setdefault(_base_name(rec), []).append(rec)
    out = []
    for name, records in acc.items():
        telemetered = [r for r in records if r.active_lanes is not None]
        paired = [r for r in telemetered if r.total_lanes]
        if paired:
            active = sum(r.active_lanes for r in paired)
            total = sum(r.total_lanes for r in paired)
        elif telemetered:
            active = sum(r.active_lanes for r in telemetered)
            total = None
        else:
            active = None
            total = None
        out.append(
            KernelSummary(
                name=name,
                launches=len(records),
                seconds=sum(r.seconds for r in records),
                bytes_total=sum(r.bytes_total for r in records),
                active_lanes=active,
                total_lanes=total,
            )
        )
    out.sort(key=lambda s: s.seconds, reverse=True)
    return out


def render_trace(source, *, cost: CostModel | None = None) -> str:
    """Render the aggregated launch stream as an aligned text table.

    A :class:`DeviceGroup` renders per-device rows (``gpu0:propose``) plus
    the ``all:`` group totals, followed by one ``interconnect:<tag>`` row
    per halo tag — transfer counts, bytes, and the modeled link time under
    ``cost.interconnect_seconds`` (interconnect rows have no kernel time or
    occupancy).
    """
    cost = cost or CostModel()
    rows = []
    for s in summarize(source, per_device=True):
        fraction = s.active_fraction
        rows.append(
            [
                s.name,
                s.launches,
                s.seconds * 1e3,
                s.bytes_total,
                s.achieved_gbs,
                s.modeled_seconds(cost) * 1e3,
                None if fraction is None else 100.0 * fraction,
            ]
        )
    if isinstance(source, DeviceGroup):
        by_tag = source.interconnect.bytes_by_tag()
        for tag in sorted(by_tag):
            nbytes = by_tag[tag]
            transfers = len(source.interconnect.records(tag))
            rows.append(
                [
                    f"interconnect:{tag}",
                    transfers,
                    None,
                    nbytes,
                    None,
                    cost.interconnect_seconds(nbytes) * 1e3,
                    None,
                ]
            )
    return render_table(
        ["kernel", "launches", "time (ms)", "bytes", "GB/s", "modeled (ms)", "active %"],
        rows,
        digits=3,
        title=f"device trace: {_source_name(source)}",
    )


_CONVERGENCE_HEADERS = ["launch", "active", "total", "active %", "bytes"]
_COMPACTION_HEADERS = ["compaction", "dead %", "est saved"]


def render_convergence(source, name_prefix: str | None = None) -> str:
    """Per-launch frontier table for the telemetered kernels.

    Where :func:`render_trace` aggregates by kernel base name, this keeps
    every launch as its own row — the per-round convergence curve of a scan
    or of the proposition engine (``name_prefix="propose"``).  A source
    without any telemetered launch renders a well-formed empty table
    (title + headers, no rows).

    Launches annotated with a frontier-compaction decision (see
    :mod:`repro.core.frontier`) grow three extra columns — the compact/skip
    verdict, the dead fraction of the frontier, and the estimated traffic
    saved by the chosen action; the columns appear only when at least one
    selected launch carries the annotation.
    """
    records = [
        rec
        for rec in _kernel_records(source)
        if (name_prefix is None or rec.name.startswith(name_prefix))
        and rec.active_lanes is not None
    ]
    with_compaction = any("compaction" in rec.notes for rec in records)
    rows = []
    for rec in records:
        fraction = rec.active_fraction
        row = [
            rec.name,
            rec.active_lanes,
            rec.total_lanes,
            None if fraction is None else 100.0 * fraction,
            rec.bytes_total,
        ]
        if with_compaction:
            decision = rec.notes.get("compaction")
            dead = rec.notes.get("dead_fraction")
            row.extend(
                [
                    decision,
                    None if dead is None else 100.0 * float(dead),
                    rec.notes.get("est_saved_bytes"),
                ]
            )
        rows.append(row)
    headers = _CONVERGENCE_HEADERS + (_COMPACTION_HEADERS if with_compaction else [])
    return render_table(
        headers,
        rows,
        digits=2,
        title=f"frontier convergence: {_source_name(source)}",
    )
