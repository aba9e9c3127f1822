"""Kernel-launch accounting for the simulated device.

Every data-parallel step of the paper's algorithms is executed through
:meth:`Device.launch`.  The launch records

* which arrays were read and written and how many bytes that moved through
  (simulated) global memory, mirroring the traffic analysis of Table 2 of the
  paper, and
* the wall-clock time of the vectorized NumPy body, which is the "real"
  measurement used by the performance benchmarks, and
* optional *convergence telemetry*: how many scan lanes were still active
  when the launch fired (the frontier size of the convergence-aware
  bidirectional scan), against the total lane count.

Records survive kernel failures: a body that raises still leaves its
:class:`KernelRecord` in the log (with the time spent up to the exception),
so a partially failed run keeps a truthful Figure-6 style breakdown.

When a :class:`~repro.obs.tracer.Tracer` is active (installed with
:func:`repro.obs.use_tracer`, or passed to the device), every launch also
opens a ``kernel`` span nested under the caller's phase/stage spans, closed
with the launch's bytes, telemetry and — on a raising body — an ``error``
attribute.  Without a tracer the span path costs one ``None`` check.

The device does not try to emulate warps or shared memory — the algorithms in
the paper are specified at the granularity of whole kernel launches over all
vertices/nonzeros, and a vectorized NumPy expression has exactly those
semantics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..obs.tracer import Tracer, current_tracer, monotonic_clock
from .interconnect import Interconnect

__all__ = ["Device", "DeviceGroup", "KernelLaunch", "KernelRecord", "default_device"]


def _nbytes(arrays: Iterable[np.ndarray]) -> int:
    total = 0
    for a in arrays:
        total += int(np.asarray(a).nbytes)
    return total


@dataclass
class KernelRecord:
    """Accounting record for one simulated kernel launch."""

    name: str
    bytes_read: int
    bytes_written: int
    seconds: float
    launch_index: int
    #: Lanes still unconverged when the launch fired (scan kernels only).
    active_lanes: int | None = None
    #: Total lane count the frontier is measured against (scan kernels only).
    total_lanes: int | None = None
    #: Free-form annotations attached by the kernel body (e.g. the per-round
    #: compaction decision of the frontier engines).  Empty for plain kernels.
    notes: dict = field(default_factory=dict)

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def active_fraction(self) -> float | None:
        """Frontier occupancy of this launch, or ``None`` without telemetry."""
        if self.active_lanes is None or not self.total_lanes:
            return None
        return self.active_lanes / self.total_lanes


class KernelLaunch:
    """Handle yielded by :meth:`Device.launch`.

    Kernels whose buffer footprint is only known *inside* the body (e.g. the
    compacted gathers of the frontier-based scan) register their traffic on
    this handle instead of declaring full arrays up front.  On a
    non-recording device the handle is inert.
    """

    __slots__ = (
        "enabled",
        "bytes_read",
        "bytes_written",
        "active_lanes",
        "total_lanes",
        "notes",
    )

    def __init__(
        self,
        *,
        enabled: bool = True,
        active_lanes: int | None = None,
        total_lanes: int | None = None,
    ):
        self.enabled = enabled
        self.bytes_read = 0
        self.bytes_written = 0
        self.active_lanes = active_lanes
        self.total_lanes = total_lanes
        self.notes: dict = {}

    def reads(self, *arrays: np.ndarray) -> None:
        """Register additional buffers read by this launch."""
        if self.enabled:
            self.bytes_read += _nbytes(arrays)

    def writes(self, *arrays: np.ndarray) -> None:
        """Register additional buffers written by this launch."""
        if self.enabled:
            self.bytes_written += _nbytes(arrays)

    def meter(self, *, read: int = 0, written: int = 0) -> None:
        """Register raw byte counts for traffic the body never materializes
        as arrays (e.g. a fused kernel's, or entries charged per count)."""
        if self.enabled:
            self.bytes_read += int(read)
            self.bytes_written += int(written)

    def telemetry(
        self, *, active_lanes: int | None = None, total_lanes: int | None = None
    ) -> None:
        """Attach (or override) the frontier telemetry of this launch."""
        if active_lanes is not None:
            self.active_lanes = int(active_lanes)
        if total_lanes is not None:
            self.total_lanes = int(total_lanes)

    def annotate(self, **notes) -> None:
        """Attach free-form notes to this launch's record and span."""
        if self.enabled:
            self.notes.update(notes)


#: Shared inert handle for non-recording devices.
_DISABLED_LAUNCH = KernelLaunch(enabled=False)

#: Span attributes owned by the launch accounting; notes cannot shadow them.
_RESERVED_SPAN_KEYS = frozenset(
    {"seconds", "bytes_read", "bytes_written", "active_lanes", "total_lanes", "error"}
)


class _LaunchQueries:
    """The launch-log queries of :class:`Device` and :class:`DeviceGroup`,
    written once over ``kernels``: a device's own log, or a group's
    members' logs concatenated in member order."""

    kernels: list[KernelRecord]

    @property
    def launch_count(self) -> int:
        return len(self.kernels)

    def records(self, name_prefix: str | None = None) -> list[KernelRecord]:
        """All launch records, optionally filtered by name prefix."""
        if name_prefix is None:
            return list(self.kernels)
        return [k for k in self.kernels if k.name.startswith(name_prefix)]

    def total_bytes(self, name_prefix: str | None = None) -> int:
        return sum(k.bytes_total for k in self.records(name_prefix))

    def total_seconds(self, name_prefix: str | None = None) -> float:
        return sum(k.seconds for k in self.records(name_prefix))

    def convergence_history(self, name_prefix: str | None = None) -> list[int]:
        """Active-lane counts of the launches that carry frontier telemetry,
        in launch order — the convergence curve of a scan (or of the
        proposition engine, via the ``propose``/``mutualize`` prefixes)."""
        return [
            k.active_lanes
            for k in self.records(name_prefix)
            if k.active_lanes is not None
        ]

    def frontier_fractions(self, name_prefix: str | None = None) -> list[float]:
        """Per-launch frontier occupancy (active / total lanes), in launch
        order, for the launches that report both counts."""
        return [
            f
            for f in (k.active_fraction for k in self.records(name_prefix))
            if f is not None
        ]


class Device(_LaunchQueries):
    """A simulated data-parallel device.

    Parameters
    ----------
    name:
        Purely informational label.
    record:
        When ``False`` the device skips all bookkeeping; launches still run
        their bodies.  Useful to remove metering overhead from tight loops.
    tracer:
        Span sink for the launches.  When ``None`` (the default), the
        ambient tracer installed with :func:`repro.obs.use_tracer` is used
        — and when none is installed either, no spans are recorded.
    """

    def __init__(
        self,
        name: str = "simulated-gpu",
        record: bool = True,
        tracer: Tracer | None = None,
    ):
        self.name = name
        self.record = record
        self.tracer = tracer
        self.kernels: list[KernelRecord] = []

    def _span_sink(self) -> Tracer | None:
        return self.tracer if self.tracer is not None else current_tracer()

    # -- launching ---------------------------------------------------------
    @contextmanager
    def launch(
        self,
        name: str,
        *,
        reads: Iterable[np.ndarray] = (),
        writes: Iterable[np.ndarray] = (),
        active_lanes: int | None = None,
        total_lanes: int | None = None,
    ) -> Iterator[KernelLaunch]:
        """Run one kernel launch.

        The body of the ``with`` block is the kernel; ``reads``/``writes``
        declare the global-memory buffers it touches.  Bytes are metered from
        the declared arrays, wall-clock time from the block itself.  The
        yielded :class:`KernelLaunch` lets the body register buffers whose
        size is only known mid-kernel, and attach frontier telemetry.

        The record is written even when the body raises — the exception
        still propagates, but timing and traffic of the failed launch stay
        in the log, and the launch's span (when a tracer is active) closes
        with an ``error`` attribute naming the exception type.
        """
        tracer = self._span_sink()
        if not self.record and tracer is None:
            yield _DISABLED_LAUNCH
            return
        if not self.record:
            # tracing-only launch: time the body, no byte metering
            with tracer.span(name, category="kernel"):
                yield _DISABLED_LAUNCH
            return
        handle = KernelLaunch(active_lanes=active_lanes, total_lanes=total_lanes)
        handle.bytes_read = _nbytes(reads)
        handle.bytes_written = _nbytes(writes)
        span = tracer.start_span(name, category="kernel") if tracer else None
        error = None
        start = monotonic_clock()
        try:
            yield handle
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            seconds = monotonic_clock() - start
            self.kernels.append(
                KernelRecord(
                    name=name,
                    bytes_read=handle.bytes_read,
                    bytes_written=handle.bytes_written,
                    seconds=seconds,
                    launch_index=len(self.kernels),
                    active_lanes=handle.active_lanes,
                    total_lanes=handle.total_lanes,
                    notes=dict(handle.notes),
                )
            )
            if span is not None:
                # Notes ride the span as extra attributes; the fixed
                # accounting keys always win on collision.
                extra = {
                    k: v for k, v in handle.notes.items() if k not in _RESERVED_SPAN_KEYS
                }
                tracer.end_span(
                    span,
                    seconds=seconds,
                    bytes_read=handle.bytes_read,
                    bytes_written=handle.bytes_written,
                    active_lanes=handle.active_lanes,
                    total_lanes=handle.total_lanes,
                    error=error,
                    **extra,
                )

    def reset(self) -> None:
        self.kernels.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device(name={self.name!r}, launches={self.launch_count})"


class DeviceGroup(_LaunchQueries):
    """N simulated devices plus the interconnect between them.

    Passed to an engine as ``device=``, the group runs each vertex-range
    shard of a :class:`~repro.core.partition.VertexPartition` on one member
    device; traffic between shards is metered on :attr:`interconnect`
    instead.  Members are named ``gpu0 … gpuN-1`` so
    their launches stay distinguishable in traces
    (:func:`repro.device.trace.summarize` aggregates per device *and* as a
    group total).

    The group shares the query surface of a single :class:`Device`
    (``launch_count``, ``records``, ``total_bytes``, ``total_seconds``,
    ``convergence_history``, ``frontier_fractions``) over :attr:`kernels`,
    its members' records in member order, and ``reset`` clears every
    member, so run-report builders and renderers accept a group wherever
    they accept a device.
    """

    def __init__(self, n_devices: int, *, record: bool = True):
        if int(n_devices) < 1:
            raise ValueError(f"a device group needs >= 1 devices, got {n_devices}")
        self.name = "gpu-group"
        self.record = record
        self.devices = [Device(f"gpu{i}", record=record) for i in range(int(n_devices))]
        self.interconnect = Interconnect(record=record)

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, i: int) -> Device:
        return self.devices[i]

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    # -- aggregate queries ---------------------------------------------------
    @property
    def kernels(self) -> list[KernelRecord]:
        """All members' launch records, in member order."""
        out: list[KernelRecord] = []
        for dev in self.devices:
            out.extend(dev.kernels)
        return out

    def per_device_launches(self) -> dict[str, int]:
        """Launch count per member device, keyed by device name."""
        return {dev.name: dev.launch_count for dev in self.devices}

    def per_device_bytes(self) -> dict[str, int]:
        """Total metered bytes per member device, keyed by device name."""
        return {dev.name: dev.total_bytes() for dev in self.devices}

    def reset(self) -> None:
        for dev in self.devices:
            dev.reset()
        self.interconnect.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = (
            f"{self.devices[0].name}..{self.devices[-1].name}"
            if len(self.devices) > 1
            else self.devices[0].name
        )
        return (
            f"DeviceGroup(name={self.name!r}, devices=[{names}], "
            f"launches={self.launch_count}, "
            f"interconnect_bytes={self.interconnect.total_bytes()})"
        )


@dataclass
class _DefaultDeviceHolder:
    device: Device = field(default_factory=lambda: Device(record=False))


_HOLDER = _DefaultDeviceHolder()


def default_device() -> Device:
    """The process-wide default device (bookkeeping disabled)."""
    return _HOLDER.device
