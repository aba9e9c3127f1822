"""Inter-device transfer accounting for a simulated multi-GPU group.

A :class:`~repro.device.device.DeviceGroup` partitions the vertex set over N
simulated devices; whenever a shard touches state owned by another shard —
remote degrees/charges during a proposition round, a remote proposal row
during mutualization, a remote far tuple of the bidirectional scan, a band
value scattered into another shard's permuted range — those bytes cross the
:class:`Interconnect` instead of (only) the owning device's global memory.

The interconnect is metered *separately* from device traffic on purpose:
the sharded engine's scaling claim is that per-device traffic shrinks like
``1/N`` while interconnect traffic stays sublinear in total traffic (it is
proportional to the partition *cut*, not to the graph).  The budget gate in
``benchmarks/test_shard_budget.py`` pins exactly that separation.

Like :meth:`Device.launch`, every transfer feeds the ambient observability
surfaces: the ``interconnect.bytes`` / ``interconnect.transfers`` counters of
the installed :class:`~repro.obs.metrics.MetricsRegistry` (plus a per-tag
``interconnect.bytes[<tag>]`` breakdown), so run reports carry the halo
traffic without any extra plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import current_metrics

__all__ = ["Interconnect", "TransferRecord"]


@dataclass(frozen=True)
class TransferRecord:
    """Accounting record for one inter-device transfer."""

    src: str
    dst: str
    nbytes: int
    tag: str
    transfer_index: int


class Interconnect:
    """Byte meter for the links between the devices of a group.

    Parameters
    ----------
    record:
        When ``False`` all bookkeeping is skipped (mirroring
        ``Device(record=False)``); transfers become no-ops.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.transfers: list[TransferRecord] = []

    # -- transfers ---------------------------------------------------------
    def transfer(self, nbytes: int, *, src: str, dst: str, tag: str = "halo") -> None:
        """Meter one transfer of ``nbytes`` bytes from ``src`` to ``dst``.

        Zero-byte transfers are dropped (an empty halo moves nothing, and
        the edge-case tests assert ``transfer_count == 0`` when no halo
        crosses the cut).  A device never transfers to itself — local reads
        belong on the device's own launch meter.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if src == dst:
            raise ValueError(
                f"interconnect transfer from {src!r} to itself; "
                "local traffic belongs on the device launch meter"
            )
        if nbytes == 0 or not self.record:
            return
        self.transfers.append(
            TransferRecord(
                src=src, dst=dst, nbytes=nbytes, tag=tag,
                transfer_index=len(self.transfers),
            )
        )
        metrics = current_metrics()
        if metrics is not None:
            metrics.counter("interconnect.bytes").inc(nbytes)
            metrics.counter("interconnect.transfers").inc()
            metrics.counter(f"interconnect.bytes[{tag}]").inc(nbytes)

    # -- queries -----------------------------------------------------------
    @property
    def transfer_count(self) -> int:
        return len(self.transfers)

    def records(self, tag_prefix: str | None = None) -> list[TransferRecord]:
        """All transfer records, optionally filtered by tag prefix."""
        if tag_prefix is None:
            return list(self.transfers)
        return [t for t in self.transfers if t.tag.startswith(tag_prefix)]

    def total_bytes(self, tag_prefix: str | None = None) -> int:
        return sum(t.nbytes for t in self.records(tag_prefix))

    def bytes_by_tag(self) -> dict[str, int]:
        """Total transferred bytes per tag (halo protocol breakdown)."""
        out: dict[str, int] = {}
        for t in self.transfers:
            out[t.tag] = out.get(t.tag, 0) + t.nbytes
        return out

    def bytes_by_pair(self) -> dict[tuple[str, str], int]:
        """Total transferred bytes per directed (src, dst) link."""
        out: dict[tuple[str, str], int] = {}
        for t in self.transfers:
            key = (t.src, t.dst)
            out[key] = out.get(key, 0) + t.nbytes
        return out

    def reset(self) -> None:
        self.transfers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Interconnect(transfers={self.transfer_count}, "
            f"bytes={self.total_bytes()})"
        )
