"""1-D vertex-range partitioning: the one parameter that shards the engines.

Every kernel of the pipeline is *row-local* — the proposition selects per
CSR row, mutualization writes per proposing vertex, the scan's scatter
writes per (vertex, lane), and band extraction writes per matrix row — so
the engines take a :class:`~repro.device.device.DeviceGroup` as ``device=``
and run each kernel once per non-empty shard on that shard's device.  The
vertex ids are split into ``n_shards`` contiguous ranges, the classic 1-D
block partition of distributed SpMV.  Contiguity is what makes the split
cheap *and* exact:

* CSR rows of one shard are one contiguous slice of ``indptr``/``indices``;
* every per-row kernel writes only rows it owns, so per-shard results
  concatenate into the single-device arrays bit for bit;
* ownership of any vertex id is one ``searchsorted`` into the range bounds.

A plain :class:`~repro.device.device.Device` is the one-shard case.
Empty shards are legal (``n_vertices < n_shards`` simply leaves the tail
shards empty) — the engines skip their launches entirely.

Reads of state owned by another shard are the *halo*; :meth:`Placement.halo`
is the one hook that meters them on the group's
:class:`~repro.device.interconnect.Interconnect`:

================= ====================================================
tag               halo protocol step
================= ====================================================
``halo.degree``   degrees of remote proposal targets (propose round)
``halo.charges``  charge flags of remote targets (charged rounds only)
``halo.props``    remote proposal rows pulled for the mutuality check
``halo.scan``     remote far tuples of the bidirectional scan's gather
``halo.bands``    band values scattered into a remote permuted range
================= ====================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .._validation import INDEX_DTYPE
from ..device.device import Device, DeviceGroup, default_device
from ..errors import ConfigError, ShapeError

__all__ = [
    "ENV_DEVICES",
    "Placement",
    "VertexPartition",
    "group_attrs",
    "resolve_device",
    "resolve_devices",
]

#: Environment variable consulted by :func:`resolve_devices` when no
#: explicit device count is given (mirrors ``REPRO_COMPACTION``).
ENV_DEVICES = "REPRO_DEVICES"


@dataclass(frozen=True)
class VertexPartition:
    """Contiguous vertex ranges ``[bounds[s], bounds[s+1])`` per shard.

    ``bounds`` has length ``n_shards + 1``, starts at 0, ends at
    ``n_vertices`` and is non-decreasing; equal consecutive bounds denote an
    empty shard.
    """

    bounds: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.ascontiguousarray(self.bounds, dtype=INDEX_DTYPE)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ShapeError("partition bounds must be 1-D with >= 2 entries")
        if int(bounds[0]) != 0:
            raise ShapeError(f"partition bounds must start at 0, got {bounds[0]}")
        if bool((np.diff(bounds) < 0).any()):
            raise ShapeError("partition bounds must be non-decreasing")
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def uniform(cls, n_vertices: int, n_shards: int) -> "VertexPartition":
        """Split ``[0, n_vertices)`` into ``n_shards`` near-equal ranges.

        Shard ``s`` receives ``[floor(s*n/S), floor((s+1)*n/S))``; sizes
        differ by at most one, and shards beyond ``n_vertices`` are empty.
        """
        if n_vertices < 0:
            raise ShapeError(f"n_vertices must be >= 0, got {n_vertices}")
        if n_shards < 1:
            raise ShapeError(f"n_shards must be >= 1, got {n_shards}")
        cuts = np.arange(n_shards + 1, dtype=np.int64)
        return cls(bounds=(cuts * n_vertices) // n_shards)

    # -- queries -----------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return int(self.bounds[-1])

    @property
    def n_shards(self) -> int:
        return int(self.bounds.size - 1)

    @property
    def sizes(self) -> np.ndarray:
        """Vertex count per shard."""
        return np.diff(self.bounds)

    def range_of(self, shard: int) -> tuple[int, int]:
        """Half-open vertex range ``[lo, hi)`` of one shard."""
        if not 0 <= shard < self.n_shards:
            raise ShapeError(f"shard must be in [0, {self.n_shards}), got {shard}")
        return int(self.bounds[shard]), int(self.bounds[shard + 1])

    def is_empty(self, shard: int) -> bool:
        lo, hi = self.range_of(shard)
        return lo == hi

    def owner_of(self, ids: np.ndarray) -> np.ndarray:
        """Shard index owning each vertex id.

        With empty shards several bounds coincide; ``searchsorted(...,
        side="right") - 1`` resolves the tie to the one non-empty shard that
        actually contains the id.
        """
        ids = np.asarray(ids)
        if ids.size and (
            bool((ids < 0).any()) or bool((ids >= self.n_vertices).any())
        ):
            raise ShapeError(
                f"vertex ids must be in [0, {self.n_vertices}) to have an owner"
            )
        return np.searchsorted(self.bounds, ids, side="right").astype(INDEX_DTYPE) - 1

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(shard, lo, hi)`` for every shard, empty ones included."""
        for s in range(self.n_shards):
            lo, hi = self.range_of(s)
            yield s, lo, hi

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VertexPartition(n_vertices={self.n_vertices}, "
            f"n_shards={self.n_shards}, sizes={self.sizes.tolist()})"
        )


class Placement:
    """The shards one engine call launches on.

    Binds a device — or each member of a
    :class:`~repro.device.device.DeviceGroup` — to one vertex range of a
    partition (default: :meth:`VertexPartition.uniform` over the devices).
    A plain :class:`~repro.device.device.Device` (or ``None``, the default
    device) is the one-shard case and launches exactly like the solo
    engines always have, even on an empty graph.
    """

    def __init__(
        self,
        device: Device | DeviceGroup | None,
        n_vertices: int,
        partition: VertexPartition | None = None,
    ):
        if isinstance(device, DeviceGroup):
            devices, interconnect = list(device), device.interconnect
        else:
            devices, interconnect = [device or default_device()], None
        if partition is None:
            partition = VertexPartition.uniform(n_vertices, len(devices))
        elif partition.n_shards != len(devices):
            raise ConfigError(
                f"partition has {partition.n_shards} shards for a "
                f"{len(devices)}-device group"
            )
        if partition.n_vertices != n_vertices:
            raise ShapeError(
                f"partition covers {partition.n_vertices} vertices, "
                f"graph has {n_vertices}"
            )
        self.partition = partition
        #: ``(shard, device, lo, hi)`` of every shard that launches.
        self.shards = [
            (s, devices[s], lo, hi)
            for s, lo, hi in partition
            if hi > lo or len(devices) == 1
        ]
        self._names = [dev.name for dev in devices]
        # the halo exists only between devices, and only a recording
        # interconnect keeps what it is told
        self._interconnect = (
            interconnect
            if interconnect is not None and interconnect.record and len(devices) > 1
            else None
        )

    def halo(
        self,
        shard: int,
        ids: np.ndarray | Callable[[], np.ndarray],
        nbytes_per_id: int,
        tag: str,
        *,
        push: bool = False,
    ) -> None:
        """Meter one halo exchange of ``shard``: the vertex ids it touches
        outside its own range, deduplicated (one message per remote row per
        step) and grouped into one transfer per owning peer.

        ``ids`` may be a zero-argument callable, evaluated only when the
        halo is metered: with one device, or an interconnect that does not
        record, the hook returns before any work.  ``push=False`` pulls
        from the owner; ``push=True`` ships shard-computed values to it.
        """
        if self._interconnect is None:
            return
        ids = np.asarray(ids() if callable(ids) else ids)
        lo, hi = self.partition.range_of(shard)
        remote = ids[(ids < lo) | (ids >= hi)]
        if remote.size == 0:
            return
        owners, counts = np.unique(
            self.partition.owner_of(np.unique(remote)), return_counts=True
        )
        me = self._names[shard]
        for other, count in zip(owners.tolist(), counts.tolist()):
            peer = self._names[other]
            src, dst = (me, peer) if push else (peer, me)
            self._interconnect.transfer(count * nbytes_per_id, src=src, dst=dst, tag=tag)


def group_attrs(device: Device | DeviceGroup | None) -> dict:
    """Span attributes of a run on ``device``: the group size of a sharded
    run, none for a single device (whose spans stay as they always were)."""
    return {"devices": len(device)} if isinstance(device, DeviceGroup) else {}


def resolve_devices(devices: int | str | None = None) -> int | None:
    """Resolve a device count from the argument or ``$REPRO_DEVICES``.

    Returns ``None`` when neither is set — the caller stays on the classic
    single-device path.  Mirrors the ``REPRO_COMPACTION`` convention:
    the explicit argument wins, the environment variable is the ambient
    default, and bad values raise :class:`~repro.errors.ConfigError`
    naming their source.
    """
    if devices is not None:
        try:
            value = int(devices)
        except (TypeError, ValueError):
            raise ConfigError(f"devices must be an integer, got {devices!r}") from None
        if value < 1:
            raise ConfigError(f"devices must be >= 1, got {value}")
        return value
    raw = os.environ.get(ENV_DEVICES, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{ENV_DEVICES} must be an integer device count, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{ENV_DEVICES} must be >= 1, got {value}")
    return value


def resolve_device(
    device: Device | DeviceGroup | None = None,
    devices: int | str | None = None,
    *,
    record: bool = False,
) -> Device | DeviceGroup:
    """The device an entry point runs on, from ``device=`` and ``devices=``.

    * A :class:`~repro.device.device.DeviceGroup` is used as given;
      ``devices``, when set, must equal its size.
    * A plain :class:`~repro.device.device.Device` is used as given — it
      pins the one-shard path even when ``$REPRO_DEVICES`` is set.  An
      explicit ``devices=1`` agrees with it; ``devices > 1`` is a
      :class:`~repro.errors.ConfigError` (a single device cannot host a
      sharded run).
    * With no device, :func:`resolve_devices` picks the count: none gives
      the default device (a fresh recording one with ``record=True``),
      ``N`` a new ``N``-device group that records only with ``record=True``.
    """
    if isinstance(device, DeviceGroup):
        if devices is not None and resolve_devices(devices) != len(device):
            raise ConfigError(
                f"devices={devices} does not match the {len(device)}-device group"
            )
        return device
    if device is not None:
        if devices is not None and resolve_devices(devices) > 1:
            raise ConfigError(
                "pass a DeviceGroup (or no device) together with devices=; "
                "a single Device cannot host a sharded run"
            )
        return device
    n_devices = resolve_devices(devices)
    if n_devices is None:
        return Device() if record else default_device()
    return DeviceGroup(n_devices, record=record)
