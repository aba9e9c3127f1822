"""A data-parallel *device simulator* standing in for the paper's GPU.

The paper implements every algorithm as a sequence of CUDA kernel launches on
an RTX 2080 Ti.  This subpackage reproduces the *execution model* rather than
the hardware:

* :class:`~repro.device.device.Device` — a launch context.  Every paper kernel
  becomes one whole-array NumPy operation wrapped in
  :meth:`Device.launch`, which enforces the "no intra-launch dependencies"
  discipline (callers must read from ping-pong *back* buffers) and meters the
  bytes read/written by the launch.
* :class:`~repro.device.device.DeviceGroup` — N devices plus an
  :class:`~repro.device.interconnect.Interconnect` whose byte meter is
  separate from device traffic.  Passed as ``device=``, it shards every
  engine over a 1-D vertex partition (:mod:`repro.core.partition`).
* :class:`~repro.device.buffers.PingPong` — double buffering, exactly the
  input/output buffer pairs of Section 4.2 of the paper.
* :class:`~repro.device.costmodel.CostModel` — a roofline model over the
  metered traffic (default bandwidth matches an RTX 2080 Ti) used by the
  performance benchmarks (Figures 3, 5, 6; Table 2).
* :mod:`~repro.device.profiler` — wall-clock phase timers for the setup-time
  breakdown of Figure 6.
"""

from .buffers import PingPong
from .costmodel import (
    CostModel,
    NVLINK_BANDWIDTH_GBS,
    PropositionTraffic,
    RTX_2080_TI_BANDWIDTH_GBS,
    proposition_traffic,
    scan_traffic,
    spmv_traffic,
)
from .device import Device, DeviceGroup, KernelLaunch, KernelRecord, default_device
from .interconnect import Interconnect, TransferRecord
from .profiler import PhaseTimer, TimingBreakdown
from .trace import KernelSummary, render_convergence, render_trace, summarize

__all__ = [
    "CostModel",
    "Device",
    "DeviceGroup",
    "Interconnect",
    "KernelLaunch",
    "KernelRecord",
    "KernelSummary",
    "NVLINK_BANDWIDTH_GBS",
    "PhaseTimer",
    "PingPong",
    "PropositionTraffic",
    "RTX_2080_TI_BANDWIDTH_GBS",
    "TimingBreakdown",
    "TransferRecord",
    "default_device",
    "proposition_traffic",
    "render_convergence",
    "render_trace",
    "scan_traffic",
    "spmv_traffic",
    "summarize",
]
