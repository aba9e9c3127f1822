"""Unit tests for the simulated device (kernel-launch accounting)."""

import numpy as np
import pytest

from repro.device import Device, default_device


def test_launch_records_bytes_and_time():
    dev = Device()
    a = np.zeros(100, dtype=np.float64)
    b = np.zeros(50, dtype=np.int64)
    with dev.launch("k", reads=(a,), writes=(b,)):
        b[:] = 1
    assert dev.launch_count == 1
    rec = dev.kernels[0]
    assert rec.name == "k"
    assert rec.bytes_read == 800
    assert rec.bytes_written == 400
    assert rec.bytes_total == 1200
    assert rec.seconds >= 0.0
    assert rec.launch_index == 0


def test_record_disabled_skips_bookkeeping():
    dev = Device(record=False)
    ran = []
    with dev.launch("k"):
        ran.append(True)
    assert ran == [True]
    assert dev.launch_count == 0


def test_records_filter_by_prefix():
    dev = Device()
    for name in ("propose[k=0]", "propose[k=1]", "mutualize[k=0]"):
        with dev.launch(name):
            pass
    assert len(dev.records("propose")) == 2
    assert len(dev.records("mutualize")) == 1
    assert len(dev.records()) == 3


def test_totals_and_reset():
    dev = Device()
    a = np.zeros(10)
    with dev.launch("x", reads=(a,)):
        pass
    with dev.launch("x", writes=(a,)):
        pass
    assert dev.total_bytes("x") == 160
    assert dev.total_seconds() >= 0.0
    dev.reset()
    assert dev.launch_count == 0


def test_default_device_is_no_record():
    dev = default_device()
    with dev.launch("k"):
        pass
    assert dev.launch_count == 0


def test_launch_indices_increment():
    dev = Device()
    for _ in range(3):
        with dev.launch("k"):
            pass
    assert [r.launch_index for r in dev.kernels] == [0, 1, 2]


def test_launch_records_survive_exception():
    """A kernel that faults must still leave a truthful record behind."""
    dev = Device()
    a = np.zeros(25, dtype=np.float64)
    with pytest.raises(RuntimeError, match="boom"):
        with dev.launch("faulty", reads=(a,)):
            raise RuntimeError("boom")
    assert dev.launch_count == 1
    rec = dev.kernels[0]
    assert rec.name == "faulty"
    assert rec.bytes_read == 200
    assert rec.seconds >= 0.0


def test_launch_handle_deferred_registration():
    """Bytes known only mid-body register through the launch handle."""
    dev = Device()
    with dev.launch("gather") as kl:
        idx = np.arange(8, dtype=np.int64)
        kl.reads(idx)
        out = np.zeros(8, dtype=np.float64)
        kl.writes(out)
    rec = dev.kernels[0]
    assert rec.bytes_read == 64
    assert rec.bytes_written == 64


def test_launch_handle_meters_raw_byte_counts():
    """``meter`` charges counts for buffers the body never materializes, and
    adds to what ``reads``/``writes`` registered."""
    dev = Device()
    with dev.launch("fused") as kl:
        kl.reads(np.zeros(4, dtype=np.float64))
        kl.meter(read=100)
        kl.meter(written=7)
        kl.meter(read=1, written=2)
    rec = dev.kernels[0]
    assert rec.bytes_read == 32 + 100 + 1
    assert rec.bytes_written == 9


def test_launch_handle_meter_is_inert_when_not_recording():
    """The shared handle of non-recording devices must not accumulate."""
    for dev in (Device(record=False), default_device()):
        with dev.launch("fused") as kl:
            kl.meter(read=100, written=50)
        assert kl.bytes_read == 0
        assert kl.bytes_written == 0
        assert dev.launch_count == 0


def test_launch_handle_registration_survives_exception():
    dev = Device()
    with pytest.raises(ValueError):
        with dev.launch("gather") as kl:
            kl.reads(np.zeros(4, dtype=np.float64))
            raise ValueError
    assert dev.kernels[0].bytes_read == 32


def test_launch_telemetry_fields():
    dev = Device()
    with dev.launch("scan", active_lanes=6, total_lanes=20):
        pass
    rec = dev.kernels[0]
    assert rec.active_lanes == 6
    assert rec.total_lanes == 20
    assert rec.active_fraction == pytest.approx(0.3)


def test_launch_telemetry_via_handle():
    dev = Device()
    with dev.launch("scan") as kl:
        kl.telemetry(active_lanes=3, total_lanes=12)
    assert dev.kernels[0].active_fraction == pytest.approx(0.25)


def test_untelemetered_launch_has_no_active_fraction():
    dev = Device()
    with dev.launch("k"):
        pass
    rec = dev.kernels[0]
    assert rec.active_lanes is None
    assert rec.active_fraction is None


def test_convergence_history():
    dev = Device()
    for lanes in (10, 4, 1):
        with dev.launch("scan[step]", active_lanes=lanes, total_lanes=10):
            pass
    with dev.launch("other", active_lanes=99, total_lanes=99):
        pass
    assert dev.convergence_history("scan") == [10, 4, 1]
