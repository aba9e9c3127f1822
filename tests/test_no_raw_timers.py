"""Lint: all timing in the library reads the tracer's one clock.

Raw ``time.perf_counter()`` calls scattered through the library would
produce timings invisible to the tracer and the run reports, read from a
clock of their own.  The one sanctioned clock owner is the tracer module
(``src/repro/obs/tracer.py``), which publishes the blessed handle as
:data:`repro.obs.tracer.monotonic_clock`.  Everything else — the simulated
device's launch records and phase timers (``src/repro/device/``), the rest
of ``obs/`` (the aggregator, the telemetry schedule) and the whole serve
layer — reads ``monotonic_clock``, or times itself through
``Device.launch``, ``PhaseTimer.measure``, a span, or an injected
``clock=`` parameter defaulting to ``monotonic_clock``.  That injection
seam is what makes latency quantiles, rolling windows and tail-sampling
decisions deterministic under test.

Benchmarks, tests and examples are exempt — they are harnesses, not
library code.
"""

from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"

#: Directories whose files may hold raw timers: none.
ALLOWED_DIRS = ()
#: Individual files that may hold raw timers.
ALLOWED_FILES = ("obs/tracer.py",)

FORBIDDEN = ("perf_counter", "time.monotonic", "time.process_time")


def test_no_raw_timers_outside_device_and_tracer():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts and rel.parts[0] in ALLOWED_DIRS:
            continue
        if rel.as_posix() in ALLOWED_FILES:
            continue
        text = path.read_text()
        for needle in FORBIDDEN:
            if needle in text:
                offenders.append(f"{rel}: {needle}")
    assert not offenders, (
        "raw timer calls outside obs/tracer.py (read monotonic_clock, route "
        "timing through Device.launch / PhaseTimer / spans, or inject "
        f"clock=monotonic_clock): {offenders}"
    )
