"""The ambient tracer and registry are per thread: concurrent runs each
record into their own, and one leaving its block leaves the others alone."""

import sys
import threading

from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_metrics,
    current_tracer,
    trace_span,
    use_metrics,
    use_tracer,
)


def _run(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()


def test_threads_record_only_into_their_own_tracer_and_registry():
    tracers = [Tracer(f"t{i}") for i in range(2)]
    registries = [MetricsRegistry() for _ in range(2)]
    both_inside = threading.Barrier(2)
    both_recorded = threading.Barrier(2)

    def work(i):
        def _run_one():
            with use_tracer(tracers[i]), use_metrics(registries[i]):
                both_inside.wait()
                with trace_span(f"span-{i}", category="stage"):
                    current_metrics().counter(f"count.{i}").inc()
                both_recorded.wait()

        return _run_one

    _run(work(0), work(1))
    for i in range(2):
        assert [s.name for s in tracers[i].spans] == [f"span-{i}"]
        assert registries[i].as_dict()["counters"] == {f"count.{i}": 1}
    assert current_tracer() is None and current_metrics() is None


def test_leaving_a_block_does_not_uninstall_another_threads():
    first_tracer, second_tracer = Tracer("first"), Tracer("second")
    first_metrics, second_metrics = MetricsRegistry(), MetricsRegistry()
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with use_tracer(first_tracer), use_metrics(first_metrics):
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with use_tracer(second_tracer), use_metrics(second_metrics):
            second_in.set()
            first_out.wait(10)
            seen["inside"] = (current_tracer(), current_metrics())
        seen["after"] = (current_tracer(), current_metrics())

    _run(first, second)
    assert seen["inside"] == (second_tracer, second_metrics)
    assert seen["after"] == (None, None)


def test_many_threads_under_fast_switching_keep_their_own_spans():
    # more threads than cores, switching every few microseconds: a shared
    # stack would misfile spans and counts between threads
    n_threads, per_thread = 8, 200
    tracers = [Tracer(f"t{i}") for i in range(n_threads)]
    registries = [MetricsRegistry() for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def work(i):
        def _run_one():
            start.wait()
            for _ in range(per_thread):
                with use_tracer(tracers[i]), use_metrics(registries[i]):
                    with trace_span(f"span-{i}", category="stage"):
                        current_metrics().counter("count").inc()

        return _run_one

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run(*(work(i) for i in range(n_threads)))
    finally:
        sys.setswitchinterval(interval)
    for i in range(n_threads):
        assert [s.name for s in tracers[i].spans] == [f"span-{i}"] * per_thread
        assert registries[i].counter("count").value == per_thread
