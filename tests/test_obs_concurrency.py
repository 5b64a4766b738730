"""Concurrency tests: the registry under threads, the engine under pools.

The registry's contract is that concurrent recording never loses an
increment, and that running the recode engine with a process pool reports
exactly the same metric totals as the serial engine — the merge-on-join
machinery is invisible in the numbers.
"""

import threading

import pytest

from repro import obs
from repro.codecs.engine import RecodeEngine
from repro.collection import generators
from repro.obs import MetricsRegistry


def test_threaded_counter_increments_equal_serial_sum():
    reg = MetricsRegistry()
    nthreads, per_thread = 8, 2000

    def work():
        c = reg.counter("threads.c")
        h = reg.histogram("threads.h")
        for _ in range(per_thread):
            c.inc()
            h.observe(1.0)

    threads = [threading.Thread(target=work) for _ in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.value("threads.c") == nthreads * per_thread
    assert reg.get("threads.h").count == nthreads * per_thread


def test_threads_recording_during_snapshots():
    """Snapshots taken while writers are live must never crash and the
    final snapshot must account for every increment."""
    reg = MetricsRegistry()
    stop = threading.Event()

    def write():
        c = reg.counter("live.c", src="w")
        while not stop.is_set():
            c.inc()

    writers = [threading.Thread(target=write) for _ in range(4)]
    for t in writers:
        t.start()
    for _ in range(50):
        reg.snapshot()
    stop.set()
    for t in writers:
        t.join()
    final = reg.snapshot()["live.c{src=w}"]["value"]
    assert final == reg.value("live.c", src="w") > 0


def _engine_metric_totals(workers: int) -> dict:
    """Aggregated count/byte metrics after one encode+decode round trip."""
    matrix = generators.banded(1200, bandwidth=4, seed=3)
    with obs.scoped_registry() as reg:
        engine = RecodeEngine(workers=workers)
        try:
            plan = engine.encode_blocked(matrix)
            blocks = engine.decode_blocked(plan)
        finally:
            engine.close()
        assert len(blocks) == plan.nblocks
        agg = obs.aggregate_by_name(reg.snapshot())
    return {
        name: record["value"] if record["type"] != "histogram" else record["count"]
        for name, record in agg.items()
        if "seconds" not in name and name != "codecs.engine.workers"
    }


def test_process_pool_metrics_equal_serial():
    serial = _engine_metric_totals(workers=0)
    pooled = _engine_metric_totals(workers=2)
    assert serial == pooled


def test_pool_spinup_excluded_from_decode_timing():
    """Regression: decode MB/s used to divide by wall time including pool
    spin-up; now spin-up is its own counter and the decode timer only
    covers the map phase."""
    matrix = generators.banded(1200, bandwidth=4, seed=3)
    with obs.scoped_registry():
        engine = RecodeEngine(workers=2, chunk_blocks=1)
        try:
            plan = engine.encode_blocked(matrix)
            startup_after_encode = engine.stats.pool_startup_seconds
            assert startup_after_encode > 0  # process pool actually spun up

            engine.decode_blocked(plan)
            s = engine.stats
            # Spin-up is attributed once, to the call that created the pool,
            # and never leaks into the decode timer.
            assert s.pool_startup_seconds == startup_after_encode
            assert s.decode_seconds > 0
            assert s.decode_mb_per_s == pytest.approx(
                (s.bytes_decoded / 1e6) / s.decode_seconds
            )
        finally:
            engine.close()
