"""Self-tests of the benchmark's measurement helpers.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root.  They need nothing but the standard library.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (  # noqa: E402
    MIN_BEYOND,
    harrell_davis,
    Request,
    count_outcomes,
    generator_lag,
    open_loop_latencies,
    tail_percentile,
)
from tracer import Span, Tracer, self_times  # noqa: E402


# -- tail percentile -----------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    pct, value, n = tail_percentile(values)
    assert n == 100 and MIN_BEYOND == 10
    assert pct == 90.0
    assert value == pytest.approx(90.5)
    assert sum(1 for v in values if v > value) == 10


def test_tail_rises_with_sample_count():
    small = tail_percentile([float(i) for i in range(20)])
    large = tail_percentile([float(i) for i in range(1000)])
    assert small[0] == 50.0
    assert large[0] == 99.0
    assert (small[2], large[2]) == (20, 1000)


def test_tail_refuses_too_few_samples():
    tail_percentile([1.0] * 11)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail_percentile(values) == tail_percentile(sorted(values))


def test_harrell_davis_median_of_symmetric_sample_is_its_middle():
    assert harrell_davis([float(i) for i in range(1, 102)], 0.5) == pytest.approx(51.0)
    assert harrell_davis([3.0], 0.5) == 3.0


def test_harrell_davis_moves_less_than_the_middle_pair_across_a_gap():
    # Two clusters with the median between them, as attempt latencies of
    # different problems are; one attempt near the middle runs slower.
    fast = [0.05 + 0.005 * i for i in range(18)]
    slow = [0.16 + 0.01 * i for i in range(18)]
    before = fast + slow
    after = fast[:-1] + [0.165] + slow
    plain = abs(statistics.median(after) - statistics.median(before))
    smooth = abs(harrell_davis(after, 0.5) - harrell_davis(before, 0.5))
    assert smooth < plain / 2


# -- self time from nested spans -----------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("engine.batch", "a", 0.0, 10.0),
        Span("core.repair", "b", 1.0, 7.0, parent=0),
        Span("ilp", "c", 2.0, 6.0, parent=1),
        Span("core.feedback", "d", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    spans = [
        Span("service", "a", 0.0, 10.0),
        Span("engine.batch", "b", 1.0, 5.0, parent=0),
        Span("engine.batch", "c", 3.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores():
    import types

    module = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner = inner
    module.outer = outer
    sys.modules[module.__name__] = module
    try:
        with Tracer() as tracer:
            tracer.wrap(f"{module.__name__}:outer", "core.repair")
            tracer.wrap(f"{module.__name__}:inner", "ilp", keep=True)
            tracer.scope = "run"
            assert module.outer(1) == 4
            tracer.scope = None
            assert module.outer(1) == 4  # paused: no spans
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent is None
    assert inner_span.result == 2 and outer_span.result is None
    ledger = tracer.ledger()
    assert ledger["core.repair"]["calls"] == ledger["ilp"]["calls"] == 1
    assert sum(row["self_s"] for row in ledger.values()) == pytest.approx(outer_span.duration)


# -- open-loop lateness --------------------------------------------------------------


def fifo_connection(due: list[float], service: list[float]) -> list[Request]:
    """One connection answering in order: a reply starts when both the
    request is due and the previous reply is done."""
    requests, free_at = [], 0.0
    for d, s in zip(due, service):
        start = max(d, free_at)
        free_at = start + s
        requests.append(Request(due=d, sent=d, answered=free_at, status="repaired"))
    return requests


def test_one_stalled_reply_delays_later_requests():
    due = [0.0, 1.0, 2.0, 3.0, 10.0]
    service = [5.0, 0.1, 0.1, 0.1, 0.1]  # the first reply stalls
    latencies = open_loop_latencies(fifo_connection(due, service))
    # Later requests waited behind the stall, and that wait is measured,
    # although each took only 0.1 s of service once it was picked up.
    assert latencies == pytest.approx([5.0, 4.1, 3.2, 2.3, 0.1])
    assert generator_lag(fifo_connection(due, service)) == [0.0] * 5


def test_latency_counts_from_due_not_sent():
    late_sender = Request(due=1.0, sent=1.5, answered=2.0, status="repaired")
    assert open_loop_latencies([late_sender]) == [1.0]
    assert generator_lag([late_sender]) == [0.5]


# -- failure counting ----------------------------------------------------------------


def test_timeouts_and_errors_count_as_failed_and_late():
    requests = [
        Request(0.0, 0.0, 0.1, status="repaired"),
        Request(0.0, 0.0, 0.1, status="timeout"),            # fast, but a timeout
        Request(0.0, 0.0, 0.1, status=None, error=True),      # structured error
        Request(0.0, 0.0, None),                              # never answered
        Request(0.0, 0.0, 0.1, status="internal-error"),
        Request(0.0, 0.0, 5.0, status="repaired"),            # answered, but late
        Request(0.0, 0.0, 0.2, status="parse-error"),         # a correct answer
    ]
    failed, on_time = count_outcomes(requests, limit_s=1.0)
    assert failed == 4
    assert on_time == 2
