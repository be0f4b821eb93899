"""Self-tests of the benchmark's own arithmetic.

They run at the start of every benchmark run (a failure stops it
before any result is printed) and under pytest::

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stats  # noqa: E402
import tracer as tr  # noqa: E402


def test_tail_needs_ten_beyond():
    # 1000 samples: p99 has exactly 10 beyond it.
    samples = [float(i) for i in range(1, 1001)]
    assert stats.tail_percentile(samples) == (99.0, 990.0, 10)
    # One sample fewer leaves 9 beyond p99, so p95 (49 beyond) is used.
    assert stats.tail_percentile(samples[:-1]) == (95.0, 950.0, 49)
    # The cap holds however many samples there are.
    assert stats.tail_percentile(samples, cap=95.0) == (95.0, 950.0, 50)
    # 200 samples: p95 has 10 beyond; 199 drop to p90 (19 beyond).
    assert stats.tail_percentile(list(range(200)))[0] == 95.0
    assert stats.tail_percentile(list(range(199)))[:1] == (90.0,)
    # Too few samples for any ladder percentile: the maximum.
    assert stats.tail_percentile(list(range(15))) == (100.0, 14, 0)
    # Order of the input does not matter.
    assert stats.tail_percentile(samples[::-1]) == (99.0, 990.0, 10)


def test_harrell_davis_quantiles():
    # Symmetric samples: the median estimate is their centre.
    assert math.isclose(stats.harrell_davis(list(range(1, 102)), 0.5), 51.0)
    # A constant sample is its own quantile at any level.
    assert math.isclose(stats.harrell_davis([3.0] * 7, 0.9), 3.0)
    # Order of the input does not matter.
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert math.isclose(
        stats.harrell_davis(samples, 0.9), stats.harrell_davis(sorted(samples), 0.9)
    )
    # One sample crossing a gap at the median flips the nearest-rank
    # median from 10 to 1; the estimate moves by a share of the gap.
    above = [1.0] * 50 + [10.0] * 51
    below = [1.0] * 51 + [10.0] * 50
    assert stats.nearest_rank(above, 50.0)[0] == 10.0
    assert stats.nearest_rank(below, 50.0)[0] == 1.0
    shift = stats.harrell_davis(above, 0.5) - stats.harrell_davis(below, 0.5)
    assert 0.0 < shift < 2.0


def test_typical_latency_is_median_per_key():
    rounds = []
    for latencies, keys in (
        ([1.0, 10.0, 5.0], ["x", "y", "z"]),
        ([3.0, 12.0], ["x", "y"]),
        ([2.0, 50.0], ["x", "y"]),
    ):
        log = stats.OpLog()
        log.latencies, log.keys = latencies, keys
        rounds.append(log)
    # x: median of 1, 3, 2; y: of 10, 12, 50; z ran once.
    assert sorted(stats.typical_latencies(rounds)) == [2.0, 5.0, 12.0]


def _span(sid, start, end, parent, name="x"):
    return [sid, name, start, end, parent, 0]


def test_self_time_nested_and_siblings():
    spans = [
        _span(0, 0.0, 10.0, None, "op"),
        _span(1, 1.0, 4.0, 0, "a"),  # sibling children of 0
        _span(2, 3.0, 6.0, 0, "b"),  # overlaps its sibling by 1
        _span(3, 1.5, 2.5, 1, "c"),  # nested under a
        _span(4, 7.0, 12.0, 0, "d"),  # runs past its parent's end
        _span(5, 8.0, 9.0, 4, "e"),
    ]
    selfs = tr.self_times(spans)
    # 0 is covered by [1, 6] and [7, 10]: 5 + 3 of its 10.
    assert math.isclose(selfs[0], 2.0)
    assert math.isclose(selfs[1], 2.0)
    assert math.isclose(selfs[2], 3.0)
    assert math.isclose(selfs[3], 1.0)
    assert math.isclose(selfs[4], 4.0)
    assert math.isclose(selfs[5], 1.0)
    table = tr.layer_table(spans)
    assert table["op"] == {"calls": 1.0, "total_s": 10.0, "self_s": 2.0}


def test_self_times_sum_to_root_time():
    spans = [
        _span(0, 0.0, 5.0, None, "op"),
        _span(1, 0.5, 2.0, 0),
        _span(2, 2.0, 4.5, 0),
        _span(3, 1.0, 1.5, 1),
        _span(4, 2.5, 3.0, 2),
        _span(5, 3.0, 4.0, 2),
    ]
    assert math.isclose(sum(tr.self_times(spans).values()), 5.0)


def test_tracer_spans_and_reentrancy():
    tracing = tr.Tracer()

    def inner(n):
        return n + 1

    def outer(n):
        return traced_inner(n) + traced_outer_again(n)

    traced_inner = tracing.timed("inner", inner)
    traced_outer_again = tracing.timed("outer", lambda n: n, reentrant=False)
    traced_outer = tracing.timed("outer", outer, reentrant=False)
    tracing.begin_op(0)
    assert traced_outer(1) == 3
    tracing.end_op()
    names = [span[tr.NAME] for span in tracing.spans]
    # The nested "outer" call is folded into its caller.
    assert names == ["op", "outer", "inner"]
    assert tracing.counts == {"outer.calls": 1.0, "inner.calls": 1.0}
    op, outer_span, inner_span = tracing.spans
    assert outer_span[tr.PARENT] == op[tr.SID]
    assert inner_span[tr.PARENT] == outer_span[tr.SID]


def test_failed_frac_counts_raises_not_none():
    from repro import TPUV4
    from repro.experiments.common import best_block_run
    from repro.models.zoo import GPT3_175B

    def broken():
        raise ValueError("boom")

    log = stats.OpLog()
    # Cannon needs a square chip count: None is its valid answer on 48.
    assert log.run(best_block_run, "cannon", GPT3_175B, 24, 48, TPUV4) == (True, None)
    assert log.run(broken) == (False, None)
    assert log.run(len, "ok") == (True, 2)
    assert log.attempted == 3
    assert log.failed == 1
    assert len(log.latencies) == 2
    assert math.isclose(log.failed_frac, 1 / 3)
    assert log.errors == ["ValueError: boom"]


def run_all() -> None:
    """Run every test above; raises on the first failure."""
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()


if __name__ == "__main__":
    run_all()
    print("ok")
