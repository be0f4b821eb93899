"""The benchmark's own arithmetic: the op log and the tail percentile."""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

#: Percentiles ``op_tail_ms`` may report, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 50.0)

#: Ops a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10


class OpLog:
    """Latencies and failures of the ops of one timed round.

    An op that raises is a failure; whatever it returns, ``None``
    included, is an answer. Failed ops still spend op time.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: What identifies each successful op's input, beside its latency.
        self.keys: List[Hashable] = []
        self.failed = 0
        self.errors: List[str] = []
        self.busy_s = 0.0

    def run(self, fn: Callable, *args, key: Hashable = None) -> Tuple[bool, object]:
        """Time one op; returns ``(ok, result)``."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.busy_s += time.perf_counter() - start
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return False, None
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.latencies.append(elapsed)
        self.keys.append(key)
        return True, result

    def scaled(self, factor: float) -> "OpLog":
        """A copy whose times are multiplied by ``factor``."""
        out = OpLog()
        out.latencies = [latency * factor for latency in self.latencies]
        out.keys = list(self.keys)
        out.failed = self.failed
        out.errors = list(self.errors)
        out.busy_s = self.busy_s * factor
        return out

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    @property
    def failed_frac(self) -> float:
        attempted = self.attempted
        return self.failed / attempted if attempted else 0.0


def merged(logs: Sequence[OpLog]) -> OpLog:
    """One op log holding every op of ``logs``."""
    out = OpLog()
    for log in logs:
        out.latencies.extend(log.latencies)
        out.keys.extend(log.keys)
        out.failed += log.failed
        out.errors.extend(log.errors[: 5 - len(out.errors)])
        out.busy_s += log.busy_s
    return out


#: Points of the grid on which :func:`harrell_davis` integrates its weights.
_GRID = 20001


def harrell_davis(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th quantile (``0 < q < 1``).

    A weighted mean of the order statistics, the weights being the mass
    a Beta(q(n+1), (1-q)(n+1)) distribution puts on each ``1/n`` slice.
    Where the samples leave a gap at the quantile, the nearest-rank
    value jumps across it when a single sample moves; this estimate
    moves with it by a share.
    """
    import numpy

    ordered = numpy.sort(numpy.asarray(samples, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    x = numpy.linspace(0.0, 1.0, _GRID)
    inner = x[1:-1]
    log_pdf = (a - 1.0) * numpy.log(inner) + (b - 1.0) * numpy.log1p(-inner)
    pdf = numpy.zeros(_GRID)
    pdf[1:-1] = numpy.exp(log_pdf - log_pdf.max())
    cdf = numpy.concatenate(([0.0], numpy.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    edges = numpy.interp(numpy.arange(n + 1) / n, x, cdf)
    return float(numpy.dot(numpy.diff(edges), ordered))


def typical_latencies(logs: Sequence[OpLog]) -> List[float]:
    """One latency per op key: the median over the rounds that ran it.

    Rounds repeat the same ops, so each key has one sample a round. The
    median of them keeps one op's stray slow or fast run, from a burst
    of host load or a collection that happened to start in it, from
    moving the run's median or tail; that time still counts in
    ``ops_per_s``.
    """
    by_key: Dict[Hashable, List[float]] = {}
    for log in logs:
        for key, latency in zip(log.keys, log.latencies):
            by_key.setdefault(key, []).append(latency)
    return [statistics.median(samples) for samples in by_key.values()]


def nearest_rank(ordered: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of a sorted sample.

    Returns the value and how many samples lie beyond its rank.
    """
    n = len(ordered)
    rank = max(1, math.ceil(q * n / 100.0))
    return ordered[rank - 1], n - rank


def tail_percentile(
    samples: Sequence[float], cap: float = TAIL_LADDER[0]
) -> Tuple[float, float, int]:
    """The highest ladder percentile, at most ``cap``, with 10 ops beyond.

    Returns ``(percentile, value, beyond)``. When even the median has
    fewer than :data:`MIN_BEYOND` samples beyond, the maximum is
    reported as p100. The cap keeps one percentile for a workload
    whether a commit is fast or slow, so its tail stays comparable
    between commits.
    """
    ordered = sorted(samples)
    for q in TAIL_LADDER:
        if q > cap:
            continue
        value, beyond = nearest_rank(ordered, q)
        if beyond >= MIN_BEYOND:
            return q, value, beyond
    return 100.0, ordered[-1], 0
