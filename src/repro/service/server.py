"""The tuning service: concurrent front end over store + warm search.

:class:`TunerService` is the layer ROADMAP item 2 asks for — the
autotuner treated as a system serving traffic rather than a script.
Each submitted :class:`~repro.service.request.TuneRequest` resolves
through three tiers:

1. **memory** — results already served this process, keyed by the
   request's content address (sits on top of, not instead of, the
   ``repro.perf`` memoization the engine functions use internally);
2. **store** — the on-disk :class:`~repro.service.store.PlanStore`,
   shared across processes and sessions;
3. **search** — a real tuning run, warm-started from the nearest
   stored neighbor when one exists (``mode="tune"`` only; robust and
   degraded searches have no mesh-ordering prior worth seeding), and
   persisted back to the store on completion.

Identical in-flight requests are **coalesced**: the second submitter
of a key whose search is still running gets the same future, so a
thundering herd of duplicate queries costs one search and one store
write. Distinct requests run concurrently on a thread pool — tuning
is dominated by the numpy/simulator work already released by the
memoization layer's lock-free caches, so threads batch well.

Every tier is counted under ``service.*`` metrics (hit rates, queue
depth, warm-start pruning) and wall-clock service latency feeds the
``service.latency.p50_ms``/``p95_ms`` gauges — all surfaced by
:class:`repro.obs.ProfileReport`. Latency and queue metrics are
wall-clock by nature; they live only in the registry, never in store
records, so the byte-determinism contract is untouched.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.registry import registry as _metrics
from repro.service.request import TuneRequest
from repro.service.store import PlanStore
from repro.service.warmstart import resolve

__all__ = ["TunerService"]


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


class TunerService:
    """Concurrent, deduplicating, store-backed tuning front end.

    Args:
        store: Plan-store root directory, an existing
            :class:`PlanStore`, or ``None`` for a memory-only service
            (no persistence, no warm starts).
        workers: Thread-pool width for distinct concurrent requests.
        warm_start: Seed ``mode="tune"`` searches from the nearest
            stored neighbor. Disabling forces every search cold
            (results are bit-identical either way; only the amount of
            pruning changes).

    Usable as a context manager; :meth:`close` drains the pool.
    """

    def __init__(
        self,
        store: Union[PlanStore, str, None] = None,
        workers: int = 4,
        warm_start: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(store, str):
            store = PlanStore(store)
        self.store: Optional[PlanStore] = store
        self.warm_start = warm_start
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="meshslice-serve"
        )
        self._lock = threading.Lock()
        self._memory: Dict[str, object] = {}
        self._inflight: Dict[str, "Future[object]"] = {}
        self._latencies: List[float] = []
        # Instance-scoped tallies: the registry counters are cumulative
        # across the whole process, but stats() reports THIS service.
        self._counts: Dict[str, int] = {
            "requests": 0, "memory": 0, "dedup": 0,
            "store_hits": 0, "store_misses": 0,
        }
        self._closed = False

    def _count(self, key: str) -> None:
        with self._lock:
            self._counts[key] += 1

    # -------------------------------------------------------------- serving

    def submit(self, request: TuneRequest) -> "Future[object]":
        """Enqueue one request; returns a future of its result.

        Requests sharing a canonical form share one future: the
        in-memory tier answers instantly, an in-flight duplicate
        piggybacks on the running search, and only a genuinely new
        request occupies a worker.
        """
        reg = _metrics()
        canonical = request.canonical()
        key = canonical.cache_key()
        reg.inc("service.requests")
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            self._counts["requests"] += 1
            if key in self._memory:
                self._counts["memory"] += 1
                reg.inc("service.memory.hits")
                done: "Future[object]" = Future()
                done.set_result(self._memory[key])
                return done
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._counts["dedup"] += 1
                reg.inc("service.dedup.hits")
                return inflight
            future = self._pool.submit(self._resolve, canonical, key)
            self._inflight[key] = future
            depth = len(self._inflight)
        reg.set_gauge("service.queue.depth", float(depth))
        reg.observe("service.queue.depth.sample", float(depth))
        return future

    def serve(self, request: TuneRequest) -> object:
        """Resolve one request synchronously."""
        return self.submit(request).result()

    def serve_many(self, requests: Sequence[TuneRequest]) -> List[object]:
        """Resolve a batch; results in request order.

        All requests enter the queue before any result is awaited, so
        duplicates inside the batch coalesce and the rest spread over
        the pool.
        """
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------ resolution

    def _resolve(self, canonical: TuneRequest, key: str) -> object:
        reg = _metrics()
        started = time.perf_counter()
        try:
            result = resolve(
                canonical, self.store, self.warm_start, self._lookup
            )
            with self._lock:
                self._memory[key] = result
            return result
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            with self._lock:
                self._inflight.pop(key, None)
                self._latencies.append(elapsed_ms)
                ordered = sorted(self._latencies)
                depth = len(self._inflight)
            reg.observe("service.latency_ms", elapsed_ms)
            reg.set_gauge(
                "service.latency.p50_ms", _percentile(ordered, 0.50)
            )
            reg.set_gauge(
                "service.latency.p95_ms", _percentile(ordered, 0.95)
            )
            reg.set_gauge("service.queue.depth", float(depth))

    def _lookup(self, hit: bool) -> None:
        """Count one store lookup for this service and the registry."""
        tier = "hits" if hit else "misses"
        self._count(f"store_{tier}")
        _metrics().inc(f"service.store.{tier}")

    # ------------------------------------------------------------- reporting

    def stats(self) -> Dict[str, float]:
        """Current service health: hit rates, pruning, latency tails.

        Hit counts are scoped to this service instance; the
        warm-start prune ratio comes from the process-wide
        ``service.warmstart.*`` counters (pruning happens inside the
        shared search functions).
        """
        reg = _metrics()
        tunings = reg.counter_value("service.warmstart.pass_tunings")
        prunes = reg.counter_value("service.warmstart.pass_prunes")
        considered = tunings + prunes
        with self._lock:
            counts = dict(self._counts)
            ordered = sorted(self._latencies)
            depth = float(len(self._inflight))
        looked_up = counts["store_hits"] + counts["store_misses"]
        return {
            "requests": float(counts["requests"]),
            "served_from_memory": float(counts["memory"]),
            "coalesced_inflight": float(counts["dedup"]),
            "store_hits": float(counts["store_hits"]),
            "store_misses": float(counts["store_misses"]),
            "store_hit_rate": (
                counts["store_hits"] / looked_up if looked_up else 0.0
            ),
            "warmstart_prune_ratio": (
                prunes / considered if considered else 0.0
            ),
            "latency_p50_ms": _percentile(ordered, 0.50),
            "latency_p95_ms": _percentile(ordered, 0.95),
            "queue_depth": depth,
        }

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Drain in-flight work and stop accepting submissions."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "TunerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
