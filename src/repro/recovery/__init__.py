"""Recovery policies: what the system does after a fault.

:mod:`repro.faults` injects failures; this package answers them, at
the three time scales a real training system operates on:

* **microseconds** — :class:`RetryPolicy`, a capped-retry /
  exponential-backoff state machine for transient link outages
  (replacing the flat ``link_retry_timeout`` penalty); an exhausted
  budget declares the link dead and the engine surfaces a structured
  ``SimFailure``;
* **minutes** — elastic reconfiguration: :func:`retune_degraded`
  drains the dead chip's row or column and re-tunes the shrunk torus;
  :mod:`~repro.recovery.elastic` prices the transition itself, timing
  the reshard migration (every chip's shards moving to the new
  layout) as a real program over the collective or one-sided comm
  plane — including same-shape spare replacement and shape-changing
  reshapes (``4x4 -> 3x5``);
* **days** — :class:`CheckpointModel`, the analytical Young/Daly
  checkpoint-restart model; the :mod:`~repro.recovery.policy` goodput
  closed forms comparing restart / degrade / replace / reshape; and
  :func:`simulate_lifetime`, a seeded renewal simulation of the whole
  multi-day run that prices what the closed forms cannot — failure
  clustering, repair queues, chained degradations, and spare-pool
  exhaustion — with a structured JSONL event log.

Surfaces: ``TuneRequest(mode="degraded", ...).run()`` (served by the
memoized ``degraded_retune`` stage in ``repro.perf``), the
``ablation-recovery`` and ``ablation-elastic`` experiment grids, and
the ``meshslice recovery`` / ``meshslice elastic`` CLI subcommands.
"""

from repro.recovery.checkpoint import CheckpointModel, cluster_mtbf
from repro.recovery.degraded import (
    DegradedRetune,
    NoSurvivingMeshError,
    degraded_meshes,
    retune_degraded,
)
from repro.recovery.elastic import (
    MIGRATION_PLANES,
    ReshardPlan,
    build_migration_program,
    migration_payload_bytes,
    migration_seconds,
    overlap_pieces,
)
from repro.recovery.lifetime import (
    POLICIES,
    LifetimeEvent,
    LifetimeResult,
    LifetimeSpec,
    TableElasticPlanner,
    TunedElasticPlanner,
    simulate_lifetime,
)
from repro.recovery.policy import (
    ClusterReliability,
    GoodputEstimate,
    degrade_goodput,
    replace_goodput,
    reshape_goodput,
    restart_goodput,
)
from repro.recovery.retry import RetryEpisode, RetryPolicy

__all__ = [
    "CheckpointModel",
    "ClusterReliability",
    "DegradedRetune",
    "GoodputEstimate",
    "LifetimeEvent",
    "LifetimeResult",
    "LifetimeSpec",
    "MIGRATION_PLANES",
    "NoSurvivingMeshError",
    "POLICIES",
    "ReshardPlan",
    "RetryEpisode",
    "RetryPolicy",
    "TableElasticPlanner",
    "TunedElasticPlanner",
    "build_migration_program",
    "cluster_mtbf",
    "degrade_goodput",
    "degraded_meshes",
    "migration_payload_bytes",
    "migration_seconds",
    "overlap_pieces",
    "replace_goodput",
    "reshape_goodput",
    "restart_goodput",
    "retune_degraded",
    "simulate_lifetime",
]
