"""Cached simulation pipeline: program build, whole-pass results, bounds.

The evaluation sweeps re-simulate the *same* distributed GeMM pass many
times: every mesh candidate of every algorithm at every cluster size
shares pass configurations with other grid points (weak and strong
scaling visit overlapping ``(algorithm, GeMMConfig, HardwareParams)``
triples, and ``best_block_run`` revisits identical passes across mesh
shapes). All three key types are frozen dataclasses, so whole simulated
pass results are memoized content-keyed here.

Two configurations that would simulate identically share one cache
entry through two canonicalization layers:

* **Canonical configuration keys.** Each algorithm maps a ``GeMMConfig``
  to the canonical representative of its equivalence class
  (:meth:`repro.algorithms.base.DistributedGeMM.canonical_config`):
  Cannon ignores ``slices`` entirely, and the SendRecv-pipeline
  algorithms (Wang, 1D TP, FSDP) clamp it to their decomposed ring
  length, so e.g. Wang at ``S = 64`` and ``S = 128`` on a 16-ring build
  byte-identical programs. The contract is *bit-identical programs*,
  never merely equal makespans — a cached ``SimResult`` is returned for
  every member of the class, spans and all.
* **Content-addressed simulations.** Below the config-keyed cache,
  results are stored under a fingerprint of the built program itself
  (activities, dependencies, resources, durations, metadata, shared
  capacities), so distinct configurations that happen to build
  identical programs — equivalent transposed shapes on symmetric
  meshes, knob values an algorithm ignores — still share one
  simulation.

Treat every returned object as immutable: cached ``Program`` and
``SimResult`` instances are shared between callers.

:func:`pass_lower_bound` is the certified bound used by the mesh-search
pruning in ``experiments.common``: activities holding the same
exclusive resource execute serially and never faster than their nominal
duration, so the largest per-resource sum of nominal durations (and the
total shared-resource units over capacity) cannot exceed the simulated
makespan. The bound is shrunk by one part in 1e9 so the engine's
epsilon completion threshold (1e-15 relative) can never certify a prune
of a run that would actually win or tie.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.algorithms import GeMMConfig, get_algorithm
from repro.faults.plan import FaultPlan
from repro.hw.params import HardwareParams
from repro.perf.cache import caching_enabled, memoize, named_cache
from repro.sim.cluster import SimResult, simulate
from repro.sim.program import Program

if TYPE_CHECKING:  # pragma: no cover - deferred to avoid perf <-> recovery cycle
    from repro.mesh.topology import Mesh2D
    from repro.models.config import LLMConfig
    from repro.recovery.degraded import DegradedRetune

#: Safety margin keeping the lower bound strictly conservative against
#: the engine's epsilon-relative completion threshold.
_BOUND_SAFETY = 1.0 - 1e-9


@memoize("built_program")
def _built_program(algorithm: str, cfg: GeMMConfig, hw: HardwareParams) -> Program:
    return get_algorithm(algorithm).build_program(cfg, hw)


def built_program(algorithm: str, cfg: GeMMConfig, hw: HardwareParams) -> Program:
    """The (shared, do-not-mutate) program of one pass configuration."""
    return _built_program(algorithm, cfg, hw)


@memoize("canonical_config")
def _canonical_config(algorithm: str, cfg: GeMMConfig) -> GeMMConfig:
    return get_algorithm(algorithm).canonical_config(cfg)


def canonical_pass_config(algorithm: str, cfg: GeMMConfig) -> GeMMConfig:
    """The canonical cache key of one pass configuration.

    Per-algorithm: the representative of ``cfg``'s equivalence class
    under the *bit-identical program* relation (see
    :meth:`repro.algorithms.base.DistributedGeMM.canonical_config`).
    """
    return _canonical_config(algorithm, cfg)


#: Content-addressed simulation store: program fingerprint -> SimResult.
_PROGRAM_RESULTS = named_cache("simulated_program")


def _program_fingerprint(program: Program, hw: HardwareParams):
    """A hashable content key of everything the simulation reads.

    Covers the activity list (order, labels, kinds, durations,
    dependencies, resources, metadata — spans carry the labels and
    metadata, and ``SimResult.flops_per_chip`` sums the ``flops``
    metadata), the shared capacities, and the hardware. Program-level
    ``meta`` is deliberately excluded: motif annotations only steer the
    compiled engine, whose spans are bit-identical by contract, and the
    embedded config is exactly the degree of freedom being collapsed.
    """
    return (
        hw,
        tuple(sorted(program.shared_capacities.items())),
        tuple(
            (
                act.aid,
                act.label,
                act.kind,
                act.duration,
                tuple(act.deps),
                act.exclusive,
                tuple(sorted(act.shared.items())),
                tuple(sorted(act.meta.items())),
            )
            for act in program.activities
        ),
    )


def _simulate_content_addressed(program: Program, hw: HardwareParams) -> SimResult:
    """Simulate ``program``, sharing results between identical programs."""
    if not caching_enabled():
        return simulate(program, hw)
    try:
        key = _program_fingerprint(program, hw)
    except TypeError:
        # Unhashable activity metadata: simulate without content
        # sharing (the config-keyed level above still caches it).
        return simulate(program, hw)
    store = _PROGRAM_RESULTS.store
    result = store.get(key)
    if result is None:
        _PROGRAM_RESULTS.misses += 1
        result = store[key] = simulate(program, hw)
    else:
        _PROGRAM_RESULTS.hits += 1
    return result


@memoize("simulated_pass")
def _simulated_pass(
    algorithm: str, cfg: GeMMConfig, hw: HardwareParams
) -> SimResult:
    return _simulate_content_addressed(_built_program(algorithm, cfg, hw), hw)


def simulated_pass(
    algorithm: str, cfg: GeMMConfig, hw: HardwareParams
) -> SimResult:
    """Simulate one pass configuration, reusing any cached result.

    The cache key is the *canonical* configuration, so every member of
    a canonical equivalence class (e.g. Wang slice counts above the
    decomposed ring) shares one bit-identical ``SimResult``. Treat the
    returned object as immutable. The engine (heap or compiled) is the
    process default; both produce bit-identical results, so cache
    entries are engine-agnostic.
    """
    return _simulated_pass(algorithm, _canonical_config(algorithm, cfg), hw)


@memoize("faulted_pass")
def _faulted_pass(
    algorithm: str, cfg: GeMMConfig, hw: HardwareParams, plan: FaultPlan
) -> SimResult:
    return simulate(_built_program(algorithm, cfg, hw), hw, faults=plan)


def faulted_pass(
    algorithm: str, cfg: GeMMConfig, hw: HardwareParams, plan: FaultPlan
) -> SimResult:
    """Simulate one pass under a fault plan (memoized, like the rest).

    Fault-plan ensembles revisit the same ``(algorithm, cfg, hw)``
    triple once per plan, and robust tuning revisits the same plan
    across mesh candidates, so results are content-keyed on all four.
    A null plan short-circuits to :func:`simulated_pass` — same cache
    entry, bit-identical result. Keys canonicalize like
    :func:`simulated_pass`: the plan perturbs only activity content,
    which is bit-identical across a canonical equivalence class.
    """
    cfg = _canonical_config(algorithm, cfg)
    if plan.is_null:
        return _simulated_pass(algorithm, cfg, hw)
    return _faulted_pass(algorithm, cfg, hw, plan)


@memoize("pass_lower_bound")
def _pass_lower_bound(
    algorithm: str, cfg: GeMMConfig, hw: HardwareParams
) -> float:
    program = _built_program(algorithm, cfg, hw)
    exclusive_totals: Dict[str, float] = {}
    shared_units: Dict[str, float] = {}
    # Longest dependency path, weighted by nominal durations: no
    # activity can finish before its full chain of predecessors, each
    # of which runs no faster than its nominal rate. Program builders
    # emit activities in topological order; if an out-of-order DAG ever
    # shows up, the path bound is simply skipped.
    dist: Dict[int, float] = {}
    path_bound = 0.0
    topo = True
    for act in program.activities:
        tail = 0.0
        if topo:
            for dep in act.deps:
                d = dist.get(dep)
                if d is None:
                    topo = False
                    break
                if d > tail:
                    tail = d
        duration = act.duration
        if topo:
            reach = tail + duration
            dist[act.aid] = reach
            if reach > path_bound:
                path_bound = reach
        for res in act.exclusive:
            exclusive_totals[res] = exclusive_totals.get(res, 0.0) + duration
        for res, demand in act.shared.items():
            shared_units[res] = shared_units.get(res, 0.0) + demand * duration
    bound = max(exclusive_totals.values(), default=0.0)
    if topo and path_bound > bound:
        bound = path_bound
    for res, units in shared_units.items():
        capacity = program.shared_capacities.get(res)
        if capacity and units / capacity > bound:
            bound = units / capacity
    return bound * _BOUND_SAFETY


def pass_lower_bound(
    algorithm: str, cfg: GeMMConfig, hw: HardwareParams
) -> float:
    """A certified lower bound on the simulated makespan of one pass.

    Keys canonicalize like :func:`simulated_pass`: the bound depends
    only on program content, which is bit-identical across a canonical
    equivalence class.
    """
    return _pass_lower_bound(algorithm, _canonical_config(algorithm, cfg), hw)


@memoize("degraded_retune")
def degraded_retune_model(
    model: "LLMConfig",
    batch_size: int,
    mesh: "Mesh2D",
    dead: "Tuple[int, int]",
    hw: HardwareParams,
) -> "DegradedRetune":
    """Re-tune a model on the torus surviving one dead chip (memoized).

    The recovery ablation revisits the same ``(model, batch, mesh,
    hw)`` point for every policy and scale, and degraded tuning runs
    the full autotuner shape/slice search, so results are
    content-keyed like the rest of the pipeline (all key types are
    frozen dataclasses; ``dead`` is a plain coordinate tuple). The
    import is deferred: this module sits below ``repro.algorithms``
    and an eager ``repro.recovery`` import would cycle back through
    the autotuner.
    """
    from repro.recovery.degraded import retune_degraded

    return retune_degraded(model, batch_size, mesh, dead, hw)


def pass_compute_floor(flops: float, chips: int, hw: HardwareParams) -> float:
    """A build-free certified lower bound on one pass's makespan.

    Every algorithm executes the pass's full per-chip FLOPs
    (``flops / chips``) as kernels holding the exclusive core, and the
    chip model never times a kernel below ``flops / effective_flops``
    (MXU padding, launch overhead, and memory-boundedness only add
    time), so the simulated makespan cannot be smaller. Much looser
    than :func:`pass_lower_bound` but needs neither slice tuning nor a
    program build — the mesh search uses it as the certified
    placeholder for passes whose programs were not built yet.
    """
    return flops / chips / hw.effective_flops * _BOUND_SAFETY
