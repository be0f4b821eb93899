"""MeshSlice: efficient 2D tensor parallelism for distributed DNN training.

A from-scratch reproduction of the ISCA 2025 paper. The package is
organized in two planes that share the same algorithm descriptions:

* a **functional plane** (numpy, bit-exact) proving each distributed
  GeMM algorithm computes the right answer using only legal per-chip
  data movement, and
* a **timing plane** (a fluid discrete-event simulator of TPUv4-like
  clusters) reproducing the paper's performance evaluation.

Quickstart::

    import numpy as np
    from repro import Mesh2D, meshslice_os

    a, b = np.random.rand(64, 96), np.random.rand(96, 128)
    c = meshslice_os(a, b, Mesh2D(4, 2), slices=4)
    assert np.allclose(c, a @ b)

The timing plane is one import away — the stable entry points are
:func:`simulate` (run a built program on a hardware preset, optionally
under a :class:`FaultPlan`), :func:`tune` / :func:`robust_tune` (the
autotuner, nominal and fault-aware; both take a :class:`TuneRequest`
and are :func:`repro.service.execute`), and :func:`get_algorithm` /
:func:`algorithm_names` (the distributed GeMM algorithm registry)::

    from repro import TPUV4, get_algorithm, simulate

    alg = get_algorithm("meshslice")
    result = simulate(alg.build_program(cfg, TPUV4), TPUV4)

These heavier names load lazily (PEP 562), so ``import repro`` stays
cheap for functional-plane users.

See ``README.md`` and ``docs/`` for the architecture, ``DESIGN.md`` for
the system inventory, and ``EXPERIMENTS.md`` for the paper-vs-
reproduction results.
"""

from repro.core import (
    Dataflow,
    GeMMShape,
    meshslice_gemm,
    meshslice_ls,
    meshslice_os,
    meshslice_rs,
    slice_col,
    slice_row,
    valid_slice_counts,
)
from repro.hw import (
    GPU_LOGICAL_MESH,
    TPUV4,
    TPUV4_CLOUD_4X4,
    HardwareParams,
    get_preset,
)
from repro.mesh import Mesh2D, MeshExecutor, Ring1D, mesh_shapes

__version__ = "1.11.0"

#: Lazily-loaded stable API (PEP 562): name -> (module, attribute).
#: Importing these eagerly would pull the whole timing plane (and the
#: numpy functional checkers) into every ``import repro``.
_LAZY_EXPORTS = {
    "ABFTReport": ("repro.abft", "ABFTReport"),
    "CampaignRunner": ("repro.campaign", "CampaignRunner"),
    "CampaignSpec": ("repro.campaign", "CampaignSpec"),
    "CampaignStore": ("repro.campaign", "CampaignStore"),
    "CheckpointModel": ("repro.recovery", "CheckpointModel"),
    "FaultPlan": ("repro.faults", "FaultPlan"),
    "FaultSpec": ("repro.faults", "FaultSpec"),
    "HardFault": ("repro.faults", "HardFault"),
    "LifetimeResult": ("repro.recovery", "LifetimeResult"),
    "LifetimeSpec": ("repro.recovery", "LifetimeSpec"),
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "NULL_PLAN": ("repro.faults", "NULL_PLAN"),
    "NULL_SDC_PLAN": ("repro.faults", "NULL_SDC_PLAN"),
    "PlanStore": ("repro.service", "PlanStore"),
    "ReshardPlan": ("repro.recovery", "ReshardPlan"),
    "SDCPlan": ("repro.faults", "SDCPlan"),
    "TableElasticPlanner": ("repro.recovery", "TableElasticPlanner"),
    "TunedElasticPlanner": ("repro.recovery", "TunedElasticPlanner"),
    "abft_gemm": ("repro.abft", "abft_gemm"),
    "sdc_injection": ("repro.faults", "sdc_injection"),
    "ProfileReport": ("repro.obs", "ProfileReport"),
    "RetryPolicy": ("repro.recovery", "RetryPolicy"),
    "RunMetrics": ("repro.obs", "RunMetrics"),
    "SimFailure": ("repro.sim.engine", "SimFailure"),
    "SimResult": ("repro.sim.cluster", "SimResult"),
    "Trace": ("repro.sim.trace", "Trace"),
    "TuneRequest": ("repro.service", "TuneRequest"),
    "TunerService": ("repro.service", "TunerService"),
    "algorithm_names": ("repro.algorithms", "algorithm_names"),
    "chip_down": ("repro.faults", "chip_down"),
    "get_algorithm": ("repro.algorithms", "get_algorithm"),
    "link_down": ("repro.faults", "link_down"),
    "profile_block": ("repro.obs", "profile_block"),
    "migration_seconds": ("repro.recovery", "migration_seconds"),
    "retune_degraded": ("repro.recovery", "retune_degraded"),
    "robust_tune": ("repro.service.request", "execute"),
    "simulate": ("repro.sim.cluster", "simulate"),
    "simulate_lifetime": ("repro.recovery", "simulate_lifetime"),
    "tune": ("repro.service.request", "execute"),
}

__all__ = [
    "ABFTReport",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStore",
    "CheckpointModel",
    "Dataflow",
    "FaultPlan",
    "FaultSpec",
    "GPU_LOGICAL_MESH",
    "GeMMShape",
    "HardFault",
    "HardwareParams",
    "LifetimeResult",
    "LifetimeSpec",
    "Mesh2D",
    "MeshExecutor",
    "MetricsRegistry",
    "NULL_PLAN",
    "NULL_SDC_PLAN",
    "PlanStore",
    "ReshardPlan",
    "SDCPlan",
    "TableElasticPlanner",
    "TunedElasticPlanner",
    "ProfileReport",
    "RetryPolicy",
    "Ring1D",
    "RunMetrics",
    "SimFailure",
    "SimResult",
    "TPUV4",
    "TPUV4_CLOUD_4X4",
    "Trace",
    "TuneRequest",
    "TunerService",
    "abft_gemm",
    "algorithm_names",
    "chip_down",
    "get_algorithm",
    "get_preset",
    "link_down",
    "mesh_shapes",
    "meshslice_gemm",
    "migration_seconds",
    "meshslice_ls",
    "meshslice_os",
    "meshslice_rs",
    "profile_block",
    "retune_degraded",
    "robust_tune",
    "sdc_injection",
    "simulate",
    "simulate_lifetime",
    "slice_col",
    "slice_row",
    "tune",
    "valid_slice_counts",
    "__version__",
]


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
