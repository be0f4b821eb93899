"""Figure 13: cost-model vs simulation across mesh shapes (256 chips).

For every 2D factorization of a 256-chip cluster, compares the FC-layer
FLOP utilization *estimated* by the autotuner's analytical cost models
against the utilization obtained by *simulating* the same
configurations. What matters is ranking fidelity: the cost model must
point at the same optimal mesh shape the simulator finds (the paper
reports up to a 2.4x gap between the best and worst shapes for GPT-3).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.autotuner.dataflow import plan_model
from repro.autotuner.search import tune_mesh
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    render_table,
    run_block,
    spec_rows,
    weak_scaling_batch,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.mesh.topology import Mesh2D, mesh_shapes
from repro.models.config import LLMConfig
from repro.models.layers import block_fc_flops
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B


@dataclasses.dataclass(frozen=True)
class MeshShapeRow:
    model: str
    mesh: Tuple[int, int]
    estimated_utilization: float
    simulated_utilization: float


def _point_row(point) -> MeshShapeRow:
    """One Figure 13 (model, mesh) data point.

    Module-level so it can run in a ``grid_map`` worker process. The
    plans are re-derived per point, but ``plan_model`` is memoized so
    points sharing a worker pay once.
    """
    model, chips, mesh, hw = point
    batch = weak_scaling_batch(chips)
    tokens = model.tokens(batch)
    plans = plan_model(model, tokens, optimize_dataflow=True)
    flops_per_chip = block_fc_flops(model, tokens) / chips
    _tuned, estimated_seconds = tune_mesh(plans, mesh, hw)
    estimated_util = flops_per_chip / (estimated_seconds * hw.peak_flops)
    block = run_block("meshslice", plans, mesh, hw)
    return MeshShapeRow(
        model=model.name,
        mesh=mesh.shape,
        estimated_utilization=estimated_util,
        simulated_utilization=block.utilization(hw),
    )


def points(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    chips: int = 256,
    hw: HardwareParams = TPUV4,
    meshes: Optional[Sequence[Mesh2D]] = None,
) -> List[tuple]:
    """The Figure 13 grid: one point per (model, mesh shape)."""
    candidates = list(meshes or mesh_shapes(chips, min_dim=2))
    return [
        (model, chips, mesh, hw)
        for model in models
        for mesh in candidates
    ]


def run(jobs: Optional[int] = None, **params) -> List[MeshShapeRow]:
    """Produce the Figure 13 series (``params`` go to :func:`points`).

    The (model, mesh shape) grid points are independent and run in
    worker processes when ``jobs`` (or ``REPRO_JOBS``) allows.
    """
    return spec_rows(CAMPAIGN, jobs, **params)


def optimal_shapes(
    rows: Sequence[MeshShapeRow], model: str
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(estimated-optimal, simulated-optimal) mesh shapes for a model."""
    model_rows = [r for r in rows if r.model == model]
    if not model_rows:
        raise ValueError(f"no rows for model {model!r}")
    est = max(model_rows, key=lambda r: r.estimated_utilization).mesh
    sim = max(model_rows, key=lambda r: r.simulated_utilization).mesh
    return est, sim


def render(rows: Sequence[MeshShapeRow]) -> str:
    table = render_table(
        ["model", "mesh", "estimated util", "simulated util"],
        [
            (r.model, f"{r.mesh[0]}x{r.mesh[1]}",
             r.estimated_utilization, r.simulated_utilization)
            for r in rows
        ],
    )
    lines = [table, ""]
    # First-appearance order: a set would tie the footer to the hash seed.
    for model in dict.fromkeys(r.model for r in rows):
        est, sim = optimal_shapes(rows, model)
        agree = "agree" if est == sim else "DISAGREE"
        lines.append(
            f"{model}: cost model picks {est[0]}x{est[1]}, "
            f"simulation picks {sim[0]}x{sim[1]} ({agree})"
        )
    return "\n".join(lines)


CAMPAIGN = CampaignSpec(
    name="fig13",
    points=points,
    point=_point_row,
    render=render,
)
