"""Section 6 ablation: MeshSlice on a logical mesh with NIC contention.

The paper's discussion: applying MeshSlice to GPU clusters means
constructing a *logical* 2D mesh on a switched network, where AG/RdS
operations in the two directions contend for the chip's NIC (unlike a
physical torus, whose per-direction links are contention-free), and the
autotuner must model that contention.

This experiment runs the same GPT-3 FC workload on (a) the physical
TPUv4 torus and (b) the ``GPU_LOGICAL_MESH`` preset with equal per-ring
bandwidth but a shared 120 GB/s NIC, and verifies:

1. every algorithm loses utilization on the logical mesh, with the
   always-both-directions algorithms hurt most;
2. MeshSlice still wins (it hides the now-longer communication); and
3. the contention-aware cost model still identifies the same optimal
   mesh shape as full simulation — the autotuner modification the
   paper calls for.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.autotuner.dataflow import plan_model
from repro.autotuner.search import tune_mesh
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    best_block_run,
    render_table,
    run_block,
    weak_scaling_batch,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import GPU_LOGICAL_MESH, TPUV4
from repro.mesh.topology import mesh_shapes
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B


@dataclasses.dataclass(frozen=True)
class LogicalMeshRow:
    algorithm: str
    torus_utilization: Optional[float]
    logical_utilization: Optional[float]

    @property
    def degradation(self) -> Optional[float]:
        if self.torus_utilization in (None, 0) or self.logical_utilization is None:
            return None
        return 1.0 - self.logical_utilization / self.torus_utilization


def run(
    model: LLMConfig = GPT3_175B,
    chips: int = 64,
    algorithms: Sequence[str] = ("collective", "wang", "meshslice"),
    torus_hw: HardwareParams = TPUV4,
    logical_hw: HardwareParams = GPU_LOGICAL_MESH,
) -> List[LogicalMeshRow]:
    """Compare each algorithm on the torus vs the logical mesh."""
    batch = weak_scaling_batch(chips)
    rows = []
    for algorithm in algorithms:
        torus = best_block_run(algorithm, model, batch, chips, torus_hw)
        logical = best_block_run(algorithm, model, batch, chips, logical_hw)
        rows.append(
            LogicalMeshRow(
                algorithm=algorithm,
                torus_utilization=(
                    torus.utilization(torus_hw) if torus else None
                ),
                logical_utilization=(
                    logical.utilization(logical_hw) if logical else None
                ),
            )
        )
    return rows


def cost_model_agreement(
    model: LLMConfig = GPT3_175B,
    chips: int = 64,
    hw: HardwareParams = GPU_LOGICAL_MESH,
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(estimated-optimal, simulated-optimal) mesh shape under
    contention — the autotuner-extension validation."""
    batch = weak_scaling_batch(chips)
    tokens = model.tokens(batch)
    plans = plan_model(model, tokens)
    meshes = mesh_shapes(chips, min_dim=2)
    # min() keeps the first of equally fast meshes.
    est = min(meshes, key=lambda mesh: tune_mesh(plans, mesh, hw)[1])
    sim = min(
        meshes, key=lambda mesh: run_block("meshslice", plans, mesh, hw).seconds
    )
    return est.shape, sim.shape


@dataclasses.dataclass(frozen=True)
class AgreementRow:
    """Estimated vs simulated optimal mesh shape under NIC contention."""

    estimated: Tuple[int, int]
    simulated: Tuple[int, int]


def _campaign_point(kind: str) -> list:
    """One campaign point: a single algorithm's comparison row, or the
    expensive full-grid cost-model agreement check."""
    if kind == "agreement":
        est, sim = cost_model_agreement()
        return [AgreementRow(estimated=est, simulated=sim)]
    return list(run(algorithms=(kind,)))


def render(rows: Sequence) -> str:
    algo = [r for r in rows if isinstance(r, LogicalMeshRow)]
    table = render_table(
        ["algorithm", "torus util", "logical-mesh util", "degradation"],
        [
            (r.algorithm, r.torus_utilization, r.logical_utilization,
             None if r.degradation is None else f"{r.degradation:.1%}")
            for r in algo
        ],
    )
    agreement = [r for r in rows if isinstance(r, AgreementRow)]
    if not agreement:
        return table
    est, sim = agreement[0].estimated, agreement[0].simulated
    agree = "agree" if est == sim else "DISAGREE"
    return (
        table
        + f"\n\ncontention-aware cost model optimum {est[0]}x{est[1]}, "
        f"simulated optimum {sim[0]}x{sim[1]} ({agree})"
    )


def main(chips: int = 64) -> str:
    rows = run(chips=chips)
    est, sim = cost_model_agreement(chips=chips)
    return render([*rows, AgreementRow(estimated=est, simulated=sim)])


def _campaign_points() -> list:
    return ["collective", "wang", "meshslice", "agreement"]


CAMPAIGN = CampaignSpec(
    name="ablation-logical-mesh",
    points=_campaign_points,
    point=_campaign_point,
    render=render,
    flatten=True,
)


if __name__ == "__main__":
    print(main())
