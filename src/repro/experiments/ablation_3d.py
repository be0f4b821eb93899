"""Section 2.2 ablation: widening TP in a 3D training cluster.

Quantifies the paper's motivating argument with the 3D composition
model. Two comparisons, both against a Llama-3-style baseline of 8-way
1D TP:

1. **Scale-out**: replacing 8-way 1D TP with 128-way 2D TP builds a
   16x larger cluster at the same DP x PP, and each chip's weight shard
   shrinks 16x — so per-chip DP all-reduce traffic drops 16x.
2. **Same cluster**: keeping the chip count and shrinking DP and PP by
   4x each, per-chip DP traffic drops 64x and the pipeline has 4x fewer
   stages (fewer bubbles).

The experiment reports the per-chip DP traffic ratios (which must match
the paper's 16x / 64x exactly — they are arithmetic identities) and the
modelled step times/utilizations of the same-cluster comparison.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.campaign.spec import CampaignSpec
from repro.experiments.common import render_table
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.mesh.topology import Mesh2D
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B
from repro.parallel3d import (
    Parallel3DConfig,
    dp_allreduce_traffic_bytes,
    estimate_step,
)


@dataclasses.dataclass(frozen=True)
class ThreeDRow:
    label: str
    config: str
    chips: int
    dp_traffic_gb: float
    bubble_fraction: float
    step_seconds: float
    utilization: float


def baseline_config(model: LLMConfig = GPT3_175B) -> Parallel3DConfig:
    """Llama-3-style: dp=16 x pp=8 x 8-way 1D TP = 1024 chips."""
    return Parallel3DConfig(
        model=model, dp=16, pp=8, tp_mesh=Mesh2D(1, 8), global_batch=512,
    )


def scale_out_config(model: LLMConfig = GPT3_175B) -> Parallel3DConfig:
    """Same dp x pp, TP widened to 128-way 2D: 16x more chips."""
    return Parallel3DConfig(
        model=model, dp=16, pp=8, tp_mesh=Mesh2D(16, 8), global_batch=512,
    )


def same_cluster_config(model: LLMConfig = GPT3_175B) -> Parallel3DConfig:
    """Same chip count: dp and pp shrink 4x, TP widens 16x."""
    return Parallel3DConfig(
        model=model, dp=4, pp=2, tp_mesh=Mesh2D(16, 8), global_batch=512,
    )


def run(
    model: LLMConfig = GPT3_175B, hw: HardwareParams = TPUV4
) -> List[ThreeDRow]:
    """Produce the Section 2.2 comparison rows."""
    rows = []
    for label, cfg in (
        ("baseline 8-way 1D TP", baseline_config(model)),
        ("scale-out 128-way 2D TP", scale_out_config(model)),
        ("same-cluster 128-way 2D TP", same_cluster_config(model)),
    ):
        step = estimate_step(cfg, hw)
        rows.append(
            ThreeDRow(
                label=label,
                config=cfg.describe(),
                chips=cfg.chips,
                dp_traffic_gb=dp_allreduce_traffic_bytes(cfg) / 1e9,
                bubble_fraction=step.bubble_fraction,
                step_seconds=step.step_seconds,
                utilization=step.flop_utilization,
            )
        )
    return rows


def traffic_ratios(rows: List[ThreeDRow]) -> tuple:
    """(scale-out ratio, same-cluster ratio) vs the 1D baseline,
    using the bandwidth-optimal ring all-reduce accounting."""
    base = rows[0].dp_traffic_gb
    return base / rows[1].dp_traffic_gb, base / rows[2].dp_traffic_gb


def paper_style_dp_traffic(cfg: Parallel3DConfig) -> float:
    """The intro's simpler DP-traffic accounting (Section 2.2).

    The paper's 16x / 64x figures count per-chip DP volume as
    proportional to ``dp * (full weight matrix) / tp``: each of the
    ``dp`` replicas contributes one copy of the chip's per-layer weight
    shard, and pipeline staging is ignored. A bandwidth-optimal ring
    all-reduce (see :func:`dp_allreduce_traffic_bytes`) moves less —
    ``2 (dp-1)/dp`` of the shard — and the PP degree changes the shard
    size, so the exact ratios differ; both accountings are reported.
    """
    weights = sum(layer.weight_bytes() for layer in _fc_layers(cfg.model))
    return cfg.dp * weights / cfg.tp


def _fc_layers(model):
    from repro.models.layers import fc_layers

    return fc_layers(model)


def paper_style_ratios(model: LLMConfig = GPT3_175B) -> tuple:
    """(scale-out, same-cluster) ratios under the paper's accounting.

    These reproduce the intro's 16x and 64x exactly.
    """
    base = paper_style_dp_traffic(baseline_config(model))
    return (
        base / paper_style_dp_traffic(scale_out_config(model)),
        base / paper_style_dp_traffic(same_cluster_config(model)),
    )


def _campaign_point(kind: str) -> List[ThreeDRow]:
    """The single campaign point: all three configuration rows."""
    if kind != "rows":
        raise ValueError(f"unknown ablation-3d point {kind!r}")
    return run()


def render(rows: List[ThreeDRow]) -> str:
    table = render_table(
        ["configuration", "layout", "chips", "DP traffic/chip (GB)",
         "bubble frac", "step (s)", "FLOP util"],
        [(r.label, r.config, r.chips, r.dp_traffic_gb, r.bubble_fraction,
          r.step_seconds, r.utilization) for r in rows],
    )
    if len(rows) < 3:
        return table
    scale_out, same_cluster = traffic_ratios(rows)
    p_scale_out, p_same_cluster = paper_style_ratios()
    return (
        table
        + "\n\nDP traffic reduction vs the 1D baseline:"
        + f"\n  paper's accounting (dp * W / tp): {p_scale_out:.0f}x "
        f"scale-out, {p_same_cluster:.0f}x same-cluster "
        "(paper: 16x / 64x)"
        + f"\n  ring all-reduce accounting:       {scale_out:.1f}x "
        f"scale-out, {same_cluster:.1f}x same-cluster"
    )


def points() -> list:
    return ["rows"]


CAMPAIGN = CampaignSpec(
    name="ablation-3d",
    points=points,
    point=_campaign_point,
    render=render,
    flatten=True,
)
