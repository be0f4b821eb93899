"""Figure 11: FLOP utilization of the 16 distinct training GeMM shapes.

The forward and backward passes of the four FC layers produce eight
distinct (M, N, K) GeMM shapes per model — sixteen across GPT-3 and
Megatron-NLG. Each is executed with the five 2D algorithms in a
256-chip cluster, each algorithm at its own optimal mesh shape.
MeshSlice should win every shape, with larger speedups on the larger
GeMMs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import GeMMConfig, TWO_D_ALGORITHMS
from repro.autotuner.dataflow import PassPlan, plan_model
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    best_gemm_mesh,
    grid_map,
    render_table,
    tuned_slices,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B


@dataclasses.dataclass(frozen=True)
class ShapeRow:
    """Utilization of one GeMM shape under one algorithm."""

    model: str
    label: str
    shape: Tuple[int, int, int]
    algorithm: str
    utilization: Optional[float]
    mesh: Optional[str]


def distinct_pass_plans(
    model: LLMConfig, tokens: int
) -> List[Tuple[str, PassPlan]]:
    """The distinct-shape training GeMMs of one block, with dataflows."""
    plans = plan_model(model, tokens, optimize_dataflow=True)
    seen: Dict[Tuple[int, int, int], Tuple[str, PassPlan]] = {}
    for plan in plans:
        for pass_plan in plan.passes:
            key = pass_plan.shape.as_tuple()
            if key not in seen:
                label = f"{plan.layer.name}/{pass_plan.pass_name}"
                seen[key] = (label, pass_plan)
    return list(seen.values())


def _point_rows(point) -> List[ShapeRow]:
    """All Figure 11 bars of one (model, GeMM shape) grid point.

    Module-level so it can run in a ``grid_map`` worker process.
    """
    model_name, label, pass_plan, algorithms, chips, hw = point
    rows: List[ShapeRow] = []
    for algorithm in algorithms:
        best = _best_for_shape(algorithm, pass_plan, chips, hw)
        if best is None:
            rows.append(
                ShapeRow(model_name, label, pass_plan.shape.as_tuple(),
                         algorithm, None, None)
            )
        else:
            util, mesh = best
            rows.append(
                ShapeRow(model_name, label, pass_plan.shape.as_tuple(),
                         algorithm, util, str(mesh))
            )
    return rows


def run(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    chips: int = 256,
    batch_size: int = 128,
    algorithms: Sequence[str] = TWO_D_ALGORITHMS,
    hw: HardwareParams = TPUV4,
    jobs: Optional[int] = None,
) -> List[ShapeRow]:
    """Produce every Figure 11 bar.

    The (model, GeMM shape) grid points are independent and run in
    worker processes when ``jobs`` (or ``REPRO_JOBS``) allows.
    """
    points = []
    for model in models:
        tokens = model.tokens(batch_size)
        for label, pass_plan in distinct_pass_plans(model, tokens):
            points.append(
                (model.name, label, pass_plan, tuple(algorithms), chips, hw)
            )
    return [row for rows in grid_map(_point_rows, points, jobs=jobs)
            for row in rows]


def _best_for_shape(
    algorithm: str, pass_plan: PassPlan, chips: int, hw: HardwareParams
) -> Optional[Tuple[float, object]]:
    dataflow = pass_plan.dataflow
    transposed = pass_plan.transposed
    if algorithm == "cannon":
        # Cannon always computes output-stationary (Section 7).
        from repro.core.dataflow import Dataflow

        dataflow, transposed = Dataflow.OS, False

    def config_for(mesh):
        base = GeMMConfig(
            shape=pass_plan.shape,
            mesh=mesh,
            dataflow=dataflow,
            slices=1,
            transposed=transposed,
        )
        if algorithm in ("collective", "cannon"):
            return base
        return dataclasses.replace(base, slices=tuned_slices(base, hw))

    # The highest utilization wins: minimize its negation.
    best = best_gemm_mesh(
        algorithm, chips, hw, config_for,
        lambda result: -result.flop_utilization(),
    )
    return None if best is None else (-best[0], best[1].mesh)


def average_speedup(
    rows: Sequence[ShapeRow], subject: str, baseline: str
) -> float:
    """Mean utilization ratio of ``subject`` over ``baseline`` - 1."""
    by_key: Dict[Tuple[str, str, str], float] = {
        (r.model, r.label, r.algorithm): r.utilization
        for r in rows
        if r.utilization is not None
    }
    ratios = []
    for (model, label, algorithm), util in by_key.items():
        if algorithm != subject:
            continue
        base = by_key.get((model, label, baseline))
        if base:
            ratios.append(util / base)
    if not ratios:
        raise ValueError("no comparable rows")
    return sum(ratios) / len(ratios) - 1.0


def render(rows: Sequence[ShapeRow]) -> str:
    table = render_table(
        ["model", "gemm", "(M,N,K)", "algorithm", "FLOP util", "mesh"],
        [(r.model, r.label, str(r.shape), r.algorithm, r.utilization, r.mesh)
         for r in rows],
    )
    lines = [table, ""]
    for baseline, paper in (("collective", 27.8), ("wang", 19.1)):
        try:
            avg = average_speedup(rows, "meshslice", baseline) * 100
        except ValueError:
            # Partial campaign store: no comparable pairs stored yet.
            continue
        lines.append(
            f"MeshSlice over {baseline}: {avg:+.1f}% average "
            f"(paper: +{paper}%)"
        )
    return "\n".join(lines)


def main(hw: HardwareParams = TPUV4, chips: int = 256) -> str:
    return render(run(chips=chips, hw=hw))


def _campaign_points() -> List[tuple]:
    points = []
    for model in (GPT3_175B, MEGATRON_NLG_530B):
        tokens = model.tokens(128)
        for label, pass_plan in distinct_pass_plans(model, tokens):
            points.append(
                (model.name, label, pass_plan,
                 tuple(TWO_D_ALGORITHMS), 256, TPUV4)
            )
    return points


CAMPAIGN = CampaignSpec(
    name="fig11",
    points=_campaign_points,
    point=_point_rows,
    render=render,
    flatten=True,
)


if __name__ == "__main__":
    print(main())
