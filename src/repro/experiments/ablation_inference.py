"""Section 6 ablation: MeshSlice for LLM inference.

Inference computations differ from training in arithmetic intensity:
prefill GeMMs look like training (compute bound), but decode GeMMs have
``M = batch`` rows (one new token per sequence) and sit far below the
roofline ridge — memory and communication bound. This experiment runs
both phases of GPT-3 serving on a 64-chip mesh with the 2D algorithms
and shows:

1. the phase classification (prefill compute-bound, decode
   memory-bound),
2. MeshSlice remains at worst tied with Collective in decode (it falls
   back to coarse S when slicing cannot help), and
3. the autotuner picks much smaller slice counts for decode — the
   adaptation Section 6 anticipates.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.algorithms import GeMMConfig
from repro.campaign.spec import CampaignSpec
from repro.core.dataflow import Dataflow
from repro.experiments.common import (
    best_gemm_mesh,
    render_table,
    spec_rows,
    tuned_slices,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models.config import LLMConfig
from repro.models.inference import (
    InferenceWorkload,
    inference_gemms,
    is_memory_bound,
)
from repro.models.zoo import GPT3_175B


@dataclasses.dataclass(frozen=True)
class InferenceRow:
    phase: str
    layer: str
    algorithm: str
    memory_bound: bool
    tuned_slices: int
    latency_ms: Optional[float]


def _phase_rows(point) -> List[InferenceRow]:
    """All rows of one serving phase (one durable campaign point).

    Whole-phase granularity keeps the row order of :func:`run` intact:
    layers x algorithms within a phase stay contiguous in the store.
    """
    model, chips, batch, prompt_len, phase, algorithms, hw = point
    rows: List[InferenceRow] = []
    workload = InferenceWorkload(
        model=model, batch=batch, prompt_len=prompt_len, phase=phase
    )
    for layer_name, shape in inference_gemms(workload):
        for algorithm in algorithms:
            best = _best_latency(algorithm, shape, chips, hw)
            if best is None:
                rows.append(
                    InferenceRow(phase, layer_name, algorithm,
                                 is_memory_bound(shape, hw), 1, None)
                )
                continue
            latency, slices = best
            rows.append(
                InferenceRow(
                    phase=phase,
                    layer=layer_name,
                    algorithm=algorithm,
                    memory_bound=is_memory_bound(shape, hw),
                    tuned_slices=slices,
                    latency_ms=latency * 1e3,
                )
            )
    return rows


def points(
    model: LLMConfig = GPT3_175B,
    chips: int = 64,
    batch: int = 32,
    prompt_len: int = 1024,
    algorithms: Sequence[str] = ("collective", "wang", "meshslice"),
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """The serving grid: one point per phase (prefill, then decode)."""
    return [
        (model, chips, batch, prompt_len, phase, tuple(algorithms), hw)
        for phase in ("prefill", "decode")
    ]


def run(jobs: Optional[int] = None, **params) -> List[InferenceRow]:
    """Per-phase, per-layer inference latency rows.

    ``params`` go to :func:`points`.
    """
    return spec_rows(CAMPAIGN, jobs, **params)


def _best_latency(
    algorithm: str, shape, chips: int, hw: HardwareParams
) -> Optional[Tuple[float, int]]:
    def config_for(mesh):
        base = GeMMConfig(shape, mesh, Dataflow.OS, slices=1)
        if algorithm in ("collective", "cannon"):
            return base
        return dataclasses.replace(base, slices=tuned_slices(base, hw))

    best = best_gemm_mesh(
        algorithm, chips, hw, config_for, lambda result: result.makespan
    )
    return None if best is None else (best[0], best[1].slices)


def mean_tuned_slices(rows: Sequence[InferenceRow], phase: str) -> float:
    values = [
        r.tuned_slices
        for r in rows
        if r.phase == phase and r.algorithm == "meshslice"
    ]
    if not values:
        raise ValueError(f"no meshslice rows for phase {phase!r}")
    return sum(values) / len(values)


def render(rows: Sequence[InferenceRow]) -> str:
    table = render_table(
        ["phase", "layer", "algorithm", "memory-bound", "S", "latency (ms)"],
        [(r.phase, r.layer, r.algorithm, r.memory_bound, r.tuned_slices,
          r.latency_ms) for r in rows],
    )
    try:
        prefill_s = mean_tuned_slices(rows, "prefill")
        decode_s = mean_tuned_slices(rows, "decode")
    except ValueError:
        # Partial campaign store: one of the phases is not in yet.
        return table
    return (
        table
        + f"\n\nautotuned mean S: prefill {prefill_s:.1f}, decode "
        f"{decode_s:.1f} — the tuner backs off slicing for "
        "memory-bound decode GeMMs"
    )


CAMPAIGN = CampaignSpec(
    name="ablation-inference",
    points=points,
    point=_phase_rows,
    render=render,
    flatten=True,
)
