"""Section 4.2 ablation: loop unrolling for SUMMA and Wang.

The paper applies loop unrolling to SUMMA and Wang "as they have large
iteration counts", setting both algorithms' loop counts to MeshSlice's
autotuned slice count, because merging small GeMMs into larger GeMMs
helps computational efficiency. This ablation quantifies that choice:
it runs both baselines with their *natural* fine iteration counts (one
iteration per ring member for Wang; a classical panel count for SUMMA)
and with the unrolled counts the paper's evaluation uses, showing how
much the unrolling improves the baselines — i.e. that the paper
compares MeshSlice against strengthened versions of its competitors.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.algorithms import GeMMConfig, get_algorithm
from repro.campaign.spec import CampaignSpec
from repro.core.dataflow import Dataflow
from repro.core.gemm import GeMMShape
from repro.experiments.common import render_table, tuned_slices
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.mesh.topology import Mesh2D
from repro.sim.cluster import simulate

#: A GPT-3 FFN-in forward GeMM at 256-chip weak scaling, on an
#: elongated mesh where both baselines' natural iteration counts are
#: large (Wang's decomposed ring has 64 members; SUMMA's panel loop is
#: long) so the unrolling effect is visible for both.
DEFAULT_SHAPE = GeMMShape(m=262144, n=49152, k=12288)
DEFAULT_MESH = Mesh2D(4, 64)


@dataclasses.dataclass(frozen=True)
class UnrollingRow:
    algorithm: str
    iterations: int
    variant: str
    utilization: float
    makespan_ms: float


def natural_iterations(algorithm: str, mesh: Mesh2D, shape: GeMMShape) -> int:
    """The un-unrolled loop count of each baseline.

    Wang's SendRecv decomposition naturally runs one step per member of
    the decomposed ring; SUMMA's classical panel loop runs a common
    multiple of the mesh dims (we use the least one, capped by the
    sliced dimension).
    """
    if algorithm == "wang":
        return max(mesh.rows, mesh.cols)
    if algorithm == "summa":
        import math

        return min(math.lcm(mesh.rows, mesh.cols) * 2, 64)
    raise ValueError(f"no natural iteration count for {algorithm!r}")


def run(
    shape: GeMMShape = DEFAULT_SHAPE,
    mesh: Mesh2D = DEFAULT_MESH,
    algorithms: Sequence[str] = ("summa", "wang"),
    hw: HardwareParams = TPUV4,
) -> List[UnrollingRow]:
    """Each baseline with fine-grain vs unrolled iteration counts."""
    rows: List[UnrollingRow] = []
    base = GeMMConfig(shape, mesh, Dataflow.OS, slices=1)
    unrolled = tuned_slices(base, hw)
    for algorithm in algorithms:
        alg = get_algorithm(algorithm)
        for variant, iterations in (
            ("natural", natural_iterations(algorithm, mesh, shape)),
            ("unrolled (paper)", unrolled),
        ):
            cfg = dataclasses.replace(base, slices=iterations)
            if not alg.supports(cfg):
                continue
            result = simulate(alg.build_program(cfg, hw), hw)
            rows.append(
                UnrollingRow(
                    algorithm=algorithm,
                    iterations=iterations,
                    variant=variant,
                    utilization=result.flop_utilization(),
                    makespan_ms=result.makespan * 1e3,
                )
            )
    return rows


def unrolling_speedup(rows: Sequence[UnrollingRow], algorithm: str) -> float:
    """Relative speedup of the unrolled variant over the natural one."""
    by_variant = {
        r.variant: r for r in rows if r.algorithm == algorithm
    }
    natural = by_variant["natural"]
    unrolled = by_variant["unrolled (paper)"]
    return natural.makespan_ms / unrolled.makespan_ms - 1.0


def render(rows: Sequence[UnrollingRow]) -> str:
    table = render_table(
        ["algorithm", "variant", "iterations", "FLOP util", "time (ms)"],
        [(r.algorithm, r.variant, r.iterations, r.utilization, r.makespan_ms)
         for r in rows],
    )
    lines = [table, ""]
    for algorithm in ("summa", "wang"):
        try:
            speedup = unrolling_speedup(rows, algorithm)
        except KeyError:
            continue
        lines.append(
            f"unrolling speeds {algorithm} up by {speedup * 100:+.1f}% — the "
            "paper evaluates against the strengthened baseline"
        )
    lines.append(
        "(SUMMA gains most: its fine panels multiply synchronization-heavy "
        "broadcasts; Wang's SendRecvs already move full shards, so "
        "unrolling only merges its GeMM kernels)"
    )
    return "\n".join(lines)


def _campaign_point(algorithm: str) -> List[UnrollingRow]:
    """One baseline algorithm's fine-vs-unrolled pair (one point)."""
    return run(algorithms=(algorithm,))


def points() -> List[str]:
    return ["summa", "wang"]


CAMPAIGN = CampaignSpec(
    name="ablation-unrolling",
    points=points,
    point=_campaign_point,
    render=render,
    flatten=True,
)
