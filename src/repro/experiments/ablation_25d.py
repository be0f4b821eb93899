"""Section 7 ablation: 2.5D GeMM vs MeshSlice+DP on a 3D cluster.

The paper's closing comparison: computing a GPT-3 FC layer with
(M, N, K) = (1024K, 12K, 48K) on 1024 accelerators. The 2.5D algorithm
(Cannon-based) must use a square base mesh — 16x16x4 is the only
possible torus — and pays skewed-shift traffic of 1.6 GB per chip.
MeshSlice combined with data parallelism along the third dimension can
pick the traffic-optimal 32x8x4 shape and incurs only ~336 MB per chip.

Traffic models:

* 2.5D on a ``P x P x c`` torus: each of the ``P / c`` shift steps per
  replica layer moves both input shards, so per-chip traffic is
  ``(P / c) * (sizeof(A) + sizeof(B)) / P^2`` (plus the initial
  replication, reported separately).
* MeshSlice+DP on ``(P_r x P_c) x c``: each 2D mesh of ``P_r * P_c``
  chips handles ``1/c`` of the batch; per-chip traffic is the larger
  plus smaller flowing-matrix ring traffic of Section 2.3.1, plus the
  DP gradient all-reduce of the weight shard.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.algorithms.base import GeMMConfig, flow_ops, matrix_bytes
from repro.autotuner.dataflow import choose_stationary, pass_plans
from repro.campaign.spec import CampaignSpec
from repro.core.gemm import GeMMShape
from repro.experiments.common import render_table
from repro.mesh.topology import Mesh2D, mesh_shapes

#: The Section 7 example problem: a GPT-3 FC layer at batch 512.
EXAMPLE_SHAPE = GeMMShape(m=1024 * 1024, n=12 * 1024, k=48 * 1024, dtype_bytes=2)


@dataclasses.dataclass(frozen=True)
class TrafficRow:
    method: str
    topology: str
    per_chip_traffic_gb: float


@dataclasses.dataclass(frozen=True)
class TimedRow:
    """Simulated makespans of both 3D methods (one campaign point)."""

    t25_s: float
    tdp_s: float


def traffic_25d(shape: GeMMShape, base: int, copies: int) -> float:
    """Per-chip shift traffic of the 2.5D algorithm (bytes)."""
    if base < 1 or copies < 1:
        raise ValueError("base and copies must be positive")
    shifts = max(1, base // copies)
    return shifts * (shape.a_bytes + shape.b_bytes) / (base * base)


def traffic_meshslice_dp(
    shape: GeMMShape, mesh: Mesh2D, copies: int
) -> float:
    """Per-chip traffic of MeshSlice+DP (bytes).

    The batch (M) splits over the DP dimension; the 2D mesh runs the
    dataflow the autotuner would pick (largest matrix stationary), and
    each chip additionally all-reduces its weight-gradient shard across
    the ``copies`` replicas.
    """
    if copies < 1:
        raise ValueError("copies must be positive")
    per_copy = GeMMShape(
        m=max(1, shape.m // copies), n=shape.n, k=shape.k,
        dtype_bytes=shape.dtype_bytes,
    )
    stationary = choose_stationary(
        per_copy.m, in_dim=per_copy.k, out_dim=per_copy.n
    )
    plan = pass_plans(
        stationary, per_copy.m, in_dim=per_copy.k, out_dim=per_copy.n,
        dtype_bytes=shape.dtype_bytes,
    )[0]
    cfg = GeMMConfig(plan.shape, mesh, plan.dataflow, transposed=plan.transposed)
    (col_op, col_mat), (row_op, row_mat) = flow_ops(cfg.dataflow, cfg.transposed)
    chips = mesh.size
    col = (mesh.cols - 1) * matrix_bytes(cfg.shape, col_mat) / chips
    row = (mesh.rows - 1) * matrix_bytes(cfg.shape, row_mat) / chips
    dp_allreduce = 2.0 * (copies - 1) / copies * shape.b_bytes / chips
    return col + row + dp_allreduce


def best_meshslice_topology(
    shape: GeMMShape, chips: int, copies: int
) -> Tuple[Mesh2D, float]:
    """The traffic-minimizing 2D mesh for MeshSlice+DP."""
    per_mesh = chips // copies
    meshes = mesh_shapes(per_mesh, min_dim=2)
    if not meshes:
        raise ValueError(f"no 2D mesh for {per_mesh} chips")
    # min() keeps the first of equal-traffic meshes.
    mesh = min(meshes, key=lambda m: traffic_meshslice_dp(shape, m, copies))
    return mesh, traffic_meshslice_dp(shape, mesh, copies)


def run(
    shape: GeMMShape = EXAMPLE_SHAPE, chips: int = 1024, copies: int = 4
) -> List[TrafficRow]:
    """Produce the Section 7 comparison rows."""
    import math

    base = math.isqrt(chips // copies)
    if base * base * copies != chips:
        raise ValueError(
            f"2.5D needs a square base mesh: {chips} chips / {copies} copies"
        )
    rows = [
        TrafficRow(
            method="2.5D GeMM",
            topology=f"{base}x{base}x{copies}",
            per_chip_traffic_gb=traffic_25d(shape, base, copies) / 1e9,
        )
    ]
    mesh, traffic = best_meshslice_topology(shape, chips, copies)
    rows.append(
        TrafficRow(
            method="MeshSlice+DP",
            topology=f"{mesh.rows}x{mesh.cols}x{copies}",
            per_chip_traffic_gb=traffic / 1e9,
        )
    )
    return rows


def run_timed(
    shape: GeMMShape = EXAMPLE_SHAPE, chips: int = 1024, copies: int = 4
):
    """Simulated execution times of both 3D methods (beyond the paper's
    traffic-only comparison)."""
    import math

    from repro.algorithms.stacked import (
        MeshSliceDPGeMM,
        StackedConfig,
        TwoPointFiveDGeMM,
    )
    from repro.hw.presets import TPUV4
    from repro.sim.cluster import simulate

    base = math.isqrt(chips // copies)
    c25 = StackedConfig(shape, Mesh2D(base, base), copies)
    mesh, _traffic = best_meshslice_topology(shape, chips, copies)
    msdp = StackedConfig(shape, mesh, copies, slices=8)
    t25 = simulate(TwoPointFiveDGeMM().build_program(c25, TPUV4), TPUV4)
    tdp = simulate(MeshSliceDPGeMM().build_program(msdp, TPUV4), TPUV4)
    return t25.makespan, tdp.makespan


def _campaign_point(kind: str) -> list:
    """One campaign point: the traffic rows or the timed comparison."""
    if kind == "traffic":
        return list(run())
    if kind == "timed":
        t25, tdp = run_timed()
        return [TimedRow(t25_s=t25, tdp_s=tdp)]
    raise ValueError(f"unknown ablation-2.5d point {kind!r}")


def render(rows: Sequence) -> str:
    traffic = [r for r in rows if isinstance(r, TrafficRow)]
    timed = [r for r in rows if isinstance(r, TimedRow)]
    out = render_table(
        ["method", "topology", "per-chip traffic (GB)"],
        [(r.method, r.topology, r.per_chip_traffic_gb) for r in traffic],
    )
    if len(traffic) >= 2:
        ratio = traffic[0].per_chip_traffic_gb / traffic[1].per_chip_traffic_gb
        out += (
            f"\n\nMeshSlice+DP moves {ratio:.1f}x less data per chip "
            "(paper: 1.6 GB vs 336 MB, ~4.8x)"
        )
    if timed:
        t25, tdp = timed[0].t25_s, timed[0].tdp_s
        out += (
            f"\nsimulated execution: 2.5D {t25 * 1e3:.2f} ms vs "
            f"MeshSlice+DP {tdp * 1e3:.2f} ms ({t25 / tdp:.1f}x faster)"
        )
    return out


def points() -> list:
    return ["traffic", "timed"]


CAMPAIGN = CampaignSpec(
    name="ablation-2.5d",
    points=points,
    point=_campaign_point,
    render=render,
    flatten=True,
)
