"""Microbenchmarks of the reproduction's own hot primitives.

Unlike the figure/table benches (which time one full experiment these
measure repeated executions of the core building blocks: the blocked
slicing kernel, the functional ring collectives, the functional
MeshSlice GeMM, the activity-level simulator, and the autotuner. They
double as ablations for design choices DESIGN.md calls out (block size
B, engine scalability).
"""

import numpy as np
import pytest

from repro.algorithms import GeMMConfig, get_algorithm
from repro.autotuner import tune_model
from repro.comm.ops import ring_allgather
from repro.core import GeMMShape, meshslice_os, slice_col
from repro.core.dataflow import Dataflow
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.models import GPT3_175B
from repro.sim import simulate


@pytest.fixture(scope="module")
def big_shard():
    return np.random.default_rng(7).standard_normal((512, 4096))


@pytest.mark.repro("Algorithm 2 (blocked slicing)")
@pytest.mark.parametrize("block", [1, 8, 64])
def test_slice_col_block_size_ablation(benchmark, big_shard, block):
    """Blocked slicing keeps copies contiguous: larger B, faster copy.

    This is the reproduction-side analogue of the paper's B = 8 choice
    for TPU memory chunks.
    """
    result = benchmark(slice_col, big_shard, 8, 3, block)
    assert result.shape == (512, 512)


@pytest.mark.repro("Figure 3 (ring AllGather)")
@pytest.mark.parametrize("ring", [4, 16])
def test_ring_allgather_functional(benchmark, ring):
    chunks = [np.full((64, 64), r, dtype=np.float64) for r in range(ring)]
    gathered = benchmark(ring_allgather, chunks, 0)
    assert gathered[0].shape == (64 * ring, 64)


@pytest.mark.repro("Figure 5 (MeshSlice OS functional)")
def test_meshslice_functional_gemm(benchmark):
    rng = np.random.default_rng(3)
    mesh = Mesh2D(4, 2)
    a = rng.standard_normal((128, 256))
    b = rng.standard_normal((256, 128))
    c = benchmark(meshslice_os, a, b, mesh, 4, 2)
    assert np.allclose(c, a @ b)


@pytest.mark.repro("Section 4.1 (cluster simulator)")
def test_simulator_throughput(benchmark):
    """One MeshSlice GeMM simulation at S=32 (hundreds of activities)."""
    alg = get_algorithm("meshslice")
    cfg = GeMMConfig(
        GeMMShape(262144, 49152, 12288), Mesh2D(32, 8), Dataflow.OS, slices=32
    )

    def run():
        return simulate(alg.build_program(cfg, TPUV4), TPUV4)

    result = benchmark(run)
    assert result.makespan > 0


@pytest.mark.repro("Section 3.2 (LLM autotuner)")
def test_autotuner_speed(benchmark):
    """The paper: the autotuner finishes in seconds. Ours: well under."""
    result = benchmark(tune_model, GPT3_175B, 128, 256, TPUV4)
    assert result.mesh.size == 256
