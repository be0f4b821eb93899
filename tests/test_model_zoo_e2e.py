"""Cross-zoo end-to-end smoke tests: every model runs the full stack.

The autotuner, the algorithms, the simulator, and the memory model must
work for every architecture in the zoo — including LLaMA-2's non-4x
SwiGLU FFN and PaLM's unusual head geometry — not just the paper's two
targets.
"""

import pytest

from repro.autotuner import plan_model, tune_model
from repro.experiments import best_block_run, weak_scaling_batch
from repro.experiments.common import pass_config, utilization_map
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.models import (
    GPT3_175B,
    LLAMA2_70B,
    MEGATRON_NLG_530B,
    PALM_540B,
    get_model,
    model_names,
)

ZOO = (GPT3_175B, LLAMA2_70B, MEGATRON_NLG_530B, PALM_540B)


class TestZoo:
    def test_four_models_registered(self):
        assert len(model_names()) == 4

    @pytest.mark.parametrize("model", ZOO, ids=lambda m: m.name)
    def test_param_count_sane(self, model):
        nominal = float(model.name.split("-")[-1].rstrip("b").rstrip("B")) * 1e9
        # FC layers hold most (not all) of the parameters.
        assert 0.6 * nominal < model.approx_params <= 1.1 * nominal

    def test_llama_ffn_override(self):
        assert LLAMA2_70B.ffn_dim == 28672
        assert LLAMA2_70B.ffn_dim != LLAMA2_70B.ffn_mult * LLAMA2_70B.hidden


class TestZooEndToEnd:
    @pytest.mark.parametrize("model", ZOO, ids=lambda m: m.name)
    def test_autotuner_runs(self, model):
        result = tune_model(model, batch_size=8, chips=16, hw=TPUV4)
        assert result.mesh.size == 16
        assert result.block_seconds > 0
        assert len(result.passes) == 12

    @pytest.mark.parametrize("model", ZOO, ids=lambda m: m.name)
    def test_meshslice_beats_collective(self, model):
        chips = 16
        batch = weak_scaling_batch(chips)
        ms = best_block_run("meshslice", model, batch, chips, TPUV4)
        coll = best_block_run("collective", model, batch, chips, TPUV4)
        assert ms.seconds < coll.seconds

    def test_get_model_round_trip(self):
        for name in model_names():
            assert get_model(name).name == name


class TestCommonHelpers:
    def test_pass_config(self):
        plans = plan_model(GPT3_175B, GPT3_175B.tokens(8))
        cfg = pass_config(plans[0], "fwd", Mesh2D(4, 4), slices=4)
        assert cfg.slices == 4
        assert cfg.shape == plans[0].pass_plan("fwd").shape

    def test_utilization_map_preserves_none(self):
        runs = {
            "present": best_block_run("meshslice", GPT3_175B, 8, 16, TPUV4),
            "absent": None,
        }
        utils = utilization_map(runs, TPUV4)
        assert utils["absent"] is None
        assert 0 < utils["present"] < 1
