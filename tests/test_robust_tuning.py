"""Tests for the fault-aware robust tuning mode."""

import pytest

from repro.autotuner import RobustTuningResult, robust_tune_model, tune_model
from repro.autotuner.search import _quantile
from repro.faults import FaultSpec
from repro.models import GPT3_175B

SEVERE = FaultSpec(
    stragglers=2,
    straggler_slowdown=2.0,
    degraded_links=4,
    link_slowdown=3.0,
    seed=7,
)


class TestQuantile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _quantile(values, 1.0) == 4.0
        assert _quantile(values, 0.5) == 2.0
        assert _quantile(values, 0.95) == 4.0
        assert _quantile([5.0], 0.95) == 5.0

    def test_order_independent(self):
        assert _quantile([3.0, 1.0, 2.0], 0.95) == 3.0


class TestRobustTune:
    def test_null_spec_degenerates_to_clean_simulation(self, hw):
        result = robust_tune_model(
            GPT3_175B, 8, 16, hw, spec=FaultSpec(), ensemble=2
        )
        assert isinstance(result, RobustTuningResult)
        assert result.robust_seconds == result.mean_seconds
        assert result.robust_seconds == result.nominal_seconds
        assert result.inflation == 1.0

    def test_reproducible(self, hw):
        a = robust_tune_model(GPT3_175B, 8, 16, hw, spec=SEVERE, ensemble=4)
        b = robust_tune_model(GPT3_175B, 8, 16, hw, spec=SEVERE, ensemble=4)
        assert a == b

    def test_faults_inflate_tail(self, hw):
        result = robust_tune_model(GPT3_175B, 8, 16, hw, spec=SEVERE, ensemble=4)
        assert result.robust_seconds > result.nominal_seconds
        assert result.robust_seconds >= result.mean_seconds
        assert result.inflation > 1.0
        assert result.quantile == 0.95
        assert len(result.fault_plans) == 4
        # Every 16-chip factorization with both dims >= 2 was scored.
        assert set(result.per_mesh_robust) == {(2, 8), (4, 4), (8, 2)}
        assert result.robust_seconds == min(result.per_mesh_robust.values())

    def test_keeps_nominal_slice_tuning(self, hw):
        nominal = tune_model(GPT3_175B, 8, 16, hw)
        robust = robust_tune_model(
            GPT3_175B, 8, 16, hw, spec=FaultSpec(), ensemble=1
        )
        by_pass = {
            (t.layer_name, t.plan.pass_name): t.slices
            for t in nominal.passes
        }
        for tuned in robust.passes:
            key = (tuned.layer_name, tuned.plan.pass_name)
            assert tuned.slices == by_pass[key]

    def test_rejects_bad_quantile(self, hw):
        with pytest.raises(ValueError):
            robust_tune_model(
                GPT3_175B, 8, 16, hw, spec=FaultSpec(), quantile=0.0
            )
        with pytest.raises(ValueError):
            robust_tune_model(
                GPT3_175B, 8, 16, hw, spec=FaultSpec(), quantile=1.5
            )

    def test_unsupported_algorithm_everywhere_raises(self, hw):
        # Cannon needs a square mesh; 32 chips has no square
        # factorization, so no candidate supports it.
        with pytest.raises(ValueError, match="cannon"):
            robust_tune_model(
                GPT3_175B, 16, 32, hw, spec=FaultSpec(),
                ensemble=1, algorithm="cannon",
            )

    def test_1d_algorithm_on_ring(self, hw):
        from repro.mesh import Mesh2D

        result = robust_tune_model(
            GPT3_175B, 8, 16, hw, spec=SEVERE, ensemble=2,
            algorithm="1dtp", mesh_candidates=[Mesh2D(1, 16)],
        )
        assert result.mesh.shape == (1, 16)
        assert result.inflation > 1.0
