"""Tests for the recovery subsystem: retry, degraded mesh, checkpoint."""

import math

import pytest

from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.models import GPT3_175B
from repro.recovery import (
    CheckpointModel,
    ClusterReliability,
    NoSurvivingMeshError,
    RetryPolicy,
    cluster_mtbf,
    degrade_goodput,
    degraded_meshes,
    restart_goodput,
    retune_degraded,
)


class TestCheckpointModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointModel(mtbf=0.0, checkpoint_seconds=1.0)
        with pytest.raises(ValueError):
            CheckpointModel(mtbf=1.0, checkpoint_seconds=0.0)
        with pytest.raises(ValueError):
            CheckpointModel(mtbf=1.0, checkpoint_seconds=1.0,
                            restart_seconds=-1.0)

    def test_young_closed_form(self):
        model = CheckpointModel(mtbf=1e6, checkpoint_seconds=50.0)
        assert model.young_interval == pytest.approx(math.sqrt(2 * 50.0 * 1e6))

    def test_daly_below_young_and_reduces_to_it(self):
        model = CheckpointModel(mtbf=1e6, checkpoint_seconds=50.0)
        # For delta << M the two closed forms agree to first order...
        assert model.daly_interval == pytest.approx(
            model.young_interval, rel=5e-3
        )
        # ...and Daly's delta subtraction keeps it strictly below.
        assert model.daly_interval < model.young_interval

    def test_daly_saturates_at_mtbf(self):
        model = CheckpointModel(mtbf=100.0, checkpoint_seconds=500.0)
        assert model.daly_interval == 100.0

    def test_optimum_matches_young_daly_within_1pct(self):
        """Acceptance criterion: numeric optimum vs closed form < 1%."""
        for mtbf, delta in [(1e6, 50.0), (86400.0, 60.0), (3600.0 * 24, 10.0)]:
            model = CheckpointModel(mtbf=mtbf, checkpoint_seconds=delta)
            opt = model.optimal_interval()
            assert opt == pytest.approx(model.daly_interval, rel=0.01)
            # Young's first-order form is a touch coarser (it ignores
            # the checkpoint's own duration inside the lost-work term).
            assert opt == pytest.approx(model.young_interval, rel=0.02)

    def test_optimum_actually_maximizes_goodput(self):
        model = CheckpointModel(
            mtbf=86400.0, checkpoint_seconds=60.0, restart_seconds=120.0
        )
        opt = model.optimal_interval()
        best = model.goodput(opt)
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert model.goodput(opt * factor) <= best

    def test_restart_cost_does_not_shift_optimum(self):
        """e^{R/M} multiplies E[T] uniformly, so tau* is R-free."""
        base = CheckpointModel(mtbf=86400.0, checkpoint_seconds=60.0)
        costly = CheckpointModel(
            mtbf=86400.0, checkpoint_seconds=60.0, restart_seconds=600.0
        )
        assert costly.optimal_interval() == pytest.approx(
            base.optimal_interval(), rel=1e-6
        )
        assert costly.optimal_goodput() < base.optimal_goodput()

    def test_goodput_bounds_and_wall(self):
        model = CheckpointModel(mtbf=86400.0, checkpoint_seconds=60.0)
        g = model.optimal_goodput()
        assert 0.0 < g < 1.0
        assert model.expected_total_wall(1000.0) == pytest.approx(1000.0 / g)
        assert model.expected_total_wall(0.0) == 0.0

    def test_cluster_mtbf(self):
        assert cluster_mtbf(1000.0, 10) == 100.0
        with pytest.raises(ValueError):
            cluster_mtbf(0.0, 10)
        with pytest.raises(ValueError):
            cluster_mtbf(1000.0, 0)


class TestDegradedMeshes:
    def test_every_dead_chip_on_4x4_and_up(self):
        """Acceptance criterion: valid shrunk mesh for any single dead
        chip on >= 4x4 meshes."""
        for shape in [(4, 4), (4, 8), (8, 4), (5, 7)]:
            mesh = Mesh2D(*shape)
            for dead in mesh.coords():
                candidates = degraded_meshes(mesh, dead)
                assert len(candidates) == 2
                drop_row, drop_col = candidates
                assert drop_row.shape == (mesh.rows - 1, mesh.cols)
                assert drop_col.shape == (mesh.rows, mesh.cols - 1)

    def test_independent_of_which_chip_died(self):
        mesh = Mesh2D(4, 4)
        baseline = degraded_meshes(mesh, (0, 0))
        for dead in mesh.coords():
            assert degraded_meshes(mesh, dead) == baseline

    def test_degenerate_meshes(self):
        assert degraded_meshes(Mesh2D(1, 4), (0, 2)) == (Mesh2D(1, 3),)
        assert degraded_meshes(Mesh2D(4, 1), (2, 0)) == (Mesh2D(3, 1),)
        # No survivors is a structured empty result, not an error.
        assert degraded_meshes(Mesh2D(1, 1), (0, 0)) == ()
        with pytest.raises(ValueError):
            degraded_meshes(Mesh2D(4, 4), (5, 0))

    def test_no_surviving_mesh_raises_named_error(self):
        with pytest.raises(NoSurvivingMeshError):
            retune_degraded(GPT3_175B, 16, Mesh2D(1, 1), (0, 0), TPUV4)
        # The named error is still a ValueError for legacy callers.
        assert issubclass(NoSurvivingMeshError, ValueError)
        # An off-mesh coordinate is an argument error, not exhaustion.
        with pytest.raises(ValueError) as err:
            retune_degraded(GPT3_175B, 16, Mesh2D(4, 4), (5, 0), TPUV4)
        assert not isinstance(err.value, NoSurvivingMeshError)

    def test_without_row_col_validation(self):
        mesh = Mesh2D(3, 4)
        assert mesh.without_row(1).shape == (2, 4)
        assert mesh.without_col(3).shape == (3, 3)
        with pytest.raises(IndexError):
            mesh.without_row(3)
        with pytest.raises(IndexError):
            mesh.without_col(4)
        with pytest.raises(ValueError):
            Mesh2D(1, 4).without_row(0)
        with pytest.raises(ValueError):
            Mesh2D(4, 1).without_col(0)


class TestRetuneDegraded:
    def test_matches_exhaustive_search_on_small_mesh(self):
        """Acceptance criterion: the re-tuned configuration equals a
        brute-force search over the surviving shapes."""
        from repro.autotuner.dataflow import plan_model
        from repro.autotuner.search import tune_mesh

        mesh = Mesh2D(4, 4)
        batch = 8
        retune = retune_degraded(GPT3_175B, batch, mesh, (1, 2), TPUV4)
        plans = plan_model(GPT3_175B, GPT3_175B.tokens(batch))
        exhaustive = {}
        for candidate in degraded_meshes(mesh, (1, 2)):
            _tuned, total = tune_mesh(plans, candidate, TPUV4)
            exhaustive[candidate.shape] = total
        best_shape = min(exhaustive, key=lambda s: exhaustive[s])
        assert retune.mesh.shape == best_shape
        assert retune.block_seconds == pytest.approx(exhaustive[best_shape])
        assert retune.result.per_mesh_seconds == pytest.approx(exhaustive)

    def test_metadata(self):
        mesh = Mesh2D(4, 4)
        retune = retune_degraded(GPT3_175B, 8, mesh, (0, 0), TPUV4)
        assert retune.original is mesh
        assert retune.dead == (0, 0)
        assert retune.dropped in ("row", "col")
        assert retune.surviving_chips == 12
        assert retune.mesh.shape in ((3, 4), (4, 3))

    def test_dead_chip_coordinate_irrelevant(self):
        mesh = Mesh2D(4, 4)
        baseline = retune_degraded(GPT3_175B, 8, mesh, (0, 0), TPUV4)
        other = retune_degraded(GPT3_175B, 8, mesh, (3, 1), TPUV4)
        assert other.mesh == baseline.mesh
        assert other.block_seconds == baseline.block_seconds


class TestMemoizedDegradedRetune:
    def test_identity_and_counters(self, monkeypatch):
        from repro.perf import cache_stats, clear_caches
        from repro.perf.cache import KILL_SWITCH_ENV
        from repro.perf.pipeline import degraded_retune_model

        # Opt back into caching even under the CI no-cache lane.
        monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
        clear_caches()
        mesh = Mesh2D(4, 4)
        first = degraded_retune_model(GPT3_175B, 8, mesh, (0, 0), TPUV4)
        stats = cache_stats()["degraded_retune"]
        assert (stats.hits, stats.misses) == (0, 1)
        again = degraded_retune_model(GPT3_175B, 8, mesh, (0, 0), TPUV4)
        assert again is first
        stats = cache_stats()["degraded_retune"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_matches_unmemoized(self):
        from repro.perf.pipeline import degraded_retune_model

        mesh = Mesh2D(4, 4)
        cached = degraded_retune_model(GPT3_175B, 8, mesh, (2, 2), TPUV4)
        direct = retune_degraded(GPT3_175B, 8, mesh, (2, 2), TPUV4)
        assert cached.mesh == direct.mesh
        assert cached.block_seconds == direct.block_seconds


class TestPolicies:
    RELIABILITY = ClusterReliability(
        chip_mtbf=2000.0 * 3600, chips=64, repair_seconds=3600.0
    )

    def test_reliability_validation(self):
        with pytest.raises(ValueError):
            ClusterReliability(chip_mtbf=0.0, chips=4)
        with pytest.raises(ValueError):
            ClusterReliability(chip_mtbf=1.0, chips=0)
        with pytest.raises(ValueError):
            ClusterReliability(chip_mtbf=1.0, chips=4, repair_seconds=-1.0)

    def test_availability(self):
        rel = self.RELIABILITY
        assert rel.mtbf == pytest.approx(2000.0 * 3600 / 64)
        assert 0.0 < rel.availability < 1.0

    def test_restart_goodput_decomposition(self):
        est = restart_goodput(0.5, self.RELIABILITY, 60.0, 180.0)
        assert est.policy == "restart"
        assert est.goodput == pytest.approx(
            self.RELIABILITY.availability * est.checkpoint_goodput
        )
        assert 0.0 < est.goodput < 1.0
        assert est.effective_step_seconds > 0.5
        assert est.steps_per_hour == pytest.approx(
            3600.0 / est.effective_step_seconds
        )

    def test_degrade_beats_restart_when_degradation_is_mild(self):
        restart = restart_goodput(0.5, self.RELIABILITY, 60.0, 180.0)
        degrade = degrade_goodput(0.5, 0.6, self.RELIABILITY, 60.0, 180.0)
        assert degrade.policy == "degrade"
        assert degrade.goodput > restart.goodput

    def test_total_loss_degradation_cannot_beat_restart(self):
        """A uselessly slow degraded mesh converges to restart's idle
        repair window (minus the extra failover restarts)."""
        restart = restart_goodput(0.5, self.RELIABILITY, 60.0, 180.0)
        degrade = degrade_goodput(0.5, 1e9, self.RELIABILITY, 60.0, 180.0)
        assert degrade.goodput <= restart.goodput + 1e-9

    def test_degrade_rejects_speedup(self):
        with pytest.raises(ValueError):
            degrade_goodput(0.5, 0.4, self.RELIABILITY, 60.0)

    def test_policy_gap_widens_with_scale(self):
        gaps = []
        for chips in (16, 64, 256):
            rel = ClusterReliability(
                chip_mtbf=2000.0 * 3600, chips=chips, repair_seconds=3600.0
            )
            restart = restart_goodput(0.5, rel, 60.0, 180.0)
            degrade = degrade_goodput(0.5, 0.65, rel, 60.0, 180.0)
            gaps.append(degrade.goodput - restart.goodput)
        assert gaps == sorted(gaps)


class TestRetryPolicyMachine:
    def test_episode_deterministic(self):
        import random

        policy = RetryPolicy()
        a = policy.episode(random.Random(5), 1e-3, 0.5)
        b = policy.episode(random.Random(5), 1e-3, 0.5)
        assert a == b

    def test_zero_budget_is_immediately_fatal(self):
        import random

        policy = RetryPolicy(max_retries=0)
        episode = policy.episode(random.Random(1), 1e-3, 0.5)
        assert episode.exhausted
        assert episode.attempts == 0
        assert episode.delay_seconds == 0.0
