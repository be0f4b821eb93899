"""Smoke and shape tests for every experiment module (small scale).

These run each figure/table reproduction at reduced scale (16-64 chips,
fewer algorithms) and assert the paper's qualitative claims hold:
orderings, optimum agreement, traffic ratios.
"""

import pytest

from repro.cli import run_experiment
from repro.experiments import (
    ablation_25d,
    ablation_faults,
    ablation_recovery,
    ablation_sdc,
    ablation_zoo,
    fig09_weak_scaling,
    fig10_comm_breakdown,
    fig11_matrix_shapes,
    fig12_strong_scaling,
    fig13_mesh_shapes,
    fig14_slice_counts,
    fig15_comm_model_accuracy,
    table2_dataflow_opt,
    table3_real_hw,
)
from repro.experiments.common import spec_rows
from repro.mesh import Mesh2D
from repro.models import GPT3_175B


class TestFig9:
    def test_rows_and_ordering(self):
        rows = fig09_weak_scaling.run(
            models=(GPT3_175B,),
            sizes=(16,),
            algorithms=("meshslice", "collective", "wang"),
        )
        assert len(rows) == 3
        by_alg = {r.algorithm: r for r in rows}
        assert by_alg["meshslice"].utilization > by_alg["wang"].utilization
        assert by_alg["wang"].utilization > by_alg["collective"].utilization

    def test_cannon_none_on_nonsquare(self):
        rows = fig09_weak_scaling.run(
            models=(GPT3_175B,), sizes=(32,), algorithms=("cannon",)
        )
        assert rows[0].utilization is None

    def test_speedup_helper(self):
        rows = fig09_weak_scaling.run(
            models=(GPT3_175B,), sizes=(16,),
            algorithms=("meshslice", "wang"),
        )
        fc, e2e = fig09_weak_scaling.speedup_over(rows, GPT3_175B.name, 16)
        assert fc > 0
        assert 0 < e2e < fc  # non-FC time dilutes the speedup


class TestFig10:
    def test_breakdown_structure(self):
        rows = fig10_comm_breakdown.run(
            models=(GPT3_175B,), chips=16,
            algorithms=("collective", "summa", "meshslice"),
        )
        by_alg = {r.algorithm: r for r in rows}
        for row in rows:
            assert row.launch >= 0 and row.transfer > 0 and row.sync >= 0
        # SUMMA pays more synchronization than Collective (Fig. 10).
        assert by_alg["summa"].sync > by_alg["collective"].sync

    def test_collective_has_least_total(self):
        rows = fig10_comm_breakdown.run(
            models=(GPT3_175B,), chips=16,
            algorithms=("collective", "meshslice", "1dtp"),
        )
        by_alg = {r.algorithm: r for r in rows}
        assert by_alg["collective"].total < by_alg["1dtp"].total
        assert by_alg["collective"].total <= by_alg["meshslice"].total


class TestFig11:
    def test_distinct_shapes_and_winner(self):
        rows = fig11_matrix_shapes.run(
            models=(GPT3_175B,), chips=16, batch_size=8,
            algorithms=("meshslice", "collective"),
        )
        labels = {r.label for r in rows}
        assert len(labels) == 8
        speedup = fig11_matrix_shapes.average_speedup(
            rows, "meshslice", "collective"
        )
        assert speedup > 0


class TestFig12:
    def test_no_fsdp_and_declining_utilization(self):
        rows = fig12_strong_scaling.run(
            models=(GPT3_175B,), sizes=(16, 64), batch_size=32,
            algorithms=("meshslice",),
        )
        assert all(r.algorithm != "fsdp" for r in rows)
        by_chips = {r.chips: r.utilization for r in rows}
        assert by_chips[64] < by_chips[16]


class TestTable2:
    def test_optimization_helps_gpt3(self):
        rows = table2_dataflow_opt.run(models=(GPT3_175B,), chips=64)
        row = rows[0]
        assert row.optimized >= row.not_optimized
        assert row.speedup >= 0


class TestFig13:
    def test_cost_model_ranks_like_simulator(self):
        meshes = [Mesh2D(2, 8), Mesh2D(4, 4), Mesh2D(8, 2)]
        rows = fig13_mesh_shapes.run(
            models=(GPT3_175B,), chips=16, meshes=meshes
        )
        est, sim = fig13_mesh_shapes.optimal_shapes(rows, GPT3_175B.name)
        assert est == sim

    def test_raises_on_unknown_model(self):
        rows = fig13_mesh_shapes.run(
            models=(GPT3_175B,), chips=16, meshes=[Mesh2D(4, 4)]
        )
        with pytest.raises(ValueError):
            fig13_mesh_shapes.optimal_shapes(rows, "nope")

    def test_footer_follows_row_order(self):
        """Models footer in first-appearance order, whatever the hash seed."""
        row = fig13_mesh_shapes.MeshShapeRow
        rows = [
            row("megatron-nlg-530b", (4, 4), 0.5, 0.6),
            row("gpt3-175b", (2, 8), 0.4, 0.3),
            row("megatron-nlg-530b", (8, 2), 0.7, 0.2),
        ]
        footer = fig13_mesh_shapes.render(rows).splitlines()[-2:]
        assert footer == [
            "megatron-nlg-530b: cost model picks 8x2, "
            "simulation picks 4x4 (DISAGREE)",
            "gpt3-175b: cost model picks 2x8, simulation picks 2x8 (agree)",
        ]


class TestFig14:
    def test_optimum_agreement_small(self):
        rows = fig14_slice_counts.run(
            models=(GPT3_175B,), chips=16, mesh=Mesh2D(4, 4),
            slice_counts=(1, 2, 4, 8, 16),
        )
        est, sim = fig14_slice_counts.optimal_slices(rows, GPT3_175B.name)
        assert est in (1, 2, 4, 8, 16)
        assert sim in (1, 2, 4, 8, 16)

    def test_infeasible_slice_count_reported_as_none(self):
        rows = fig14_slice_counts.run(
            models=(GPT3_175B,), chips=16, mesh=Mesh2D(4, 4),
            slice_counts=(7,),
        )
        assert rows[0].estimated_utilization is None


class TestTable3:
    def test_structure_and_claims(self):
        rows = table3_real_hw.run(models=(GPT3_175B,), batch_size=8)
        row = rows[0]
        # Without AG/RdS overlap MeshSlice trails Collective slightly...
        assert row.meshslice < row.collective
        assert row.meshslice_overhead < 0.30
        # ...but with overlap it would win clearly (last column).
        assert row.meshslice_overlap > row.collective


class TestFig15:
    def test_small_average_error(self):
        rows = fig15_comm_model_accuracy.run(models=(GPT3_175B,), batch_size=8)
        assert len(rows) == 4
        error = fig15_comm_model_accuracy.average_error(rows)
        assert 0.0 < error < 0.15

    def test_measured_at_least_estimated(self):
        """Skew can only delay ring steps, never accelerate them."""
        rows = fig15_comm_model_accuracy.run(models=(GPT3_175B,), batch_size=8)
        for row in rows:
            assert row.measured_ms >= row.estimated_ms


class TestAblation25D:
    def test_paper_numbers(self):
        rows = ablation_25d.run()
        by_method = {r.method: r for r in rows}
        two5d = by_method["2.5D GeMM"]
        ms = by_method["MeshSlice+DP"]
        assert two5d.topology == "16x16x4"
        assert ms.topology == "32x8x4"
        # Paper: 1.6 GB vs 336 MB.
        assert two5d.per_chip_traffic_gb == pytest.approx(1.6, rel=0.10)
        assert ms.per_chip_traffic_gb == pytest.approx(0.336, rel=0.10)

    def test_rejects_nonsquare_base(self):
        with pytest.raises(ValueError, match="square"):
            ablation_25d.run(chips=512, copies=4)

    def test_traffic_models_validate_inputs(self):
        with pytest.raises(ValueError):
            ablation_25d.traffic_25d(ablation_25d.EXAMPLE_SHAPE, 0, 4)
        with pytest.raises(ValueError):
            ablation_25d.traffic_meshslice_dp(
                ablation_25d.EXAMPLE_SHAPE, Mesh2D(4, 4), 0
            )


class TestAblationFaults:
    def _rows(self, severities=(1.5,), counts=(2,)):
        return ablation_faults.run(
            chips=16,
            algorithms=("meshslice", "collective"),
            severities=severities,
            counts=counts,
            ensemble=2,
            jobs=1,
        )

    def test_covers_grid(self):
        rows = self._rows(severities=(1.25, 2.0), counts=(1, 4))
        assert len(rows) == 8
        assert {r.algorithm for r in rows} == {"meshslice", "collective"}

    def test_faults_only_inflate(self):
        for row in self._rows():
            assert row.faulted_ms >= row.clean_ms
            assert row.inflation >= 1.0

    def test_severity_monotone(self):
        rows = self._rows(severities=(1.25, 2.0), counts=(2,))
        by_key = {(r.algorithm, r.severity): r for r in rows}
        for algorithm in ("meshslice", "collective"):
            assert (
                by_key[(algorithm, 2.0)].inflation
                >= by_key[(algorithm, 1.25)].inflation
            )

    def test_deterministic(self):
        assert self._rows() == self._rows()

    def test_compute_faults_shrink_comm_share(self):
        # Stragglers inflate compute, so communication's share of the
        # block can only fall.
        for row in self._rows(severities=(2.0,), counts=(4,)):
            assert row.comm_share_faulted <= row.comm_share_clean


class TestAblationSdc:
    def _rows(self, rates=(0.05,), meshes=((2, 2),), **kwargs):
        return ablation_sdc.run(
            rates=rates, meshes=meshes, trials=3, seed=11, jobs=1, **kwargs
        )

    def test_covers_grid(self):
        rows = self._rows(rates=(0.01, 0.05), meshes=((2, 2), (2, 4)))
        assert len(rows) == 4
        assert {(r.rate, r.mesh) for r in rows} == {
            (0.01, (2, 2)), (0.01, (2, 4)),
            (0.05, (2, 2)), (0.05, (2, 4)),
        }

    def test_protection_never_worse_than_bare(self):
        for row in self._rows():
            assert row.trials == 3
            assert row.protected_escapes <= row.unprotected_escapes
            assert 0 <= row.protected_escape_rate <= row.unprotected_escape_rate

    def test_abft_costs_time(self):
        for row in self._rows():
            assert row.overhead_pct > 0.0

    def test_repairs_accounted(self):
        # Every protected trial ends clean, corrected, or recomputed;
        # repairs can't exceed what was actually injected.
        rows = self._rows(rates=(1.0,))
        for row in rows:
            assert row.flips > 0
            assert row.corrected + row.recomputed <= row.flips

    def test_deterministic(self):
        assert self._rows() == self._rows()

    def test_collective_forces_single_slice(self):
        rows = self._rows(algorithm="collective")
        assert rows and all(r.overhead_pct > 0 for r in rows)


class TestMains:
    """Every experiment's spec renders a non-empty report."""

    @pytest.mark.parametrize(
        "module,kwargs",
        [
            (fig09_weak_scaling, {"sizes": (16,)}),
            (fig12_strong_scaling, {"sizes": (16,)}),
            (table2_dataflow_opt, {"chips": 16}),
            (fig13_mesh_shapes, {"chips": 16}),
            (table3_real_hw, {}),
            (fig15_comm_model_accuracy, {}),
            (ablation_25d, {}),
            (ablation_faults, {}),
            (ablation_sdc, {}),
        ],
    )
    def test_main_renders(self, module, kwargs):
        spec = module.CAMPAIGN
        report = spec.render(spec_rows(spec, **kwargs))
        assert isinstance(report, str)
        assert len(report.splitlines()) > 2


class TestAblationZoo:
    """The algorithm-zoo comparison at a single reduced grid point."""

    def _rows(self, **kwargs):
        return ablation_zoo.run(
            points=(("tiny", (512, 512, 512), 4),), jobs=1, **kwargs
        )

    def test_registered(self):
        from repro.experiments import EXPERIMENTS

        assert EXPERIMENTS["ablation-zoo"] is ablation_zoo

    def test_every_algorithm_gets_a_row(self):
        from repro.algorithms import algorithm_names

        rows = self._rows()
        assert tuple(r.algorithm for r in rows) == algorithm_names()
        for row in rows:
            assert row.utilization is None or 0.0 < row.utilization < 1.0

    def test_prime_chip_count_served_only_by_curve_and_1d(self):
        rows = ablation_zoo.run(
            points=(("prime", (448, 448, 448), 7),), jobs=1
        )
        served = {r.algorithm for r in rows if r.utilization is not None}
        assert served == {"1dtp", "fsdp", "sfc"}

    def test_render_footers_curve_lengths(self):
        report = ablation_zoo.render(self._rows())
        assert "8x8 rank-layout curve lengths: hilbert=63" in report
        assert "morton=112, row-major=112" in report

    def test_deterministic(self):
        assert self._rows() == self._rows()


class TestAblationRecovery:
    def _rows(self, sizes=(16,)):
        return ablation_recovery.run(sizes=sizes, jobs=1)

    def test_registered(self):
        from repro.experiments import EXPERIMENTS

        assert EXPERIMENTS["ablation-recovery"] is ablation_recovery

    def test_row_shape(self):
        rows = self._rows()
        assert len(rows) == 1
        row = rows[0]
        assert row.chips == 16
        assert row.mesh == (4, 4)
        assert row.degraded_mesh in ((3, 4), (4, 3))
        assert row.dropped in ("row", "col")
        assert row.degraded_step_ms >= row.step_ms
        assert row.degraded_slowdown >= 1.0
        assert 0.0 < row.restart_goodput < 1.0
        assert 0.0 < row.degrade_goodput < 1.0
        assert row.best_policy in ("restart", "degrade")

    def test_deterministic(self):
        assert self._rows() == self._rows()

    def test_memoized_pipeline_counters(self, monkeypatch):
        from repro.perf import cache_stats, clear_caches
        from repro.perf.cache import KILL_SWITCH_ENV

        # Opt back into caching even under the CI no-cache lane.
        monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
        clear_caches()
        self._rows()
        stats = cache_stats()
        assert stats["degraded_retune"].misses == 1
        assert stats["degraded_retune"].hits == 0
        # A warm second run replays entirely from the caches.
        self._rows()
        stats = cache_stats()
        assert stats["degraded_retune"].hits == 1
        assert stats["degraded_retune"].misses == 1

    def test_degrade_advantage_grows_with_scale(self):
        rows = self._rows(sizes=(16, 64))
        gaps = [r.degrade_goodput - r.restart_goodput for r in rows]
        assert gaps == sorted(gaps)

    def test_main_renders(self):
        report = run_experiment("ablation-recovery")
        assert "best" in report
        assert "degrade" in report
        assert len(report.splitlines()) > 4
