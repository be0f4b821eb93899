"""Tests for the loop-unrolling ablation (Section 4.2)."""

import pytest

from repro.experiments.ablation_unrolling import (
    natural_iterations,
    run,
    unrolling_speedup,
)
from repro.mesh import Mesh2D


class TestUnrolling:
    def test_summa_gains_substantially(self):
        rows = run()
        assert unrolling_speedup(rows, "summa") > 0.20

    def test_wang_gains_modestly(self):
        rows = run()
        speedup = unrolling_speedup(rows, "wang")
        assert -0.01 <= speedup < 0.20

    def test_natural_counts(self):
        mesh = Mesh2D(4, 64)
        assert natural_iterations("wang", mesh, None) == 64
        assert natural_iterations("summa", mesh, None) == 64
        with pytest.raises(ValueError):
            natural_iterations("cannon", mesh, None)

    def test_rows_cover_both_variants(self):
        rows = run()
        variants = {(r.algorithm, r.variant) for r in rows}
        assert ("summa", "natural") in variants
        assert ("summa", "unrolled (paper)") in variants

    def test_main_renders(self):
        from repro.cli import run_experiment

        report = run_experiment("ablation-unrolling")
        assert "unrolling speeds summa" in report
