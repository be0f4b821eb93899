"""Tests for the stable top-level ``repro`` API surface."""

from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _toml_tables(text):
    """``key -> raw value`` of each table's one-line entries.

    Enough TOML for pyproject's flat tables; ``tomllib`` only exists
    from Python 3.10 on.
    """
    tables = {}
    current = tables.setdefault("", {})
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and not line.startswith("[["):
            current = tables.setdefault(line.strip("[]").strip(), {})
        elif "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return tables


class TestPublicApi:
    def test_version(self):
        assert isinstance(repro.__version__, str)
        assert len(repro.__version__.split(".")) == 3
        # One version string: pyproject reads it from the package.
        tables = _toml_tables(PYPROJECT.read_text())
        assert "version" not in tables["project"]
        assert '"version"' in tables["project"]["dynamic"]
        dynamic = tables["tool.setuptools.dynamic"]["version"]
        assert dynamic.replace(" ", "") == '{attr="repro.__version__"}'

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_lazy_names_in_dir(self):
        listing = dir(repro)
        for name in ("simulate", "tune", "get_algorithm", "FaultPlan"):
            assert name in listing

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.not_a_real_name

    def test_algorithm_registry(self):
        names = repro.algorithm_names()
        assert "meshslice" in names
        alg = repro.get_algorithm("meshslice")
        assert alg.name == "meshslice"

    def test_lazy_exports_are_canonical_objects(self):
        from repro.algorithms import get_algorithm
        from repro.faults import NULL_PLAN, FaultPlan, FaultSpec
        from repro.service.request import execute
        from repro.sim.cluster import SimResult, simulate
        from repro.sim.trace import Trace

        assert repro.simulate is simulate
        assert repro.tune is execute
        assert repro.robust_tune is execute
        assert repro.get_algorithm is get_algorithm
        assert repro.FaultPlan is FaultPlan
        assert repro.FaultSpec is FaultSpec
        assert repro.NULL_PLAN is NULL_PLAN
        assert repro.SimResult is SimResult
        assert repro.Trace is Trace

    def test_simulate_end_to_end(self):
        from repro.algorithms import GeMMConfig
        from repro.core import Dataflow, GeMMShape
        from repro.mesh import Mesh2D

        cfg = GeMMConfig(
            GeMMShape(2048, 2048, 2048), Mesh2D(2, 2), Dataflow.OS, slices=2
        )
        program = repro.get_algorithm("meshslice").build_program(
            cfg, repro.TPUV4
        )
        result = repro.simulate(program, repro.TPUV4)
        assert result.makespan > 0
        assert isinstance(result, repro.SimResult)
