"""Behavior of the compiled engine beyond bit-identity.

``tests/test_engine_equivalence.py`` proves the spans match the seed
engine; this file pins the surrounding contracts: engine selection,
the full-simulation fallback under fault plans, robustness against
lying (untrusted) motif annotations, the :class:`CompileStats`
accounting, and the observability counters the compile publishes.
"""

from __future__ import annotations

import pytest

from repro.algorithms import GeMMConfig, get_algorithm
from repro.core import Dataflow, GeMMShape
from repro.faults.plan import FaultPlan
from repro.hw import get_preset
from repro.mesh import Mesh2D
from repro.obs.registry import GLOBAL_REGISTRY
from repro.sim.compiled import (
    ENGINE_NAMES,
    CompiledEngine,
    default_engine,
    set_default_engine,
)
from repro.sim.engine import Engine
from repro.sim.program import repeat_program

TPUV4 = get_preset("tpuv4-sim")


@pytest.fixture(autouse=True)
def _reset_engine_choice(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    set_default_engine(None)
    yield
    set_default_engine(None)


def _block(slices: int = 8):
    cfg = GeMMConfig(
        shape=GeMMShape(4096, 4096, 8192),
        mesh=Mesh2D(4, 4),
        dataflow=Dataflow.OS,
        slices=slices,
    )
    return get_algorithm("meshslice").build_program(cfg, TPUV4)


def _span_key(spans):
    return [(s.aid, s.label, s.start, s.end) for s in spans]


# ------------------------------------------------------------ selection


def test_engine_names_and_default():
    assert ENGINE_NAMES == ("heap", "compiled")
    assert default_engine() == "heap"


def test_set_default_engine_round_trip():
    set_default_engine("compiled")
    assert default_engine() == "compiled"
    set_default_engine(None)
    assert default_engine() == "heap"
    with pytest.raises(ValueError):
        set_default_engine("vliw")


def test_env_var_selects_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    assert default_engine() == "compiled"
    monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
    assert default_engine() == "heap"
    # The explicit choice wins over the environment.
    set_default_engine("heap")
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    assert default_engine() == "heap"


def test_program_run_engines_agree():
    program = repeat_program(_block(), 6)
    heap_spans = program.run(engine="heap")
    compiled_spans = program.run(engine="compiled")
    assert _span_key(heap_spans) == _span_key(compiled_spans)
    with pytest.raises(ValueError):
        program.run(engine="bogus")


# ------------------------------------------------------------- fallback


def test_fault_plan_forces_heap_and_counts_fallback():
    program = repeat_program(_block(), 4)
    plan = FaultPlan(compute_slowdown=1.5, seed=3)
    before = GLOBAL_REGISTRY.counter_value(
        "compile.fallbacks", labels={"reason": "fault-plan"}
    )
    spans, failure = program.execute(plan, engine="compiled")
    assert failure is None
    after = GLOBAL_REGISTRY.counter_value(
        "compile.fallbacks", labels={"reason": "fault-plan"}
    )
    assert after == before + 1
    # The fallback is a *full* heap simulation of the perturbed DAG.
    perturbed = plan.apply(program)
    heap = Engine(perturbed.activities, perturbed.shared_capacities).run()
    assert _span_key(spans) == _span_key(heap)


def test_null_fault_plan_keeps_compiled_engine():
    program = repeat_program(_block(), 4)
    before = GLOBAL_REGISTRY.counter_value(
        "compile.fallbacks", labels={"reason": "fault-plan"}
    )
    spans, failure = program.execute(FaultPlan(), engine="compiled")
    assert failure is None
    assert GLOBAL_REGISTRY.counter_value(
        "compile.fallbacks", labels={"reason": "fault-plan"}
    ) == before
    assert _span_key(spans) == _span_key(program.run(engine="heap"))


# ---------------------------------------------------- lying annotations


def test_lying_motif_hints_stay_bit_identical():
    """Untrusted annotations are re-validated, never believed.

    Every wrong hint — overlapping windows, periods that cross real
    structure boundaries, counts past the end of the program — must
    at worst cost composition, never correctness.
    """
    program = repeat_program(_block(), 8)
    n = len(program.activities)
    reference = _span_key(program.run(engine="heap"))
    bogus_hints = [
        ({"first": 0, "period": 7, "count": n // 7},),
        ({"first": 3, "period": 1, "count": n - 3},),
        ({"first": 0, "period": n // 2, "count": 4},),  # past the end
        ({"first": n - 2, "period": 2, "count": 1},),
        (
            {"first": 0, "period": 5, "count": 6},
            {"first": 1, "period": 11, "count": 3},
        ),
    ]
    for hints in bogus_hints:
        engine = CompiledEngine(
            program.activities, program.shared_capacities, motifs=hints
        )
        assert _span_key(engine.run()) == reference, hints


# ----------------------------------------------------------- accounting


def test_compile_stats_on_deep_stack():
    program = repeat_program(_block(), 32)
    engine = CompiledEngine(
        program.activities,
        program.shared_capacities,
        motifs=program.meta.get("motifs"),
    )
    engine.run()
    stats = engine.stats
    assert stats.fallback is None
    assert stats.motifs_found >= 1
    assert stats.motifs_validated >= 1
    assert stats.instances_composed > 0
    assert stats.instances_simulated >= 1  # the warm-up + steady probe
    assert (
        stats.instances_composed + stats.instances_simulated
        == stats.instances_total
    )
    assert stats.activities_composed > 0
    assert 0.0 < stats.composed_fraction <= 1.0
    assert stats.compile_seconds >= 0.0


def test_compile_counters_published():
    program = repeat_program(_block(), 16)
    names = (
        "compile.runs",
        "compile.motifs_found",
        "compile.motifs_validated",
        "compile.instances_composed",
        "compile.instances_simulated",
        "compile.activities_composed",
    )
    before = {n: GLOBAL_REGISTRY.counter_value(n) for n in names}
    program.run(engine="compiled")
    after = {n: GLOBAL_REGISTRY.counter_value(n) for n in names}
    assert after["compile.runs"] == before["compile.runs"] + 1
    for name in (
        "compile.motifs_found",
        "compile.motifs_validated",
        "compile.instances_composed",
        "compile.activities_composed",
    ):
        assert after[name] > before[name], name


def _chain(n, label="step", duration=1e-3, deps_fn=None):
    """``n`` identical chained compute activities, engine-input form."""
    from repro.sim.engine import Activity

    acts = []
    for i in range(n):
        deps = deps_fn(i) if deps_fn else ((i - 1,) if i else ())
        acts.append(
            Activity(
                aid=i,
                label=f"{label}[{i}]",
                kind="compute",
                duration=duration,
                exclusive=("core",),
                shared={"hbm": 0.5},
                deps=deps,
            )
        )
    return acts


def test_label_inference_composes_unannotated_programs():
    """``label[index]`` naming alone is enough to find the motif."""
    from repro.sim.compiled import infer_motifs

    acts = _chain(64)
    assert infer_motifs(acts) == [{"first": 0, "period": 1, "count": 64}]
    engine = CompiledEngine(acts, {"hbm": 1.0})  # motifs=None: infer
    spans = engine.run()
    assert _span_key(spans) == _span_key(Engine(acts, {"hbm": 1.0}).run())
    assert engine.stats.instances_composed > 0


def test_label_inference_rejects_irregular_naming():
    import dataclasses

    from repro.sim.compiled import infer_motifs
    from repro.sim.engine import Activity

    plain = [
        Activity(aid=i, label=f"a{i}", kind="compute", duration=0.1)
        for i in range(8)
    ]
    assert infer_motifs(plain) == []
    gapped = _chain(8)
    gapped[5] = dataclasses.replace(gapped[5], label="step[9]")
    assert infer_motifs(gapped) == []


def test_sparse_activity_ids_run_uncomposed():
    """Non-dense aids skip composition but still simulate correctly."""
    from repro.sim.engine import Activity

    acts = [
        Activity(
            aid=10 * (i + 1),
            label=f"op[{i}]",
            kind="compute",
            duration=0.25,
            exclusive=("core",),
            deps=(10 * i,) if i else (),
        )
        for i in range(6)
    ]
    engine = CompiledEngine(acts, {})
    spans = engine.run()
    assert _span_key(spans) == _span_key(Engine(acts, {}).run())
    assert engine.stats.instances_composed == 0


def test_invalid_dags_raise_like_the_engine():
    from repro.sim.engine import Activity, SimulationError

    dup = [
        Activity(aid=3, label="x", kind="compute", duration=1.0),
        Activity(aid=3, label="y", kind="compute", duration=1.0),
    ]
    with pytest.raises(SimulationError):
        CompiledEngine(dup, {})
    dangling = [
        Activity(aid=7, label="x", kind="compute", duration=1.0, deps=(99,)),
    ]
    with pytest.raises(SimulationError):
        CompiledEngine(dangling, {})
    import dataclasses

    dense_dangling = _chain(40)
    dense_dangling[39] = dataclasses.replace(
        dense_dangling[39], deps=(38, 10_000)
    )
    with pytest.raises(SimulationError):
        CompiledEngine(dense_dangling, {"hbm": 1.0}).run()


def test_malformed_hints_are_ignored():
    acts = _chain(48)
    reference = _span_key(Engine(acts, {"hbm": 1.0}).run())
    for hints in (
        ({"first": -1, "period": 1, "count": 48},),
        ({"first": 0, "period": 0, "count": 48},),
        ({"first": 0, "period": 1, "count": 1},),
        ({"first": 0, "period": 1},),  # missing count
        ({"first": "zero", "period": 1, "count": 48},),
        ({},),
    ):
        engine = CompiledEngine(acts, {"hbm": 1.0}, motifs=hints)
        assert _span_key(engine.run()) == reference, hints


def test_inner_motif_with_prologue_and_epilogue():
    """Non-motif activities on both sides bound the composition window."""
    from repro.hw import get_preset
    from repro.sim.program import ProgramBuilder

    builder = ProgramBuilder(get_preset("tpuv4-sim"))
    from repro.sim.engine import LINK_H

    prologue = builder.allgather("ag_w", 4, 1e6, LINK_H)
    prev = prologue
    loop = builder.mark()
    for i in range(48):
        prev = builder.gemm(f"gemm[{i}]", 1024, 1024, 1024, deps=[prev])
    builder.motif(loop, 48)
    builder.reducescatter("rds_c", 4, 1e6, LINK_H, deps=[prev])
    program = builder.build()
    engine = CompiledEngine(
        program.activities,
        program.shared_capacities,
        motifs=program.meta.get("motifs"),
    )
    spans = engine.run()
    assert _span_key(spans) == _span_key(
        Engine(program.activities, program.shared_capacities).run()
    )
    assert engine.stats.instances_composed > 0


def test_trusted_hint_with_dep_free_slots():
    """Per-instance root activities exercise the template-roots path."""
    from repro.sim.engine import Activity

    acts = []
    copies = 32
    for k in range(copies):
        base = 2 * k
        # Slot 0: an independent per-instance root (no deps at all).
        acts.append(
            Activity(
                aid=base,
                label=f"load[{k}]",
                kind="comm",
                duration=1e-4,
                exclusive=("link_h",),
                deps=(),
            )
        )
        deps = (base,) if k == 0 else (base, base - 1)
        acts.append(
            Activity(
                aid=base + 1,
                label=f"mm[{k}]",
                kind="compute",
                duration=2e-4,
                exclusive=("core",),
                deps=deps,
            )
        )
    hints = ({"first": 0, "period": 2, "count": copies, "trusted": True},)
    engine = CompiledEngine(acts, {}, motifs=hints)
    spans = engine.run()
    assert _span_key(spans) == _span_key(Engine(acts, {}).run())
    # All 32 roots are ready at t=0, so the wait queue drains
    # monotonically and no two instance boundaries ever fingerprint
    # alike: the honest outcome is a no-lock-in fallback, after the
    # template validated.
    assert engine.stats.motifs_validated == 1


def test_composed_queue_waits_match_heap():
    """Replay under wait capture: observations match full simulation."""
    from repro.sim.cluster import simulate

    program = repeat_program(_block(), 24)
    heap = simulate(program, TPUV4, engine="heap")
    compiled = simulate(program, TPUV4, engine="compiled")
    assert compiled.makespan == heap.makespan
    assert compiled.spans == heap.spans
    assert heap.metrics is not None and compiled.metrics is not None
    assert compiled.metrics.queue_wait == heap.metrics.queue_wait


def test_contended_motif_locks_with_parked_waiters():
    """Steady states whose fingerprints carry non-empty wait queues."""
    from repro.sim.engine import Activity

    acts = []
    copies = 40
    for k in range(copies):
        base = 3 * k
        acts.append(
            Activity(
                aid=base, label=f"mm[{k}]", kind="compute", duration=1.0,
                exclusive=("core",),
                deps=(base - 3,) if k else (),
            )
        )
        # Link work per instance (0.4 + 0.3) stays under the core's
        # 1.0 so the pipeline reaches a steady state, yet the two
        # transfers of adjacent instances contend for link_h and one
        # parks in its wait queue. Gating send_a on the previous GeMM
        # keeps the contention local to the boundary instance (an
        # unbounded run-ahead would never fingerprint steadily).
        acts.append(
            Activity(
                aid=base + 1, label=f"send_a[{k}]", kind="comm",
                duration=0.4, exclusive=("link_h",),
                deps=(base - 3, base - 2) if k else (),
            )
        )
        acts.append(
            Activity(
                aid=base + 2, label=f"send_b[{k}]", kind="comm",
                duration=0.3, exclusive=("link_h",),
                deps=(base, base + 1) if not k else (base, base + 1, base - 1),
            )
        )
    engine = CompiledEngine(acts, {})
    spans = engine.run()
    assert _span_key(spans) == _span_key(Engine(acts, {}).run())
    assert engine.stats.instances_composed > 0


def test_compile_counters_export_as_jsonl(tmp_path):
    """The ``compile.*`` series round-trip through the JSONL schema."""
    import json

    from repro.obs.export import collect_records, write_jsonl

    repeat_program(_block(), 8).run(engine="compiled")
    path = tmp_path / "metrics.jsonl"
    write_jsonl(collect_records(), str(path))
    records = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    compile_records = [
        r for r in records if r["name"].startswith("compile.")
    ]
    assert compile_records, "compile.* counters missing from the export"
    for record in compile_records:
        assert record["type"] == "counter"
        assert isinstance(record["labels"], dict)
        assert isinstance(record["value"], (int, float))
    assert any(r["name"] == "compile.runs" for r in compile_records)
