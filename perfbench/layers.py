"""Per-layer metrics and the layer table of one traced run."""

from __future__ import annotations

import json
from typing import Dict, Tuple

import tracer as tr

#: Span names whose calls and self time are reported, in table order.
TIMED_LAYERS = (
    "experiments.search",
    "autotuner.tune",
    "autotuner.plan",
    "autotuner.slice_search",
    "autotuner.estimate",
    "perf.simulated_pass",
    "perf.lower_bound",
    "algorithms.build",
    "sim.repeat",
    "sim.simulate",
    "sim.execute",
    "faults.apply",
    "obs.derive",
    "service.resolve",
    "service.store.load",
    "service.store.save",
    "service.store.neighbor",
    "python.gc",
)

#: Per-layer metrics and their units, in output order.
UNITS = {
    "algorithms.build.calls": "count",
    "algorithms.build.self_s": "s",
    "sim.execute.calls": "count",
    "sim.execute.self_s": "s",
    "sim.activities": "count",
    "sim.activities_per_busy_s": "1/s",
    "sim.composed_frac": "ratio",
    "sim.simulate.self_s": "s",
    "sim.repeat.self_s": "s",
    "faults.apply.calls": "count",
    "faults.apply.self_s": "s",
    "perf.simulated_pass.calls": "count",
    "perf.simulated_pass.hit_rate": "ratio",
    "perf.simulated_pass.self_s": "s",
    "perf.built_program.hit_rate": "ratio",
    "perf.lower_bound.calls": "count",
    "perf.lower_bound.self_s": "s",
    "autotuner.slice_search.calls": "count",
    "autotuner.slice_search.self_s": "s",
    "autotuner.estimate.calls": "count",
    "autotuner.estimate.self_s": "s",
    "autotuner.tune.calls": "count",
    "autotuner.tune.self_s": "s",
    "autotuner.plan.self_s": "s",
    "experiments.search.self_s": "s",
    "experiments.search.meshes_considered": "count",
    "experiments.search.meshes_simulated": "count",
    "experiments.search.prune_ratio": "ratio",
    "obs.derive.calls": "count",
    "obs.derive.self_s": "s",
    "obs.observe.calls": "count",
    "service.store.load.calls": "count",
    "service.store.load.self_s": "s",
    "service.store.save.calls": "count",
    "service.store.save.self_s": "s",
    "service.store.neighbor.calls": "count",
    "service.store.neighbor.self_s": "s",
    "service.store.records_scanned": "count",
    "service.memory_hit_frac": "ratio",
    "service.store_hit_rate": "ratio",
    "service.wait_s": "s",
    "python.gc.calls": "count",
    "python.gc.self_s": "s",
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.ops_per_s": "ops/s",
    "trace.untraced_ops_per_s": "ops/s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracing: tr.Tracer, log, plain) -> Tuple[dict, dict]:
    """Metrics of the traced ops ``log``; ``plain`` holds the untraced ones."""
    from repro.obs.registry import registry
    from repro.perf import cache_stats

    table = tr.layer_table(tracing.spans)
    counts = tracing.counts
    caches = cache_stats()
    reg = registry()
    values: Dict[str, float] = {}

    def layer(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0.0)

    for name in TIMED_LAYERS:
        values[f"{name}.calls"] = layer(name, "calls")
        values[f"{name}.self_s"] = layer(name, "self_s")
    activities = counts.get("sim.activities", 0.0)
    values["sim.activities"] = activities
    values["sim.activities_per_busy_s"] = _ratio(
        activities, values["sim.execute.self_s"]
    )
    values["sim.composed_frac"] = _ratio(
        reg.counter_value("compile.activities_composed"), activities
    )
    values["perf.simulated_pass.hit_rate"] = caches["simulated_pass"].hit_rate
    values["perf.built_program.hit_rate"] = caches["built_program"].hit_rate
    considered = counts.get("experiments.search.meshes_considered", 0.0)
    simulated = counts.get("experiments.search.meshes_simulated", 0.0)
    values["experiments.search.meshes_considered"] = considered
    values["experiments.search.meshes_simulated"] = simulated
    values["experiments.search.prune_ratio"] = (
        1.0 - simulated / considered if considered else 0.0
    )
    values["obs.observe.calls"] = counts.get("obs.observe.calls", 0.0)
    values["service.store.records_scanned"] = counts.get(
        "service.store.records_scanned", 0.0
    )
    requests = reg.counter_value("service.requests")
    hits = reg.counter_value("service.store.hits")
    misses = reg.counter_value("service.store.misses")
    values["service.memory_hit_frac"] = _ratio(
        reg.counter_value("service.memory.hits"), requests
    )
    values["service.store_hit_rate"] = _ratio(hits, hits + misses)
    op_s = layer("op", "total_s")
    values["service.wait_s"] = (
        op_s - layer("service.resolve", "total_s") if requests else 0.0
    )
    values["trace.op_s"] = op_s
    values["trace.unattributed_s"] = layer("op", "self_s")
    traced_rate = _ratio(len(log.latencies), log.busy_s)
    plain_rate = _ratio(len(plain.latencies), plain.busy_s)
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.overhead_frac"] = 1.0 - _ratio(traced_rate, plain_rate)
    values["trace.spans"] = float(len(tracing.spans))
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()
    }
    return metrics, table


def render(table: dict, metrics: dict) -> str:
    """The layer table: calls, self time and share of traced op time."""
    op_s = metrics["trace.op_s"]["value"]
    lines = [f"{'layer':<26}{'calls':>10}{'self_s':>12}{'share':>9}"]
    accounted = 0.0
    for name in TIMED_LAYERS:
        row = table.get(name)
        if row is None:
            continue
        accounted += row["self_s"]
        share = row["self_s"] / op_s if op_s else 0.0
        lines.append(
            f"{name:<26}{int(row['calls']):>10}{row['self_s']:>12.4f}{share:>9.1%}"
        )
    rest = metrics["trace.unattributed_s"]["value"]
    share = rest / op_s if op_s else 0.0
    lines.append(f"{'(unattributed)':<26}{'':>10}{rest:>12.4f}{share:>9.1%}")
    lines.append(
        f"{'self + unattributed':<26}{'':>10}{accounted + rest:>12.4f}"
        f"   traced op time {op_s:.4f} s"
    )
    lines.append(
        "tracing overhead: "
        f"{metrics['trace.overhead_frac']['value']:.1%} of untraced ops/s"
    )
    return "\n".join(lines)


def write_spans(path: str, spans) -> None:
    """Write the traced spans, one array per span, after the run."""
    with open(path, "w") as handle:
        json.dump(
            {"fields": ["sid", "name", "start", "end", "parent", "op"], "spans": spans},
            handle,
        )
