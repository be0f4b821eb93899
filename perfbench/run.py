"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

A workload runs in rounds that each hold the same ops and each start
from the run-start state; a run times whole rounds until ``--seconds``
of op time have passed.
``--trace 0`` prints the end-to-end metrics: medians over the rounds.
``--trace 1`` runs untraced and then traced rounds, for half the time
each, and prints the per-layer split of the traced ones plus the
tracing overhead. Both modes check the program's outputs, rerun the
start of the first round twice to check the deterministic work
counters, and print the run settings. The last line of standard
output is the result object; the line before it holds the details.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def run_settings() -> dict:
    """Every setting that selects a different program or machine."""
    import numpy

    from repro.obs.registry import metrics_enabled
    from repro.perf import caching_enabled
    from repro.sim.compiled import default_engine

    return {
        "default_engine": default_engine(),
        "caching_enabled": caching_enabled(),
        "metrics_enabled": metrics_enabled(),
        "repro_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


# -------------------------------------------------------------- rounds


def timed_rounds(workload, seconds: float, tracer=None) -> tuple:
    """Whole rounds, each from the run-start state, for ``seconds`` of op time.

    Returns one op log per round, its times scaled to the reference
    host speed (:mod:`calibrate`), and each round's scale factor. On a
    shared 2-vCPU VM, CPU speed wanders by tens of percent over seconds;
    rounds of equal work let a run report medians that one slow stretch
    does not set.
    """
    from calibrate import Calibration
    from stats import OpLog

    logs, factors = [], []
    busy_s = 0.0
    wall_limit = time.perf_counter() + 2 * seconds + 60
    op = workload.op
    if tracer is not None:
        op_ids = itertools.count()

        def op(item, _op=workload.op):
            tracer.begin_op(next(op_ids))
            try:
                return _op(item)
            finally:
                tracer.end_op()

    for items in workload.rounds():
        workload.reset()
        log = OpLog()
        calibration = Calibration()
        # Every round draws its ops from the same input objects; an op's
        # key is its input and how often that input came before it in
        # the round (a repeated serve request meets a warmer service).
        seen: Dict[int, int] = {}
        for item in items:
            occurrence = seen[id(item)] = seen.get(id(item), -1) + 1
            ok, result = log.run(op, item, key=(id(item), occurrence))
            if ok:
                workload.record(item, result)
            calibration.after_op(log.busy_s)
        factors.append(calibration.factor())
        logs.append(log.scaled(factors[-1]))
        busy_s += log.busy_s
        if busy_s >= seconds or time.perf_counter() > wall_limit:
            return logs, factors


def work_counters(workload) -> dict:
    """Deterministic counts of the start of the first round."""
    import tracer as tr
    from repro.perf import cache_stats

    workload.reset()
    items = next(workload.rounds())[: workload.COUNTER_OPS]
    counting = tr.Tracer(timing=False)
    patches = tr.install(counting)
    try:
        for item in items:
            workload.op(item)
    finally:
        patches.restore()
    counts = counting.counts
    out = {
        "ops": len(items),
        "programs_built": counts.get("algorithms.build.calls", 0.0),
        "activities_simulated": counts.get("sim.activities", 0.0),
        "estimates_evaluated": counts.get("autotuner.estimate.calls", 0.0),
        "store_records_scanned": counts.get("service.store.records_scanned", 0.0),
        "observations_recorded": counts.get("obs.observe.calls", 0.0),
    }
    for name, stats in sorted(cache_stats().items()):
        if stats.calls:
            out[f"cache.{name}.hits"] = stats.hits
            out[f"cache.{name}.misses"] = stats.misses
    return out


# ---------------------------------------------------------- setup_s


def probe_setup(workload_name: str, seed: int, workdir: str) -> None:
    """Child side of a set-up probe: import, open, one warm-up op."""
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, workdir)
    workload.open()
    workload.warmup()
    workload.close()
    print("ready", flush=True)


def measure_setup(workload_name: str, seed: int, workdir: str) -> list:
    """Seconds from process start to ready, for each of several probes.

    Unscaled: spawning a process and importing are not the work the
    calibration kernel tracks (scaled by it, set-up times spread 0.54
    over their median on the reference VM, against 0.15 unscaled).
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--setup-probe", workload_name,
                "--seed", str(seed), "--workdir", workdir,
            ],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


# ------------------------------------------------------------ results


def end_to_end(workload, logs, setup_times) -> tuple:
    """Rates as medians over the rounds; latencies per op key.

    ``op_p50_ms`` and ``op_tail_ms`` are Harrell-Davis quantiles over
    the ops of a round, each op's latency being the median over the
    rounds of the ops with its key (:func:`stats.typical_latencies`).
    """
    from stats import harrell_davis, merged, tail_percentile, typical_latencies

    rates = [len(log.latencies) / log.busy_s for log in logs]
    latencies = typical_latencies(logs)
    q, _, beyond = tail_percentile(latencies, workload.TAIL_CAP)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "ops/s"},
        "op_p50_ms": {"value": harrell_davis(latencies, 0.5) * 1e3, "unit": "ms"},
        "op_tail_ms": {
            "value": harrell_davis(latencies, q / 100.0) * 1e3, "unit": "ms"
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    detail = {
        "rounds": {
            "ops_per_s": rates,
            "op_p50_ms": [statistics.median(log.latencies) * 1e3 for log in logs],
            "samples": [len(log.latencies) for log in logs],
        },
        "tail_percentile": q,
        "tail_beyond": beyond,
        "op_keys": len(latencies),
        "failed_frac": merged(logs).failed_frac,
        "setup_probes_s": setup_times,
    }
    return metrics, detail


def run(args) -> None:
    _import_program()
    import selftest
    from workloads import WORKLOADS

    selftest.run_all()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.generate()
        if args.trace:
            metrics, detail, logs = traced_run(workload, args)
        else:
            setup_times = measure_setup(args.workload, args.seed, workdir)
            workload.open()
            workload.warmup()
            logs, factors = timed_rounds(workload, args.seconds)
            metrics, detail = end_to_end(workload, logs, setup_times)
            detail["rounds"]["speed_factor"] = factors
        errors = workload.check()
        first = work_counters(workload)
        second = work_counters(workload)
        if first != second:
            errors.append(f"work counters differ on a same-seed rerun: {first} != {second}")
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        settings=run_settings(),
        counters=first,
        op_errors=[error for log in logs for error in log.errors],
        check_errors=errors,
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(log.attempted for log in logs),
                "failed": sum(log.failed for log in logs),
                "metrics": metrics,
            }
        )
    )


def traced_run(workload, args) -> tuple:
    """Untraced then traced rounds; per-layer metrics of the traced ones."""
    import layers
    import tracer as tr
    from stats import merged

    half = args.seconds / 2.0
    workload.open()
    workload.warmup()
    plain, plain_factors = timed_rounds(workload, half)
    tracing = tr.Tracer()
    patches = tr.install(tracing)
    try:
        traced, traced_factors = timed_rounds(workload, half, tracer=tracing)
    finally:
        patches.restore()
    metrics, table = layers.per_layer(tracing, merged(traced), merged(plain))
    print(layers.render(table, metrics))
    path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
    layers.write_spans(path, tracing.spans)
    logs = plain + traced
    detail = {
        "spans_file": os.path.relpath(path, ROOT),
        "speed_factor": {"untraced": plain_factors, "traced": traced_factors},
        "failed_frac": merged(logs).failed_frac,
    }
    return metrics, detail, logs


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "serve", "stack"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("sweep", "serve", "stack"))
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    if args.setup_probe:
        probe_setup(args.setup_probe, args.seed, args.workdir)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run(args)


if __name__ == "__main__":
    main()
