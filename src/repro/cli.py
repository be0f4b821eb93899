"""Command-line interface: ``meshslice <command>``.

Experiment reproduction::

    meshslice list                    # enumerate experiments
    meshslice run fig9                # run one (any name from `list`)
    meshslice run all                 # run everything
    meshslice run fig9 --jobs 8       # spread grid points over 8 processes

Deployment planning and introspection::

    meshslice tune gpt3-175b --chips 256 --batch 128 [--hw tpuv4-sim]
    meshslice faults gpt3-175b --chips 256 --stragglers 2
    meshslice recovery gpt3-175b --chips 256 --chip-mtbf-hours 2000
    meshslice elastic gpt3-175b --mesh 4x4 --policy replace --spares 2
    meshslice sdc --rate 1e-2 --mesh 4x4 --trials 8
    meshslice profile gpt3-175b --chips 16 --batch 8
    meshslice serve --store plans/ --replay queries.jsonl
    meshslice campaign run fig13 --store sweeps/   # durable resumable sweep
    meshslice campaign status --store sweeps/
    meshslice models                  # model zoo
    meshslice presets                 # hardware presets

``--metrics out.jsonl`` on ``run``/``tune``/``faults``/``recovery``/
``profile`` dumps everything the observability layer collected during
the command (see ``docs/observability.md`` for the schema).

Bare experiment names keep working as aliases of ``run`` —
``meshslice fig9 --jobs 8`` and ``meshslice all`` behave exactly as
they did before the subcommand interface existed.

The parser, the flag checks and the dispatch all come from two tables:
to add a flag, declare it once in :data:`FLAGS` (argparse arguments,
an optional ``(predicate, requirement)`` rule and converter) and list
its name in each :data:`SUBCOMMANDS` entry that takes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.experiments import EXPERIMENTS
from repro.experiments.common import spec_rows
from repro.hw import get_preset
from repro.models import get_model
from repro.sim.compiled import ENGINE_NAMES, set_default_engine

#: A validity rule: ``(predicate(value), requirement text)``.
Rule = Tuple[Callable[[Any], bool], str]

_AT_LEAST_1: Rule = (lambda v: v >= 1, "must be >= 1")
_NON_NEGATIVE: Rule = (lambda v: v >= 0, "must be non-negative")
_POSITIVE: Rule = (lambda v: v > 0, "must be positive")
_TWO_BY_TWO = "need at least a 2x2 mesh to survive a dead chip"


def _mesh_shapes(value):
    """``RxC`` as ``(rows, cols)``; a repeated flag's list as a list."""
    if isinstance(value, list):
        return [_mesh_shapes(spec) for spec in value]
    parts = value.lower().split("x")
    if len(parts) != 2 or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise ValueError(f"invalid mesh shape {value!r} (expected RxC)")
    return int(parts[0]), int(parts[1])


@dataclasses.dataclass(frozen=True)
class Flag:
    """One flag: its argparse arguments, validity rule and converter.

    ``rule`` is checked on any given (non-``None``) value; ``convert``
    then replaces the value, and its ``KeyError``/``ValueError`` text is
    the diagnostic. ``overrides`` maps a command label (``"recovery"``,
    ``"campaign status"``) to the fields that differ there.
    """

    help: str
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    choices: Optional[Tuple[str, ...]] = None
    metavar: Optional[str] = None
    nargs: Optional[str] = None
    action: Optional[str] = None
    required: Optional[bool] = None
    rule: Optional[Rule] = None
    convert: Optional[Callable[[Any], Any]] = None
    overrides: Mapping[str, Mapping[str, Any]] = dataclasses.field(
        default_factory=dict
    )

    def at(self, label: str) -> "Flag":
        """This flag as the command ``label`` declares it."""
        return dataclasses.replace(self, **self.overrides.get(label, {}))

    def add_to(self, parser: argparse.ArgumentParser, name: str) -> None:
        kwargs = {
            key: getattr(self, key)
            for key in ("type", "default", "choices", "metavar", "nargs",
                        "action", "required", "help")
            if getattr(self, key) is not None
        }
        parser.add_argument(name, **kwargs)


#: Every flag of every subcommand, each declared once.
FLAGS: Dict[str, Flag] = {
    "experiments": Flag(
        "experiment names from 'list', or 'all'", nargs="+",
        metavar="experiment",
    ),
    "experiment": Flag(
        "experiment name from 'list'",
        overrides={"campaign status": dict(
            nargs="?",
            help="experiment name (default: every campaign in the store)",
        )},
    ),
    "model": Flag("model name (see 'models')", nargs="?", convert=get_model),
    "--chips": Flag(
        "cluster size", type=int, default=256, rule=_AT_LEAST_1,
        overrides={
            "faults": dict(rule=None),
            "recovery": dict(rule=(lambda v: v >= 4, _TWO_BY_TWO)),
        },
    ),
    "--batch": Flag(
        "global batch (default: chips / 2)", type=int, rule=_AT_LEAST_1,
        overrides=dict.fromkeys(
            ("faults", "recovery", "elastic"), dict(rule=None)
        ),
    ),
    "--hw": Flag(
        "hardware preset name (see 'presets')", default="tpuv4-sim",
        convert=get_preset,
    ),
    "--mesh": Flag(
        "full torus shape, e.g. 4x4 (default: 4x4)", default="4x4",
        metavar="RxC", convert=_mesh_shapes,
        overrides={"sdc": dict(
            action="append", default=None,
            help="mesh shape(s) to sweep, e.g. 4x4; repeatable "
                 "(default: 2x2 4x4)",
        )},
    ),
    "--algorithm": Flag(
        "distributed GeMM algorithm to simulate (default: meshslice)",
        default="meshslice",
        overrides={
            "sdc": dict(
                choices=("meshslice", "summa", "collective"),
                help="distributed GeMM algorithm to protect "
                     "(default: meshslice)",
            ),
            "profile": dict(
                help="distributed GeMM algorithm to profile "
                     "(default: meshslice)",
            ),
        },
    ),
    "--stragglers": Flag(
        "straggling chips per fault plan (default: 1)", type=int, default=1,
        rule=_NON_NEGATIVE,
    ),
    "--straggler-slowdown": Flag(
        "worst-case straggler compute slowdown factor (default: 1.5)",
        type=float, default=1.5, rule=_AT_LEAST_1,
    ),
    "--degraded-links": Flag(
        "degraded mesh links per fault plan (default: 0)", type=int,
        default=0, rule=_NON_NEGATIVE,
    ),
    "--link-slowdown": Flag(
        "worst-case link bandwidth degradation factor (default: 2.0)",
        type=float, default=2.0, rule=_AT_LEAST_1,
    ),
    "--jitter": Flag(
        "max extra collective launch latency, seconds (default: 0)",
        type=float, default=0.0, rule=_NON_NEGATIVE,
    ),
    "--outage-rate": Flag(
        "per-transfer transient outage probability (default: 0)",
        type=float, default=0.0,
        rule=(lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    ),
    "--ensemble": Flag(
        "number of sampled fault plans (default: 16)", type=int, default=16,
        rule=_AT_LEAST_1,
    ),
    "--quantile": Flag(
        "tail quantile to minimize (default: 0.95)", type=float,
        default=0.95, rule=(lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    ),
    "--seed": Flag(
        "seed of the failure-arrival process (default: 0)", type=int,
        default=0, rule=_NON_NEGATIVE,
        overrides={
            "faults": dict(
                rule=None, help="base seed of the fault ensemble (default: 0)"
            ),
            "sdc": dict(help="base seed of the injection ensemble (default: 0)"),
        },
    ),
    "--chip-mtbf-hours": Flag(
        "per-chip mean time between failures, hours (default: 2000)",
        type=float, default=2000.0, rule=_POSITIVE,
    ),
    "--repair-minutes": Flag(
        "chip repair/replacement time, minutes (default: 60)", type=float,
        default=60.0, rule=_NON_NEGATIVE,
    ),
    "--checkpoint-seconds": Flag(
        "checkpoint write cost, seconds (default: 60)", type=float,
        default=60.0, rule=_POSITIVE,
    ),
    "--restart-seconds": Flag(
        "restart (reload + reschedule) cost, seconds (default: 180)",
        type=float, default=180.0, rule=_NON_NEGATIVE,
    ),
    "--policy": Flag(
        "recovery policy to evaluate (default: both)",
        choices=("restart", "degrade", "both"), default="both",
        overrides={"elastic": dict(
            choices=("restart", "degrade", "replace", "reshape", "all"),
            default="all", help="elastic policy to simulate (default: all)",
        )},
    ),
    "--spares": Flag(
        "spare chips in the replacement pool (default: 0)", type=int,
        default=0, rule=_NON_NEGATIVE,
    ),
    "--duration-days": Flag(
        "simulated horizon in days (default: 30)", type=float, default=30.0,
        rule=_POSITIVE,
    ),
    "--plane": Flag(
        "comm plane of the reshard migrations (default: onesided)",
        choices=("onesided", "collective"), default="onesided",
    ),
    "--events": Flag(
        "write the structured JSONL event log (requires a single --policy, "
        "not 'all')", metavar="PATH",
    ),
    "--rate": Flag(
        "SDC rate(s) to sweep; repeatable (default: 1e-3 1e-2 0.05)",
        type=float, action="append", metavar="R",
        rule=(lambda rates: all(0.0 <= r <= 1.0 for r in rates),
              "every rate must be in [0, 1]"),
    ),
    "--trials": Flag(
        "functional trials per grid point (default: 8)", type=int, default=8,
        rule=_AT_LEAST_1,
    ),
    "--jobs": Flag(
        "worker processes for the grid (default: REPRO_JOBS env var, then "
        "the CPU count)", type=int, rule=_AT_LEAST_1,
        overrides={
            "run": dict(
                help="worker processes for experiment grids (default: "
                     "REPRO_JOBS env var, then the CPU count)",
            ),
            "sdc": dict(help="worker processes for the sweep grid"),
        },
    ),
    "--store": Flag(
        "campaign-store directory", metavar="DIR", required=True,
        overrides={
            **dict.fromkeys(
                ("campaign run", "campaign resume"),
                dict(help="campaign-store directory (created if missing)"),
            ),
            "serve": dict(
                required=None,
                help="plan-store directory (created if missing; default: "
                     "in-memory only, nothing persists)",
            ),
        },
    ),
    "--workers": Flag(
        "thread-pool width for distinct concurrent requests (default: 4)",
        type=int, default=4, rule=_AT_LEAST_1,
    ),
    "--replay": Flag(
        "one-shot mode: replay a JSONL query file and exit", metavar="FILE",
    ),
    "--repeat": Flag(
        "replay the query mix this many times (default: 1)", type=int,
        default=1, rule=_AT_LEAST_1,
    ),
    "--no-warm-start": Flag(
        "disable neighbor-seeded search (results are identical; only "
        "pruning changes)", action="store_true",
    ),
    "--store-max-records": Flag(
        "bound the plan store to N records, evicting the "
        "least-recently-used (default: unbounded)", type=int, metavar="N",
        rule=_AT_LEAST_1,
    ),
    "--store-max-bytes": Flag(
        "bound the plan store to B bytes of records, evicting the "
        "least-recently-used (default: unbounded)", type=int, metavar="B",
        rule=_AT_LEAST_1,
    ),
    "--retries": Flag(
        "retry attempts per failing point (default: 2)", type=int, default=2,
        rule=_NON_NEGATIVE,
    ),
    "--backoff": Flag(
        "base retry backoff, seconds; doubles per attempt (default: 0.05)",
        type=float, default=0.05, rule=_NON_NEGATIVE,
    ),
    "--retry-failed": Flag(
        "re-run points whose stored record is 'failed' (appends "
        "superseding records)", action="store_true",
    ),
    "--metrics": Flag(
        "write collected metrics to a JSONL file after the command "
        "(schema: docs/observability.md)", metavar="PATH",
    ),
    "--engine": Flag(
        "simulation engine (default: REPRO_ENGINE env var, then 'heap'); "
        "'compiled' exploits repeated program structure and produces "
        "bit-identical results", choices=ENGINE_NAMES,
    ),
}


def normalize_argv(argv: List[str]) -> List[str]:
    """Rewrite legacy invocations into the subcommand form.

    ``meshslice fig9 --jobs 8`` and ``meshslice all`` predate the
    subcommand interface; when the first positional token is not a
    known subcommand it is an experiment name, so ``run`` is inserted
    in front of it.
    """
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        return ["run", *argv]
    return list(argv)


def run_experiment(name: str) -> str:
    """Run one experiment's default grid and return its report.

    The rows come from the experiment's campaign spec, exactly as
    ``meshslice campaign run`` stores them, and render through the same
    function as ``meshslice campaign report``.
    """
    try:
        module = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    spec = module.CAMPAIGN
    return spec.render(spec_rows(spec))


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:22s} {doc}")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.experiments.common import render_table
    from repro.models import model_names

    rows = []
    for name in model_names():
        model = get_model(name)
        rows.append(
            (
                name,
                model.num_layers,
                model.hidden,
                model.ffn_dim,
                f"{model.approx_params / 1e9:.0f}B (FC)",
            )
        )
    print(render_table(["model", "layers", "hidden", "ffn", "params"], rows))
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    from repro.experiments.common import render_table
    from repro.hw import preset_names

    rows = []
    for name in preset_names():
        hw = get_preset(name)
        rows.append(
            (
                name,
                f"{hw.peak_flops / 1e12:.0f} TF",
                f"{hw.link_bandwidth / 1e9:.0f} GB/s x{hw.links_per_direction}",
                hw.network,
                "yes" if hw.overlap_collectives else "no",
            )
        )
    print(
        render_table(
            ["preset", "peak", "link bw", "network", "AG/RdS overlap"], rows
        )
    )
    return 0


def _batch(args: argparse.Namespace) -> int:
    """``--batch``, defaulting to half the cluster."""
    return args.batch if args.batch is not None else max(1, args.chips // 2)


def _cmd_tune(args: argparse.Namespace) -> int:
    model, hw, batch = args.model, args.hw, _batch(args)
    from repro.experiments.common import render_table
    from repro.service import TuneRequest

    result = TuneRequest(
        model=model, batch=batch, chips=args.chips, hw=hw
    ).run()
    print(
        f"{model.name}: {args.chips} chips ({hw.name}), batch {batch}\n"
        f"chosen mesh: {result.mesh}; estimated FC block "
        f"{result.block_seconds * 1e3:.2f} ms\n"
    )
    print(
        render_table(
            ["layer", "pass", "dataflow", "S"],
            [
                (t.layer_name, t.plan.pass_name, t.plan.dataflow.name, t.slices)
                for t in result.passes
            ],
        )
    )
    return 0


def _bad_flag(command: str, flag: str, value: object, requirement: str) -> int:
    """One-line exit-2 diagnostic naming the offending flag."""
    print(
        f"meshslice {command}: invalid {flag} {value} ({requirement})",
        file=sys.stderr,
    )
    return 2


def _cmd_faults(args: argparse.Namespace) -> int:
    model, hw, batch = args.model, args.hw, _batch(args)
    from repro.experiments.common import render_table
    from repro.faults import FaultSpec
    from repro.service import TuneRequest

    try:
        spec = FaultSpec(
            stragglers=args.stragglers,
            straggler_slowdown=args.straggler_slowdown,
            degraded_links=args.degraded_links,
            link_slowdown=args.link_slowdown,
            launch_jitter=args.jitter,
            outage_rate=args.outage_rate,
            seed=args.seed,
        )
        result = TuneRequest(
            model=model, batch=batch, chips=args.chips, hw=hw,
            mode="robust", spec=spec,
            ensemble=args.ensemble,
            quantile=args.quantile,
            algorithm=args.algorithm,
        ).run()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    pct = f"p{args.quantile * 100:g}"
    print(
        f"{model.name}: {args.chips} chips ({hw.name}), batch {batch}, "
        f"{args.algorithm}\n"
        f"fault spec: {args.stragglers} straggler(s) up to "
        f"{args.straggler_slowdown:g}x, {args.degraded_links} degraded "
        f"link(s) up to {args.link_slowdown:g}x, jitter {args.jitter:g}s, "
        f"outage rate {args.outage_rate:g} (seed {args.seed}, "
        f"{args.ensemble} plans)\n"
        f"robust mesh: {result.mesh}; {pct} FC block "
        f"{result.robust_seconds * 1e3:.2f} ms "
        f"(mean {result.mean_seconds * 1e3:.2f} ms, clean "
        f"{result.nominal_seconds * 1e3:.2f} ms, "
        f"inflation {result.inflation:.3f}x)\n"
    )
    print(
        render_table(
            ["mesh", f"{pct} block (ms)"],
            [
                (f"{rows}x{cols}", seconds * 1e3)
                for (rows, cols), seconds in sorted(
                    result.per_mesh_robust.items()
                )
            ],
        )
    )
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    model, hw, batch = args.model, args.hw, _batch(args)
    from repro.experiments.ablation_recovery import _point
    from repro.experiments.common import GridPointError, render_table

    try:
        rows = _point(
            (args.chips, model, hw, args.chip_mtbf_hours,
             args.repair_minutes, args.checkpoint_seconds,
             args.restart_seconds)
        )
    except (GridPointError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if not rows:
        print(
            f"meshslice recovery: no tunable mesh for {args.chips} chips",
            file=sys.stderr,
        )
        return 2
    (row,) = rows
    print(
        f"{model.name}: {args.chips} chips ({hw.name}), batch {batch}\n"
        f"cluster MTBF {row.cluster_mtbf_hours:.1f} h "
        f"(chip MTBF {args.chip_mtbf_hours:g} h), repair "
        f"{args.repair_minutes:g} min, checkpoint "
        f"{args.checkpoint_seconds:g} s + restart {args.restart_seconds:g} s\n"
        f"full mesh {row.mesh[0]}x{row.mesh[1]}: step {row.step_ms:.1f} ms; "
        f"degraded {row.degraded_mesh[0]}x{row.degraded_mesh[1]} "
        f"(dropped {row.dropped}): step {row.degraded_step_ms:.1f} ms "
        f"({row.degraded_slowdown:.2f}x)\n"
        f"Young/Daly checkpoint interval: {row.checkpoint_interval_s:.0f} s\n"
    )
    estimates = []
    if args.policy in ("restart", "both"):
        estimates.append(("restart", row.restart_goodput))
    if args.policy in ("degrade", "both"):
        estimates.append(("degrade", row.degrade_goodput))
    print(
        render_table(
            ["policy", "goodput", "effective step (ms)"],
            [
                (name, f"{goodput * 100:.2f}%", row.step_ms / goodput)
                for name, goodput in estimates
            ],
        )
    )
    if len(estimates) == 2:
        gap = (row.degrade_goodput - row.restart_goodput) * 100
        print(f"\nbest policy: {row.best_policy} ({gap:+.2f} points)")
    return 0


def _cmd_elastic(args: argparse.Namespace) -> int:
    if args.events is not None and args.policy == "all":
        return _bad_flag(
            "elastic", "--events", args.events,
            "needs a single --policy, not 'all'",
        )
    model, hw = args.model, args.hw
    from repro.experiments.common import render_table
    from repro.mesh import Mesh2D
    from repro.recovery import (
        POLICIES,
        ClusterReliability,
        LifetimeSpec,
        TunedElasticPlanner,
        simulate_lifetime,
    )

    mesh = Mesh2D(*args.mesh)
    batch = args.batch if args.batch is not None else max(1, mesh.size // 2)
    if mesh.size < 4:
        return _bad_flag(
            "elastic", "--mesh", f"{mesh.rows}x{mesh.cols}", _TWO_BY_TWO
        )
    planner = TunedElasticPlanner(
        model, batch, hw, mesh, plane=args.plane, engine=args.engine
    )
    try:
        full_mesh, step = planner.full()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    reliability = ClusterReliability(
        chip_mtbf=args.chip_mtbf_hours * 3600.0,
        chips=full_mesh.size,
        repair_seconds=args.repair_minutes * 60.0,
    )
    policies = POLICIES if args.policy == "all" else (args.policy,)
    print(
        f"{model.name}: {full_mesh.rows}x{full_mesh.cols} ({hw.name}), "
        f"batch {batch}, block {step * 1e3:.1f} ms\n"
        f"cluster MTBF {reliability.mtbf / 3600.0:.1f} h "
        f"(chip MTBF {args.chip_mtbf_hours:g} h), repair "
        f"{args.repair_minutes:g} min, checkpoint "
        f"{args.checkpoint_seconds:g} s + restart {args.restart_seconds:g} s\n"
        f"{args.duration_days:g} simulated days, seed {args.seed}, "
        f"{args.plane} migrations\n"
    )
    rows = []
    results = {}
    for policy in policies:
        result = simulate_lifetime(
            planner,
            reliability,
            LifetimeSpec(
                policy=policy,
                duration_days=args.duration_days,
                spares=args.spares,
                seed=args.seed,
            ),
            args.checkpoint_seconds,
            args.restart_seconds,
        )
        results[policy] = result
        rows.append(
            (policy, f"{result.goodput * 100:.2f}%", result.failures,
             result.transitions, result.spares_consumed,
             result.exhaustions, result.min_running,
             f"{result.idle_seconds / 3600.0:.1f}")
        )
    print(
        render_table(
            ["policy", "goodput", "failures", "transitions", "spares used",
             "exhausted", "min chips", "idle (h)"],
            rows,
        )
    )
    if len(results) > 1:
        best = max(results, key=lambda name: results[name].goodput)
        print(f"\nbest policy: {best}")
    if args.events:
        result = results[policies[0]]
        with open(args.events, "w") as handle:
            handle.write(result.event_log_jsonl())
        print(f"\nwrote {len(result.events)} events to {args.events}")
    return 0


def _cmd_sdc(args: argparse.Namespace) -> int:
    from repro.experiments import ablation_sdc

    rates = tuple(args.rate) if args.rate else None
    hw = args.hw
    rows = ablation_sdc.run(
        rates=rates or ablation_sdc.RATES,
        meshes=args.mesh or list(ablation_sdc.MESHES),
        trials=args.trials,
        seed=args.seed if args.seed else ablation_sdc.DEFAULT_SEED,
        algorithm=args.algorithm,
        hw=hw,
        jobs=args.jobs,
    )
    from repro.experiments.common import render_table

    print(
        f"{args.algorithm} under silent data corruption ({hw.name}, "
        f"{args.trials} trials/point, seed "
        f"{args.seed if args.seed else ablation_sdc.DEFAULT_SEED})\n"
    )
    print(
        render_table(
            ["rate", "mesh", "flips", "escapes (bare)", "escapes (abft)",
             "corrected", "recomputed", "abft overhead"],
            [(f"{r.rate:g}", f"{r.mesh[0]}x{r.mesh[1]}", r.flips,
              f"{r.unprotected_escapes}/{r.trials}",
              f"{r.protected_escapes}/{r.trials}",
              r.corrected, r.recomputed, f"{r.overhead_pct:.1f}%")
             for r in rows],
        )
    )
    return 0


#: Per-run derived metrics a handler wants included in the command's
#: ``--metrics`` export (filled by ``profile``; others export only the
#: registry and cache counters).
_RUN_METRICS: List[object] = []


def _cmd_profile(args: argparse.Namespace) -> int:
    model, hw, batch = args.model, args.hw, _batch(args)
    from repro.obs.profile import profile_block

    report = profile_block(
        model, batch, args.chips, hw, algorithm=args.algorithm
    )
    if report is None:
        print(
            f"meshslice profile: {args.algorithm} cannot run on "
            f"{args.chips} chips",
            file=sys.stderr,
        )
        return 2
    _RUN_METRICS.append(report.metrics)
    print(report.render())
    return 0


def _describe_result(result) -> str:
    """One output line per served query."""
    from repro.autotuner.search import RobustTuningResult, TuningResult

    if isinstance(result, TuningResult):
        return (
            f"mesh {result.mesh}; block "
            f"{result.block_seconds * 1e3:.3f} ms"
        )
    if isinstance(result, RobustTuningResult):
        return (
            f"mesh {result.mesh}; p{result.quantile * 100:g} block "
            f"{result.robust_seconds * 1e3:.3f} ms "
            f"(inflation {result.inflation:.3f}x)"
        )
    # DegradedRetune
    return (
        f"degraded mesh {result.result.mesh} (dropped {result.dropped}); "
        f"block {result.result.block_seconds * 1e3:.3f} ms"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    bounded = (
        args.store_max_records is not None or args.store_max_bytes is not None
    )
    if bounded and args.store is None:
        print(
            "meshslice serve: --store-max-records/--store-max-bytes "
            "require --store",
            file=sys.stderr,
        )
        return 2
    import json

    from repro.service import TuneRequest, TunerService

    if args.replay is not None:
        try:
            with open(args.replay) as handle:
                lines = handle.readlines()
        except OSError as exc:
            print(f"meshslice serve: {exc}", file=sys.stderr)
            return 2
    else:
        lines = sys.stdin.readlines()
    requests = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            requests.append(TuneRequest.from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            source = args.replay or "<stdin>"
            print(
                f"meshslice serve: {source}:{lineno}: bad query: {exc}",
                file=sys.stderr,
            )
            return 2
    if not requests:
        print("meshslice serve: no queries", file=sys.stderr)
        return 2
    store = args.store
    if bounded:
        from repro.service import PlanStore

        store = PlanStore(
            args.store,
            max_records=args.store_max_records,
            max_bytes=args.store_max_bytes,
        )
    with TunerService(
        store, workers=args.workers,
        warm_start=not args.no_warm_start,
    ) as service:
        for _ in range(args.repeat):
            results = service.serve_many(requests)
        for request, result in zip(requests, results):
            print(
                f"{request.mode} {request.model.name} "
                f"chips={request.canonical().chips}: "
                f"{_describe_result(result)}"
            )
        stats = service.stats()
    print(
        f"\nserved {int(stats['requests'])} request(s): "
        f"{int(stats['served_from_memory'])} from memory, "
        f"{int(stats['coalesced_inflight'])} coalesced, "
        f"{int(stats['store_hits'])} store hit(s) "
        f"(hit rate {stats['store_hit_rate']:.2f}), "
        f"warm-start prune ratio {stats['warmstart_prune_ratio']:.2f}, "
        f"p50 {stats['latency_p50_ms']:.1f} ms, "
        f"p95 {stats['latency_p95_ms']:.1f} ms"
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import os

    action = args.action
    from repro.campaign import (
        CampaignRunner,
        CampaignStore,
        get_campaign,
        report,
        status,
    )

    try:
        store = CampaignStore(args.store)
    except (OSError, ValueError) as exc:
        print(f"meshslice campaign: {exc}", file=sys.stderr)
        return 2
    name = getattr(args, "experiment", None)
    spec = None
    if name is not None:
        try:
            spec = get_campaign(name)
        except KeyError as exc:
            print(f"meshslice campaign: {exc.args[0]}", file=sys.stderr)
            return 2
    if action in ("resume", "status", "report"):
        wanted = [name] if name is not None else store.campaigns()
        if not wanted:
            print(
                f"meshslice campaign {action}: no campaigns in "
                f"{args.store}",
                file=sys.stderr,
            )
            return 2
        if name is not None and not os.path.exists(store.path_for(name)):
            print(
                f"meshslice campaign {action}: no store file for "
                f"{name!r} in {args.store}",
                file=sys.stderr,
            )
            return 2
    if action in ("run", "resume"):
        runner = CampaignRunner(
            store, name, spec.point,
            retries=args.retries, backoff_s=args.backoff,
            retry_failed=args.retry_failed, jobs=args.jobs,
        )
        summary = runner.run(spec.points())
        print(
            f"campaign {name}: {summary.total} point(s) "
            f"({summary.skipped} already stored); ran {summary.ran}, "
            f"ok {summary.ok}, failed {summary.failed}"
        )
        if summary.quarantined:
            print(
                f"quarantined {summary.quarantined} corrupt store "
                f"chunk(s) (see {store.quarantine_path(name)})"
            )
        if not summary.complete:
            print(
                f"meshslice campaign {action}: {name} is incomplete",
                file=sys.stderr,
            )
            return 1
        return 0
    if action == "status":
        blocks = []
        for campaign_name in wanted:
            blocks.append(status(store, campaign_name).render())
        print("\n\n".join(blocks))
        return 0
    try:
        print(report(store, name, spec))
    except ValueError as exc:
        # A stored row that does not decode (e.g. a foreign type ref).
        print(f"meshslice campaign report: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_metrics(path: str) -> None:
    """Dump everything collected during the command as schema JSONL."""
    from repro.obs.export import collect_records, write_jsonl

    write_jsonl(collect_records(run_metrics=_RUN_METRICS), path)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        # The experiment grids read the worker count from the
        # environment, so one flag reaches every grid they run.
        import os

        from repro.experiments.common import JOBS_ENV

        os.environ[JOBS_ENV] = str(args.jobs)
    names: List[str] = []
    for name in args.experiments:
        if name == "all":
            names.extend(sorted(EXPERIMENTS))
        else:
            names.append(name)
    for name in names:
        start = time.time()
        try:
            report = run_experiment(name)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"=== {name} " + "=" * max(0, 70 - len(name)))
        print(report)
        print(f"--- {name} done in {time.time() - start:.1f}s\n")
    return 0


class Command(NamedTuple):
    """One subcommand: its parser text, flags in order, and handler.

    ``usage`` is printed when the command's leading positional (the
    model) is missing. ``actions`` are nested subcommands (labelled
    ``"<name> <action>"``) that run through this command's handler.
    """

    name: str
    help: str
    handler: Optional[Callable[[argparse.Namespace], int]] = None
    flags: Tuple[str, ...] = ()
    description: Optional[str] = None
    usage: Optional[str] = None
    actions: Tuple["Command", ...] = ()


_CLUSTER = ("model", "--chips", "--batch", "--hw")
_CLUSTER_USAGE = "<model> [--chips N] [--batch B] [--hw P]"
_RELIABILITY = (
    "--chip-mtbf-hours", "--repair-minutes", "--checkpoint-seconds",
    "--restart-seconds",
)
_CAMPAIGN_RUN = (
    "experiment", "--store", "--jobs", "--retries", "--backoff",
    "--retry-failed", "--metrics", "--engine",
)
_CAMPAIGN_RUN_HELP = "run a campaign (skips points already in the store)"
_CAMPAIGN_RESUME_HELP = "continue an interrupted campaign (store must exist)"

#: Every subcommand; anything else in command position is treated as
#: an experiment name and routed through ``run`` (legacy alias).
SUBCOMMANDS: Tuple[Command, ...] = (
    Command(
        "run", "run experiments by name ('all' for every one)", _cmd_run,
        ("experiments", "--jobs", "--metrics", "--engine"),
        "Run one or more experiment reproductions.",
    ),
    Command("list", "enumerate the available experiments", _cmd_list),
    Command(
        "tune", "autotune mesh shape and slice counts for a model", _cmd_tune,
        (*_CLUSTER, "--metrics", "--engine"),
        "Run the two-phase autotuner (Section 3.2).", usage=_CLUSTER_USAGE,
    ),
    Command(
        "faults", "fault-aware robust tuning over a straggler/link ensemble",
        _cmd_faults,
        (*_CLUSTER, "--algorithm", "--stragglers", "--straggler-slowdown",
         "--degraded-links", "--link-slowdown", "--jitter", "--outage-rate",
         "--ensemble", "--quantile", "--seed", "--metrics"),
        "Choose the mesh shape minimizing a tail quantile of the simulated "
        "block time over a seeded ensemble of fault plans (stragglers, "
        "degraded links, jitter, outages).",
        usage=_CLUSTER_USAGE,
    ),
    Command(
        "recovery", "goodput of recovery policies (restart vs degraded mesh)",
        _cmd_recovery, (*_CLUSTER, *_RELIABILITY, "--policy", "--metrics"),
        "Compare end-to-end goodput of checkpoint-restart against "
        "degraded-mesh continuation: tune the model, re-tune it on the "
        "torus surviving one dead chip, and combine both step times with "
        "the Young/Daly checkpoint model.",
        usage=_CLUSTER_USAGE,
    ),
    Command(
        "elastic", "seeded multi-failure lifetime simulation of elastic "
        "policies", _cmd_elastic,
        ("model", "--mesh", "--batch", "--hw", "--policy", "--spares",
         "--duration-days", "--seed", *_RELIABILITY, "--plane", "--events",
         "--metrics", "--engine"),
        "Simulate a multi-day training run under chip failures: tune the "
        "model on the full torus, then replay a seeded failure/repair "
        "history under restart, degrade, replace-from-spares, or reshape "
        "policies — charging checkpoint rollback and the simulated "
        "reshard-migration program for every reconfiguration — and compare "
        "the simulated goodput against the closed-form policy math.",
        usage="<model> [--mesh RxC] [--batch B] [--hw P] [--policy NAME]",
    ),
    Command(
        "sdc", "silent-data-corruption sweep: ABFT protection vs escapes",
        _cmd_sdc,
        ("--rate", "--mesh", "--algorithm", "--trials", "--seed", "--hw",
         "--jobs", "--metrics"),
        "Inject seeded bit flips into the functional 2D GeMM with and "
        "without ABFT checksums, and report escape counts, correction "
        "statistics, and the simulated protection overhead per (rate, "
        "mesh) grid point.",
    ),
    Command(
        "profile", "profile one deployment point: where does the time go?",
        _cmd_profile, (*_CLUSTER, "--algorithm", "--metrics", "--engine"),
        "Simulate one transformer block at the algorithm's optimal mesh "
        "shape and report per-resource utilization, the "
        "compute/communication overlap fraction, the communication "
        "breakdown, queue waits, and memoization hit rates.",
        usage=_CLUSTER_USAGE,
    ),
    Command(
        "serve", "serve tuning requests from a persistent plan store",
        _cmd_serve,
        ("--store", "--workers", "--replay", "--repeat", "--no-warm-start",
         "--store-max-records", "--store-max-bytes", "--metrics",
         "--engine"),
        "Run the tuning service: JSONL TuneRequest queries (one object per "
        "line; see docs/service.md) are answered through the in-memory "
        "cache, the on-disk plan store, and finally a warm-started search. "
        "Queries come from stdin by default, or from a file with --replay "
        "(one-shot mode).",
    ),
    Command(
        "campaign", "durable, resumable experiment sweeps (crash-tolerant)",
        _cmd_campaign,
        description="Run an experiment's grid as a campaign: every grid "
        "point appends a durable record to an append-only JSONL store, so "
        "a killed sweep resumes where it stopped, transient failures retry "
        "with backoff, and permanent failures are recorded instead of "
        "aborting the grid (docs/campaign.md).",
        actions=(
            Command("run", _CAMPAIGN_RUN_HELP, flags=_CAMPAIGN_RUN,
                    description=_CAMPAIGN_RUN_HELP),
            Command("resume", _CAMPAIGN_RESUME_HELP, flags=_CAMPAIGN_RUN,
                    description=_CAMPAIGN_RESUME_HELP),
            Command(
                "status",
                "summarize stored campaigns (ok/failed counts, versions)",
                flags=("experiment", "--store"),
            ),
            Command(
                "report",
                "render the experiment's table from its stored records",
                flags=("experiment", "--store"),
            ),
        ),
    ),
    Command("models", "list the model zoo", _cmd_models),
    Command("presets", "list the hardware presets", _cmd_presets),
)

_BY_NAME: Dict[str, Command] = {command.name: command for command in SUBCOMMANDS}

#: The real subcommand names (``normalize_argv``'s routing set).
COMMANDS = tuple(_BY_NAME)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _add_commands(parser, commands, dest: str, label: str = "") -> None:
    sub = parser.add_subparsers(dest=dest, metavar=dest)
    for command in commands:
        child = sub.add_parser(
            command.name, help=command.help, description=command.description
        )
        for name in command.flags:
            FLAGS[name].at(label + command.name).add_to(child, name)
        if command.actions:
            _add_commands(
                child, command.actions, "action", f"{label}{command.name} "
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshslice",
        description="MeshSlice (ISCA 2025) reproduction toolkit",
    )
    _add_commands(parser, SUBCOMMANDS, "command")
    return parser


def _prepare(command: Command, label: str, args: argparse.Namespace) -> int:
    """Check, then convert, ``args`` per the flag table; 0 or exit 2.

    Rules run in the command's declared flag order, then a missing
    leading positional prints the command's usage, then converters run
    (model name, hardware preset, ``RxC`` mesh) in the same order.
    """
    flags = [(_dest(name), name, FLAGS[name].at(label)) for name in command.flags]
    for dest, name, flag in flags:
        value = getattr(args, dest)
        if flag.rule is not None and value is not None:
            ok, requirement = flag.rule
            if not ok(value):
                # A repeatable flag reports its values as a tuple.
                shown = tuple(value) if isinstance(value, list) else value
                return _bad_flag(label, name, shown, requirement)
    if command.usage is not None and getattr(args, flags[0][0]) is None:
        print(f"usage: meshslice {label} {command.usage}", file=sys.stderr)
        return 2
    for dest, _, flag in flags:
        value = getattr(args, dest)
        if flag.convert is not None and value is not None:
            try:
                setattr(args, dest, flag.convert(value))
            except (KeyError, ValueError) as exc:
                print(exc, file=sys.stderr)
                return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(normalize_argv(list(argv)))
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    command = _BY_NAME[args.command]
    handler, label = command.handler, command.name
    if command.actions:
        actions = {action.name: action for action in command.actions}
        if args.action is None:
            print(
                f"usage: meshslice {label} {{{','.join(actions)}}} ...",
                file=sys.stderr,
            )
            return 2
        command, label = actions[args.action], f"{label} {args.action}"
    code = _prepare(command, label, args)
    if code:
        return code
    if getattr(args, "engine", None) is not None:
        set_default_engine(args.engine)
    code = handler(args)
    metrics_path = getattr(args, "metrics", None)
    if code == 0 and metrics_path:
        _write_metrics(metrics_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
