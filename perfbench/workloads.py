"""The three benchmark workloads: ``sweep``, ``serve`` and ``stack``.

Each workload turns a seed into inputs, then exposes the same steps to
the runner: ``open`` (set-up, timed as part of ``setup_s``), ``warmup``
(one untimed op), ``reset`` (back to the run-start state, untimed),
``rounds`` (the op inputs, one list per round), ``op`` (the one timed
call), ``record`` (untimed bookkeeping the output checks need, kept
across rounds so the checks cover all of them) and ``check``.

Every round of a workload holds the same ops; the seed draws the
inputs and the order of each round. The runner starts every round from
the run-start state, so rounds cost the same whatever the seed and
however many a commit completes, and a run's figures are medians over
its rounds.

All three are closed loops with one client in one process. None starts
a process pool: the reference host has two vCPUs, and pooled grid runs
misreport ``repro.perf`` cache counters.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
import shutil
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Timed ops call through module attributes (``common.best_block_run``),
# so the traced run's rebinding of those attributes reaches them.
import repro.experiments.common as common
import repro.perf.pipeline as pipeline
import repro.sim.cluster as cluster
import repro.sim.program as program_mod
from repro import TPUV4, FaultSpec, Mesh2D, algorithm_names
from repro.autotuner.dataflow import plan_model
from repro.experiments.common import block_pass_configs, candidate_meshes, run_block
from repro.models.zoo import get_model, model_names
from repro.obs.registry import registry
from repro.perf import clear_caches
from repro.service import PlanStore, TuneRequest, TunerService
from repro.service.request import execute
from repro.service.store import encode_record
from repro.sim.compiled import ENGINE_NAMES, default_engine

HW = TPUV4


def _fresh_state() -> None:
    """Empty every ``repro.perf`` cache and the metrics registry."""
    clear_caches()
    registry().clear()


def _shuffled(rng: random.Random, items: Sequence) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _latin_round(rng: random.Random, table: Sequence[Sequence]) -> list:
    """One pass over ``table[row][cell]`` in seeded, balanced blocks.

    Block ``k`` holds row ``i``'s cell ``(k + shift[i]) % cells`` for
    every row, with distinct seeded shifts, so each block has every row
    once and no cell twice, and any prefix of the round holds about the
    same mix of rows and cells whatever the seed.
    """
    cells = len(table[0])
    shift = rng.sample(range(cells), len(table))
    blocks = [
        _shuffled(rng, [row[(k + shift[i]) % cells] for i, row in enumerate(table)])
        for k in range(cells)
    ]
    rng.shuffle(blocks)
    return [item for block in blocks for item in block]


# --------------------------------------------------------------- sweep


class Sweep:
    """One op is ``best_block_run`` at one (algorithm, model, batch, chips).

    A round is one cold figure grid: every algorithm at every chip
    count, chip count ``j`` at (model, batch level) number ``j`` of a
    fixed pairing that gives each model and each batch level to small
    and large chip counts alike. The seed orders each round in balanced
    blocks (:func:`_latin_round`). Caches start empty in every round, so
    later ops of a round earn the sweep-level hits a figure grid earns,
    and the cache heap, with the time the collector spends walking it,
    stays the size of one grid.
    """

    name = "sweep"
    #: Powers of two from 16 to 512 and six ragged counts.
    CHIPS = (16, 24, 32, 48, 64, 80, 96, 128, 192, 256, 384, 512)
    #: Batch as a share of the chip count (weak scaling).
    BATCH_LEVELS = (0.25, 0.5, 1.0)
    #: Ops of the same-seed rerun whose work counters must match.
    COUNTER_OPS = 20
    #: Ops re-searched cold and exhaustively by the output check.
    CHECKED_OPS = 2
    #: A round has 108 ops: p90 keeps 10 of them beyond it.
    TAIL_CAP = 90.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.models = [get_model(name) for name in model_names()]
        models, levels = len(self.models), len(self.BATCH_LEVELS)
        self.grid = [
            (
                self.models[j % models],
                max(1, int(chips * self.BATCH_LEVELS[(j + j // models) % levels])),
                chips,
            )
            for j, chips in enumerate(self.CHIPS)
        ]
        self.answers: List[Tuple[tuple, object]] = []

    def generate(self) -> None:
        pass

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def warmup(self) -> None:
        common.best_block_run("meshslice", self.models[0], 8, 16, HW)

    def reset(self) -> None:
        _fresh_state()

    def rounds(self) -> Iterator[list]:
        rng = random.Random(self.seed)
        table = [
            [(alg, model, batch, chips) for model, batch, chips in self.grid]
            for alg in algorithm_names()
        ]
        while True:
            yield _latin_round(rng, table)

    def op(self, item: tuple):
        alg, model, batch, chips = item
        return common.best_block_run(alg, model, batch, chips, HW)

    def record(self, item: tuple, result) -> None:
        self.answers.append((item, _block_summary(result)))

    def check(self) -> List[str]:
        """Cold and exhaustive re-searches of a seeded sample of ops."""
        errors = []
        rng = random.Random(self.seed + 1)
        count = min(self.CHECKED_OPS, len(self.answers))
        for index in sorted(rng.sample(range(len(self.answers)), count)):
            item, answer = self.answers[index]
            alg, model, batch, chips = item
            clear_caches()
            cold = _block_summary(common.best_block_run(alg, model, batch, chips, HW))
            full = _block_summary(_exhaustive(alg, model, batch, chips))
            for label, other in (("cold", cold), ("exhaustive", full)):
                if other != answer:
                    errors.append(
                        f"sweep op {index} {alg} {model.name} batch={batch} "
                        f"chips={chips}: {label} search gave {other}, "
                        f"pruned search gave {answer}"
                    )
        return errors


def _block_summary(run) -> Optional[tuple]:
    """Mesh, block seconds and per-pass makespans of a ``BlockRun``."""
    if run is None:
        return None
    return (
        (run.mesh.rows, run.mesh.cols),
        run.seconds,
        tuple(result.makespan for result in run.results),
    )


def _exhaustive(alg: str, model, batch: int, chips: int):
    """Simulate every candidate mesh in full; earliest mesh wins ties."""
    plans = plan_model(model, model.tokens(batch))
    best = None
    for mesh in candidate_meshes(alg, chips):
        try:
            run = run_block(alg, plans, mesh, HW)
        except ValueError:
            continue
        if best is None or run.seconds < best.seconds:
            best = run
    return best


# --------------------------------------------------------------- serve


class Serve:
    """One op is ``TunerService.serve`` of one request from a zipf stream.

    The catalog crosses the zoo models with chip counts and batches
    (``mode="tune"``) plus dead-chip retunes on a few meshes
    (``mode="degraded"``), each ranked in seeded popularity order. Of
    each pair of requests that differ only in batch or only in the dead
    chip, a seeded one is tuned into a fixture store before set-up.

    A round is one session of :data:`SESSION` requests: every catalog
    request as often as its zipf weight asks (at least once), a quarter
    of the requests degraded, in seeded order. Each session starts a
    fresh service, with empty caches, over a fresh copy of the fixture
    store, so every session sees the same memory-tier hits, store hits
    and misses (search, neighbour scan, save).
    """

    name = "serve"
    CHIPS = (16, 32, 48, 64, 96, 128, 192, 256)
    BATCHES = (8, 32)
    MESHES = ((4, 4), (4, 8), (8, 8), (8, 16))
    SESSION = 1000
    DEGRADED_SHARE = 0.25
    ZIPF_EXPONENT = 1.1
    COUNTER_OPS = 100
    #: A session has at least 1000 ops: p99 keeps 10 of them beyond it.
    TAIL_CAP = 99.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(seed)
        models = [get_model(name) for name in model_names()]
        tune_pairs = [
            [
                TuneRequest(model=model, batch=batch, chips=chips, hw=HW)
                for batch in self.BATCHES
            ]
            for model in models
            for chips in self.CHIPS
        ]
        degraded_pairs = []
        for model in models:
            for rows, cols in self.MESHES:
                mesh = Mesh2D(rows, cols)
                degraded_pairs.append(
                    [
                        TuneRequest(
                            model=model, batch=8, hw=HW, mode="degraded",
                            mesh=mesh, dead=tuple(dead),
                        )
                        for dead in rng.sample(sorted(mesh.coords()), 2)
                    ]
                )
        # One request of each pair is stored, so every seed stores and
        # misses the same amount of tuning work.
        self.stored = [
            pair[rng.randrange(2)] for pair in tune_pairs + degraded_pairs
        ]
        # Catalog position is popularity rank.
        self.tune = _shuffled(rng, [r for pair in tune_pairs for r in pair])
        self.degraded = _shuffled(rng, [r for pair in degraded_pairs for r in pair])
        self.session = [
            request
            for ranked, share in (
                (self.tune, 1.0 - self.DEGRADED_SHARE),
                (self.degraded, self.DEGRADED_SHARE),
            )
            for request, count in zip(
                ranked,
                _zipf_counts(len(ranked), self.ZIPF_EXPONENT, share * self.SESSION),
            )
            for _ in range(count)
        ]
        assert len(self.session) >= self.SESSION
        self.fixture = os.path.join(workdir, "fixture")
        #: Canonical record bytes per key, from cold ``execute`` runs.
        self.reference: Dict[str, str] = {}
        self.service: Optional[TunerService] = None
        self.stores = itertools.count()
        self.served: Dict[str, Tuple[object, str, TuneRequest]] = {}
        self.errors: List[str] = []

    def generate(self) -> None:
        """Tune the stored half of the catalog into the fixture store."""
        store = PlanStore(self.fixture)
        for request in self.stored:
            clear_caches()
            result = execute(request)
            store.save(request, result)
            self.reference[_key(request)] = _encode(request, result)
        clear_caches()

    def open(self) -> None:
        self.close()
        root = os.path.join(self.workdir, f"store-{next(self.stores)}")
        shutil.copytree(self.fixture, root)
        self.service = TunerService(PlanStore(root), workers=1)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            shutil.rmtree(self.service.store.root, ignore_errors=True)
            self.service = None

    def warmup(self) -> None:
        self.service.serve(self.stored[0])

    def reset(self) -> None:
        _fresh_state()
        self.open()

    def rounds(self) -> Iterator[list]:
        rng = random.Random(self.seed + 2)
        while True:
            yield _shuffled(rng, self.session)

    def op(self, request):
        return self.service.serve(request)

    def record(self, request, result) -> None:
        key = _key(request)
        seen = self.served.get(key)
        if seen is not None and seen[0] is result:
            return
        encoded = _encode(request, result)
        if seen is not None and seen[1] != encoded:
            self.errors.append(f"serve key {key[:12]} served two encodings")
        self.served[key] = (result, encoded, request)

    def check(self) -> List[str]:
        """Served records against cold ``execute`` of each request."""
        errors = list(self.errors)
        for key, (_result, encoded, request) in sorted(self.served.items()):
            reference = self.reference.get(key)
            if reference is None:
                clear_caches()
                reference = _encode(request, execute(request))
            if encoded != reference:
                errors.append(
                    f"serve key {key[:12]}: served record differs from "
                    "a cold execute"
                )
        return errors


def _key(request: TuneRequest) -> str:
    return request.canonical().cache_key()


def _encode(request: TuneRequest, result) -> str:
    canonical = request.canonical()
    return encode_record(canonical.cache_key(), canonical, result)


def _zipf_counts(n: int, exponent: float, total: float) -> List[int]:
    """Whole zipf shares of ``total`` for ranks ``0..n-1``, at least 1."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    scale = total / sum(weights)
    return [max(1, math.ceil(weight * scale)) for weight in weights]


# --------------------------------------------------------------- stack


_SPAN_FIELDS = operator.itemgetter(0, 1, 2, 3, 4, 5)


def spans_digest(spans) -> int:
    """Hash of every span field an engine decides (all but ``meta``)."""
    return hash(tuple(map(_SPAN_FIELDS, spans)))


class Stack:
    """One op builds a pass program, stacks it and simulates the stack.

    The menu holds one entry per (algorithm, chips, depth): a tuned pass
    on the most square mesh the algorithm accepts, stacked 12 to 48
    layers deep. Models and passes rotate over the entries, so each
    algorithm meets every model and every pass of the block. A quarter
    of the entries, one per (algorithm, chips) at a rotating depth, run
    under a fault plan sampled from a seeded spec, which forces the
    engine that cannot compose. A round runs the whole menu from empty
    caches, in an order drawn by :func:`_latin_round`.
    """

    name = "stack"
    CHIPS = (16, 64, 256)
    DEPTHS = (12, 24, 36, 48)
    COUNTER_OPS = 12
    #: A round has 108 ops: p90 keeps 10 of them beyond it.
    TAIL_CAP = 90.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.menu: List[tuple] = []
        self.digests: Dict[int, set] = {}
        self.warm_entry: Optional[tuple] = None

    def generate(self) -> None:
        """Draw the menu: tuned pass configs and fault plans."""
        rng = random.Random(self.seed)
        models = [get_model(name) for name in model_names()]
        for i, alg in enumerate(algorithm_names()):
            for j, chips in enumerate(self.CHIPS):
                mesh = min(
                    candidate_meshes(alg, chips),
                    key=lambda m: (abs(m.rows - m.cols), m.rows),
                )
                for d, depth in enumerate(self.DEPTHS):
                    model = models[d % len(models)]
                    plans = plan_model(model, model.tokens(chips // 2))
                    configs = block_pass_configs(alg, plans, mesh, HW)
                    cfg = configs[(4 * j + d) % len(configs)]
                    plan = None
                    if d == (i + j) % len(self.DEPTHS):
                        spec = FaultSpec(
                            stragglers=2,
                            straggler_slowdown=1.3,
                            degraded_links=2,
                            link_slowdown=1.5,
                            launch_jitter=2e-6,
                            seed=rng.getrandbits(32),
                        )
                        plan = spec.sample(chips, HW)
                    self.menu.append((len(self.menu), alg, cfg, depth, plan))
        clear_caches()

    def open(self) -> None:
        """The fixed warm-up entry: a 4x4 MeshSlice pass, 12 layers."""
        model = get_model(model_names()[0])
        plans = plan_model(model, model.tokens(8))
        cfg = block_pass_configs("meshslice", plans, Mesh2D(4, 4), HW)[0]
        self.warm_entry = (-1, "meshslice", cfg, 12, None)

    def close(self) -> None:
        pass

    def warmup(self) -> None:
        self.op(self.warm_entry)

    def reset(self) -> None:
        _fresh_state()

    def rounds(self) -> Iterator[list]:
        rng = random.Random(self.seed + 3)
        cells = len(self.CHIPS) * len(self.DEPTHS)
        table = [self.menu[i : i + cells] for i in range(0, len(self.menu), cells)]
        while True:
            yield _latin_round(rng, table)

    def op(self, entry: tuple):
        _index, alg, cfg, depth, plan = entry
        block = pipeline.built_program(alg, cfg, HW)
        return cluster.simulate(program_mod.repeat_program(block, depth), HW, faults=plan)

    def record(self, entry: tuple, result) -> None:
        self.digests.setdefault(entry[0], set()).add(spans_digest(result.spans))

    def check(self) -> List[str]:
        """Every op's spans against the other engine's, per menu entry."""
        errors = []
        other = next(name for name in ENGINE_NAMES if name != default_engine())
        for index in sorted(self.digests):
            _index, alg, cfg, depth, plan = self.menu[index]
            block = pipeline.built_program(alg, cfg, HW)
            program = program_mod.repeat_program(block, depth)
            result = cluster.simulate(program, HW, faults=plan, engine=other)
            digest = spans_digest(result.spans)
            if self.digests[index] != {digest}:
                errors.append(
                    f"stack entry {index} {alg} {cfg.mesh} S={cfg.slices} "
                    f"depth={depth}: spans differ from the {other} engine's"
                )
        return errors


WORKLOADS = {cls.name: cls for cls in (Sweep, Serve, Stack)}
