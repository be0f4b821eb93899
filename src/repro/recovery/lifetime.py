"""Seeded multi-failure lifetime simulation of elastic recovery.

The closed forms in :mod:`repro.recovery.policy` price one failure per
repair window and charge reconfiguration as a constant. This module
simulates the whole multi-day run as a seeded renewal process instead:
failure arrivals are sampled at the *current* cluster rate (``running
chips / chip MTBF``, so a shrunk torus fails less often), every
reconfiguration is charged its simulated reshard-migration program
(:mod:`repro.recovery.elastic`), repairs complete on their own clock
and can overlap new failures, and a spare pool can run dry — all the
dynamics the single-cycle algebra cannot express.

Checkpoint economics stay analytic: while the cluster runs with ``n``
chips, work banks at the Young/Daly optimal goodput of a
:class:`~repro.recovery.checkpoint.CheckpointModel` at that chip
count's MTBF. The checkpoint model is the *exact* renewal expectation
of rollback, re-execution, and restart charges, so sampling individual
checkpoint segments would only add Monte-Carlo noise around the same
mean; the simulator samples what the closed forms genuinely cannot —
failure clustering, repair queues, chained degradations, and spare
exhaustion. This hybrid is also what makes the cross-check in the
acceptance tests sharp: with zero spares and a large MTBF the
simulated ``restart``/``degrade`` goodputs converge to
:func:`~repro.recovery.policy.restart_goodput` /
:func:`~repro.recovery.policy.degrade_goodput` to within a fraction
of a percent.

Determinism follows the FaultSpec convention: all randomness flows
through one ``random.Random(seed)`` consumed in a fixed order (the
next failure arrival is redrawn after every state change — valid
because the exponential is memoryless), so the event log is
byte-identical across processes, hash seeds, and worker counts.

Policies (``POLICIES``):

* ``restart`` — idle through every repair window; chips do not fail
  while paused, so this reproduces the classic up/down renewal cycle.
* ``degrade`` — drop a row/column per outstanding failure (chained
  through the planner), migrate shards to each shrunk torus, restore
  when repairs complete; idles only when no survivor shape exists.
* ``replace`` — a spare adopts the dead coordinate after a
  same-shape replacement migration; repaired chips refill the pool;
  when the pool is dry the cluster idles until the next repair, which
  goes straight into the hole.
* ``reshape`` — re-factor the surviving chip count into the best
  torus (e.g. ``4x4 -> 3x5``), keeping every healthy chip working
  instead of draining a whole line.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Dict, List, Optional, Tuple

from repro.mesh.topology import Mesh2D
from repro.obs.registry import registry as _metrics
from repro.recovery.checkpoint import CheckpointModel
from repro.recovery.policy import ClusterReliability

#: The elastic policies the lifetime simulator can apply.
POLICIES: Tuple[str, ...] = ("restart", "degrade", "replace", "reshape")

_SECONDS_PER_DAY = 86400.0


@dataclasses.dataclass(frozen=True)
class LifetimeSpec:
    """One lifetime simulation's operational parameters.

    Attributes:
        policy: One of :data:`POLICIES`.
        duration_days: Simulated wall-clock horizon (> 0).
        spares: Spare chips available to the ``replace`` policy
            (ignored by the other policies).
        seed: Seed of the failure-arrival process (FaultSpec
            convention: one ``random.Random(seed)``, fixed draw order).
    """

    policy: str
    duration_days: float
    spares: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if self.duration_days <= 0.0:
            raise ValueError(
                f"duration_days must be positive, got {self.duration_days}"
            )
        if self.spares < 0:
            raise ValueError(f"spares must be non-negative, got {self.spares}")


@dataclasses.dataclass(frozen=True)
class LifetimeEvent:
    """One entry of the structured lifetime event log.

    Attributes:
        seq: Monotone event number (stable sort key).
        time: Simulated wall-clock seconds of the event.
        kind: ``"failure"`` | ``"repair"`` | ``"transition"`` |
            ``"spare-exhausted"`` | ``"end"``.
        action: What the policy did (``"degrade"``, ``"restore"``,
            ``"replace"``, ``"reshape"``, ``"idle"``, ``"run"``, ...).
        mesh: The running torus after the event (``"RxC"``), or
            ``None`` while idle.
        rate: Goodput rate after the event (full-rate fraction,
            checkpoint overhead included).
        running: Chips actively training after the event.
        in_repair: Chips currently in the repair shop.
        spares: Spare chips remaining in the pool.
        charge_seconds: Rate-zero reconfiguration wall-time this event
            charged (restart + simulated migration).
        banked_seconds: Cumulative full-rate-equivalent work so far.
    """

    seq: int
    time: float
    kind: str
    action: str
    mesh: Optional[str]
    rate: float
    running: int
    in_repair: int
    spares: int
    charge_seconds: float
    banked_seconds: float

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return json.dumps(
            dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
        )


@dataclasses.dataclass(frozen=True)
class LifetimeResult:
    """Outcome of one simulated lifetime.

    ``goodput`` is banked full-rate-equivalent seconds over elapsed
    wall seconds — directly comparable to
    :class:`~repro.recovery.policy.GoodputEstimate.goodput`.
    """

    policy: str
    seed: int
    wall_seconds: float
    banked_seconds: float
    goodput: float
    failures: int
    repairs: int
    transitions: int
    spares_consumed: int
    exhaustions: int
    idle_seconds: float
    min_running: int
    events: Tuple[LifetimeEvent, ...]
    trajectory: Tuple[Tuple[float, float], ...]

    def event_log_jsonl(self) -> str:
        """The full event log as canonical JSONL (newline-terminated)."""
        return "".join(event.to_json() + "\n" for event in self.events)

    def summary(self) -> Dict[str, object]:
        """Scalar summary (canonical-JSON-friendly) for tables/campaigns."""
        return {
            "policy": self.policy,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "goodput": self.goodput,
            "failures": self.failures,
            "repairs": self.repairs,
            "transitions": self.transitions,
            "spares_consumed": self.spares_consumed,
            "exhaustions": self.exhaustions,
            "idle_seconds": self.idle_seconds,
            "min_running": self.min_running,
        }


class TableElasticPlanner:
    """A dictionary-driven planner for tests and closed-form checks.

    Args:
        mesh: The full torus.
        step_seconds: Full-mesh step (or block) time; only ratios
            matter to the simulator.
        degraded: Mapping of outstanding-failure count to
            ``(mesh, step_seconds)``; missing counts mean "no
            survivor" (the simulator idles).
        reshaped: Mapping of alive chip count to
            ``(mesh, step_seconds)``.
        migration_seconds: Flat per-transition migration charge
            (``0.0`` reproduces the closed forms' free migration).
    """

    def __init__(
        self,
        mesh: Mesh2D,
        step_seconds: float,
        degraded: Optional[Dict[int, Tuple[Mesh2D, float]]] = None,
        reshaped: Optional[Dict[int, Tuple[Mesh2D, float]]] = None,
        migration_seconds: float = 0.0,
    ):
        if step_seconds <= 0.0:
            raise ValueError("step_seconds must be positive")
        if migration_seconds < 0.0:
            raise ValueError("migration_seconds must be non-negative")
        self.mesh = mesh
        self.step_seconds = step_seconds
        self._degraded = dict(degraded or {})
        self._reshaped = dict(reshaped or {})
        self._migration = migration_seconds

    def full(self) -> Tuple[Mesh2D, float]:
        return self.mesh, self.step_seconds

    def degraded(self, failures: int) -> Optional[Tuple[Mesh2D, float]]:
        return self._degraded.get(failures)

    def reshaped(self, alive: int) -> Optional[Tuple[Mesh2D, float]]:
        return self._reshaped.get(alive)

    def migration(self, source: Mesh2D, target: Mesh2D) -> float:
        return self._migration


class TunedElasticPlanner:
    """A planner backed by the autotuner and the simulated comm plane.

    Step times come from real tuning searches (full mesh, chained
    degraded drops, reshaped factorizations); migration charges come
    from simulating :class:`~repro.recovery.elastic.ReshardPlan`
    programs. A :class:`~repro.service.store.PlanStore` warm-starts
    and deduplicates the searches exactly like the tuning service: a
    lifetime that revisits the same transition shape hits the store
    instead of re-searching, and ``mode="tune"`` misses are seeded
    from the nearest stored neighbor.

    Imports of :mod:`repro.service` are deferred to call time — the
    service layer executes degraded retunes through this package, so a
    module-level import would be circular.
    """

    def __init__(
        self,
        model,
        batch_size: int,
        hw,
        mesh: Mesh2D,
        *,
        plane: str = "onesided",
        store=None,
        engine: Optional[str] = None,
        max_slices: int = 64,
    ):
        from repro.recovery.elastic import (
            MIGRATION_PLANES,
            migration_payload_bytes,
        )

        if plane not in MIGRATION_PLANES:
            raise ValueError(
                f"unknown migration plane {plane!r}; "
                f"expected one of {MIGRATION_PLANES}"
            )
        self.model = model
        self.batch_size = batch_size
        self.hw = hw
        self.mesh = mesh
        self.plane = plane
        self.store = store
        self.engine = engine
        self.max_slices = max_slices
        self._payload = migration_payload_bytes(model, batch_size, hw)
        self._full: Optional[Tuple[Mesh2D, float]] = None
        self._degraded_cache: Dict[int, Optional[Tuple[Mesh2D, float]]] = {}
        self._reshaped_cache: Dict[int, Optional[Tuple[Mesh2D, float]]] = {}

    # ------------------------------------------------------------ resolution

    def _resolve(self, request):
        """Store-backed request resolution (the service's warm path)."""
        from repro.service.warmstart import resolve

        return resolve(request.canonical(), self.store)

    def _tune(self, chips: int, min_mesh_dim: int) -> Optional[Tuple[Mesh2D, float]]:
        from repro.service import TuneRequest

        try:
            result = self._resolve(
                TuneRequest(
                    model=self.model,
                    batch=self.batch_size,
                    hw=self.hw,
                    mode="tune",
                    chips=chips,
                    min_mesh_dim=min_mesh_dim,
                    max_slices=self.max_slices,
                )
            )
        except ValueError:
            return None
        return result.mesh, result.block_seconds

    # -------------------------------------------------------------- planner

    def full(self) -> Tuple[Mesh2D, float]:
        if self._full is None:
            tuned = self._tune(self.mesh.size, min_mesh_dim=2)
            if tuned is None:
                raise ValueError(
                    f"no tunable full configuration for {self.mesh}"
                )
            self._full = tuned
        return self._full

    def degraded(self, failures: int) -> Optional[Tuple[Mesh2D, float]]:
        """Chained row/column drops: one retune per outstanding failure."""
        if failures not in self._degraded_cache:
            from repro.recovery.degraded import NoSurvivingMeshError
            from repro.service import TuneRequest

            mesh = self.full()[0]
            plan: Optional[Tuple[Mesh2D, float]] = None
            try:
                for _ in range(failures):
                    retune = self._resolve(
                        TuneRequest(
                            model=self.model,
                            batch=self.batch_size,
                            hw=self.hw,
                            mode="degraded",
                            mesh=mesh,
                            dead=(0, 0),
                            max_slices=self.max_slices,
                        )
                    )
                    mesh = retune.mesh
                    plan = (retune.mesh, retune.block_seconds)
            except NoSurvivingMeshError:
                plan = None
            self._degraded_cache[failures] = plan
        return self._degraded_cache[failures]

    def reshaped(self, alive: int) -> Optional[Tuple[Mesh2D, float]]:
        if alive not in self._reshaped_cache:
            plan = self._tune(alive, min_mesh_dim=1) if alive >= 2 else None
            self._reshaped_cache[alive] = plan
        return self._reshaped_cache[alive]

    def migration(self, source: Mesh2D, target: Mesh2D) -> float:
        from repro.recovery.elastic import ReshardPlan, migration_seconds

        plan = ReshardPlan(source, target, self._payload, self.plane)
        return migration_seconds(plan, self.hw, self.engine)


def simulate_lifetime(
    planner,
    reliability: ClusterReliability,
    spec: LifetimeSpec,
    checkpoint_seconds: float,
    restart_seconds: float = 0.0,
) -> LifetimeResult:
    """Run one seeded lifetime under ``spec.policy``.

    Args:
        planner: Anything with the planner protocol —
            ``full() -> (mesh, step)``,
            ``degraded(failures) -> Optional[(mesh, step)]``,
            ``reshaped(alive) -> Optional[(mesh, step)]``,
            ``migration(source, target) -> seconds``
            (:class:`TableElasticPlanner` or
            :class:`TunedElasticPlanner`).
        reliability: Failure/repair characteristics; ``chips`` must
            equal the planner's full-mesh size.
        spec: Policy, horizon, spare pool, and seed.
        checkpoint_seconds: Checkpoint write cost (Young/Daly model).
        restart_seconds: Checkpoint reload cost. Charged inside the
            checkpoint goodput factor while running, and again per
            reconfiguration transition (every transition reloads from
            checkpoint on the new shape, mirroring
            :func:`~repro.recovery.policy.degrade_goodput`).

    Only *running* chips fail (training stress model): a restart-idled
    cluster draws no failures, and drained or spare chips are not at
    risk — exactly the closed forms' assumptions, which is what makes
    the large-MTBF cross-check exact.
    """
    full_mesh, full_step = planner.full()
    if full_mesh.size != reliability.chips:
        raise ValueError(
            f"reliability.chips={reliability.chips} does not match the "
            f"planner's full mesh {full_mesh} ({full_mesh.size} chips)"
        )
    if full_step <= 0.0:
        raise ValueError("full-mesh step_seconds must be positive")

    horizon = spec.duration_days * _SECONDS_PER_DAY
    rng = random.Random(spec.seed)
    chip_mtbf = reliability.chip_mtbf
    rho = reliability.repair_seconds

    ckpt_cache: Dict[int, float] = {}

    def ckpt_factor(running: int) -> float:
        if running < 1:
            return 0.0
        factor = ckpt_cache.get(running)
        if factor is None:
            model = CheckpointModel(
                mtbf=chip_mtbf / running,
                checkpoint_seconds=checkpoint_seconds,
                restart_seconds=restart_seconds,
            )
            factor = ckpt_cache[running] = model.optimal_goodput()
        return factor

    # ---------------------------------------------------------------- state
    t = 0.0
    banked = 0.0
    idle_seconds = 0.0
    holes = 0  # chips dead (replace: dead coordinates not yet refilled)
    spares = spec.spares
    repairs: List[float] = []  # sorted completion times
    cur: Optional[Tuple[Mesh2D, float]] = (full_mesh, full_step)
    last_mesh = full_mesh  # layout the shards currently live in
    cur_action = "run"
    events: List[LifetimeEvent] = []
    trajectory: List[Tuple[float, float]] = []
    failures = repairs_done = transitions = consumed = exhaustions = 0
    min_running = full_mesh.size

    def rate() -> float:
        if cur is None:
            return 0.0
        mesh, step = cur
        return (full_step / step) * ckpt_factor(mesh.size)

    def record(kind: str, action: str, charge: float = 0.0) -> None:
        events.append(
            LifetimeEvent(
                seq=len(events),
                time=t,
                kind=kind,
                action=action,
                mesh=f"{cur[0].rows}x{cur[0].cols}" if cur else None,
                rate=cur_rate,
                running=cur[0].size if cur else 0,
                in_repair=len(repairs),
                spares=spares,
                charge_seconds=charge,
                banked_seconds=banked,
            )
        )

    def desired() -> Tuple[Optional[Tuple[Mesh2D, float]], str]:
        """What the policy wants to run given the outstanding holes."""
        if holes == 0:
            return (full_mesh, full_step), "restore" if cur != (
                full_mesh,
                full_step,
            ) else "run"
        if spec.policy == "degrade":
            plan = planner.degraded(holes)
            return (plan, "degrade") if plan else (None, "idle")
        if spec.policy == "reshape":
            plan = planner.reshaped(full_mesh.size - holes)
            return (plan, "reshape") if plan else (None, "idle")
        # restart always idles; replace with holes > 0 is exhausted.
        return None, "idle"

    cur_rate = rate()
    trajectory.append((t, cur_rate))
    record("transition", "run")

    def retarget(replacement: bool = False) -> None:
        """Move to the policy's desired state, charging the transition."""
        nonlocal t, cur, cur_rate, last_mesh, cur_action, transitions
        target, action = desired()
        if replacement and target is not None:
            action = "replace"
        if target == cur and not (replacement and target is not None):
            return
        charge = 0.0
        if target is not None:
            migrate = replacement or target[0] != last_mesh
            if migrate:
                source = last_mesh if not replacement else target[0]
                charge = restart_seconds + planner.migration(
                    source, target[0]
                )
                t += charge
            last_mesh = target[0]
        cur = target
        cur_action = action
        new_rate = rate()
        changed = new_rate != cur_rate
        cur_rate = new_rate
        if changed:
            trajectory.append((t, cur_rate))
        transitions += 1
        record("transition", action, charge)

    def next_failure() -> float:
        if cur is None or cur[0].size == 0:
            return math.inf
        return t + rng.expovariate(cur[0].size / chip_mtbf)

    fail_at = next_failure()

    # ----------------------------------------------------------- event loop
    while t < horizon:
        repair_at = repairs[0] if repairs else math.inf
        te = min(horizon, fail_at, repair_at)
        if te > t:
            banked += cur_rate * (te - t)
            if cur_rate == 0.0:
                idle_seconds += te - t
            t = te
        if t >= horizon:
            break
        if repair_at <= fail_at:
            # ---------------------------------------------- repair completes
            repairs.pop(0)
            repairs_done += 1
            record("repair", cur_action)
            if spec.policy == "replace":
                if holes > 0:
                    holes -= 1  # straight into the hole
                    retarget(replacement=True)
                else:
                    spares += 1  # back to the pool
            else:
                holes -= 1
                retarget()
        else:
            # ------------------------------------------------- a chip fails
            failures += 1
            holes += 1
            repairs.append(t + rho)
            repairs.sort()
            record("failure", cur_action)
            if spec.policy == "replace" and holes > 0:
                if spares > 0:
                    spares -= 1
                    consumed += 1
                    holes -= 1
                    retarget(replacement=True)
                else:
                    exhaustions += 1
                    record("spare-exhausted", "idle")
                    retarget()
            else:
                retarget()
        if cur is not None:
            min_running = min(min_running, cur[0].size)
        fail_at = next_failure()

    wall = max(t, horizon)
    goodput = banked / wall if wall > 0 else 0.0
    record("end", cur_action)

    reg = _metrics()
    reg.inc("elastic.lifetimes", labels={"policy": spec.policy})
    reg.inc("elastic.failures", failures)
    reg.inc("elastic.repairs", repairs_done)
    reg.inc("elastic.transitions", transitions, labels={"policy": spec.policy})
    reg.inc("elastic.spares_consumed", consumed)
    reg.inc("elastic.exhaustions", exhaustions)
    reg.observe("elastic.lifetime.goodput", goodput)

    return LifetimeResult(
        policy=spec.policy,
        seed=spec.seed,
        wall_seconds=wall,
        banked_seconds=banked,
        goodput=goodput,
        failures=failures,
        repairs=repairs_done,
        transitions=transitions,
        spares_consumed=consumed,
        exhaustions=exhaustions,
        idle_seconds=idle_seconds,
        min_running=min_running,
        events=tuple(events),
        trajectory=tuple(trajectory),
    )
