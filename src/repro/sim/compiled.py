"""Compiled structure-exploiting engine: motif composition over the DAG.

LLM training programs are the same per-layer GeMM+collective block
repeated dozens of times, yet the event-heap engine simulates every
repetition activity by activity. This module adds a *program
compilation* layer on top of :class:`repro.sim.engine.Engine`:

1. **Motif detection.** Repeated activity-DAG fragments are located
   (from builder annotations in ``Program.meta["motifs"]``, or inferred
   from ``label[index]`` naming) and *verified*: every instance must
   have bit-identical durations, resources, shared demands, and a
   dependency structure that maps onto its neighbors by a constant aid
   shift. Plain annotations are hints only — a wrong annotation is
   detected and ignored, never trusted. Annotations carrying
   ``trusted: True`` (emitted by :func:`repro.sim.program.repeat_program`,
   whose instances are clones by construction) assert the structural
   half of that invariant and skip the per-instance signature scan;
   durations are still bit-verified vectorized, so a fault plan's
   perturbations demote a trusted hint exactly like an untrusted one.
2. **Steady-state lock-in.** The program is simulated on a recording
   copy of the event loop. At each instance-completion boundary the
   event block of the just-finished instance (time deltas, start and
   completion sequences in instance-relative coordinates) and a full
   canonical fingerprint of the engine state (running set, ready heap,
   wait queues, shared-membership order, contention factors) are
   compared against the previous boundary. Two matching consecutive
   fingerprints mean the simulation has reached its steady state; for
   unverified structure the event blocks themselves must match too.
3. **Composition by replay.** Remaining instances are *replayed* from
   the locked template instead of simulated: event times are
   re-accumulated sequentially (one ``cumsum`` over the frozen dt bits —
   the engine's own summation order, so composed span times are
   bit-identical), spans and queue-wait observations are emitted from
   the template, and per-event time-tie patterns are verified so that
   any floating-point absorption that could change heap ordering aborts
   composition. Replay stops early enough that the last instances and
   the epilogue — whose event streams genuinely differ (pipeline
   drain, epilogue activities becoming ready) — are simulated: the
   engine state at the final composed boundary is reconstructed from
   the template fingerprint and the loop resumes normally.

The composed path is built for throughput: activities outside the
residual simulated portion never have their resource/demand structures
interned (the loop interns lazily, on first touch), full-cover trusted
motifs derive dependents from a per-slot template instead of an O(n)
reverse-edge build, and the replayed event stream is materialized from
numpy arrays (tiled dt cumsum, scattered start times, gathered span
boundaries) with only the unavoidable ``Span`` objects constructed in
Python.

Correctness before speed: composition only engages when every check
above passes; any irregularity (perturbed durations from a
:class:`repro.faults.FaultPlan`, hard faults, out-of-order instance
completion, non-motif activities alive at a boundary) falls back to
plain full simulation, bit-identically. ``tests/test_compiled_engine``
pins the composed path span-for-span against the frozen reference
engine.
"""

from __future__ import annotations

import dataclasses
import gc as _gc
import heapq
import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.hooks import wait_sink as _wait_sink
from repro.obs.registry import registry as _registry
from repro.sim.engine import (
    Activity,
    Engine,
    SimulationError,
    Span,
)

_EPS = 1e-15

#: Minimum motif instances for composition to be worth attempting.
MIN_INSTANCES = 4

#: Maximum instance look-ahead the steady state may touch (starts or
#: completions of activities this many instances past the current
#: boundary). Deeper pipelining than this is out of template range and
#: falls back to full simulation.
MAX_LOOKAHEAD = 8

_object_setattr = object.__setattr__


@dataclasses.dataclass
class CompileStats:
    """What the compilation layer did for one program execution."""

    #: Motif candidates considered (annotated plus inferred).
    motifs_found: int = 0
    #: Candidates that survived structural verification.
    motifs_validated: int = 0
    #: Instances of the chosen motif (0 when none was chosen).
    instances_total: int = 0
    #: Instances whose events were composed analytically.
    instances_composed: int = 0
    #: Instances executed on the event loop (warm-up plus drain).
    instances_simulated: int = 0
    #: Activities whose spans came from the composed path.
    activities_composed: int = 0
    #: Wall-clock spent detecting/validating motifs (not simulating).
    compile_seconds: float = 0.0
    #: Why composition did not engage (``None`` when it did).
    fallback: Optional[str] = None

    @property
    def composed_fraction(self) -> float:
        """Composed share of the motif's instances (0.0 without lock-in)."""
        if not self.instances_total:
            return 0.0
        return self.instances_composed / self.instances_total


class _Motif:
    """A verified repetition: ``count`` instances of ``period`` activities."""

    __slots__ = ("first", "period", "count", "trusted")

    def __init__(self, first: int, period: int, count: int, trusted: bool):
        self.first = first
        self.period = period
        self.count = count
        self.trusted = trusted

    @property
    def end(self) -> int:
        return self.first + self.period * self.count


def infer_motifs(activities: Sequence[Activity]) -> List[Dict[str, int]]:
    """Motif candidates from ``name[index]`` label conventions.

    Builders that predate the annotation API (and hand-built programs)
    index their per-step activities ``gemm[3]``, ``shift_a[3]``, ...;
    grouping by index recovers the instance boundaries. The result is a
    *hint* in annotation form — the detector still verifies it.
    """
    starts: Dict[int, int] = {}
    for act in activities:
        label = act.label
        if not label.endswith("]"):
            continue
        cut = label.rfind("[")
        if cut < 0:
            continue
        digits = label[cut + 1:-1]
        if not digits.isdigit():
            continue
        index = int(digits)
        if index not in starts or act.aid < starts[index]:
            starts[index] = act.aid
    if len(starts) < MIN_INSTANCES or sorted(starts) != list(range(len(starts))):
        return []
    firsts = [starts[i] for i in range(len(starts))]
    strides = {b - a for a, b in zip(firsts, firsts[1:])}
    if len(strides) != 1:
        return []
    period = strides.pop()
    if period <= 0:
        return []
    return [{"first": firsts[0], "period": period, "count": len(firsts)}]


class CompiledEngine:
    """Drop-in :class:`Engine` replacement with steady-state composition.

    Args:
        activities: The activity DAG, exactly as for ``Engine``.
        shared_capacities: Shared-resource capacities, as for ``Engine``.
        motifs: Annotation hints (``Program.meta["motifs"]``): sequence
            of mappings with ``first``/``period``/``count`` keys. When
            ``None``, hints are inferred from activity labels.

    :meth:`run` returns spans bit-identical to ``Engine.run()`` on the
    same input. After a run, :attr:`stats` describes what was composed.

    Unlike ``Engine``, dependency validation may be deferred from
    construction to :meth:`run` on densely-numbered programs — the
    errors raised (and their messages) are the same.
    """

    def __init__(
        self,
        activities: Sequence[Activity],
        shared_capacities: Optional[Dict[str, float]] = None,
        motifs: Optional[Sequence[Dict[str, int]]] = None,
    ):
        self.activities = list(activities)
        self.shared_capacities = dict(shared_capacities or {})
        self._hints = motifs
        self.stats = CompileStats()
        acts = self.activities
        n = len(acts)
        self._n = n
        # Composition's shift arithmetic needs aid == index; anything
        # else gets the engine's full validation here and runs uncomposed.
        dense = True
        try:
            aids = np.fromiter((a.aid for a in acts), dtype=np.int64, count=n)
            if n and not (aids == np.arange(n, dtype=np.int64)).all():
                dense = False
        except (TypeError, ValueError):
            dense = False
        if not dense:
            by_aid = {a.aid: a for a in acts}
            if len(by_aid) != n:
                raise SimulationError("duplicate activity ids")
            for act in acts:
                for dep in act.deps:
                    if dep not in by_aid:
                        raise SimulationError(
                            f"activity {act.label!r} depends on unknown id {dep}"
                        )
        self._dense = dense

    # ------------------------------------------------------------ compile

    def _prepare(self) -> bool:
        """Intern the duration vector; False when ids are not dense."""
        if not self._dense:
            return False
        n = self._n
        self._durations = np.fromiter(
            (a.duration for a in self.activities), dtype=np.float64, count=n
        )
        self._dur_bits = self._durations.view(np.int64)
        return True

    def _instance_signature(self, first: int, period: int, q: int):
        """Canonical per-instance structure, in shift coordinates."""
        acts = self.activities
        base = first + q * period
        sig = []
        for s in range(period):
            act = acts[base + s]
            deps = tuple(
                (1, d - base) if d >= first else (0, d)
                for d in sorted(set(act.deps))
            )
            sig.append(
                (act.exclusive, tuple(sorted(act.shared.items())), deps)
            )
        return tuple(sig)

    def _validate_motif(self, hint: Dict[str, int]) -> Optional[_Motif]:
        """Verify a hint; shrink from the front until instances repeat.

        Warm-up instances legitimately differ (absolute dependencies on
        a skew/encode prologue, perturbed durations from a fault plan):
        the motif is the longest *suffix* of instances that are
        bit-identical in durations and shift-isomorphic in structure.
        A ``trusted`` hint asserts the structural half (its instances
        are clones by construction); durations are always bit-verified.
        """
        try:
            first = int(hint["first"])
            period = int(hint["period"])
            count = int(hint["count"])
        except (KeyError, TypeError, ValueError):
            return None
        trusted = bool(hint.get("trusted", False))
        if first < 0 or period <= 0 or count < MIN_INSTANCES:
            return None
        if first + period * count > self._n:
            return None
        # Vectorized duration uniformity: longest run of trailing
        # instances with bit-identical duration rows.
        rows = self._dur_bits[first:first + period * count]
        rows = rows.reshape(count, period)
        row_ok = (rows == rows[-1]).all(axis=1)
        q0 = count
        while q0 > 0 and row_ok[q0 - 1]:
            q0 -= 1
        if not trusted:
            # Structural uniformity (resources, demands, shifted deps):
            # longest suffix matching the last instance's signature.
            base_sig = self._instance_signature(first, period, count - 1)
            q1 = count - 1
            while q1 > 0 and (
                self._instance_signature(first, period, q1 - 1) == base_sig
            ):
                q1 -= 1
            q0 = max(q0, q1)
        tail = count - q0
        if tail < MIN_INSTANCES:
            return None
        return _Motif(first + q0 * period, period, tail, trusted)

    def _compile(self) -> Optional[_Motif]:
        hints = self._hints
        if hints is None:
            hints = infer_motifs(self.activities)
        best: Optional[_Motif] = None
        for hint in hints:
            self.stats.motifs_found += 1
            motif = self._validate_motif(dict(hint))
            if motif is None:
                continue
            self.stats.motifs_validated += 1
            if best is None or motif.period * motif.count > (
                best.period * best.count
            ):
                best = motif
        return best

    # ---------------------------------------------------------------- run

    def run(self) -> List[Span]:
        """Execute the DAG; spans bit-identical to ``Engine.run()``.

        Cyclic garbage collection is paused for the duration of the run
        (and restored afterwards): the composed path bulk-allocates one
        span per activity, all of which survive, and on 10^5-activity
        programs the generational collector otherwise re-scans the
        entire live heap dozens of times for zero reclaimed garbage —
        more than doubling replay time.
        """
        t0 = _time.perf_counter()
        motif = self._compile() if self._prepare() else None
        self.stats.compile_seconds = _time.perf_counter() - t0
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            if motif is None:
                if self.stats.fallback is None:
                    self.stats.fallback = "no-motif"
                spans = Engine(self.activities, self.shared_capacities).run()
                self._publish()
                return spans
            self.stats.instances_total = motif.count
            spans = self._run_composed(motif)
        finally:
            if gc_was_enabled:
                _gc.enable()
        self._publish()
        return spans

    def _publish(self) -> None:
        """Emit compile stats as observability counters.

        Only deterministic work counts are published, and only when
        non-zero: wall time (``stats.compile_seconds``) would make
        exports differ run to run, and a ``+0`` would create series a
        serial run exports but pooled registry deltas omit.
        """
        stats = self.stats
        reg = _registry()
        reg.inc("compile.runs")
        for name, value in (
            ("compile.motifs_found", stats.motifs_found),
            ("compile.motifs_validated", stats.motifs_validated),
            ("compile.instances_composed", stats.instances_composed),
            ("compile.instances_simulated", stats.instances_simulated),
            ("compile.activities_composed", stats.activities_composed),
        ):
            if value:
                reg.inc(name, float(value))
        if stats.fallback is not None:
            reg.inc("compile.fallbacks", labels={"reason": stats.fallback})

    # ------------------------------------------------------- composed run

    @staticmethod
    def _sorted_spans(spans: List[Span]) -> List[Span]:
        """Engine-identical final order: sort by ``(start, aid)``."""
        n = len(spans)
        if n < 2:
            return spans
        starts = np.fromiter((s.start for s in spans), np.float64, count=n)
        aids = np.fromiter((s.aid for s in spans), np.int64, count=n)
        order = np.lexsort((aids, starts))
        return [spans[k] for k in order.tolist()]

    def _run_composed(self, motif: _Motif) -> List[Span]:
        state = _LoopState(self, motif)
        lock = state.run_until_lock()
        if lock is None:
            # The program finished (or the motif misbehaved dynamically)
            # before consecutive instances matched.
            if self.stats.fallback is None:
                self.stats.fallback = "no-lock-in"
            self.stats.instances_simulated = self.stats.instances_total
            return self._sorted_spans(state.spans)
        j_stop = self._compose_limit(motif, lock, state)
        if j_stop <= lock.boundary:
            # Nothing to skip: resume the live loop as if never paused.
            self.stats.fallback = "composition-window-empty"
            self.stats.instances_simulated = self.stats.instances_total
            state.run_to_completion()
            return self._sorted_spans(state.spans)
        composed = j_stop - lock.boundary
        if not state.replay(lock, j_stop):
            # Floating-point tie-pattern changed mid-replay: the steady
            # template is no longer exact. Start over, uncomposed.
            self.stats.fallback = "fp-absorption"
            self.stats.instances_simulated = self.stats.instances_total
            self.stats.instances_composed = 0
            state.discard_observations()
            return Engine(self.activities, self.shared_capacities).run()
        self.stats.instances_composed = composed
        self.stats.instances_simulated = self.stats.instances_total - composed
        self.stats.activities_composed = composed * motif.period
        state.resume_from(lock, j_stop)
        state.run_to_completion()
        return self._sorted_spans(state.spans)

    def _compose_limit(
        self, motif: _Motif, lock: "_Lock", state: "_LoopState"
    ) -> int:
        """Last instance index whose block may be replayed.

        Replaying block ``j`` emits events for instances up to
        ``j + max_delta`` (which must exist), and is only faithful while
        no activity outside the motif becomes ready: the first block in
        which an epilogue activity's final dependency completes is where
        the real event stream departs from the template.
        """
        first, period, count = motif.first, motif.period, motif.count
        end = motif.end
        j_struct = count - 1 - lock.max_delta
        if first == 0 and end == self._n:
            return j_struct
        # Completion-block offsets per slot: activity (slot, q)
        # completes in block q - comp_delta[slot].
        comp_delta = lock.comp_delta
        acts = self.activities
        done = state.done
        perturb = count  # effectively +inf
        ready_block: Dict[int, int] = {}
        for outside in (range(0, first), range(end, self._n)):
            for i in outside:
                if done[i]:
                    continue
                block = -1
                unconstrained = True
                for d in set(acts[i].deps):
                    if done[d]:
                        continue
                    unconstrained = False
                    if first <= d < end:
                        q, s = divmod(d - first, period)
                        block = max(block, q - comp_delta[s])
                    else:
                        # A chained (or forward) non-motif dependency:
                        # use its readiness block when known, otherwise
                        # assume it could fire immediately — conservative
                        # either way, because an underestimate only
                        # shrinks the composition window.
                        block = max(block, ready_block.get(d, -1))
                if unconstrained:
                    # All deps done yet the activity is not running or
                    # parked: it would be alive in the engine state,
                    # which the lock fingerprint rejected — unreachable,
                    # but keep the conservative reading.
                    block = -1
                ready_block[i] = block
                if block < perturb:
                    perturb = block
        return min(j_struct, perturb - 1)


class _Lock:
    """The steady-state template captured at lock-in."""

    __slots__ = (
        "boundary",        # instance index whose block is the template
        "block_start_it",  # first iteration index of the template block
        "events",          # [(starts, dt, tie, comps)] in shift coords
        "max_delta",       # deepest instance look-ahead in the template
        "comp_delta",      # per-slot completion block offset
        "state",           # canonical boundary fingerprint (shift coords)
    )

    def __init__(self):
        self.boundary = -1
        self.block_start_it = -1
        self.events: List[tuple] = []
        self.max_delta = 0
        self.comp_delta: List[int] = []
        self.state = None


class _LoopState:
    """The event loop of :class:`Engine`, recording and resumable.

    This mirrors ``Engine._run``'s no-failure path operation for
    operation (same heap entries, same left-to-right shared-total
    accumulation, same completion thresholds, same wake cascades) so
    spans stay bit-identical; ``tests/test_compiled_engine`` pins that.
    On top it tracks per-iteration event records and instance-completion
    boundaries, and can rebuild its structures from a template
    fingerprint to resume after replayed blocks.

    Resource tables and per-activity exclusive/shared structures are
    interned lazily, on first touch: activities whose spans come from
    the composed path never pay for it.
    """

    def __init__(self, owner: CompiledEngine, motif: _Motif):
        self.owner = owner
        self.motif = motif
        acts = owner.activities
        n = owner._n
        self.durations: List[float] = owner._durations.tolist()
        # Lazily-interned per-activity structures and resource tables.
        self.res_index: Dict[str, int] = {}
        self.exclusives: List[Optional[Tuple[int, ...]]] = [None] * n
        self.shareds: List[Optional[Dict[int, float]]] = [None] * n
        self.busy: List[bool] = []
        self.wait_q: List[list] = []
        self.members: List[Dict[int, float]] = []
        self.factors: List[float] = []
        self.capacities: List[Optional[float]] = []
        self._build_deps()
        self.running: Dict[int, List[float]] = {}
        self.wake_origin: Dict[int, int] = {}
        self.changed: set = set()
        self.spans: List[Span] = []
        self.finished = 0
        self.now = 0.0
        self.observed = _wait_sink()
        self._obs_base = len(self.observed) if self.observed is not None else 0
        self.steps = 0
        self.max_steps = 10 * n + 100
        # --- recording side ---
        self.times: List[float] = []           # time after each iteration
        self.ready_iter: List[int] = [-1] * n  # iteration that readied i
        self.start_iter: List[int] = [0] * n
        self.start_time = np.zeros(n, dtype=np.float64)
        self.done = bytearray(n)
        self.it = -1
        self.inst_done = [0] * motif.count
        self.next_boundary = 0
        self.max_touched = -1
        self.motif_dead = False
        self._cols: Optional[tuple] = None

    def _columns(self) -> tuple:
        """Per-activity attribute columns for bulk span materialization.

        Built on first use by one sequential pass per attribute over the
        activity list (cache-friendly), then reused by every replay.
        """
        cols = self._cols
        if cols is None:
            acts = self.owner.activities
            cols = (
                [a.label for a in acts],
                [a.meta for a in acts],
            )
            self._cols = cols
        return cols

    def _build_deps(self) -> None:
        """Dependency counters, reverse edges, and the initial ready heap.

        Full-cover trusted motifs (``repeat_program`` output) derive
        everything from one steady instance: per-slot dependency counts
        and per-slot relative children, applied by shift arithmetic on
        demand. Anything else gets the engine's eager O(activities)
        reverse-edge build.
        """
        owner = self.owner
        acts = owner.activities
        n = owner._n
        motif = self.motif
        p = motif.period
        count = motif.count
        if motif.trusted and motif.first == 0 and motif.end == n and count >= 3:
            # Children offsets relative to an instance base, valid for
            # instances 0..count-2 (scan instances 1 and 2: intra-
            # instance children plus next-instance entry edges — the
            # trusted shift-isomorphism makes the pattern universal,
            # including instance 0, whose own deps differ but whose
            # children pattern does not).
            rel: List[List[int]] = [[] for _ in range(p)]
            for j in range(p, 3 * p):
                for d in set(acts[j].deps):
                    if d < 0 or d >= n:
                        raise SimulationError(
                            f"activity {acts[j].label!r} depends on "
                            f"unknown id {d}"
                        )
                    if p <= d < 2 * p:
                        rel[d - p].append(j - p)
            # The last instance has no successor: intra edges only.
            rel_last = [[o for o in offs if o < p] for offs in rel]
            self._rel = rel
            self._rel_last = rel_last
            counts0 = []
            for s in range(p):
                for d in set(acts[s].deps):
                    if d < 0 or d >= n:
                        raise SimulationError(
                            f"activity {acts[s].label!r} depends on "
                            f"unknown id {d}"
                        )
                counts0.append(len(set(acts[s].deps)))
            counts1 = [len(set(acts[p + s].deps)) for s in range(p)]
            dep_count = counts0 + counts1 * (count - 1)
            self.dep_count = dep_count
            roots = [s for s in range(p) if not counts0[s]]
            if any(not c for c in counts1):
                free = [s for s in range(p) if not counts1[s]]
                for k in range(1, count):
                    base = k * p
                    roots.extend(base + s for s in free)
            self._children = self._template_children
        else:
            dependents: List[List[int]] = [[] for _ in range(n)]
            dep_count = [0] * n
            for i, act in enumerate(acts):
                unique = set(act.deps)
                dep_count[i] = len(unique)
                for d in unique:
                    if d < 0 or d >= n:
                        raise SimulationError(
                            f"activity {act.label!r} depends on "
                            f"unknown id {d}"
                        )
                    dependents[d].append(i)
            self.dep_count = dep_count
            roots = [i for i in range(n) if not dep_count[i]]
            self._children = dependents.__getitem__
        self.ready_heap: List[Tuple[float, int, int]] = [
            (0.0, i, i) for i in roots
        ]
        heapq.heapify(self.ready_heap)

    def _template_children(self, i: int) -> List[int]:
        p = self.motif.period
        k, s = divmod(i, p)
        base = i - s
        offs = self._rel[s] if k < self.motif.count - 1 else self._rel_last[s]
        return [base + o for o in offs]

    def _intern(self, i: int) -> None:
        """First-touch interning of activity ``i``'s resource structure."""
        act = self.owner.activities[i]
        res_index = self.res_index
        excl = []
        for name in act.exclusive:
            r = res_index.get(name)
            if r is None:
                r = self._add_resource(name)
            excl.append(r)
        self.exclusives[i] = tuple(excl)
        shared: Dict[int, float] = {}
        for name, demand in act.shared.items():
            r = res_index.get(name)
            if r is None:
                r = self._add_resource(name)
            shared[r] = demand
        self.shareds[i] = shared

    def _add_resource(self, name: str) -> int:
        r = self.res_index[name] = len(self.res_index)
        self.busy.append(False)
        self.wait_q.append([])
        self.members.append({})
        self.factors.append(1.0)
        self.capacities.append(self.owner.shared_capacities.get(name))
        return r

    def discard_observations(self) -> None:
        """Drop queue waits recorded by an aborted composed attempt."""
        if self.observed is not None:
            del self.observed[self._obs_base:]

    # -------------------------------------------------------- event loop

    def _iterate(self, record: bool):
        """One engine iteration, mirroring ``Engine._run``'s loop body.

        Returns ``("done", None, None)`` when the program completed,
        ``("boundary", q, event)`` when instance ``q``'s completion
        boundary was crossed, else ``("step", event, None)``. ``event``
        is the iteration record ``(starts, dt, tie, completions)`` when
        ``record`` is set, else ``None``.
        """
        owner = self.owner
        exclusives = self.exclusives
        shareds = self.shareds
        running = self.running
        busy = self.busy
        wait_q = self.wait_q
        wake_origin = self.wake_origin
        members = self.members
        changed = self.changed
        heappush = heapq.heappush
        heappop = heapq.heappop
        ready_heap = self.ready_heap
        observed = self.observed
        now = self.now
        durations = self.durations
        acts = owner.activities
        n_acts = owner._n

        self.steps += 1
        if self.steps > self.max_steps:
            raise SimulationError(
                "simulation did not converge (internal error)"
            )

        ev_starts: List[Tuple[int, int]] = []
        it_next = self.it + 1
        start_iter = self.start_iter
        start_time = self.start_time
        ready_iter = self.ready_iter
        while ready_heap:
            item = heappop(ready_heap)
            i = item[2]
            origin = wake_origin.pop(i, -1) if wake_origin else -1
            exclusive = exclusives[i]
            if exclusive is None:
                self._intern(i)
                exclusive = exclusives[i]
            blocked_on = -1
            for r in exclusive:
                if busy[r]:
                    blocked_on = r
                    break
            if blocked_on >= 0:
                heappush(wait_q[blocked_on], item)
                if origin >= 0 and not busy[origin]:
                    queue = wait_q[origin]
                    if queue:
                        nxt = heappop(queue)
                        wake_origin[nxt[2]] = origin
                        heappush(ready_heap, nxt)
                continue
            for r in exclusive:
                busy[r] = True
            if observed is not None:
                observed.append((acts[i].kind, now - item[0]))
            duration = durations[i]
            running[i] = [
                now,
                duration if duration > 0.0 else 0.0,
                _EPS * (duration if duration > 1.0 else 1.0),
                1.0,
            ]
            shared = shareds[i]
            if shared:
                for r, demand in shared.items():
                    members[r][i] = demand
                    changed.add(r)
            start_iter[i] = it_next
            start_time[i] = now
            if record:
                ev_starts.append((i, ready_iter[i]))

        if not running:
            unresolved = [
                acts[i].label for i in range(n_acts) if self.dep_count[i]
            ]
            if unresolved:
                raise SimulationError(
                    f"dependency cycle or starvation among: {unresolved[:5]}"
                )
            if self.finished == n_acts:
                return ("done", None, None)
            raise SimulationError("no runnable activities but work remains")

        if changed:
            dirty: set = set()
            factors = self.factors
            capacities = self.capacities
            for r in changed:
                consumers = members[r]
                if not consumers:
                    continue
                total = 0.0
                for demand in consumers.values():
                    total = total + demand
                capacity = capacities[r]
                if capacity is None or total <= capacity or total <= 0:
                    factors[r] = 1.0
                else:
                    factors[r] = capacity / total
                dirty.update(consumers)
            changed.clear()
            for i in dirty:
                state = running.get(i)
                if state is None:
                    continue
                rate = 1.0
                for r in shareds[i]:
                    factor = factors[r]
                    if factor < rate:
                        rate = factor
                state[3] = rate if rate > _EPS else _EPS

        dt = float("inf")
        for state in running.values():
            quotient = state[1] / state[3]
            if quotient < dt:
                dt = quotient
        if dt < 0:
            raise SimulationError("negative time step (internal error)")
        prev_now = now
        now += dt
        self.now = now
        self.it = it_next
        self.times.append(now)
        completed: List[int] = []
        for i, state in running.items():
            remaining = state[1] - state[3] * dt
            state[1] = remaining
            if remaining <= state[2]:
                completed.append(i)

        motif = self.motif
        first, period, end = motif.first, motif.period, motif.end
        boundary = -1
        done = self.done
        spans = self.spans
        dep_count = self.dep_count
        children_of = self._children
        inst_done = self.inst_done
        freed: List[int] = []
        for i in completed:
            state = running.pop(i)
            act = acts[i]
            for r in exclusives[i]:
                busy[r] = False
                freed.append(r)
            shared = shareds[i]
            if shared:
                for r in shared:
                    del members[r][i]
                    changed.add(r)
            spans.append(
                Span(
                    i, act.label, act.kind, state[0], now,
                    act.exclusive, act.meta,
                )
            )
            self.finished += 1
            done[i] = 1
            if first <= i < end:
                q = (i - first) // period
                if q > self.max_touched:
                    self.max_touched = q
                filled = inst_done[q] + 1
                inst_done[q] = filled
                if filled == period:
                    if q != self.next_boundary or boundary >= 0:
                        # Out-of-order or simultaneous boundaries: the
                        # steady-state model does not apply; keep
                        # simulating without composition.
                        self.motif_dead = True
                    else:
                        boundary = q
                        self.next_boundary = q + 1
            for child in children_of(i):
                count = dep_count[child] - 1
                dep_count[child] = count
                if not count:
                    heappush(ready_heap, (now, child, child))
                    ready_iter[child] = it_next
        for r in freed:
            queue = wait_q[r]
            if queue:
                nxt = heappop(queue)
                wake_origin[nxt[2]] = r
                heappush(ready_heap, nxt)

        event = None
        if record:
            event = (tuple(ev_starts), dt, now == prev_now, tuple(completed))
        if boundary >= 0 and not self.motif_dead:
            return ("boundary", boundary, event)
        return ("step", event, None)

    def run_to_completion(self) -> None:
        """Drain the loop without recording (tail instances, epilogue)."""
        while self._iterate(False)[0] != "done":
            pass

    # ------------------------------------------------------------ lock-in

    def run_until_lock(self) -> Optional[_Lock]:
        """Simulate with recording until consecutive instance boundaries
        are shift-isomorphic; returns the template or ``None`` when the
        program finished (or composition became impossible) first.

        Lock-in needs two consecutive boundaries with identical
        canonical state fingerprints: determinism plus shift-isomorphic
        remaining structure then forces every later block to repeat the
        one just recorded. For unverified (untrusted, signature-scanned)
        motifs that's already established; the recorded event blocks
        must match too, as a belt-and-suspenders dynamic check.
        """
        trusted = self.motif.trusted
        cur_events: List[tuple] = []
        block_start_it = 0
        prev: Optional[Tuple[Optional[list], Optional[tuple]]] = None
        while True:
            tag, a, b = self._iterate(True)
            if tag == "done":
                return None
            if tag == "step":
                if self.motif_dead:
                    self.run_to_completion()
                    return None
                cur_events.append(a)
                continue
            q = a
            cur_events.append(b)
            canon = self._canon_block(cur_events, q, block_start_it)
            fp = self._fingerprint(q) if canon is not None else None
            if (
                prev is not None
                and fp is not None
                and prev[1] == fp
                and (trusted or prev[0] == canon)
            ):
                lock = self._make_lock(q, block_start_it, canon, fp)
                if lock is not None:
                    return lock
            prev = (canon, fp)
            cur_events = []
            block_start_it = self.it + 1

    def _canon_block(self, events, q: int, block_start_it: int):
        """Instance block in shift coordinates; ``None`` if it touches
        anything outside the motif (then this boundary cannot lock)."""
        motif = self.motif
        first, period, end = motif.first, motif.period, motif.end
        out = []
        for starts, dt, tie, comps in events:
            cs = []
            for i, ri in starts:
                if not first <= i < end or ri < 0:
                    return None
                inst, slot = divmod(i - first, period)
                delta = inst - q
                if delta < 0 or delta > MAX_LOOKAHEAD:
                    return None
                cs.append((slot, delta, ri - block_start_it))
            cc = []
            for i in comps:
                if not first <= i < end:
                    return None
                inst, slot = divmod(i - first, period)
                delta = inst - q
                if delta < 0 or delta > MAX_LOOKAHEAD:
                    return None
                cc.append((slot, delta))
            out.append((tuple(cs), dt, tie, tuple(cc)))
        return out

    def _fingerprint(self, q: int):
        """Canonical engine state at instance ``q``'s boundary.

        Everything the event loop will ever read again, in shift
        coordinates: the running table (insertion order, remaining/
        threshold/rate values, start-iteration offsets), ready heap and
        wait queues (as sorted multisets — heap pop order is layout-
        independent), wake origins, shared-membership insertion order,
        contention factors of populated resources, the changed set, and
        the done flags of partially-executed future instances. ``None``
        when any non-motif activity is still alive — those boundaries
        cannot be steady.
        """
        motif = self.motif
        first, period, end = motif.first, motif.period, motif.end
        count = motif.count
        it_b = self.it
        lookahead = self.max_touched - q
        if lookahead > MAX_LOOKAHEAD:
            return None
        start_iter = self.start_iter
        ready_iter = self.ready_iter

        def coord(i: int):
            if not first <= i < end:
                return None
            inst, slot = divmod(i - first, period)
            delta = inst - q
            if delta < 0 or delta > MAX_LOOKAHEAD:
                return None
            return slot, delta

        run_items = []
        for i, st in self.running.items():
            c = coord(i)
            if c is None:
                return None
            run_items.append(
                (c[0], c[1], start_iter[i] - it_b, st[1], st[2], st[3])
            )
        heap_items = []
        for item in self.ready_heap:
            i = item[2]
            c = coord(i)
            if c is None or ready_iter[i] < 0:
                return None
            heap_items.append((c[0], c[1], ready_iter[i] - it_b))
        heap_items.sort()
        waitq_items = []
        for r, queue in enumerate(self.wait_q):
            if not queue:
                continue
            entries = []
            for item in queue:
                i = item[2]
                c = coord(i)
                if c is None or ready_iter[i] < 0:
                    return None
                entries.append((c[0], c[1], ready_iter[i] - it_b))
            entries.sort()
            waitq_items.append((r, tuple(entries)))
        wake_items = []
        for i, r in self.wake_origin.items():
            c = coord(i)
            if c is None:
                return None
            wake_items.append((c[0], c[1], r))
        wake_items.sort()
        member_items = []
        factor_items = []
        for r, consumers in enumerate(self.members):
            if not consumers:
                continue
            entry = []
            for i in consumers:
                c = coord(i)
                if c is None:
                    return None
                entry.append(c)
            member_items.append((r, tuple(entry)))
            factor_items.append((r, self.factors[r]))
        done = self.done
        pattern = tuple(
            tuple(done[first + (q + d) * period + s] for s in range(period))
            for d in range(1, lookahead + 1)
            if q + d < count
        )
        return (
            tuple(run_items),
            tuple(heap_items),
            tuple(waitq_items),
            tuple(wake_items),
            tuple(member_items),
            tuple(factor_items),
            tuple(sorted(self.changed)),
            pattern,
        )

    def _make_lock(self, q, block_start_it, canon, fp) -> Optional[_Lock]:
        """Assemble the template; reject degenerate steady states.

        A valid steady block starts and completes each motif slot
        exactly once (one instance's worth of work per block) — anything
        else means the "steady" match was coincidental.
        """
        period = self.motif.period
        if not canon:
            return None
        start_slots: Dict[int, int] = {}
        comp_slots: Dict[int, int] = {}
        max_delta = 0
        for starts, _dt, _tie, comps in canon:
            for slot, delta, _roff in starts:
                if slot in start_slots:
                    return None
                start_slots[slot] = delta
                if delta > max_delta:
                    max_delta = delta
            for slot, delta in comps:
                if slot in comp_slots:
                    return None
                comp_slots[slot] = delta
                if delta > max_delta:
                    max_delta = delta
        if len(start_slots) != period or len(comp_slots) != period:
            return None
        for item in fp[0]:
            if item[1] > max_delta:
                max_delta = item[1]
        for item in fp[1]:
            if item[1] > max_delta:
                max_delta = item[1]
        for _r, entries in fp[2]:
            for item in entries:
                if item[1] > max_delta:
                    max_delta = item[1]
        for item in fp[3]:
            if item[1] > max_delta:
                max_delta = item[1]
        for _r, entries in fp[4]:
            for item in entries:
                if item[1] > max_delta:
                    max_delta = item[1]
        lock = _Lock()
        lock.boundary = q
        lock.block_start_it = block_start_it
        lock.events = canon
        lock.max_delta = max_delta
        lock.comp_delta = [comp_slots[s] for s in range(period)]
        lock.state = fp
        return lock

    # ------------------------------------------------------------- replay

    def replay(self, lock: _Lock, j_stop: int) -> bool:
        """Emit blocks ``boundary+1 .. j_stop`` from the template.

        Times are re-accumulated with the frozen per-event dts in the
        engine's own summation order (a single ``cumsum`` seeded with
        the current clock — bit-identical to the sequential loop), so
        every replayed span boundary carries the exact bits full
        simulation would produce. Returns ``False`` if the recorded
        time-tie pattern is violated (floating-point absorption would
        change heap ordering) — the caller then falls back to full
        simulation. The fast path below never mutates state before that
        verdict; the wait-recording variant mirrors the live loop
        instead, because queue-wait observations interleave with span
        emission.
        """
        if self.observed is not None:
            return self._replay_recording(lock, j_stop)
        motif = self.motif
        first, period = motif.first, motif.period
        events = lock.events
        n_events = len(events)
        n_blocks = j_stop - lock.boundary
        # Per-block template arrays, in event order.
        dts = np.fromiter((e[1] for e in events), np.float64, count=n_events)
        ties = np.fromiter((e[2] for e in events), np.bool_, count=n_events)
        s_off: List[int] = []   # slot + delta*period, start entries
        s_evt: List[int] = []   # owning event index
        c_off: List[int] = []   # slot + delta*period, completion entries
        c_evt: List[int] = []
        for e, (starts, _dt, _tie, _comps) in enumerate(events):
            for slot, delta, _roff in starts:
                s_off.append(delta * period + slot)
                s_evt.append(e)
        for e, (_starts, _dt, _tie, comps) in enumerate(events):
            for slot, delta in comps:
                c_off.append(delta * period + slot)
                c_evt.append(e)
        # One sequential accumulation for every replayed event:
        # buf = [now, dt, dt, ...]; cumsum matches `now += dt` bit-wise.
        buf = np.empty(n_blocks * n_events + 1, dtype=np.float64)
        buf[0] = self.now
        buf[1:] = np.tile(dts, n_blocks)
        full = np.cumsum(buf)
        observed_ties = full[1:] == full[:-1]
        if not np.array_equal(observed_ties, np.tile(ties, n_blocks)):
            return False
        # Absolute activity ids and times, all blocks at once.
        rows = (
            first
            + np.arange(lock.boundary + 1, j_stop + 1, dtype=np.int64) * period
        )
        ev_base = np.arange(n_blocks, dtype=np.int64)[:, None] * n_events
        s_gis = (rows[:, None] + np.asarray(s_off, dtype=np.int64)).ravel()
        s_t = full[(ev_base + np.asarray(s_evt, dtype=np.int64)).ravel()]
        start_time = self.start_time
        start_time[s_gis] = s_t
        c_gis = (rows[:, None] + np.asarray(c_off, dtype=np.int64)).ravel()
        c_t = full[(ev_base + np.asarray(c_evt, dtype=np.int64) + 1).ravel()]
        np.frombuffer(self.done, dtype=np.uint8)[c_gis] = 1
        # Materialize the spans (the only per-activity Python work):
        # block-major argument lists fed to ``map(Span._make, zip(...))``
        # so the span records are built by the C-level tuple machinery.
        # Attribute columns come from one sequential pass over the
        # activities (:meth:`_columns`) and are gathered list-to-list —
        # chasing 10^5 ``Activity`` objects in replay order thrashes the
        # cache. Trusted motifs (``repeat_program`` clones) share their
        # ``kind`` strings and ``exclusive`` tuples across instances, so
        # those columns are a per-block template repeated by list
        # multiplication.
        labels_all, metas_all = self._columns()
        acts = self.owner.activities
        gis = c_gis.tolist()
        if motif.trusted:
            t_acts = [acts[g] for g in gis[: len(c_off)]]
            kinds = [a.kind for a in t_acts] * n_blocks
            excls = [a.exclusive for a in t_acts] * n_blocks
        else:
            acts_g = [acts[g] for g in gis]
            kinds = [a.kind for a in acts_g]
            excls = [a.exclusive for a in acts_g]
        self.spans.extend(
            map(
                Span._make,
                zip(
                    gis,
                    [labels_all[g] for g in gis],
                    kinds,
                    start_time[c_gis].tolist(),
                    c_t.tolist(),
                    excls,
                    [metas_all[g] for g in gis],
                ),
            )
        )
        self.times.extend(full[1:].tolist())
        self.finished += n_blocks * period
        self.now = float(full[-1])
        self.it = len(self.times) - 1
        return True

    def _replay_recording(self, lock: _Lock, j_stop: int) -> bool:
        """Replay variant that also emits queue-wait observations."""
        motif = self.motif
        first, period = motif.first, motif.period
        events = lock.events
        times = self.times
        observed = self.observed
        spans = self.spans
        acts = self.owner.activities
        done = self.done
        start_time = self.start_time
        now = self.now
        finished = self.finished
        for j in range(lock.boundary + 1, j_stop + 1):
            block_start = len(times)
            row = first + j * period
            for starts, dt, tie, comps in events:
                for slot, delta, roff in starts:
                    gi = row + delta * period + slot
                    start_time[gi] = now
                    ref = block_start + roff
                    rt = times[ref] if ref >= 0 else 0.0
                    observed.append((acts[gi].kind, now - rt))
                prev = now
                now = now + dt
                if (now == prev) != tie:
                    self.now = now
                    self.it = len(times) - 1
                    return False
                times.append(now)
                for slot, delta in comps:
                    gi = row + delta * period + slot
                    act = acts[gi]
                    spans.append(
                        Span(
                            gi, act.label, act.kind,
                            float(start_time[gi]), now,
                            act.exclusive, act.meta,
                        )
                    )
                    done[gi] = 1
                    finished += 1
        self.now = now
        self.finished = finished
        self.it = len(times) - 1
        return True

    def resume_from(self, lock: _Lock, j_stop: int) -> None:
        """Rebuild live engine state at boundary ``j_stop`` from the
        template fingerprint and the replayed absolute times."""
        owner = self.owner
        motif = self.motif
        first, period = motif.first, motif.period
        acts = owner.activities
        times = self.times
        it_res = len(times) - 1
        self.it = it_res
        n = owner._n
        n_res = len(self.busy)
        (run_items, heap_items, waitq_items, wake_items,
         member_items, factor_items, changed_items, _pattern) = lock.state

        def gi_of(slot: int, delta: int) -> int:
            return first + (j_stop + delta) * period + slot

        def t_of(off: int) -> float:
            idx = it_res + off
            return times[idx] if idx >= 0 else 0.0

        running: Dict[int, List[float]] = {}
        busy = [False] * n_res
        for slot, delta, start_off, remaining, threshold, rate in run_items:
            gi = gi_of(slot, delta)
            start_t = t_of(start_off - 1)
            running[gi] = [start_t, remaining, threshold, rate]
            self.start_iter[gi] = it_res + start_off
            self.start_time[gi] = start_t
            if self.exclusives[gi] is None:
                self._intern(gi)
            for r in self.exclusives[gi]:
                busy[r] = True
        ready_heap = []
        for slot, delta, roff in heap_items:
            gi = gi_of(slot, delta)
            self.ready_iter[gi] = it_res + roff
            ready_heap.append((t_of(roff), gi, gi))
        heapq.heapify(ready_heap)
        wait_q: List[list] = [[] for _ in range(n_res)]
        for r, entries in waitq_items:
            parked = []
            for slot, delta, roff in entries:
                gi = gi_of(slot, delta)
                self.ready_iter[gi] = it_res + roff
                parked.append((t_of(roff), gi, gi))
            heapq.heapify(parked)
            wait_q[r] = parked
        wake_origin: Dict[int, int] = {}
        for slot, delta, r in wake_items:
            wake_origin[gi_of(slot, delta)] = r
        members: List[Dict[int, float]] = [{} for _ in range(n_res)]
        for r, entries in member_items:
            table = members[r]
            for slot, delta in entries:
                gi = gi_of(slot, delta)
                if self.shareds[gi] is None:
                    self._intern(gi)
                table[gi] = self.shareds[gi][r]
        factors = [1.0] * n_res
        for r, value in factor_items:
            factors[r] = value
        # Dependency recount: only not-yet-done activities can still be
        # waiting, and after composition those are the drain instances
        # plus the epilogue — a direct scan over the survivors beats
        # a full-program recount.
        done = self.done
        dep_count = [0] * n
        remaining_ids = np.flatnonzero(
            np.frombuffer(done, dtype=np.uint8) == 0
        ).tolist()
        for i in remaining_ids:
            if i in running:
                continue
            c = 0
            for d in set(acts[i].deps):
                if 0 <= d < n:
                    if not done[d]:
                        c += 1
                else:
                    raise SimulationError(
                        f"activity {acts[i].label!r} depends on "
                        f"unknown id {d}"
                    )
            dep_count[i] = c
        self.dep_count = dep_count
        self.running = running
        self.busy = busy
        self.ready_heap = ready_heap
        self.wait_q = wait_q
        self.wake_origin = wake_origin
        self.members = members
        self.factors = factors
        self.changed = set(changed_items)
        self.now = times[-1]


# --------------------------------------------------------------------------
# Engine selection
# --------------------------------------------------------------------------

#: Valid engine names for ``Program.execute`` / ``cluster.simulate`` /
#: the CLI ``--engine`` flag.
ENGINE_NAMES = ("heap", "compiled")

_default_engine: Optional[str] = None


def default_engine() -> str:
    """The process-wide engine choice.

    Resolution order: :func:`set_default_engine`, then the
    ``REPRO_ENGINE`` environment variable, then ``"heap"``.
    """
    if _default_engine is not None:
        return _default_engine
    import os

    env = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if env in ENGINE_NAMES:
        return env
    return "heap"


def set_default_engine(name: Optional[str]) -> None:
    """Set (or with ``None`` reset) the process-wide engine choice."""
    global _default_engine
    if name is not None and name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
        )
    _default_engine = name
