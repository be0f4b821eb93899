"""Deterministic fault & variability injection over the simulator.

The paper's evaluation assumes perfectly uniform chips and links. This
package perturbs the simulated cluster — compute stragglers, degraded
links, launch jitter, transient link outages — as a seeded, fully
reproducible rewrite of activity durations at the program/engine
boundary:

* :class:`FaultSpec` — the cluster-level description (how many
  stragglers, how severe, ...), sampled deterministically from a seed;
* :class:`FaultPlan` — the reduced representative-chip perturbation
  the simulator consumes; ``plan.apply(program)`` (or
  ``program.run(faults=plan)`` / ``simulate(program, hw, faults=plan)``)
  executes a program under it.

A zero-perturbation plan is the identity: it returns the input program
object unchanged, so unfaulted results stay bit-identical to the plain
engine. ``experiments/ablation_faults.py`` sweeps straggler severity
over the paper's algorithms, and a ``mode="robust"``
:class:`repro.service.TuneRequest` (``TuneRequest(...).run()``)
optimizes the p95 makespan over a seeded ensemble of plans.

Hard failures — a chip or link permanently dying mid-run — are first
class too: :func:`chip_down` / :func:`link_down` build
:class:`HardFault` events that a plan carries in ``hard_faults``; the
engine halts at the fault time and surfaces a structured
``SimFailure``. Responses to them (retry/backoff, degraded-mesh
reconfiguration, checkpoint-restart goodput) live in
:mod:`repro.recovery`.

Silent data corruption — a wrong *answer* rather than a wrong
*duration* — is modeled by :class:`SDCPlan` in :mod:`repro.faults.sdc`:
seeded bit flips injected into the functional plane's shard payloads,
detected and corrected by the ABFT checksums of :mod:`repro.abft`.

All three plan families share one seeding convention: every random
draw comes from ``random.Random(seed)`` consumed in a deterministic
order (activities in program order for ``FaultPlan``, sorted chip
coordinates for ``FaultSpec.sample`` and ``SDCPlan``), and
``ensemble(...)`` derives member ``i`` by reseeding to ``seed + i`` —
so sampling is byte-reproducible across processes, hash seeds, and
platforms.
"""

from repro.faults.hard import HardFault, chip_down, earliest, link_down
from repro.faults.plan import NULL_PLAN, FaultPlan
from repro.faults.sdc import NULL_SDC_PLAN, SDC_OPS, SDCEvent, SDCPlan, sdc_injection
from repro.faults.spec import DEFAULT_RETRY_TIMEOUT, FaultSpec

__all__ = [
    "DEFAULT_RETRY_TIMEOUT",
    "FaultPlan",
    "FaultSpec",
    "HardFault",
    "NULL_PLAN",
    "NULL_SDC_PLAN",
    "SDCEvent",
    "SDCPlan",
    "SDC_OPS",
    "chip_down",
    "earliest",
    "link_down",
    "sdc_injection",
]
