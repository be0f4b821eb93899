"""Warm-started mesh/slice search seeded from a stored neighbor.

A production tuning service sees near-duplicate queries: the same
model swept across chip counts, re-tuned per deployment. The mesh the
autotuner picks is stable under such sweeps — the best aspect ratio at
1024 chips is almost always the best (or next-best) at 2048 — so a
stored neighbor's choice is an excellent *visit order* for the
branch-and-bound over candidate shapes: evaluate the neighbor-shaped
candidate first, establish a tight incumbent, then abort every other
candidate's pass-by-pass accumulation the moment its partial sum shows
it cannot win.

The warm search is an *ordering and pruning* optimization only — it
runs the same :func:`repro.autotuner.search.mesh_search` kernel as
:func:`repro.autotuner.search.tune_model` and returns bit-identical
``mesh``, ``passes``, and ``block_seconds``:

* ``tune_mesh`` accumulates partial block times per pass in plan
  order, so completed candidates produce the same float sums bit for
  bit;
* a candidate is abandoned only once its partial sum passes
  :func:`~repro.autotuner.search.cutoff_for` — strictly above the
  incumbent, or equal to it from a later original position (analytical
  pass costs are nonnegative, so the completed total could not have
  won);
* the kernel chooses the winner by ``(block_seconds, original index)``
  whatever the visit order.

``per_mesh_seconds`` is the one reporting field allowed to differ: it
covers only the candidates the warm search finished. Pruning work is
counted under ``service.warmstart.*`` so the serving layer can report
the measured prune ratio.

:func:`resolve` is the store-backed path shared by the tuning service
and the lifetime planner: load a stored plan, else search (warm when a
neighbor exists) and save the result.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.autotuner.dataflow import plan_model
from repro.autotuner.search import (
    TuningResult,
    cutoff_for,
    mesh_search,
    tune_mesh,
)
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D, mesh_shapes
from repro.models.config import LLMConfig
from repro.obs.registry import registry as _metrics
from repro.service.request import TuneRequest, execute

__all__ = ["resolve", "warm_order", "warm_tune"]


def warm_order(
    candidates: Sequence[Mesh2D], neighbor: Mesh2D
) -> List[int]:
    """Candidate indices ordered by aspect-ratio distance to ``neighbor``.

    Distance is ``|log2(rows/cols) - log2(rows'/cols')|`` — the shapes
    a power-of-two sweep maps onto each other. Ties keep the original
    ``mesh_shapes`` order, so a degenerate neighbor still yields a
    deterministic visit order.
    """
    target = math.log2(neighbor.rows / neighbor.cols)
    ranked = sorted(
        range(len(candidates)),
        key=lambda i: (
            abs(math.log2(candidates[i].rows / candidates[i].cols) - target),
            i,
        ),
    )
    return ranked


def warm_tune(
    model: LLMConfig,
    batch_size: int,
    chips: int,
    hw: HardwareParams,
    neighbor_mesh: Optional[Mesh2D],
    optimize_dataflow: bool = True,
    min_mesh_dim: int = 2,
    max_slices: int = 64,
    abft: bool = False,
    sdc_rate: float = 0.0,
) -> TuningResult:
    """Phase-2 search seeded by a stored neighbor's chosen mesh.

    With ``neighbor_mesh=None`` there is nothing to seed from and the
    search degenerates to the cold visit order (still pruning once the
    first candidate completes). The selected mesh, tuned passes, and
    block time are bit-identical to ``tune_model`` either way.
    """
    tokens = model.tokens(batch_size)
    plans = plan_model(model, tokens, optimize_dataflow=optimize_dataflow)
    candidates = mesh_shapes(chips, min_dim=min_mesh_dim)
    if not candidates:
        raise ValueError(f"no candidate mesh shapes for {chips} chips")
    if neighbor_mesh is not None:
        order = warm_order(candidates, neighbor_mesh)
    else:
        order = list(range(len(candidates)))
    passes_per_mesh = sum(len(plan.passes) for plan in plans)

    per_mesh: Dict[Tuple[int, int], float] = {}
    tunings = 0
    prunes = 0

    def evaluate(index: int, incumbent):
        nonlocal tunings, prunes
        mesh = candidates[index]
        cutoff = None if incumbent is None else cutoff_for(incumbent, index)
        tuned, total = tune_mesh(
            plans, mesh, hw, max_slices,
            abft=abft, sdc_rate=sdc_rate, cutoff=cutoff,
        )
        tunings += len(tuned)
        if cutoff is not None and total > cutoff:
            prunes += passes_per_mesh - len(tuned)
            return None
        per_mesh[mesh.shape] = total
        return total, tuned

    (seconds, index), tuned = mesh_search(order, evaluate)
    reg = _metrics()
    reg.inc("tuner.runs", labels={"model": model.name})
    reg.inc("tuner.meshes_searched", float(len(candidates)))
    reg.inc("service.warmstart.runs")
    reg.inc("service.warmstart.pass_tunings", float(tunings))
    reg.inc("service.warmstart.pass_prunes", float(prunes))
    return TuningResult(
        mesh=candidates[index],
        passes=tuple(tuned),
        block_seconds=seconds,
        per_mesh_seconds=per_mesh,
    )


def resolve(
    canonical: TuneRequest,
    store,
    warm_start: bool = True,
    on_lookup: Optional[Callable[[bool], None]] = None,
):
    """Answer a canonical request from ``store``, else search and save.

    A stored plan is returned as loaded. On a miss, a ``mode="tune"``
    request with a stored nearest neighbor runs :func:`warm_tune`
    seeded from the neighbor's mesh (unless ``warm_start`` is off);
    anything else runs cold through
    :func:`~repro.service.request.execute`. The result is saved back.
    ``on_lookup(hit)`` is told the outcome of the store lookup, before
    any search. With ``store=None`` this is a plain ``execute``.
    """
    neighbor = None
    if store is not None:
        stored = store.load(canonical)
        if on_lookup is not None:
            on_lookup(stored is not None)
        if stored is not None:
            return stored
        if warm_start and canonical.mode == "tune":
            neighbor = store.nearest_neighbor(canonical)
    if neighbor is None:
        result = execute(canonical)
    else:
        _metrics().inc("service.warmstart.seeded")
        result = warm_tune(
            canonical.model,
            canonical.batch,
            canonical.chips,
            canonical.hw,
            neighbor_mesh=neighbor.result.mesh,
            optimize_dataflow=canonical.optimize_dataflow,
            min_mesh_dim=canonical.min_mesh_dim,
            max_slices=canonical.max_slices,
            abft=canonical.abft,
            sdc_rate=canonical.sdc_rate,
        )
    if store is not None:
        store.save(canonical, result)
    return result
