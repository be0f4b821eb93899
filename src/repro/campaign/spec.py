"""Campaign specs: the one definition of an experiment's grid.

A :class:`CampaignSpec` is the contract every experiment module
publishes (as a module-level ``CAMPAIGN`` constant). Both entry points
derive from it: ``meshslice run`` maps ``point`` over ``points()`` in
process (:func:`repro.experiments.common.spec_rows`), and the campaign
runner maps the same function over the same grid point by point into a
durable store. The two render through the same ``render``, so a live
run and a stored report cannot drift.

* ``points(**params)`` builds the grid — with no arguments, the
  paper's default; its keywords are the module ``run()``'s — as
  encodable values (see :mod:`repro.campaign.codec`);
* ``point`` is the **module-level, picklable** function mapping one
  coordinate to its result row(s) — the unit of durability, retry,
  and process-pool distribution;
* ``render(rows)`` turns the accumulated rows back into the module's
  human-readable report, so ``meshslice campaign report`` reproduces
  the figure table from the store alone.

This module deliberately imports nothing from ``repro.experiments`` —
the experiments import *it*, and the registry in
:mod:`repro.campaign.registry` closes the loop lazily.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Sequence

__all__ = ["CampaignSpec"]


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One experiment's campaign contract.

    Args:
        name: Campaign name; by convention the experiment's registry
            name (``"fig9"``, ``"ablation-sdc"``, ...). Used as the
            store file name and hashed into every point key.
        points: Grid builder; called with no arguments it returns the
            default grid, and its keywords narrow or reshape it.
        point: Picklable function of one grid coordinate returning
            either one row or (with ``flatten=True``) a list of rows.
        render: Rows-to-report function reproducing the experiment's
            printed table.
        flatten: Whether ``point`` returns a list of rows per
            coordinate (queries concatenate) rather than a single row.
    """

    name: str
    points: Callable[..., Sequence[Any]]
    point: Callable[[Any], Any]
    render: Callable[[List[Any]], str]
    flatten: bool = False
