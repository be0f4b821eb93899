"""The campaign registry: every experiment's published spec.

Collected lazily from ``repro.experiments.EXPERIMENTS`` — every
experiment module publishes a module-level ``CAMPAIGN``
:class:`~repro.campaign.spec.CampaignSpec`, the one definition of its
grid that both ``meshslice run`` and the campaign runner map over
(see :func:`repro.experiments.common.spec_rows`). The import happens inside
the function, not at module import, so ``repro.campaign`` never drags
the whole experiment suite (and its numpy workloads) into processes
that only touch the store.
"""

from __future__ import annotations

from typing import Dict

from repro.campaign.spec import CampaignSpec

__all__ = ["campaign_names", "campaign_specs", "get_campaign"]


def campaign_specs() -> Dict[str, CampaignSpec]:
    """Every experiment's spec, keyed by experiment name."""
    from repro.experiments import EXPERIMENTS

    return {name: module.CAMPAIGN for name, module in EXPERIMENTS.items()}


def campaign_names() -> list:
    """Sorted names of every experiment."""
    return sorted(campaign_specs())


def get_campaign(name: str) -> CampaignSpec:
    """The spec of one experiment; ``KeyError`` names the options."""
    specs = campaign_specs()
    if name not in specs:
        raise KeyError(
            f"unknown campaign {name!r}; known: {', '.join(sorted(specs))}"
        )
    return specs[name]
