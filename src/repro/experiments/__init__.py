"""Reproductions of the paper's evaluation (Section 5 + Section 7).

One module per figure/table. Each publishes a ``CAMPAIGN``
:class:`~repro.campaign.spec.CampaignSpec` — its grid (``points``), its
picklable point function, and ``render``, the text table with paper
reference points — and exposes ``run()`` returning typed rows. The
grid modules' ``run(jobs=None, **params)`` is :func:`spec_rows` over
that spec; ``meshslice run`` and ``meshslice campaign report`` both
render through ``CAMPAIGN.render``.
"""

from repro.experiments import (
    ablation_25d,
    ablation_3d,
    ablation_elastic,
    ablation_faults,
    ablation_inference,
    ablation_logical_mesh,
    ablation_recovery,
    ablation_sdc,
    ablation_unrolling,
    ablation_zoo,
    fig04_timelines,
    fig09_weak_scaling,
    fig10_comm_breakdown,
    fig11_matrix_shapes,
    fig12_strong_scaling,
    fig13_mesh_shapes,
    fig14_slice_counts,
    fig15_comm_model_accuracy,
    table2_dataflow_opt,
    table3_real_hw,
)
from repro.experiments.common import (
    ALL_ALGORITHMS,
    CLUSTER_SIZES,
    BlockRun,
    GridPointError,
    best_block_run,
    candidate_meshes,
    end_to_end_step_seconds,
    grid_map,
    pass_config,
    render_table,
    run_block,
    spec_rows,
    tuned_slices,
    weak_scaling_batch,
)

#: Experiment registry for the CLI: name -> module (must publish CAMPAIGN).
EXPERIMENTS = {
    "fig4": fig04_timelines,
    "fig9": fig09_weak_scaling,
    "fig10": fig10_comm_breakdown,
    "fig11": fig11_matrix_shapes,
    "fig12": fig12_strong_scaling,
    "fig13": fig13_mesh_shapes,
    "fig14": fig14_slice_counts,
    "fig15": fig15_comm_model_accuracy,
    "table2": table2_dataflow_opt,
    "table3": table3_real_hw,
    "ablation-2.5d": ablation_25d,
    "ablation-3d": ablation_3d,
    "ablation-elastic": ablation_elastic,
    "ablation-faults": ablation_faults,
    "ablation-inference": ablation_inference,
    "ablation-logical-mesh": ablation_logical_mesh,
    "ablation-recovery": ablation_recovery,
    "ablation-sdc": ablation_sdc,
    "ablation-unrolling": ablation_unrolling,
    "ablation-zoo": ablation_zoo,
}

__all__ = [
    "ALL_ALGORITHMS",
    "CLUSTER_SIZES",
    "BlockRun",
    "EXPERIMENTS",
    "GridPointError",
    "best_block_run",
    "candidate_meshes",
    "end_to_end_step_seconds",
    "grid_map",
    "pass_config",
    "render_table",
    "run_block",
    "spec_rows",
    "tuned_slices",
    "weak_scaling_batch",
]
