"""The Phase-2 mesh-search kernel and the searches built on it.

Every caller of :func:`repro.autotuner.search.mesh_search` must return
what an exhaustive scan in original candidate order returns when it
keeps the first strictly better candidate: the same winner, the same
time, bit for bit, whatever visit order or pruning the caller uses.
"""

import itertools
import math

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.autotuner import plan_model, robust_tune_model, tune_mesh
from repro.autotuner.search import cutoff_for, mesh_search
from repro.experiments import best_block_run, candidate_meshes, run_block
from repro.faults import FaultSpec
from repro.hw import TPUV4
from repro.mesh import mesh_shapes
from repro.models import LLMConfig
from repro.perf.pipeline import simulated_pass

#: Small enough that every algorithm searches in milliseconds.
TINY = LLMConfig(
    name="tiny-fc", num_layers=2, hidden=512, heads=4, head_dim=128,
    seq_len=256,
)

#: Divisible by 7, so the space-filling curve tiles a 7-chip cluster.
SEVENS = LLMConfig(
    name="sevens-fc", num_layers=2, hidden=896, heads=7, head_dim=128,
    seq_len=256,
)

#: (model, batch, chips): 48 has ragged (non-power-of-two)
#: factorizations, 7 and 13 are prime.
POINTS = (
    (TINY, 4, 16),
    (TINY, 4, 48),
    (TINY, 4, 13),
    (SEVENS, 14, 7),
)


def exhaustive_block_run(algorithm, plans, chips):
    """Simulate every candidate mesh; keep the first strictly faster."""
    best = None
    for mesh in candidate_meshes(algorithm, chips):
        try:
            run = run_block(algorithm, plans, mesh, TPUV4)
        except ValueError:
            continue
        if best is None or run.seconds < best.seconds:
            best = run
    return best


class TestBestBlockRunIsExhaustive:
    @pytest.mark.parametrize(
        "model,batch,chips", POINTS,
        ids=[f"{m.name}-{c}" for m, _b, c in POINTS],
    )
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_matches_exhaustive_scan(self, algorithm, model, batch, chips):
        plans = plan_model(model, model.tokens(batch))
        searched = best_block_run(
            algorithm, model, batch, chips, TPUV4, plans=plans
        )
        expected = exhaustive_block_run(algorithm, plans, chips)
        if expected is None:
            assert searched is None
            return
        assert searched.mesh == expected.mesh
        assert searched.seconds == expected.seconds
        assert [r.makespan for r in searched.results] == [
            r.makespan for r in expected.results
        ]
        assert searched.configs == expected.configs

    def test_sfc_searches_a_prime_count(self):
        # The only algorithm with a choice of mesh on a prime count; on
        # this point the later candidate wins.
        searching = {
            algorithm
            for algorithm in algorithm_names()
            if len(candidate_meshes(algorithm, 7)) > 1
        }
        assert searching == {"sfc"}
        best = best_block_run("sfc", SEVENS, 14, 7, TPUV4)
        assert best.mesh == candidate_meshes("sfc", 7)[1]


class TestTieBreak:
    #: Candidates 1 and 3 tie exactly for the fastest time.
    SECONDS = (5.0, 2.0, 3.0, 2.0, 4.0)

    def _search(self, order, prune):
        visited = []

        def evaluate(index, incumbent):
            visited.append(index)
            seconds = self.SECONDS[index]
            if (
                prune
                and incumbent is not None
                and seconds > cutoff_for(incumbent, index)
            ):
                return None
            return seconds, f"mesh-{index}"

        best = mesh_search(order, evaluate)
        assert sorted(visited) == list(range(len(self.SECONDS)))
        return best

    @pytest.mark.parametrize("prune", [False, True])
    def test_earlier_index_wins_in_every_order(self, prune):
        for order in itertools.permutations(range(len(self.SECONDS))):
            assert self._search(order, prune) == ((2.0, 1), "mesh-1")

    def test_later_tie_is_pruned_earlier_tie_is_not(self):
        assert cutoff_for((2.0, 1), 3) < 2.0
        assert cutoff_for((2.0, 1), 3) == math.nextafter(2.0, -math.inf)
        assert cutoff_for((2.0, 3), 1) == 2.0

    def test_no_result_when_every_candidate_declines(self):
        assert mesh_search(range(3), lambda index, incumbent: None) is None


class TestRobustTuneIsExhaustive:
    # 1dtp ignores the mesh shape: every candidate ties exactly.
    @pytest.mark.parametrize("algorithm", ["meshslice", "1dtp", "wang"])
    def test_null_spec_matches_exhaustive_scan(self, algorithm):
        result = robust_tune_model(
            TINY, 4, 16, TPUV4, spec=FaultSpec(), ensemble=2,
            algorithm=algorithm,
        )
        plans = plan_model(TINY, TINY.tokens(4))
        alg = get_algorithm(algorithm)
        best = None
        scored = {}
        for mesh in mesh_shapes(16, min_dim=2):
            tuned, _estimate = tune_mesh(plans, mesh, TPUV4)
            configs = [t.config(mesh) for t in tuned]
            if any(alg.check_support(cfg) for cfg in configs):
                continue
            seconds = sum(
                simulated_pass(algorithm, cfg, TPUV4).makespan
                for cfg in configs
            )
            scored[mesh.shape] = seconds
            if best is None or seconds < best[0]:
                best = (seconds, mesh, tuple(tuned))
        seconds, mesh, passes = best
        assert result.mesh == mesh
        assert result.robust_seconds == seconds
        assert result.passes == passes
        assert result.per_mesh_robust == scored
